#!/bin/sh
# Write the 15 byte-identity outputs of the Monte Carlo estimators, each at
# --workers 1 and 2, 8 one-polynomial outputs (Aberth roots for
# N in {12, 50, 200} and seeds 1 and 2, and for N = 600, seed 1, a row
# that splits both the Horner pass into spans and the pairwise fold into
# chunks of j at the default _SWEEP_CHUNK; and one zero count from the
# roots at N = 200), the orthonormality checks at N = 10 and the verify
# suite as JSON, and the five concentration estimates (three *_frequency, two
# *_probability) of `concentration --grid 10,40` at r = 1, 8192 trials,
# seed 6, as JSON and as CSV, each at --workers 1 and 2, into OUTDIR: one
# file per run.  Three more kinds of file pin the winding counter, which
# no CLI output covers: the sha256 of the per-trial counts and failure
# flags of `zero_count_samples` at N = 50, r = 1, 16384 trials, seed 7, at
# --workers 1 and 2; the off-center counts (or "refused") of
# `count_zeros_argument_principle` on Disk(0.3+0.2j, 0.7) for the N = 200
# polynomials of seeds 0-199; and the counts (or "x", refused) of
# `_batch_winding` on the Fourier rows of 2,400 constructed polynomials at
# N in {8, 30, 60, 100} and
# r in {0.5, 1, 2}, each with 1-3 zeros 1e-13 to 1e-3 from |z| = r and
# 1e-4 to 1e-2 rad apart.  One more pins the one-row circle means:
# `circle_log_integral` and `circle_abs_log_integral` at r = 1 of the
# N = 200 polynomials of seeds 0-199, each as float.hex, or "refused" with
# the best estimate and the gap.  One more pins the boundary maximum:
# `max_modulus_boundary` at r = 1 of the same polynomials (log value and
# argmax, as float.hex); the sha256 of both outputs of
# `_batch_boundary_log_max` (log max |psi| and the angles) on the Fourier
# rows of 4096-row blocks at N in {1, 2, 3, 10, 40, 100} and r in
# {0.5, 1, 2}; and its outputs, as float.hex, on the rows 1 + z^N and
# 1 + z^(N/2) + z^N, whose peaks tie, read at log scale 0 (log max
# |psi_hat|).  One more pins the Schur-Cohn kernel: the sha256 of
# `_batch_schur_cohn`'s counts and certified flags, of
# `_schur_cohn_steps`' trail and lead (as (rows, N), C-order) and of its
# log floor, on the Fourier rows of 4096-row blocks at N in {0, 1, 2, 3,
# 4, 8, 12, 16, 24, 32} and r in {0.05, 0.5, 1, 2, 20}, and on two
# constructed blocks: degree 0 with a null row, and 1 + z^2 (F = 0), a
# null row and 1 + z^2/4 at r = 1.  Two of the
# estimator outputs pin degree 0, which runs the same counting cascade as
# every other degree: `hole --grid 0,1` and `mean-zeros -N 0` at r = 1,
# 9000 trials, seed 8, as JSON.  Two pin a deviation ladder, which counts
# both degrees from one draw of each block: `deviation --grid 10,50` at
# r = 1, delta 0.2, 4000 trials, seed 5, as JSON, at --workers 1 and 2.
# The last ten pin the record shapes and the decay fit: single-row JSON
# records of `hole -N 4` and `deviation -N 10`, and `fit-decay --grid
# 2,4,6` (each at --workers 1 and 2), `fit-decay` on
# the r = 0.5, seed 2 hole file (whose N = 16 row has point 0 and is
# dropped), `omega-bound` for one degree and for a grid, and
# `count -N 200` as JSON: 63 files in all.
#
# The outputs are a pure function of argv, and JSON and CSV write every
# float exactly (as repr), so two checkouts that agree on every estimate,
# root, residual and count give directories that `diff -r` finds equal:
#
#     scripts/identity_outputs.sh /tmp/ids-new
#     /path/to/other/checkout/scripts/identity_outputs.sh /tmp/ids-old
#     diff -r /tmp/ids-old /tmp/ids-new
#
# The package is imported from the src/ directory next to this script.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"

su2lab() {
    PYTHONPATH="$root/src" python3 -m su2lab "$@"
}

for w in 1 2; do
    for r in 0.5 1 2; do
        for s in 1 2 3; do
            su2lab hole --grid 1,2,4,8,12,16 -r "$r" --trials 100000 --seed "$s" \
                --format json --workers "$w" > "$out/hole_r${r}_s${s}_w${w}.json"
        done
    done
    for n in 10 50; do
        su2lab mean-zeros -N "$n" -r 1 --trials 2000 --seed 4 --workers "$w" \
            > "$out/mean-zeros_N${n}_w${w}.csv"
        su2lab deviation -N "$n" -r 1 --delta 0.2 --trials 4000 --seed 5 --workers "$w" \
            > "$out/deviation_N${n}_w${w}.csv"
    done
    su2lab hole --grid 0,1 -r 1 --trials 9000 --seed 8 --format json \
        --workers "$w" > "$out/hole_N0_w${w}.json"
    su2lab mean-zeros -N 0 -r 1 --trials 9000 --seed 8 --format json \
        --workers "$w" > "$out/mean-zeros_N0_w${w}.json"
    su2lab hole -N 4 -r 0.5 --trials 20000 --seed 9 --format json \
        --workers "$w" > "$out/hole_N4_w${w}.json"
    su2lab deviation -N 10 -r 1 --delta 0.2 --trials 4000 --seed 5 --format json \
        --workers "$w" > "$out/deviation_N10_w${w}.json"
    su2lab deviation --grid 10,50 -r 1 --delta 0.2 --trials 4000 --seed 5 --format json \
        --workers "$w" > "$out/deviation_grid_w${w}.json"
    su2lab fit-decay --grid 2,4,6 -r 0.5 --trials 20000 --seed 3 --format json \
        --workers "$w" > "$out/fit-decay_grid_w${w}.json"
    su2lab concentration --grid 10,40 -r 1 --trials 8192 --seed 6 --format json \
        --workers "$w" > "$out/concentration_w${w}.json"
    su2lab concentration --grid 10,40 -r 1 --trials 8192 --seed 6 \
        --workers "$w" > "$out/concentration_w${w}.csv"
    PYTHONPATH="$root/src" python3 - "$w" > "$out/winding_N50_w${w}.txt" <<'PY'
import hashlib
import sys

from su2lab import montecarlo as mc

plan = mc.TrialPlan(50, 1.0, 16384, 7, workers=int(sys.argv[1]))
counts, failed = mc.zero_count_samples(plan)
print("counts", counts.dtype, counts.sum(), hashlib.sha256(counts.tobytes()).hexdigest())
print("failed", failed.dtype, failed.sum(), hashlib.sha256(failed.tobytes()).hexdigest())
PY
done
PYTHONPATH="$root/src" python3 - > "$out/off_center_N200.txt" <<'PY'
from su2lab import model, zeros
from su2lab.rng import RngSeed

disk = zeros.Disk(0.3 + 0.2j, 0.7)
for seed in range(200):
    poly = model.sample_polynomial(200, RngSeed(seed, 0))
    try:
        count = zeros.count_zeros_argument_principle(poly, disk).count
    except zeros.ContourError:
        count = "refused"
    print(seed, count)
PY
PYTHONPATH="$root/src" python3 - > "$out/winding_near_contour.txt" <<'PY'
import numpy as np

from su2lab import model, zeros

rng = np.random.default_rng(11)
for n in (8, 30, 60, 100):
    for r in (0.5, 1.0, 2.0):
        rows = []
        for _ in range(200):
            k = int(rng.integers(1, 4))
            w = rng.standard_normal(n + 1 - k) + 1j * rng.standard_normal(n + 1 - k)
            angle = 2.0 * np.pi * rng.uniform()
            for _ in range(k):
                dist = rng.choice((-1, 1)) * 10 ** rng.uniform(-13, -3)
                w = np.convolve(w, [-(r + dist) * np.exp(1j * angle), 1.0])
                angle += rng.choice((-1, 1)) * 10 ** rng.uniform(-4, -2)
            rows.append(w * np.exp(-model._log_weights(n)))
        counts, ok = zeros._batch_winding(zeros._circle_fourier_coeffs(np.array(rows), n, r)[0], r)
        print(n, r, "refused", int((~ok).sum()), *(c if good else "x" for c, good in zip(counts, ok)))
PY
PYTHONPATH="$root/src" python3 - > "$out/circle_means_N200.txt" <<'PY'
from su2lab import model, zeros
from su2lab.rng import RngSeed

for seed in range(200):
    poly = model.sample_polynomial(200, RngSeed(seed, 0))
    line = [str(seed)]
    for integral in (zeros.circle_log_integral, zeros.circle_abs_log_integral):
        try:
            line.append(integral(poly, 1.0).hex())
        except zeros.QuadratureError as exc:
            line += ["refused", exc.best_estimate.hex(), exc.gap.hex()]
    print(*line)
PY
PYTHONPATH="$root/src" python3 - > "$out/boundary_max.txt" <<'PY'
import hashlib

import numpy as np

from su2lab import model, zeros
from su2lab.rng import RngSeed, gaussian_matrix

for seed in range(200):
    mm = zeros.max_modulus_boundary(model.sample_polynomial(200, RngSeed(seed, 0)), 1.0)
    print(seed, mm.log_value.hex(), mm.argmax.real.hex(), mm.argmax.imag.hex())
for n in (1, 2, 3, 10, 40, 100):
    alpha = gaussian_matrix(12, np.arange(4096, dtype=np.uint64), n + 1)
    for r in (0.5, 1.0, 2.0):
        log_max, theta = zeros._batch_boundary_log_max(*zeros._circle_fourier_coeffs(alpha, n, r))
        print(n, r, hashlib.sha256(log_max.tobytes()).hexdigest(),
              hashlib.sha256(theta.tobytes()).hexdigest())
for n in (2, 4, 10, 40, 100, 200):
    tied = np.zeros((2, n + 1), dtype=complex)
    tied[:, 0] = tied[:, n] = 1.0
    tied[1, n // 2] += 1.0
    for r in (0.5, 1.0, 2.0):
        b, _ = zeros._circle_fourier_coeffs(tied, n, r)
        log_max, theta = zeros._batch_boundary_log_max(b, np.zeros(len(b)))
        print(n, r, *(float(v).hex() for v in (*log_max, *theta)))
PY
PYTHONPATH="$root/src" python3 - > "$out/schur_cohn.txt" <<'PY'
import hashlib

import numpy as np

from su2lab import zeros
from su2lab.rng import gaussian_matrix


def sha(*arrays):
    # tobytes() lays every array out C-order, so a (rows, N) view of an
    # (N, rows) array hashes as its (rows, N) copy does
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def show(label, b, r):
    counts, certified = zeros._batch_schur_cohn(b, r)
    trail, lead, log_floor = zeros._schur_cohn_steps(b)
    print(label, r, int(certified.sum()), sha(counts, certified),
          sha(trail, lead), sha(log_floor))
    return counts, certified


for n in (0, 1, 2, 3, 4, 8, 12, 16, 24, 32):
    alpha = gaussian_matrix(12, np.arange(4096, dtype=np.uint64), n + 1)
    for r in (0.05, 0.5, 1.0, 2.0, 20.0):
        show(n, zeros._circle_fourier_coeffs(alpha, n, r)[0], r)
for alpha, n, r in (([[2.0 + 1j], [0.0]], 0, 0.7),
                    ([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.25]], 2, 1.0)):
    counts, certified = show("rows", zeros._circle_fourier_coeffs(np.array(alpha), n, r)[0], r)
    print(*counts, *certified)
PY
for n in 12 50 200; do
    for s in 1 2; do
        su2lab roots -N "$n" --seed "$s" --format json > "$out/roots_N${n}_s${s}.json"
    done
done
su2lab roots -N 600 --seed 1 --format json > "$out/roots_N600_s1.json"
su2lab count -N 200 -r 1 --seed 1 > "$out/count_N200.csv"
su2lab count -N 200 -r 1 --seed 1 --format json > "$out/count_N200.json"
# relative, so the echoed file name is the same in every OUTDIR
(cd "$out" && su2lab fit-decay hole_r0.5_s2_w1.json --format json > fit-decay_file.json)
su2lab omega-bound -N 3 -r 0.5 --format json > "$out/omega-bound_N3.json"
su2lab omega-bound --grid 1,2,3 -r 0.5 --format json > "$out/omega-bound_grid.json"
su2lab orthonormality -N 10 --format json > "$out/orthonormality_N10.json"
su2lab verify --format json > "$out/verify.json"
