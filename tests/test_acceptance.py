"""Acceptance suite: one test per gate criterion, each printing a
PASS/FAIL line with the measured figures (run with ``pytest -s`` to see
the lines as they complete).

Criterion 10 asserts concentration-trend separations of band-outlier
probabilities between degrees 6 and 12 at band 0.5 with 1e4 trials.  At
those settings the probabilities are about 1.6e-4 (max-modulus, N = 6)
and 8e-8 (circle average, N = 6), so a count of hits over 1e4 trials sees
one or two events or none, and its stderr cannot carry a two-pooled-stderr
separation.  The max-modulus and circle-average checks therefore use the
conditional Monte Carlo estimators (``*_probability`` in
``su2lab.montecarlo``): with ``alpha = R u``, ``R^2 ~ Gamma(N+1, 1)``
independent of the direction ``u``, each statistic is ``log R`` plus a
function of ``u``, so a trial's event probability given ``u`` is an exact
incomplete-gamma tail.  Averaging those is unbiased for the same
probability and never has more variance than the frequency.  Trials,
bands, seeds and the separation rule are the pinned ones; agreement with
the frequencies where plain Monte Carlo resolves is checked in
``TestConditionalEstimators`` in tests/test_montecarlo.py.
"""

import math
import time

import numpy as np
import pytest
from conftest import match_max_distance, run_cli

from su2lab import model, montecarlo as mc, zeros
from su2lab.model import SU2Polynomial

SEED = 20260811
WORKERS = mc.default_workers()


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_poly(rng, degree):
    a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return SU2Polynomial(degree, a / math.sqrt(2.0))


@pytest.fixture(scope="module")
def hole_grid():
    """Hole estimates shared by criteria 8(b) and 9: r = 0.5 ladder with
    at least 1e5 trials per degree (more where events are rare)."""
    grid = [(4, 100000), (8, 200000), (12, 500000), (16, 2000000)]
    t0 = time.monotonic()
    out = {}
    for degree, trials in grid:
        plan = mc.TrialPlan(degree, 0.5, trials, SEED, workers=WORKERS)
        out[(degree, 0.5)] = mc.estimate_hole_probability(plan)
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_1_expected_zero_count():
    t0 = time.monotonic()
    est_a = mc.estimate_zero_count_mean(
        mc.TrialPlan(10, 1.0, 2000, SEED + 1, workers=WORKERS))
    est_b = mc.estimate_zero_count_mean(
        mc.TrialPlan(20, 0.5, 2000, SEED + 2, workers=WORKERS))
    elapsed = time.monotonic() - t0
    ok = (abs(est_a.point - 5.0) <= 3 * est_a.stderr
          and abs(est_b.point - 4.0) <= 3 * est_b.stderr
          and elapsed < 60.0)
    report("1 (expected zero count)", ok,
           f"N=10,r=1: {est_a.point:.3f}+/-{est_a.stderr:.3f} vs 5.0; "
           f"N=20,r=0.5: {est_b.point:.3f}+/-{est_b.stderr:.3f} vs 4.0; "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_2_degree_one_hole():
    t0 = time.monotonic()
    est = mc.estimate_hole_probability(
        mc.TrialPlan(1, 1.0, 100000, SEED + 3, workers=WORKERS))
    elapsed = time.monotonic() - t0
    ok = abs(est.point - 0.5) <= 3 * est.stderr and elapsed < 10.0
    report("2 (N=1 hole probability)", ok,
           f"{est.point:.4f}+/-{est.stderr:.4f} vs analytic 0.5; "
           f"{elapsed:.1f}s (<10s)")


def test_criterion_3_jensen_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        n = int(rng.integers(1, 51))
        p = random_poly(rng, n)
        if abs(p.coefficients[0]) <= 1e-12 * np.abs(p.coefficients).max():
            continue
        zs = zeros.find_all_roots(p)
        if np.min(np.abs(np.abs(zs.locations) - 1.0)) < 1e-3:
            continue
        worst = max(worst, zeros.jensen_residual(p, 1.0))
        accepted += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report("3 (Jensen identity)", ok,
           f"worst residual {worst:.2e} over 100 instances (<=1e-6); "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_4_orthonormality():
    n = 10
    basis = [SU2Polynomial(n, np.eye(n + 1)[j]) for j in range(n + 1)]
    gram_dev = max(
        abs(model.fs_inner_product(basis[j], basis[k], n) - (1.0 if j == k else 0.0))
        for j in range(n + 1)
        for k in range(n + 1)
    )
    beta_dev = 0.0
    for nn in (5, 17, 40):
        for j in range(nn + 1):
            mono = SU2Polynomial(j, np.eye(j + 1)[j])
            val = model.fs_inner_product(mono, mono, nn).real
            target = 1.0 / math.comb(nn, j)
            beta_dev = max(beta_dev, abs(val - target) / target)
    ok = gram_dev <= 1e-10 and beta_dev <= 1e-10
    report("4 (orthonormality)", ok,
           f"gram deviation {gram_dev:.2e} (<=1e-10); "
           f"Beta-norm deviation {beta_dev:.2e} (<=1e-10)")


def test_criterion_5_recentering_identity():
    rng = np.random.default_rng(SEED + 5)
    worst_res = 0.0
    worst_unitarity = 0.0
    for zeta in (0.5 + 0.0j, 0.7 + 0.2j):
        for n in (1, 9, 21, 30):
            u = model.basis_change_matrix(n, zeta).matrix
            worst_unitarity = max(
                worst_unitarity,
                float(np.max(np.abs(u.conj().T @ u - np.eye(n + 1)))),
            )
            p = random_poly(rng, n)
            pts = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            pts = 2.0 * pts / np.max(np.abs(pts))
            worst_res = max(worst_res, model.eq2_identity_residual(p, zeta, pts))
    ok = worst_res <= 1e-8 and worst_unitarity <= 1e-10
    report("5 (coefficient recentering)", ok,
           f"identity residual {worst_res:.2e} (<=1e-8); "
           f"unitarity {worst_unitarity:.2e} (<=1e-10)")


def test_criterion_6_reversal_duality():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        n = int(rng.integers(1, 31))
        p = random_poly(rng, n)
        fwd = zeros.find_all_roots(p).locations
        if np.min(np.abs(fwd)) < 1e-6:
            continue
        rev = zeros.find_all_roots(model.reverse_coefficients(p)).locations
        worst = max(worst, match_max_distance(rev, 1.0 / fwd))
        accepted += 1
    ok = worst <= 1e-8
    report("6 (reversal duality)", ok,
           f"worst matched root-map distance {worst:.2e} over 100 instances (<=1e-8)")


def test_criterion_7_cross_oracle_counts():
    rng = np.random.default_rng(SEED + 7)
    radii = (0.5, 1.0, 2.0)
    mismatches = 0
    accepted = 0
    while accepted < 200:
        n = int(rng.integers(1, 51))
        p = random_poly(rng, n)
        r = radii[accepted % 3]
        zs = zeros.find_all_roots(p)
        by_roots = zeros.count_zeros_from_roots(zs, zeros.Disk(0.0, r))
        if by_roots.near_boundary:
            continue
        try:
            by_phase = zeros.count_zeros_argument_principle(p, zeros.Disk(0.0, r))
        except zeros.ContourError:
            continue
        # third oracle where it certifies (N <= SCHUR_COHN_MAX_DEGREE)
        b, _ = zeros._circle_fourier_coeffs(p.coefficients[None], n, r)
        by_schur, certified = zeros._batch_schur_cohn(b, r)
        if by_phase.count != by_roots.count or (
                certified[0] and by_schur[0] != by_roots.count):
            mismatches += 1
        accepted += 1
    ok = mismatches == 0
    report("7 (cross-oracle zero counting)", ok,
           f"{mismatches} mismatches over 200 instances (0 allowed)")


def test_criterion_8_omega_lower_bound(hole_grid):
    exact = mc.omega_lower_bound(1, 1.0)
    want = math.log(math.exp(-1.0) * (1.0 - math.exp(-1.0)))
    part_a = abs(exact - want) <= 1e-12

    est1 = mc.estimate_hole_probability(
        mc.TrialPlan(1, 1.0, 100000, SEED + 8, workers=WORKERS))
    tested = [((1, 1.0), est1)] + [
        (key, est) for key, est in hole_grid.items() if key != "elapsed"
    ]
    part_b = all(
        est.point >= math.exp(mc.omega_lower_bound(n, r)) - 3 * est.stderr
        for (n, r), est in tested
    )

    ratios = {}
    points = []
    for n in range(10, 51, 10):
        lp = mc.omega_lower_bound(n, 1.0)
        ratios[n] = -lp / (n * n)
        points.append((n, lp))
    window_hi = {n: 1.0 + math.log(2.0) + 1.0 / (12 * n) + 0.01 for n in ratios}
    part_c_window = all(1.0 <= ratios[n] <= window_hi[n] for n in ratios)
    fit = mc.fit_decay_exponent(points)
    part_c = part_c_window and fit.r_squared >= 0.999

    ok = part_a and part_b and part_c
    report("8 (explicit-event lower bound)", ok,
           f"exact gap {abs(exact - want):.1e} (<=1e-12); "
           f"dominance on {len(tested)} grid points: {part_b}; "
           f"ratio window: {part_c_window}, fit R^2={fit.r_squared:.6f} (>=0.999)")


def test_criterion_9_decay_scaling(hole_grid):
    points = []
    dropped = []
    for (n, _r), est in ((k, v) for k, v in hole_grid.items() if k != "elapsed"):
        if est.point > 0:
            points.append((n, math.log(est.point)))
        else:
            dropped.append(n)
    fit = mc.fit_decay_exponent(points)
    elapsed = hole_grid["elapsed"]
    ok = fit.r_squared >= 0.9 and elapsed < 600.0
    report("9 (hole decay scaling)", ok,
           f"fit over N^2 on {len(points)} points (dropped {dropped}): "
           f"R^2={fit.r_squared:.4f} (>=0.9), c_hat={fit.c_hat:.4f}; "
           f"{elapsed:.0f}s (<600s)")


def test_criterion_10_deviation_trend():
    small = mc.estimate_deviation_probability(
        mc.TrialPlan(6, 1.0, 10000, SEED + 9, workers=WORKERS), 0.3)
    large = mc.estimate_deviation_probability(
        mc.TrialPlan(12, 1.0, 10000, SEED + 9, workers=WORKERS), 0.3)
    pooled = math.hypot(small.stderr, large.stderr)
    ok = large.point < small.point and small.point - large.point >= 2 * pooled
    report("10 (zero-count deviation trend, delta=0.3, 6->12)", ok,
           f"freq {small.point:.4f} -> {large.point:.4f}, "
           f"2*pooled={2 * pooled:.4f}")


def test_criterion_10_max_modulus_trend_and_bound():
    small = mc.max_modulus_outlier_probability(
        mc.TrialPlan(6, 1.0, 10000, SEED + 10, workers=WORKERS), 0.5)
    large = mc.max_modulus_outlier_probability(
        mc.TrialPlan(12, 1.0, 10000, SEED + 10, workers=WORKERS), 0.5)
    at50 = mc.max_modulus_outlier_probability(
        mc.TrialPlan(50, 1.0, 10000, SEED + 11, workers=WORKERS), 0.5)
    pooled = math.hypot(small.stderr, large.stderr)
    bound_ok = at50.point < 0.05
    trend_ok = large.point < small.point and small.point - large.point >= 2 * pooled
    report("10 (max-modulus trend delta=0.5, 6->12; N=50 bound)",
           trend_ok and bound_ok,
           f"conditional prob {small.point:.2e} -> {large.point:.2e}, "
           f"2*pooled={2 * pooled:.2e}; N=50 prob "
           f"{at50.point:.4f} (<0.05: {bound_ok})")


def test_criterion_10_circle_average_trend():
    small = mc.circle_average_lower_tail_probability(
        mc.TrialPlan(6, 1.0, 10000, SEED + 12, workers=WORKERS), 0.5)
    large = mc.circle_average_lower_tail_probability(
        mc.TrialPlan(12, 1.0, 10000, SEED + 12, workers=WORKERS), 0.5)
    pooled = math.hypot(small.stderr, large.stderr)
    ok = large.point < small.point and small.point - large.point >= 2 * pooled
    report("10 (circle-average lower tail trend, Delta=0.5, 6->12)", ok,
           f"conditional prob {small.point:.2e} -> {large.point:.2e}, "
           f"2*pooled={2 * pooled:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    argv_json = ["hole", "-N", "2", "-r", "1", "--trials", "6000",
                 "--seed", "17", "--format", "json"]
    outs = []
    for workers in ("1", "2", "1"):
        _, out = run_cli(argv_json + ["--workers", workers])
        outs.append(out)
    json_ok = outs[0] == outs[1] == outs[2]

    argv_csv = ["mean-zeros", "-N", "8", "-r", "1", "--trials", "4000",
                "--seed", "23", "--format", "csv"]
    _, csv1 = run_cli(argv_csv + ["--workers", "1"])
    _, csv2 = run_cli(argv_csv + ["--workers", "2"])
    csv_ok = csv1 == csv2

    _, s1 = run_cli(["sample", "-N", "30", "--seed", "4"])
    _, s2 = run_cli(["sample", "-N", "30", "--seed", "4"])
    ok = json_ok and csv_ok and s1 == s2
    report("11 (CLI determinism)", ok,
           f"json identical across reruns/workers: {json_ok}; "
           f"csv identical across workers: {csv_ok}; sample identical: {s1 == s2}")
