"""Zero sets of SU(2) polynomials and the circle-average machinery.

Root finding is simultaneous Aberth-Ehrlich iteration over all roots at
once (D. A. Bini, Numer. Algorithms 13 (1996)).  A sweep works on the
flat list of roots still moving, across all rows.  Apart from chunking,
its numpy calls do not grow with the number of rows, and grow with N only
through Horner's N + 1 steps:

- the pairwise sums sum_j 1/(z_i - z_j) are one fold over a (j, root)
  array; numpy adds along an axis that is not its inner loop one term
  after another, so each sum keeps the order, and the bits, of a loop
  over j;
- each Newton step p/p' takes one Horner pass (``_horner``, the one
  evaluation off the FFT grids, which winding and the boundary maximum
  share) of two ufunc calls per coefficient, on the direct coefficients
  at z when |z| <= 1 and on the reversed ones at 1/z otherwise, so no
  value overflows;
- both work in chunks of at most ``_SWEEP_CHUNK`` complex elements, which
  bounds the memory of a sweep at any N.

Zero counts in a disk come from three independent kernels, which the test
suite cross-checks:

- roots: count the Aberth roots inside the disk;
- winding: track the phase of the polynomial around a centered circle,
  from the Fourier row of its normalized values there; a disk off the
  origin is a spherical cap, which one rotation of the sphere centers.
  Each row takes one FFT grid, and a derivative grid only where the
  Bernstein bound |psi_hat'| <= sum k |b_k| cannot rule out the Newton
  margin test; the rough intervals of the whole batch are then bisected
  together, as one flat list, one value-only Horner pass per round;
- Schur-Cohn: run the Schur-Cohn recursion on the coefficients of
  psi(r z), N vectorized steps with no FFT and no roots.  A row counts
  only when every step's decisive gap clears ``SCHUR_COHN_MIN_GAP``,
  N <= ``SCHUR_COHN_MAX_DEGREE`` and the recursion's floor on |psi| over
  the circle proves no zero lies within the boundary margin of the
  contour; other rows fall back to winding.

All boundary evaluations use the spherically normalized values
``psi(z)/(1+|z|^2)^(N/2)``; the positive normalization never changes a
phase or a zero.  The four circle kernels (Schur-Cohn, winding, circle
means, boundary maximum) read the Fourier rows of those values, which
``_circle_fourier_coeffs`` builds once per block, with the one log scale
that the log kernels add back; none takes coefficients.  Their magnitudes
stay in double range for any finite row through the range rule of
``_in_range``, by which every circle row and the off-center count's moved
row are made; a row that underflows below the rule's band is rebuilt from
logs.  The circle means and the boundary maximum sample one first grid,
of ``_circle_nodes`` angles.  The boundary maximum refines its best peaks
by safeguarded Newton on the derivative of |psi_hat|^2, one Horner pass
per round.  The circle means find the zeros near the circle by Newton
from its lowest minima, in the same kind of pass, and divide them out of
the trapezoid.

Batch variants (leading underscore) operate on ``(trials, N+1)`` blocks of
rows and are the engines behind the Monte Carlo layer; the public
single-polynomial operations run through the same code with a one-row
batch, winding at any disk center included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SU2Polynomial,
    _check_finite,
    _check_radius,
    _log1p_square,
    _log_normalization,
    _log_weights,
    _weights,
    evaluate_normalized,
)
from .rng import _check_int

__all__ = [
    "Disk",
    "ZeroSet",
    "ZeroCount",
    "BoundaryMaximum",
    "RootFindingError",
    "ContourError",
    "QuadratureError",
    "find_all_roots",
    "count_zeros_from_roots",
    "count_zeros_argument_principle",
    "circle_log_integral",
    "circle_abs_log_integral",
    "jensen_residual",
    "max_modulus_boundary",
    "poisson_kernel",
    "poisson_partition_deviation",
    "poisson_log_average",
]

TINY_SAMPLE = 1e-290  # boundary samples below this get locally subdivided
DEFAULT_BOUNDARY_MARGIN = 1e-9
DEFAULT_QUADRATURE_TARGET = 1e-9
NODE_CAP = 1 << 20
TRUNCATION_RATIO = 1e-14  # leading coefficients below this ratio are dropped
_WINDING_SAMPLES = 16  # initial winding samples per unit of N + 1
_MAX_REFINEMENTS = 20  # bisection rounds of the rough winding intervals
_GRID_CHUNK = 1 << 15  # FFT-grid samples per chunk of winding, circle-mean or scan rows
_PRECISION_FLOOR = 1e4 * np.finfo(float).eps  # share of sum |b_k| a winding sample must clear
_SWEEP_CHUNK = 1 << 17  # complex elements per Aberth pairwise-sum chunk or Horner span buffer
_ABERTH_TOL = 1e-13  # a root freezes once its step is below this, relative to 1 + |z|
_ABERTH_MAX_SWEEPS = 500
_ABERTH_POLISH = 2  # Newton steps on every root after the sweeps
_NEWTON_TOL = 1e-10  # a boundary-maximum angle freezes once its Newton step is below this
_NEWTON_ROUNDS = 100  # cap on the safeguarded Newton rounds of one angle
_NEAR_BAND = 0.1  # circle means divide out the zeros with ||w|/r - 1| below this
_ZERO_NEWTON_TOL = 2.0**-40  # a near-circle zero freezes once its Newton step is below this, relative
_ZERO_NEWTON_ROUNDS = 20  # cap on the Newton rounds of one near-circle zero

# Schur-Cohn certification rule (see _batch_schur_cohn).  Calibration: the
# recursion rerun in clongdouble on the same inputs, 3 x 8192 sampled rows
# per setting.  "err" is the worst error of a normalized |a_0| or |a_d| on
# rows that clear the gap rule, "gap" the share of rows the gap rule
# refuses, "all" the share left to winding once the floor must also clear
# the default boundary margin:
#
#        r = 0.5                 r = 1                   r = 2
#   N    err      gap     all    err      gap     all    err      gap     all
#   4    5.2e-14  0       0      5.9e-11  0.008%  0.008% 4.4e-14  0       0
#   8    3.9e-12  0       0      6.3e-11  0       0.008% 2.4e-12  0       0
#   10   1.1e-10  0       0      5.5e-10  0       0.11%  1.6e-12  0       0.004%
#   12   1.5e-11  0.004%  0.008% 4.6e-10  0.004%  0.89%  3.7e-11  0       0.012%
#   16   6.7e-11  0       0.069% 4.8e-10  0.020%  12%    1.1e-10  0       0.081%
#   24   1.4e-10  0.008%  2.2%   3.8e-09  0.057%  95%    1.1e-09  0       2.0%
#   32   4.9e-10  0.004%  27%    4.6e-10  0.83%   100%   3.8e-09  0.012%  25%
#
# Every certified step's error is below 3.3e-6 of that step's own gap, so
# no flip decision is in doubt; the log of the margin floor is off by at
# most 3.7e-6, against the factor of 2 it is given.  The floor is loose
# (it multiplies N per-step bounds), which is what sends most rows at
# N >= 24, r = 1 to winding.  Past the cap the recursion loses the sign:
# at N = 50, r = 0.5 the error reaches 1.3e-7, above the threshold, and at
# N = 100 it is 2e-2; at N = 50, r = 1 gaps fall to 4e-13 and 99 % of rows
# would fall back anyway.
SCHUR_COHN_MIN_GAP = 1e-7
SCHUR_COHN_MAX_DEGREE = 32


class RootFindingError(RuntimeError):
    """Aberth iteration failed to converge; carries the number of roots of
    the unconverged row, not the roots themselves."""

    def __init__(self, unconverged: int):
        self.unconverged = unconverged
        super().__init__(f"{unconverged} roots unconverged after max sweeps")


class ContourError(RuntimeError):
    """A zero sits on or too close to the integration contour."""


class QuadratureError(RuntimeError):
    """Circle average failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate, gap):
        self.best_estimate = best_estimate
        self.gap = gap
        super().__init__(f"{message} (best estimate {best_estimate}, gap {gap})")


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError("disk center must be finite")
        _check_radius(self.radius)


@dataclass(frozen=True)
class ZeroSet:
    """All located roots plus the count lost to leading-coefficient decay."""

    locations: np.ndarray
    residuals: np.ndarray
    degree_deficit: int
    degree: int

    def __post_init__(self):
        if len(self.locations) + self.degree_deficit != self.degree:
            raise ValueError("located roots plus deficit must equal the degree")


@dataclass(frozen=True)
class ZeroCount:
    count: int
    method: str  # "from_roots" | "argument_principle"
    near_boundary: int = 0


@dataclass(frozen=True)
class BoundaryMaximum:
    log_value: float
    value: float  # exp(log_value), inf when not representable
    argmax: complex


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _circle_nodes(n1: int) -> int:
    """Nodes of the first circle grid of a row of ``n1`` Fourier entries,
    which the circle means, the boundary scan and the Poisson average all
    start from: max(128, next_pow2(8 n1)), a power of two, so the unscaled
    inverse FFT (``norm="forward"``) equals ifft * M bit for bit."""
    return max(128, _next_pow2(8 * n1))


def _log_abs(v: np.ndarray) -> np.ndarray:
    """log|v| with |v| floored at 1e-300, so a zero gives a finite log."""
    mag = np.abs(v)
    np.maximum(mag, 1e-300, out=mag)
    return np.log(mag, out=mag)


# ---------------------------------------------------------------------------
# boundary evaluation engines


def _in_range(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The range rule: ``(b, shift)``, each row (last axis) whose largest
    real or imaginary part lies outside [2^-400, 2^400] divided exactly by
    2^e, e that part's exponent, and shift e there, 0 on rows left as they
    are.  The band keeps every product of two samples and every Horner or
    Bernstein sum in range for N below about 1e30, and every Gaussian row
    inside it: log kernels add shift log 2, counts do not depend on scale."""
    big = np.maximum(np.abs(b.real), np.abs(b.imag)).max(axis=-1)
    shift = np.where((big < 2.0**-400) | (big > 2.0**400), np.frexp(big)[1], 0)
    if shift.any():
        b = np.ldexp(b.real, -shift[..., None]) + 1j * np.ldexp(b.imag, -shift[..., None])
    return b, shift


def _circle_fourier_coeffs(alpha: np.ndarray, degree: int, r: float):
    """The Fourier rows of psi on |z| = r, which every circle kernel reads:
    ``(b, log_scale)`` with

        log|psi(r e^{i theta})| = log|sum_k b_k e^{i k theta}| + log_scale.

    ``alpha`` is ``(..., N+1)``; so is ``b``, and ``log_scale`` has its
    leading shape.  Entry j equals 2^-shift ``alpha_j sqrt(C(N,j)) r^j /
    (1+r^2)^(N/2)``, its scale assembled in log space, with shift that of
    the range rule ``_in_range``; ``log_scale`` is (N/2) log(1+r^2) +
    shift log 2.  A row whose product has its largest part below 2^-400,
    or underflows to zero while alpha does not, has lost bits to
    underflow: it is rebuilt from log|alpha_j| plus the log scale, at
    shift e with its largest entry in [1/2, 1) (up to rounding).
    """
    n = degree
    j = np.arange(n + 1)
    log_norm = _log_normalization(n, r)
    log_entry = _log_weights(n) + j * math.log(r) - log_norm
    b, shift = _in_range(alpha * np.exp(log_entry))
    low = (shift < 0) | (~b.any(axis=-1) & alpha.any(axis=-1))
    if low.any():
        a = alpha[low]
        # an entry whose largest part is subnormal is scaled by 2^-e_a into
        # the normal range: its modulus keeps its bits and 1/|a| stays finite
        big = np.maximum(np.abs(a.real), np.abs(a.imag))
        e_a = np.where(big < np.finfo(float).tiny, np.frexp(big)[1], 0)
        a = np.ldexp(a.real, -e_a) + 1j * np.ldexp(a.imag, -e_a)
        mag = np.abs(a)
        with np.errstate(divide="ignore"):
            logs = np.log(mag) + e_a * math.log(2.0) + log_entry
        e = np.floor(logs.max(axis=-1) / math.log(2.0)) + 1.0
        unit = np.divide(a, mag, out=np.zeros_like(a), where=mag > 0)
        b[low] = unit * np.exp(logs - e[:, None] * math.log(2.0))
        shift[low] = e
    return b, log_norm + shift * math.log(2.0)


def _horner(top: np.ndarray, cols: np.ndarray, x: np.ndarray, depth: int) -> np.ndarray:
    """The ``depth`` Taylor rows (..., p''/2, p', p) at the points ``x`` of
    the polynomials with coefficient columns ``top[:, cols]``, top
    coefficient first.  Each step is two ufunc calls on whole slices of one
    buffer, ``acc[t + 1] = acc[t] * x + coef[t]``: step t's rows, the
    accumulators then the coefficient, lie right before step t + 1's.  The
    buffer holds the steps that fit in ``_SWEEP_CHUNK`` elements; after each
    span the accumulators move to its front and the next coefficients are
    gathered in (by ``take``, faster than fancy indexing).  No product runs
    in place, where numpy rounds one element unlike two or more, so a
    point's bits do not depend on the others."""
    n1 = len(top)
    span = max(1, min(n1, _SWEEP_CHUNK // ((depth + 1) * max(len(x), 1)) - 1))
    buf = np.empty((span + 1, depth + 1, len(x)), dtype=complex)
    acc, coef = buf[:, :depth], buf[:, 1:]
    # x spelled out to the factor's shape: numpy's complex product rounds
    # differently on some broadcast layouts (a (1, 1) times a (1,) array),
    # and a same-shape contiguous product never does
    xs = np.repeat(x[None], depth, axis=0)
    acc[0] = 0.0
    for t0 in range(0, n1, span):
        steps = min(span, n1 - t0)
        buf[:steps, depth] = top[t0 : t0 + steps].take(cols, axis=1)
        for a0, a1, c0 in zip(acc[:steps], acc[1:], coef):
            np.multiply(a0, xs, a1)  # a positional out parses faster than out=
            np.add(a1, c0, a1)
        acc[0] = acc[steps]
    return buf[0, :depth].copy()


def _row_angle_derivs(top: np.ndarray, row: np.ndarray, theta: np.ndarray):
    """psi_hat and its first two theta-derivatives at the angles ``theta``,
    point i on the Fourier coefficients ``top[:, row[i]]`` (coefficient-major,
    top first), from the depth-3 Horner rows in x = e^{i theta}."""
    x = np.exp(1j * theta)
    half_d2, d1, v = _horner(top, row, x, 3)
    return v, 1j * x * d1, -x * (d1 + 2.0 * x * half_d2)


# ---------------------------------------------------------------------------
# Aberth-Ehrlich simultaneous root finding


def _bini_start_points(w: np.ndarray) -> np.ndarray:
    """Initial root guesses from the Newton polygon of each row.

    Radii follow the upper convex hull of (k, log|w_k|); angles are spread
    uniformly with a fixed offset so no symmetry axis of the polynomial is
    an invariant set of the iteration.  The hull runs on Python floats,
    whose arithmetic is the IEEE arithmetic of numpy's float64 scalars.
    """
    rows, n1 = w.shape
    m = n1 - 1
    angles = 2.0 * np.pi * (np.arange(m) + 0.375) / m + 0.26
    unit = np.exp(1j * angles)
    aw = np.abs(w)
    logw = np.full((rows, n1), -np.inf)
    np.log(aw, out=logw, where=aw > 0)
    radii = np.zeros((rows, m))
    for i, ys in enumerate(logw.tolist()):
        hull: list[int] = []
        for k, y in enumerate(ys):
            if y == -math.inf:
                continue
            while len(hull) >= 2:
                k1, k2 = hull[-2], hull[-1]
                if (ys[k2] - ys[k1]) * (k - k2) <= (y - ys[k2]) * (k2 - k1):
                    hull.pop()
                else:
                    break
            hull.append(k)
        for a, bb in zip(hull[:-1], hull[1:]):
            radii[i, a:bb] = math.exp((ys[a] - ys[bb]) / (bb - a))
    return radii * unit


def _newton_ratio(stack: np.ndarray, row: np.ndarray, z: np.ndarray, az: np.ndarray):
    """Newton step p(z)/p'(z) of polynomial ``w[row[i]]`` at point
    ``z[i]``, evaluated without overflow at any |z|; ``az`` is |z| and
    ``stack``'s column 2j holds row j's coefficients top first, 2j + 1
    those of its reversal.

    For |z| <= 1 this is direct Horner; for |z| > 1 the polynomial is
    folded through its reversal q(u) = z^{-m} p(z) at u = 1/z, where the
    huge z^m factors cancel inside the ratio:

        p/p' = z q(u) / (m q(u) - u q'(u)).

    Returns ``(step, deriv_zero)``, the latter masking a vanishing
    denominator; only a call with one runs the masked division.
    """
    m = len(stack) - 1
    rev = az > 1.0
    x = np.divide(1.0, z, out=z.copy(), where=rev)
    der, val = _horner(stack, 2 * row + rev, x, 2)
    num = np.where(rev, z * val, val)
    denom = np.where(rev, m * val - x * der, der)
    deriv_zero = denom == 0
    if not deriv_zero.any():
        return num / denom, deriv_zero
    step = np.where(deriv_zero & (val == 0), 0.0,
                    num / np.where(deriv_zero, 1.0, denom))
    return step, deriv_zero


def _pairwise_sums(z: np.ndarray, row: np.ndarray, zp: np.ndarray) -> np.ndarray:
    """sum_j 1/(zp[i] - z[row[i], j]) per point, a zero difference adding 0.

    The terms sit in a (j, point) array and are summed over axis j, which
    is never numpy's inner loop, so each sum adds its terms one after
    another in j order (not pairwise), the order of a loop over columns.
    The point axis gets at least two columns, since numpy drops an axis of
    length 1.  Chunks of j keep the array within ``_SWEEP_CHUNK`` elements;
    each chunk carries the running sum in as its leading row, which keeps
    the order.  A zero difference is left in place as its term: a sum
    starts at +0, and adding a zero of either sign never changes it.
    """
    m = z.shape[1]
    points = len(zp)
    j_step = max(1, _SWEEP_CHUNK // max(points, 2) - 1)
    buf = np.zeros((min(j_step, m) + 1, max(points, 2)), dtype=complex)
    zt = z.T
    for j0 in range(0, m, j_step):
        part = buf[: min(j_step, m - j0) + 1]
        diff = part[1:, :points]
        np.take(zt[j0 : j0 + len(diff)], row, axis=1, out=diff, mode="clip")
        np.subtract(zp, diff, out=diff)
        np.divide(1.0, diff, out=diff, where=diff != 0)
        buf[0] = part.sum(axis=0)
    return buf[0, :points].copy()


def _aberth_batch(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All roots of each row of ``w`` (monomial coefficients, ascending).

    Returns ``(roots (B, m), converged (B,))``.  Rows must have a
    non-negligible leading coefficient.  A sweep updates every root of
    every row at once from the previous sweep's roots, and only the roots
    still moving: a root is frozen once its step falls below
    ``_ABERTH_TOL``.  Roots and their active mask are kept flat, root i
    of the flat list in row i // m, and |z| is taken once per sweep.  The
    direct/reversed coefficient stack of the Horner passes is built once,
    and the masked updates for a vanishing Newton denominator run only on
    sweeps where some root has one.
    """
    w = np.atleast_2d(w).astype(complex)
    rows, n1 = w.shape
    m = n1 - 1
    if m == 0:
        return np.empty((rows, 0), dtype=complex), np.ones(rows, dtype=bool)
    w = w / np.max(np.abs(w), axis=1, keepdims=True)
    if m == 1:
        roots = (-w[:, 0] / w[:, 1])[:, None]
        return roots, np.ones(rows, dtype=bool)
    z = _bini_start_points(w)
    stack = np.stack((w[:, ::-1].T, w.T), axis=2).reshape(n1, -1)
    flat = z.reshape(-1)
    active = np.ones(rows * m, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for _ in range(_ABERTH_MAX_SWEEPS):
            idx = np.flatnonzero(active)
            if not len(idx):
                break
            row = idx // m
            zp = flat[idx]
            az = np.abs(zp)
            newton, deriv_zero = _newton_ratio(stack, row, zp, az)
            # named, so numpy cannot reuse it as a temporary and swap the
            # product's operands: complex products round differently then
            s = _pairwise_sums(z, row, zp)
            denom = 1.0 - newton * s
            step = newton / denom
            np.copyto(step, newton, where=denom == 0)
            if deriv_zero.any():
                step = np.where(deriv_zero & (newton == 0), 0.0, step)
                step = np.where(deriv_zero & (newton != 0), -0.1 * (1.0 + az), step)
            done = np.abs(step) <= _ABERTH_TOL * (1.0 + az)
            flat[idx] = np.where(done, zp, zp - step)
            active[idx] = ~done
        converged = ~active.reshape(rows, m).any(axis=1)
        every_row = np.repeat(np.arange(rows), m)
        for _ in range(_ABERTH_POLISH):
            newton, deriv_zero = _newton_ratio(stack, every_row, flat, np.abs(flat))
            flat = np.where(deriv_zero, flat, flat - newton)
    return flat.reshape(rows, m), converged


def _normalized_residuals(w: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|psi_hat| at candidate roots, batched and overflow-safe; ``w`` holds
    the monomial rows, as for ``_aberth_batch``.  A root with |z| > 1 runs
    the reversed row at 1/z, as in ``_newton_ratio``."""
    w = np.atleast_2d(w)
    n = w.shape[1] - 1
    roots = np.atleast_2d(roots)
    az = np.abs(roots)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        row = np.repeat(np.arange(w.shape[0]), roots.shape[1])
        stack = np.stack((w[:, ::-1].T, w.T), axis=2).reshape(n + 1, -1)
        z, rev = roots.ravel(), az.ravel() > 1.0
        x = np.divide(1.0, z, out=z.copy(), where=rev)
        log_val = _log_abs(_horner(stack, 2 * row + rev, x, 1)[0]).reshape(roots.shape)
        log_rev = n * _log_abs(az) + log_val
        logmag = np.where(rev.reshape(roots.shape), log_rev, log_val)
        return np.exp(logmag - (n / 2.0) * _log1p_square(az))


def _refuse_zero(poly: SU2Polynomial) -> None:
    """The one-row API's refusal of psi identically zero, at every degree."""
    if not poly.coefficients.any():
        raise ValueError("polynomial is identically zero")


def find_all_roots(poly: SU2Polynomial) -> ZeroSet:
    """Locate every root by Aberth-Ehrlich iteration.

    Leading (high-order) coefficients smaller than 1e-14 of the largest
    are treated as zero; the lost roots are reported as ``degree_deficit``
    rather than as meaningless huge locations.  Exact zeros at the low end
    are split off as exact origin roots before iterating.  Roots do not
    depend on scale: a row with a monomial coefficient whose modulus
    overflows, or whose largest one is subnormal, runs divided by 2^e,
    every part below 1/2, and its residuals are scaled back by 2^e; past
    N = 2053 the weights themselves refuse.
    """
    _refuse_zero(poly)
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    e = 0
    with np.errstate(over="ignore"):
        w = poly.coefficients * _weights(n)
        wmax = np.abs(w).max()
    if not np.finfo(float).tiny <= wmax < math.inf:
        parts = poly.coefficients.view(float)
        e = int(np.frexp(np.abs(parts).max())[1]) + 1
        poly = SU2Polynomial(n, np.ldexp(parts, -e).view(complex))
        w = poly.coefficients * _weights(n)
    amags = np.abs(poly.coefficients)
    top = amags.max()
    # effective degree from the orthonormal-basis coefficients: the weighted
    # monomial coefficients span e^{+-N ln2/2} by construction, so a ratio
    # test there would discard genuine high-degree samples
    sig = np.nonzero(amags >= TRUNCATION_RATIO * top)[0]
    d = int(sig[-1])
    deficit = n - d
    k0 = int(np.nonzero(amags > 0)[0][0])
    k0 = min(k0, d)
    locations = [0.0 + 0.0j] * k0
    if d - k0 >= 1:
        roots, conv = _aberth_batch(w[None, k0 : d + 1])
        if not conv[0]:
            raise RootFindingError(d - k0)
        locations.extend(roots[0].tolist())
    locs = np.array(locations, dtype=complex)
    residuals = np.ldexp(np.abs(evaluate_normalized(poly, locs)), e) if len(locs) else np.empty(0)
    return ZeroSet(locs, residuals, deficit, n)


def count_zeros_from_roots(zeros: ZeroSet, disk: Disk) -> ZeroCount:
    """Strict-interior count; roots within ``DEFAULT_BOUNDARY_MARGIN`` of
    the boundary are flagged but still counted by the strict inequality."""
    dist = np.abs(zeros.locations - disk.center)
    near = int(np.sum(np.abs(dist - disk.radius) <= DEFAULT_BOUNDARY_MARGIN))
    return ZeroCount(int(np.sum(dist < disk.radius)), "from_roots", near)


# ---------------------------------------------------------------------------
# argument-principle counting


def _phase_steps(v_lo: np.ndarray, v_hi: np.ndarray, *mags: np.ndarray):
    """Phase steps from ``v_lo`` to ``v_hi`` and the rough ones among them:
    steps above pi/2, or, when the end moduli ``mag_lo, mag_hi`` are given,
    with one below ``TINY_SAMPLE``."""
    step = np.angle(v_hi * np.conj(v_lo))
    rough = np.abs(step) > 0.5 * np.pi
    if mags:
        rough |= np.minimum(*mags) < TINY_SAMPLE
    return step, rough


def _recentered_disk(center: complex, r: float) -> tuple[complex, float]:
    """``(a, rho)`` such that the rotation w = (z - a)/(1 + conj(a) z) of the
    sphere maps B(center, r) onto |w| < rho.  ``a = t center/|center|``,
    with t > 0 the root of |c| t^2 + D t - |c| (D = 1 + r^2 - |c|^2) in the
    form without cancellation, is the disk's spherical center."""
    mod = abs(center)
    d = 1.0 + r * r - mod * mod
    h = math.hypot(d, 2.0 * mod)
    t = 2.0 * mod / (d + h) if d >= 0 else (h - d) / (2.0 * mod)
    # one factor of the denominator at a time, so that far disks do not overflow
    rho = r * ((1.0 + t * t) / (1.0 + t * (mod - r))) / (1.0 + t * (mod + r))
    return t * (center / mod), rho


def count_zeros_argument_principle(poly: SU2Polynomial, disk: Disk) -> ZeroCount:
    """Winding number of psi around the disk boundary, as one row of
    ``_batch_winding``.

    Off the origin the row is that of psi moved by the rotation of
    ``_recentered_disk``, on |w| = rho, and the margin grows by the
    rotation's largest stretch there.  A Newton step at a first-grid
    sample that puts a zero within ``DEFAULT_BOUNDARY_MARGIN`` of the
    contour, or a row that fails the winding rules, raises
    :class:`ContourError`.  A zero within the margin but between samples
    can still certify (at N = 12, one 1e-11 from |z| = 1 half a grid
    step from a sample does); ROADMAP item 2's certificate would refuse
    it.  A disk whose rotation leaves double range (a center past about
    1.3e154) raises ValueError.
    """
    _refuse_zero(poly)
    n = poly.degree
    center, r = disk.center, disk.radius
    margin = DEFAULT_BOUNDARY_MARGIN
    if center == 0:
        b, _ = _circle_fourier_coeffs(poly.coefficients[None], n, r)
    else:
        # the moved polynomial's normalized value at w is psi_hat(z) (u/|u|)^N,
        # a trigonometric polynomial of degree N on the circle: its row is
        # one FFT of next_pow2(N+1) samples
        a, r = _recentered_disk(center, r)
        if not (np.isfinite(a) and math.isfinite(r) and r > 0.0):
            raise ValueError(f"{disk} is too far from the origin to recenter")
        m = _next_pow2(n + 1)
        w = r * np.exp(2j * np.pi * np.arange(m) / m)
        u = 1.0 - np.conj(a) * w
        poly = SU2Polynomial(n, _in_range(poly.coefficients)[0])
        vals = evaluate_normalized(poly, (w + a) / u) * np.exp(1j * n * np.angle(u))
        b, _ = _in_range((np.fft.fft(vals) / m)[None, : n + 1])
        margin *= (1.0 + abs(a) * r) ** 2 / (1.0 + abs(a) ** 2)
    counts, ok = _batch_winding(b, r, margin)
    if not ok[0]:
        raise ContourError(f"zero within the margin {DEFAULT_BOUNDARY_MARGIN} of the contour")
    return ZeroCount(int(counts[0]), "argument_principle")


def _batch_winding(b: np.ndarray, r: float, boundary_margin: float = DEFAULT_BOUNDARY_MARGIN):
    """Winding numbers ``(counts, ok)`` of the Fourier rows ``b`` of
    boundary values on |z| = r, from m0 = next_pow2(``_WINDING_SAMPLES``
    (N + 1)) samples.  A row fails when a Newton step |psi|/|psi'| at one
    of the m0 samples puts a zero within ``boundary_margin`` of the
    contour, or a sample lies within ``_PRECISION_FLOOR`` of sum |b_k|; a
    zero that close to the contour but between samples need not be
    refused.  The derivative grid of that step is taken only for rows with
    a sample below 2 margin D / r, D = sum k |b_k|: |psi'| <= D / r on the
    circle (Bernstein), so on other rows every step is at least twice the
    margin.  A chunk pays for a rare row only when it holds one: it takes the
    derivative grid only for a row in that gate, and the ``TINY_SAMPLE``
    test only for a sample below it, which passes the floor only on a row
    below the range band of ``_in_range``.

    The first grid runs in chunks of at most ``_GRID_CHUNK`` samples.  Its
    good phase steps make each row's running total; the rough intervals of
    all chunks form one flat list, and each round bisects every one of
    them on rows not yet failed: it evaluates only their midpoints, adds
    the good halves' steps to their rows' totals and keeps the rough
    halves.  A row fails when its points would pass ``NODE_CAP``, when it
    keeps a rough interval after ``_MAX_REFINEMENTS`` rounds, or when its
    total is not within 0.01 of a multiple of 2 pi."""
    rows, n1 = b.shape
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    m0 = _next_pow2(_WINDING_SAMPLES * n1)
    abs_b = np.abs(b)
    gate = (2.0 * boundary_margin / r) * (abs_b @ np.arange(n1))
    ok = np.empty(rows, dtype=bool)
    total = np.empty(rows)
    parts = []  # rough intervals as (row, start in turns, value at start, value at end)
    chunk = max(1, _GRID_CHUNK // m0)
    for s in range(0, rows, chunk):
        sel = slice(s, s + chunk)
        # M is a power of two, so the unscaled inverse FFT equals ifft * M bit
        # for bit; the last column repeats the first, where the last interval ends
        vals = np.fft.ifft(b[sel], n=m0, axis=1, norm="forward")
        vals = np.concatenate((vals, vals[:, :1]), axis=1)
        mag = np.abs(vals)
        low = mag.min(axis=1)
        ok[sel] = low > _PRECISION_FLOOR * abs_b[sel].sum(axis=1)
        near = np.nonzero(low < gate[sel])[0]
        if len(near):
            dmag = np.abs(np.fft.ifft(b[s + near] * (1j * np.arange(n1)), n=m0, axis=1,
                                      norm="forward"))
            # a 0/0 step is NaN, never below the margin; its row fails the floor
            with np.errstate(divide="ignore", invalid="ignore"):
                ok[s + near] &= ~(r * mag[near, :m0] / dmag < boundary_margin).any(axis=1)
        tiny = (mag[:, :m0], mag[:, 1:]) if low.min() < TINY_SAMPLE else ()
        step, rough = _phase_steps(vals[:, :m0], vals[:, 1:], *tiny)
        row, k = np.nonzero(rough)
        step[row, k] = 0.0
        total[sel] = step.sum(axis=1)
        parts.append((row + s, k / m0, vals[row, k], vals[row, k + 1]))
    span = tuple(np.concatenate(col) for col in zip(*parts))
    top = np.ascontiguousarray(b.T[::-1])
    points = np.full(rows, m0)
    width = 1.0 / m0
    for _ in range(_MAX_REFINEMENTS):
        points += np.bincount(span[0], minlength=rows)
        ok &= points <= NODE_CAP
        live = ok[span[0]]
        row, t_lo, v_lo, v_hi = (a[live] for a in span)
        if not len(row):
            break
        width *= 0.5
        t_mid = t_lo + width
        v_mid = _horner(top, row, np.exp(1j * (2.0 * np.pi * t_mid)), 1)[0]
        row, t_lo, v_lo, v_hi = (np.concatenate(pair) for pair in
                                 ((row, row), (t_lo, t_mid), (v_lo, v_mid), (v_mid, v_hi)))
        step, rough = _phase_steps(v_lo, v_hi, np.abs(v_lo), np.abs(v_hi))
        total += np.bincount(row[~rough], weights=step[~rough], minlength=rows)
        span = tuple(a[rough] for a in (row, t_lo, v_lo, v_hi))
    ok[span[0]] = False
    total /= 2.0 * np.pi
    ok &= np.abs(total - np.round(total)) <= 0.01
    return np.where(ok, np.round(total), 0).astype(np.int64), ok


# ---------------------------------------------------------------------------
# Schur-Cohn counting


def _schur_cohn_steps(b: np.ndarray):
    """Run the Schur-Cohn recursion on the rows f(z) = sum_k b_k z^k.

    Step ``s`` (degree ``d = N - s``) rescales the row so its largest
    entry has modulus 1, records ``|a_0|`` and ``|a_d|``, and replaces f by
    ``F = conj(a_0) f - a_d f*`` with ``f*(z) = z^d conj(f(1/conj z))``,
    whose degree is at most ``d - 1``.  Returns ``(trail, lead, log_floor)``:
    the ``(B, N)`` moduli, in the real dtype of ``b``, and per row a lower
    bound on ``log min |f|`` over |z| = 1.  The bound chains
    ``|f| >= top |F| / (|a_0| + |a_d|)`` (from ``|f*| = |f|`` there) down to
    the final constant.  A row where F vanishes identically turns to NaN
    from then on.
    """
    c = np.ascontiguousarray(b.T)  # coefficient-major: each step slices whole rows
    n1, rows = c.shape
    trail = np.empty((n1 - 1, rows), dtype=c.real.dtype)
    lead = np.empty_like(trail)
    log_floor = np.zeros(rows, dtype=trail.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        for s, d in enumerate(range(n1 - 1, 0, -1)):
            mag = np.abs(c)
            top = mag.max(axis=0)
            trail[s] = mag[0] / top
            lead[s] = mag[d] / top
            log_floor += np.log(top) - np.log(trail[s] + lead[s])
            # F on the rescaled row a = c / top, with the rescaling folded
            # into the two multipliers
            top2 = top * top
            c = (np.conj(c[0]) / top2) * c[:d] - (c[d] / top2) * np.conj(c[d:0:-1])
        log_floor += np.log(np.abs(c[0]))
    return trail.T, lead.T, log_floor


def _batch_schur_cohn(b: np.ndarray, r: float,
                      boundary_margin: float = DEFAULT_BOUNDARY_MARGIN):
    """Zero counts in B(0, r) by the Schur-Cohn recursion, batched.

    Runs on the Fourier rows ``b`` of psi on |z| = r, the coefficients of
    f(z) = psi_hat(r z) up to scale: N vectorized steps, O(N^2) per row,
    no FFT and no roots.  On |z| = 1, |f*| = |f|, so by Rouche count(f) =
    count(F) when |a_0| > |a_d| and d - count(F) otherwise.  Returns
    ``(counts, certified)``; counts are meaningful only on certified rows.
    A row is certified when N <= ``SCHUR_COHN_MAX_DEGREE``, every step's
    normalized gap ||a_0| - |a_d|| is at least ``SCHUR_COHN_MIN_GAP``, and
    the recursion's floor on |f| over the circle proves no zero lies within
    ``boundary_margin`` of the contour.
    """
    rows, n1 = b.shape
    if n1 - 1 > SCHUR_COHN_MAX_DEGREE:
        return np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=bool)
    trail, lead, log_floor = _schur_cohn_steps(b)
    gap = trail - lead
    # a zero w of f with ||w| - 1| <= h forces |f(w / |w|)| <= h max|f'|
    # <= h sum_k k |b_k| (1 + h)^(k-1); the floor must clear twice that.
    # A NaN floor (F = 0) or a -inf one (a null row) never does.
    h = boundary_margin / r
    k = np.arange(1, n1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        log_slope = np.log(2.0 * h * (np.abs(b[:, 1:]) @ (k * (1.0 + h) ** (k - 1))))
        certified = (np.abs(gap) >= SCHUR_COHN_MIN_GAP).all(axis=1)
        certified &= log_floor > log_slope
        flips = gap < 0
    # count = sum over flipping steps of +-d, the sign alternating per flip
    earlier = np.cumsum(flips, axis=1) - flips
    sign = 1 - 2 * (earlier & 1)
    counts = (flips * sign * np.arange(n1 - 1, 0, -1)).sum(axis=1).astype(np.int64)
    return counts, certified


# ---------------------------------------------------------------------------
# circle averages of log |psi|


def _three_peaks(v: np.ndarray):
    """``(index, value)`` of the three largest local peaks of each row of
    ``v``, best first: samples at least their two neighbours, the row read
    as a circle; a row with fewer peaks has value -inf in the spare slots."""
    is_peak = (v >= np.roll(v, 1, axis=1)) & (v >= np.roll(v, -1, axis=1))
    masked = np.where(is_peak, v, -np.inf)
    here = np.arange(len(masked))
    top = np.empty((len(v), 3), dtype=np.intp)
    peak = np.empty((len(v), 3))
    for k in range(3):
        top[:, k] = masked.argmax(axis=1)
        peak[:, k] = masked[here, top[:, k]]
        masked[here, top[:, k]] = -np.inf
    return top, peak


def _near_circle_zeros(b: np.ndarray, low: np.ndarray, m0: int) -> np.ndarray:
    """``(rows, 3)`` points u, |u| < 1, one per distinct zero x of
    f(x) = sum_k b_k x^k with ``DEFAULT_BOUNDARY_MARGIN`` <= ||x| - 1| <
    ``_NEAR_BAND``: u = x inside the unit circle, 1/x outside, 0 in a slot
    with no such zero.

    Slot k starts Newton at the grid angle 2 pi low[:, k] / m0 (-1: no
    start), all points of all rows as one flat live list, one depth-2
    ``_horner`` pass per round.  A point freezes once its step, applied,
    is below ``_ZERO_NEWTON_TOL`` of |x| (full precision, since Newton
    squares the error), and is dropped when it strays more than 1/2 from
    the unit circle or has not frozen after ``_ZERO_NEWTON_ROUNDS``.  A
    frozen point within 1e-8 of an earlier slot's is the same zero and is
    dropped, so no zero is divided out twice."""
    rows = len(b)
    row, slot = np.nonzero(low >= 0)
    x = np.exp(2j * np.pi * low[row, slot] / m0)
    frozen = np.zeros(len(x), dtype=bool)
    top = np.ascontiguousarray(b.T[::-1])
    live = np.arange(len(x))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for _ in range(_ZERO_NEWTON_ROUNDS):
            d1, v = _horner(top, row[live], x[live], 2)
            step = v / d1
            xl = x[live] - step
            x[live] = xl
            ax = np.abs(xl)
            done = np.abs(step) <= _ZERO_NEWTON_TOL * ax
            frozen[live[done]] = True
            live = live[~done & (np.abs(ax - 1.0) <= 0.5)]
            if not len(live):
                break
        dist = np.abs(np.abs(x) - 1.0)
        keep = frozen & (dist >= DEFAULT_BOUNDARY_MARGIN) & (dist < _NEAR_BAND)
        zs = np.full((rows, 3), np.nan, dtype=complex)
        zs[row[keep], slot[keep]] = x[keep]
        for j in (1, 2):
            for k in range(j):
                zs[np.abs(zs[:, j] - zs[:, k]) <= 1e-8, j] = np.nan
        u = np.where(np.abs(zs) < 1.0, zs, 1.0 / zs)
    return np.where(np.isnan(zs), 0.0, u)


def _log_one_minus(q: np.ndarray) -> np.ndarray:
    """sum over the row's slots of log|1 - q|: 0 on a row of zeros."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(1.0 - q)).sum(axis=1)


def _batch_circle_log_means(b: np.ndarray, log_scale: np.ndarray,
                            target: float = DEFAULT_QUADRATURE_TARGET,
                            absolute: bool = True):
    """Means over the circle of log|psi| and, when ``absolute``, of
    |log|psi||, per row of the Fourier rows ``(b, log_scale)`` of
    ``_circle_fourier_coeffs``.

    Returns ``(mean_log, mean_abs_log, ok, gap)``; ``mean_abs_log`` is
    None unless ``absolute``.  Node counts M double until two successive
    estimates agree within ``target`` (for both quantities when
    ``absolute``) or the next doubling would pass ``NODE_CAP``; rows at the
    cap report ``ok=False`` with their best estimate and their last
    doubling delta as ``gap`` (NaN only when the cap allowed no doubling).
    Each doubling reuses earlier samples: only the half-step midpoints are
    evaluated afresh, in chunks of at most ``_GRID_CHUNK`` samples so that
    each chunk's elementwise passes stay in cache.

    Zeros near the circle are divided out of the log means.  Over the M
    nodes of a grid the trapezoid of log|x - xi| on the unit circle is
    exact up to (1/M) log|1 - q|, with q = xi^M for |xi| < 1 and
    xi^-M otherwise (Trefethen & Weideman, SIAM Rev. 56 (2014)).  The first
    grid's pass takes each row's three lowest local minima, Newton runs
    from them (``_near_circle_zeros``), and each M subtracts those terms of
    the zeros found, q squared at every doubling, so the stop rule reads a
    mean that a zero near the circle no longer slows.  A zero within
    ``DEFAULT_BOUNDARY_MARGIN`` of the circle (relative) is left in, as are
    the |log| sums' kinks: samples are floored at 1e-300, so a zero on or
    next to a node stays in every later grid and its row, still finite,
    fails at the cap.
    """
    rows, n1 = b.shape
    m0 = _circle_nodes(n1)
    low = np.empty((rows, 3), dtype=np.intp)

    def _accumulate(sel_b: np.ndarray, sel_scale: np.ndarray, m: int, half: bool):
        """Sums of log|psi| and |log|psi|| over M angles, half a step on if
        ``half``; the whole grid's pass also fills ``low``."""
        cnt = len(sel_b)
        s1 = np.empty(cnt)
        s2 = np.empty(cnt) if absolute else None
        if half:
            sel_b = sel_b * np.exp(1j * np.pi * np.arange(n1) / m)
        row_step = max(1, _GRID_CHUNK // m)
        for s in range(0, cnt, row_step):
            logs = _log_abs(np.fft.ifft(sel_b[s : s + row_step], n=m, axis=1, norm="forward"))
            if not half:
                at, value = _three_peaks(-logs)
                low[s : s + row_step] = np.where(value > -np.inf, at, -1)
            logs += sel_scale[s : s + row_step, None]
            s1[s : s + row_step] = logs.sum(axis=1)
            if absolute:
                s2[s : s + row_step] = np.abs(logs, out=logs).sum(axis=1)
        return s1, s2

    active = np.arange(rows)
    sum1, sum2 = _accumulate(b, log_scale, m0, half=False)
    m = m0
    q = _near_circle_zeros(b, low, m0)
    with np.errstate(under="ignore"):
        for _ in range(m0.bit_length() - 1):
            q = q * q
        mean_log = (sum1 - _log_one_minus(q)) / m
        mean_abs = sum2 / m if absolute else None
        gap = np.full(rows, np.nan)
        while len(active) and 2 * m <= NODE_CAP:
            a1, a2 = _accumulate(b[active], log_scale[active], m, half=True)
            sum1[active] += a1
            m *= 2
            qa = q[active]
            qa = qa * qa
            q[active] = qa
            cur = (sum1[active] - _log_one_minus(qa)) / m
            gap_a = np.abs(cur - mean_log[active])
            mean_log[active] = cur
            if absolute:
                sum2[active] += a2
                cur = sum2[active] / m
                gap_a = np.maximum(gap_a, np.abs(cur - mean_abs[active]))
                mean_abs[active] = cur
            gap[active] = gap_a
            active = active[~(gap_a < target)]
    ok = np.ones(rows, dtype=bool)
    ok[active] = False
    return mean_log, mean_abs, ok, gap


def _circle_mean(poly: SU2Polynomial, r: float, target: float, absolute: bool) -> float:
    """One-row circle mean of log|psi|, or of |log|psi|| when ``absolute``."""
    _check_radius(r)
    if not 0 < target < math.inf:
        raise ValueError("quadrature target must be positive and finite")
    _refuse_zero(poly)
    b, log_scale = _circle_fourier_coeffs(poly.coefficients[None], poly.degree, r)
    mean_log, mean_abs, ok, gap = _batch_circle_log_means(b, log_scale, target, absolute)
    value = float((mean_abs if absolute else mean_log)[0])
    if not ok[0]:
        raise QuadratureError("circle average did not converge at the node cap",
                              value, float(gap[0]))
    return value


def circle_log_integral(poly: SU2Polynomial, r: float,
                        target: float = DEFAULT_QUADRATURE_TARGET) -> float:
    """Mean of log|psi(r e^{i theta})| over the circle.

    Trapezoid on the normalized samples plus the analytic correction
    (N/2) log(1+r^2); node counts double until two successive values agree
    within ``target``; :class:`QuadratureError` is raised at ``NODE_CAP``.
    """
    return _circle_mean(poly, r, target, absolute=False)


def circle_abs_log_integral(poly: SU2Polynomial, r: float,
                            target: float = DEFAULT_QUADRATURE_TARGET) -> float:
    """Mean of |log|psi|| over the circle (the L1 deviation quantity)."""
    return _circle_mean(poly, r, target, absolute=True)


def jensen_residual(poly: SU2Polynomial, r: float) -> float:
    """|log|psi(0)| + sum_{|a|<r} log(r/|a|) - circle average of log|psi||.

    Requires psi(0) away from zero relative to the coefficient scale.  The
    residual does not depend on scale, so a finite row whose moduli
    overflow runs halved, which puts each below sqrt(2)/2 of the largest double.
    """
    _check_radius(r)
    _refuse_zero(poly)
    if np.isinf(np.abs(poly.coefficients)).any():
        poly = SU2Polynomial(poly.degree, poly.coefficients / 2.0)
    a0 = abs(poly.coefficients[0])
    if a0 <= 1e-12 * np.abs(poly.coefficients).max():
        raise ValueError("psi(0) is numerically zero; Jensen's identity needs psi(0) != 0")
    zeros = find_all_roots(poly)
    mods = np.abs(zeros.locations)
    inside = mods < r
    total = math.log(a0) + float(np.sum(np.log(r / mods[inside])))
    return abs(total - circle_log_integral(poly, r))


# ---------------------------------------------------------------------------
# boundary maximum


def _batch_boundary_log_max(b: np.ndarray, log_scale: np.ndarray):
    """log max_{|z|=r} |psi| plus the maximizing angles, per row of the
    Fourier rows ``(b, log_scale)`` of ``_circle_fourier_coeffs``.

    Scans the first grid of the circle means, ``_circle_nodes(N + 1)``
    uniform angles, in row chunks;
    ``_three_peaks`` takes each row's best three grid peaks, the first
    being the scan maximum.  Every finite peak theta_p is refined inside
    [theta_p - h, theta_p + h], h the grid step, by safeguarded Newton on
    g = Re(conj(psi_hat) psi_hat'), one Horner pass per round over the flat
    list of live brackets: the sign of g shrinks the bracket, the midpoint
    replaces a Newton point that leaves it or has g' >= 0, and a point
    freezes at its last angle once its next step is below ``_NEWTON_TOL``
    (or after ``_NEWTON_ROUNDS``), so no row depends on the others.  The
    best refined value replaces the scan's when at least as large, an
    exact tie going to the higher scan peak; ``log_scale`` is added once,
    at the end.
    """
    rows, n1 = b.shape
    m = _circle_nodes(n1)
    h = 2.0 * np.pi / m
    top = np.empty((rows, 3), dtype=np.intp)
    peak = np.empty((rows, 3))
    chunk = max(1, _GRID_CHUNK // m)
    for s in range(0, rows, chunk):
        sel = slice(s, s + chunk)
        vals = np.fft.ifft(b[sel], n=m, axis=1, norm="forward")
        top[sel], peak[sel] = _three_peaks(_log_abs(vals))
    row, slot = np.nonzero(peak > -np.inf)
    found = np.full((rows, 3), -np.inf)
    angle = np.zeros((rows, 3))
    coefs = np.ascontiguousarray(b.T[::-1])
    live = np.arange(len(row))
    theta = 2.0 * np.pi * top[row, slot] / m
    lo, hi = theta - h, theta + h
    for _ in range(_NEWTON_ROUNDS):
        v, d1, d2 = _row_angle_derivs(coefs, row[live], theta)
        at = row[live], slot[live]
        found[at], angle[at] = _log_abs(v), theta
        g = v.real * d1.real + v.imag * d1.imag
        slope = d1.real * d1.real + d1.imag * d1.imag + v.real * d2.real + v.imag * d2.imag
        lo = np.where(g > 0, theta, lo)
        hi = np.where(g < 0, theta, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = theta - g / slope
        nxt = np.where((slope < 0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        go = np.abs(nxt - theta) >= _NEWTON_TOL
        if not go.any():
            break
        live, theta, lo, hi = live[go], nxt[go], lo[go], hi[go]
    pick = found.argmax(axis=1)
    refined = found[np.arange(rows), pick]
    out_theta = np.where(refined >= peak[:, 0], angle[np.arange(rows), pick],
                         2.0 * np.pi * top[:, 0] / m)
    return np.maximum(refined, peak[:, 0]) + log_scale, out_theta


def max_modulus_boundary(poly: SU2Polynomial, r: float) -> BoundaryMaximum:
    """max over the closed disk of |psi|, attained on |z| = r.

    Returned in log-safe form: ``log_value`` always, ``value`` only when
    within double range (inf otherwise, from about log_value = 709.78).
    """
    _check_radius(r)
    _refuse_zero(poly)
    log_max, theta = _batch_boundary_log_max(
        *_circle_fourier_coeffs(poly.coefficients[None], poly.degree, r))
    log_value = float(log_max[0])
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return BoundaryMaximum(log_value, value, r * complex(math.cos(theta[0]), math.sin(theta[0])))


# ---------------------------------------------------------------------------
# Poisson kernel machinery


def _poisson(zeta: complex, z, r: float):
    """(r^2 - |zeta|^2) / |z - zeta|^2, all three divided by r outside
    [1e-150, 1e150], where r*r leaves double range."""
    if not 1e-150 <= r <= 1e150:
        zeta, z, r = zeta / r, z / r, 1.0
    return (r * r - abs(zeta) ** 2) / abs(z - zeta) ** 2


def poisson_kernel(zeta: complex, z: complex, r: float) -> float:
    """(r^2 - |zeta|^2) / |z - zeta|^2 for |zeta| < r, |z| = r."""
    _check_radius(r)
    _check_finite([zeta, z], "zeta and z")
    if abs(zeta) >= r:
        raise ValueError("zeta must lie strictly inside the circle")
    if abs(abs(z) - r) > 1e-12 * r:
        raise ValueError("z must lie on the circle")
    return _poisson(zeta, z, r)


def poisson_partition_deviation(m: int, kappa: float, r: float,
                                perturbation: float = 0.0) -> float:
    """Worst-case deviation of the averaged kernel from 1.

    Places the m sources at the midpoints of equal arcs of the circle of
    radius kappa*r, each pushed radially outward by ``perturbation``, and
    returns max over the angle grid of |mean_j P(zeta_j, r e^{i theta}) - 1|.
    The deviation does not depend on scale: outside r in [1e-150, 1e150],
    where r*r leaves double range, everything is divided by r, as in
    ``_poisson``.
    """
    m = _check_int(m, "m", 1, rule="be positive")
    if not 0 <= kappa < 1:
        raise ValueError("kappa must lie in [0, 1)")
    _check_radius(r)
    if not 0 <= perturbation < math.inf:
        raise ValueError("perturbation must be nonnegative and finite")
    if not 1e-150 <= r <= 1e150:
        r, perturbation = 1.0, perturbation / r
    rho = kappa * r + perturbation
    if rho >= r:
        raise ValueError("perturbed sources must stay strictly inside the circle")
    n_theta = 1 << 14
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = r * np.exp(1j * theta)
    acc = np.zeros(n_theta)
    chunk = max(1, (1 << 22) // n_theta)
    for start in range(0, m, chunk):
        angles = 2.0 * np.pi * (np.arange(start, min(start + chunk, m)) + 0.5) / m
        zeta = rho * np.exp(1j * angles)
        acc += ((r * r - rho * rho) / np.abs(z[None, :] - zeta[:, None]) ** 2).sum(axis=0)
    return float(np.max(np.abs(acc / m - 1.0)))


def poisson_log_average(poly: SU2Polynomial, zeta: complex, r: float) -> float:
    """Mean of P_r(zeta, .) log|psi| over the circle, by node doubling to
    ``DEFAULT_QUADRATURE_TARGET`` within ``NODE_CAP`` nodes."""
    _check_radius(r)
    _check_finite(zeta, "zeta")
    if abs(zeta) >= r:
        raise ValueError("zeta must lie strictly inside the circle")
    _refuse_zero(poly)
    n = poly.degree
    b, log_scale = _circle_fourier_coeffs(poly.coefficients, n, r)
    m = _circle_nodes(n + 1)
    prev = None
    while m <= NODE_CAP:
        theta = 2.0 * np.pi * np.arange(m) / m
        logs = _log_abs(np.fft.ifft(b, n=m, norm="forward")) + log_scale
        kern = _poisson(zeta, r * np.exp(1j * theta), r)
        cur = float(np.mean(kern * logs))
        if prev is not None and abs(cur - prev) < DEFAULT_QUADRATURE_TARGET:
            return cur
        prev = cur
        m *= 2
    raise QuadratureError("Poisson-weighted average did not converge", prev, np.nan)
