import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import match_max_distance
from su2lab import model, montecarlo, zeros
from su2lab.model import SU2Polynomial
from su2lab.rng import RngSeed, gaussian_matrix


def random_poly(rng, degree):
    a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return SU2Polynomial(degree, a / math.sqrt(2.0))


def _circle_grid(b: np.ndarray, m: int) -> np.ndarray:
    """psi_hat at the M uniform angles 2 pi k / M from the Fourier rows ``b``."""
    vals = np.fft.ifft(b, n=m, axis=1)
    vals *= m
    return vals


def _rows(alpha, degree: int, r: float):
    """The Fourier rows ``(b, log_scale)`` that the circle kernels read, of
    a block of coefficient rows."""
    return zeros._circle_fourier_coeffs(np.atleast_2d(alpha), degree, r)


ONE_ROW_CALLS = {
    "max_modulus_boundary": lambda p: zeros.max_modulus_boundary(p, 1.0),
    "poisson_log_average": lambda p: zeros.poisson_log_average(p, 0.2, 1.0),
    "count_zeros_argument_principle":
        lambda p: zeros.count_zeros_argument_principle(p, zeros.Disk(0, 1.0)),
    "circle_log_integral": lambda p: zeros.circle_log_integral(p, 1.0),
    "jensen_residual": lambda p: zeros.jensen_residual(p, 1.0),
    "find_all_roots": zeros.find_all_roots,
}


@pytest.mark.parametrize("degree", [0, 1, 3])
@pytest.mark.parametrize("call", ONE_ROW_CALLS.values(), ids=ONE_ROW_CALLS.keys())
def test_zero_polynomial_is_refused(call, degree):
    with pytest.raises(ValueError, match="polynomial is identically zero"):
        call(SU2Polynomial(degree, [0] * (degree + 1)))


NON_FINITE_POLY = SU2Polynomial(3, [1.0, 0.5 - 0.2j, 0.3j, 0.7])
NON_FINITE_CALLS = {
    "evaluate": lambda: model.evaluate(NON_FINITE_POLY, math.nan),
    "evaluate-inf": lambda: model.evaluate(NON_FINITE_POLY, complex(math.inf, 0.0)),
    "evaluate_normalized": lambda: model.evaluate_normalized(NON_FINITE_POLY, math.nan),
    "evaluate_normalized-array":
        lambda: model.evaluate_normalized(NON_FINITE_POLY, np.array([0.5, math.inf])),
    "eq2_identity_residual":
        lambda: model.eq2_identity_residual(NON_FINITE_POLY, 0.3, [math.nan, 0.5]),
    "poisson_kernel-zeta": lambda: zeros.poisson_kernel(math.nan, 1.0, 1.0),
    "poisson_kernel-z": lambda: zeros.poisson_kernel(0.2, complex(1.0, math.nan), 1.0),
    "poisson_log_average": lambda: zeros.poisson_log_average(NON_FINITE_POLY, math.nan, 1.0),
    "poisson_partition_deviation":
        lambda: zeros.poisson_partition_deviation(4, 0.5, 1.0, perturbation=math.nan),
    "circle_log_integral-zero": lambda: zeros.circle_log_integral(NON_FINITE_POLY, 1.0, 0.0),
    "circle_log_integral-nan": lambda: zeros.circle_log_integral(NON_FINITE_POLY, 1.0, math.nan),
    "circle_abs_log_integral":
        lambda: zeros.circle_abs_log_integral(NON_FINITE_POLY, 1.0, math.nan),
    "fit_decay_exponent":
        lambda: montecarlo.fit_decay_exponent([(2, -1.0), (4, math.nan), (6, -9.0)]),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_point_or_target_is_refused(call):
    # each returned a value, NaN or not, or doubled its nodes up to the cap
    with pytest.raises(ValueError, match="must be"):
        call()


class TestFindAllRoots:
    def test_roots_of_unity(self):
        n = 16
        p = SU2Polynomial(n, [-1] + [0] * (n - 1) + [1])  # C(n,n)=1 so psi=z^n-1
        zs = zeros.find_all_roots(p)
        want = np.exp(2j * np.pi * np.arange(n) / n)
        assert match_max_distance(zs.locations, want) <= 1e-10
        assert zs.degree_deficit == 0

    def test_linear(self):
        zs = zeros.find_all_roots(SU2Polynomial(1, [3, 2]))
        assert zs.locations[0] == pytest.approx(-1.5)

    def test_double_root_at_origin(self):
        zs = zeros.find_all_roots(SU2Polynomial(2, [0, 0, 1]))
        assert len(zs.locations) == 2
        assert np.max(np.abs(zs.locations)) == 0.0

    def test_random_full_degree(self):
        rng = np.random.default_rng(42)
        p = random_poly(rng, 100)
        zs = zeros.find_all_roots(p)
        assert len(zs.locations) == 100
        assert zs.residuals.max() <= 1e-8

    def test_truncation_deficit(self):
        p = SU2Polynomial(3, [1.0, 1.0, 1.0, 1e-16])
        zs = zeros.find_all_roots(p)
        assert zs.degree_deficit == 1
        assert len(zs.locations) == 2

    def test_conservation_invariant(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 9, 33, 64):
            zs = zeros.find_all_roots(random_poly(rng, n))
            assert len(zs.locations) + zs.degree_deficit == n

    def test_unconverged_row_reports_a_count(self, monkeypatch):
        def stuck(w):
            rows, m = w.shape[0], w.shape[1] - 1
            return np.full((rows, m), np.nan + 0j), np.zeros(rows, dtype=bool)

        monkeypatch.setattr(zeros, "_aberth_batch", stuck)
        with pytest.raises(zeros.RootFindingError,
                           match=r"^300 roots unconverged after max sweeps$") as info:
            zeros.find_all_roots(model.sample_polynomial(300, RngSeed(1, 0)))
        assert info.value.unconverged == 300

    def test_rejects_degree_zero_and_null(self):
        with pytest.raises(ValueError):
            zeros.find_all_roots(SU2Polynomial(0, [1.0]))
        with pytest.raises(ValueError):
            zeros.find_all_roots(SU2Polynomial(2, [0, 0, 0]))


def _loop_horner(w, z):
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for k in range(w.shape[1] - 1, -1, -1):
        dp = dp * z + p
        p = p * z + w[:, k, None]
    return p, dp


def _loop_newton_ratio(w, z):
    """The Newton step by two full Horner passes: direct at z, reversed at 1/z."""
    m = w.shape[1] - 1
    p, dp = _loop_horner(w, z)
    direct = np.where((dp == 0) & (p == 0), 0.0, p / np.where(dp == 0, 1.0, dp))
    u = np.where(z == 0, 1.0, 1.0 / z)
    q, qp = _loop_horner(w[:, ::-1], u)
    denom = m * q - u * qp
    reverse = np.where((denom == 0) & (q == 0), 0.0,
                       z * q / np.where(denom == 0, 1.0, denom))
    use_rev = np.abs(z) > 1.0
    return (np.where(use_rev, reverse, direct),
            np.where(use_rev, denom == 0, dp == 0))


def _loop_bini(w):
    """Reference Newton-polygon start points: each row's upper hull of
    (k, log|w_k|) on numpy float64 scalars, and its radii times the
    offset unit angles, one row at a time."""
    rows, n1 = w.shape
    m = n1 - 1
    out = np.empty((rows, m), dtype=complex)
    unit = np.exp(1j * (2.0 * np.pi * (np.arange(m) + 0.375) / m + 0.26))
    logw = np.full((rows, n1), -np.inf)
    np.log(np.abs(w), out=logw, where=np.abs(w) > 0)
    for i in range(rows):
        ys = logw[i]
        hull = []
        for k in range(n1):
            if ys[k] == -np.inf:
                continue
            while len(hull) >= 2:
                k1, k2 = hull[-2], hull[-1]
                if (ys[k2] - ys[k1]) * (k - k2) <= (ys[k] - ys[k2]) * (k2 - k1):
                    hull.pop()
                else:
                    break
            hull.append(k)
        radii = np.zeros(m)
        for a, bb in zip(hull[:-1], hull[1:]):
            radii[a:bb] = math.exp((ys[a] - ys[bb]) / (bb - a))
        out[i] = radii * unit
    return out


def _loop_aberth(w, tol=1e-13, max_sweeps=500, polish=2):
    """Reference sweep: a Python loop over columns for the pairwise sums and
    two Horner passes per Newton step, on every root of every row."""
    w = w.astype(complex)
    w = w / np.max(np.abs(w), axis=1, keepdims=True)
    rows, n1 = w.shape
    z = _loop_bini(w)
    active = np.ones((rows, n1 - 1), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for _ in range(max_sweeps):
            newton, deriv_zero = _loop_newton_ratio(w, z)
            s = np.zeros_like(z)
            for jcol in range(n1 - 1):
                diff = z - z[:, jcol, None]
                s += np.where(diff == 0, 0.0, 1.0 / np.where(diff == 0, 1.0, diff))
            denom = 1.0 - newton * s
            step = np.where(denom == 0, newton, newton / np.where(denom == 0, 1.0, denom))
            step = np.where(deriv_zero & (newton == 0), 0.0, step)
            step = np.where(deriv_zero & (newton != 0), -0.1 * (1.0 + np.abs(z)), step)
            done = np.abs(step) <= tol * (1.0 + np.abs(z))
            z = np.where(active & ~done, z - step, z)
            active = active & ~done
            if not active.any():
                break
        converged = ~active.any(axis=1)
        for _ in range(polish):
            newton, deriv_zero = _loop_newton_ratio(w, z)
            z = np.where(deriv_zero, z, z - newton)
    return z, converged


def _loop_residuals(alpha, degree, roots):
    w = alpha * np.exp(model._log_weights(degree))
    az = np.abs(roots)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        p, _ = _loop_horner(w, roots)
        q, _ = _loop_horner(w[:, ::-1], np.where(roots == 0, 1.0, 1.0 / roots))
        log_direct = np.log(np.maximum(np.abs(p), 1e-300))
        log_rev = degree * np.log(np.maximum(az, 1e-300)) + np.log(np.maximum(np.abs(q), 1e-300))
        logmag = np.where(az > 1.0, log_rev, log_direct)
        return np.exp(logmag - (degree / 2.0) * np.log1p(az * az))


def _loop_taylor_rows(top, col, x, depth):
    """Reference for ``zeros._horner``: each point alone, its Taylor rows
    (..., p''/2, p', p) updated one coefficient at a time on arrays of one
    element, as numpy's array product rounds unlike its scalar one."""
    out = np.empty((depth, len(x)), dtype=complex)
    for i in range(len(x)):
        xi = x[i : i + 1]
        rows = [np.zeros(1, dtype=complex) for _ in range(depth)]
        for c in top[:, col[i] : col[i] + 1]:
            rows = [a * xi + b for a, b in zip(rows, rows[1:] + [c])]
        out[:, i] = np.concatenate(rows)
    return out


class TestHorner:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1 << 17, 16])
    def test_matches_point_loop_at_any_block(self, depth, chunk, monkeypatch):
        # a 16-element buffer splits every depth's pass into spans of a few
        # steps; a point's rows must not depend on its block, alone or not
        monkeypatch.setattr(zeros, "_SWEEP_CHUNK", chunk)
        rng = np.random.default_rng(depth)
        for n1 in (1, 2, 11, 40):
            top = rng.standard_normal((n1, 5)) + 1j * rng.standard_normal((n1, 5))
            col = rng.integers(0, 5, 7)
            x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            x[0] = np.exp(0.3j)
            want = _loop_taylor_rows(top, col, x, depth)
            for size in (1, 2, 3, 7):
                for s in range(0, 7, size):
                    got = zeros._horner(top, col[s : s + size], x[s : s + size], depth)
                    assert got.tobytes() == want[:, s : s + size].tobytes()


def _assert_matches_loop(w):
    roots, conv = zeros._aberth_batch(w)
    want_roots, want_conv = _loop_aberth(w)
    assert np.array_equal(roots, want_roots, equal_nan=True)
    assert np.array_equal(conv, want_conv)
    return roots


class TestAberthBatch:
    @pytest.mark.parametrize("degree,rows", [
        (2, 1), (2, 7), (2, 300), (3, 1), (3, 64), (10, 2048), (12, 1), (12, 41),
        (50, 1), (50, 3), (50, 8), (200, 1), (200, 2),
    ])
    def test_bit_identical_to_column_loop(self, degree, rows):
        # 2048 rows make arrays large enough for numpy to reuse temporaries
        alpha = gaussian_matrix(31, np.arange(rows, dtype=np.uint64), degree + 1)
        roots = _assert_matches_loop(alpha * np.exp(model._log_weights(degree)))
        w = alpha * model._weights(degree)
        assert np.array_equal(zeros._normalized_residuals(w, roots),
                              _loop_residuals(alpha, degree, roots))
        for k in range(min(degree, 4)):  # one root alone: the smallest layout
            one = roots[:1, k : k + 1]
            assert np.array_equal(zeros._normalized_residuals(w[:1], one),
                                  _loop_residuals(alpha[:1], degree, one))

    def test_start_points_match_loop_hull(self):
        # exact zeros (-inf logs, at both ends too), a single nonzero,
        # equal moduli (collinear points, popped by the <= test) and
        # Gaussian rows, each batch at once and each row alone
        batches = [
            np.array([[0, 2, 0, 0, 1, 0, 3, 0], [1, 0, 0, 0, 0, 0, 0, 1e-3],
                      [0, 0, 0, 5j, 0, 0, 0, 0], [1, -1, 1j, -1j, 1, 1, -1, 1]]),
            np.array([[1, 1, 1, 1, 1], [2, 1, 0.5, 0.25, 0.125]]),
        ]
        for degree in (1, 2, 12, 200, 600):
            alpha = gaussian_matrix(43, np.arange(3, dtype=np.uint64), degree + 1)
            batches.append(alpha * np.exp(model._log_weights(degree)))
        for w in batches:
            w = w.astype(complex)
            assert np.array_equal(zeros._bini_start_points(w), _loop_bini(w))
            for i in range(len(w)):
                assert np.array_equal(zeros._bini_start_points(w[i : i + 1]),
                                      _loop_bini(w[i : i + 1]))

    @pytest.mark.parametrize("points", [1, 2, 7])
    @pytest.mark.parametrize("chunk", [1 << 17, 64])
    def test_pairwise_sums_keep_column_order(self, points, chunk, monkeypatch):
        monkeypatch.setattr(zeros, "_SWEEP_CHUNK", chunk)
        rng = np.random.default_rng(points)
        z = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
        z[1, 7] = z[1, 3]  # a repeated root adds 0
        row = np.arange(points) % 2
        zp = z[row, 3 + np.arange(points)]
        want = np.zeros(points, dtype=complex)
        for j in range(200):
            diff = zp - z[row, j]
            want += np.where(diff == 0, 0.0, 1.0 / np.where(diff == 0, 1.0, diff))
        assert np.array_equal(zeros._pairwise_sums(z, row, zp), want)

    def test_repeated_roots_and_unit_circle_starts(self):
        # rows 0-1: start points coincide at 0, a root of p and p' (the
        # zero-difference and zero-derivative branches); rows 2-3: every
        # start point has |z| = 1 up to rounding, on both sides of the
        # direct/reversed switch
        w = np.array([
            [0, 0, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 1],
            [1j, -1, 1j, 1],
        ], dtype=complex)
        w[0, 3] = 1e-3  # keep a non-negligible leading coefficient
        roots = _assert_matches_loop(w)
        assert np.sum(roots[1] == 0) == 2

    def test_chunks_cross_boundaries(self, monkeypatch):
        # a tiny chunk splits the pairwise fold over j and the Horner pass
        # over points, including the values-only pass of the residuals
        monkeypatch.setattr(zeros, "_SWEEP_CHUNK", 200)
        for degree, rows in [(12, 5), (50, 2)]:
            alpha = gaussian_matrix(37, np.arange(rows, dtype=np.uint64), degree + 1)
            roots = _assert_matches_loop(alpha * np.exp(model._log_weights(degree)))
            w = alpha * model._weights(degree)
            assert np.array_equal(zeros._normalized_residuals(w, roots),
                                  _loop_residuals(alpha, degree, roots))

    def test_empty_batches(self):
        roots, conv = zeros._aberth_batch(np.zeros((0, 5), dtype=complex))
        assert roots.shape == (0, 4) and conv.shape == (0,)
        res = zeros._normalized_residuals(np.ones((1, 5)) * model._weights(4),
                                         np.zeros((1, 0), dtype=complex))
        assert res.shape == (1, 0)

    def test_residuals_beyond_square_overflow(self):
        # |z|^2 overflows above about 1.3e154; |psi_hat| there is still the
        # normalized value, about |alpha_N| = 4, not 0
        p = SU2Polynomial(3, [1, 2, 3, 4])
        pts = np.array([[2 + 1j, 1e149, 1e160, -1e200j, 1e300]])
        res = zeros._normalized_residuals(p.weighted_coefficients()[None], pts)
        want = np.abs(model.evaluate_normalized(p, pts[0]))
        np.testing.assert_allclose(res[0], want, rtol=1e-12)
        np.testing.assert_allclose(res[0, 2:], 4.0, rtol=1e-12)

    def test_vanishing_derivative_row_takes_its_branch_alone(self, monkeypatch):
        # row 2 has a double root at 0, where two of its start points sit:
        # p and p' vanish there, so the first sweep and the polish run the
        # masked updates that other sweeps skip, and on seed 8 the last
        # sweep moves a single root.  The batch must match the loop oracle,
        # the row its one-row solve and the other rows the batch without it
        n = 10
        w = _sample(8, 5, n) * np.exp(model._log_weights(n))
        w[2, :2] = 0.0
        sweeps = []
        ratio = zeros._newton_ratio

        def spy(stack, row, z, az):
            step, deriv_zero = ratio(stack, row, z, az)
            sweeps.append((len(z), bool(deriv_zero.any())))
            return step, deriv_zero

        monkeypatch.setattr(zeros, "_newton_ratio", spy)
        roots = _assert_matches_loop(w)
        assert sweeps[0] == (5 * n, True) and (1, False) in sweeps
        assert np.sum(roots[2] == 0) == 2
        one_roots, one_conv = zeros._aberth_batch(w[2:3])
        assert np.array_equal(one_roots[0], roots[2]) and one_conv[0]
        rest = [0, 1, 3, 4]
        rest_roots, rest_conv = zeros._aberth_batch(w[rest])
        assert np.array_equal(rest_roots, roots[rest]) and rest_conv.all()

    def test_critical_point_start_takes_the_fallback_step(self, monkeypatch):
        # a root at a zero of p' where p is not 0 steps by -0.1 (1 + |z|),
        # the one masked update that changes a step.  No Bini start point
        # lies on a critical point, so both the kernel and the loop oracle
        # start row 2 at 0, where w_1 = 0 and w_0 != 0
        n = 10
        w = _sample(9, 5, n) * np.exp(model._log_weights(n))
        w[2, 1] = 0.0
        bini, loop_bini = zeros._bini_start_points, _loop_bini

        def at_zero(start):
            def points(w):
                z = start(w).copy()
                z[2, 0] = 0.0
                return z
            return points

        monkeypatch.setattr(zeros, "_bini_start_points", at_zero(bini))
        monkeypatch.setitem(globals(), "_loop_bini", at_zero(loop_bini))
        roots = _assert_matches_loop(w)
        residuals = zeros._normalized_residuals(w, roots)
        assert residuals.max() <= 1e-8

    @pytest.mark.parametrize("degree,rows", [(10, 48), (50, 12)])
    def test_rows_are_independent(self, degree, rows):
        # converged rows leave the sweeps early; each row's roots and flag
        # must be bit-identical to a one-row solve
        alpha = gaussian_matrix(23, np.arange(rows, dtype=np.uint64), degree + 1)
        w = alpha * np.exp(model._log_weights(degree))
        roots, conv = zeros._aberth_batch(w)
        assert conv.all()
        assert zeros._normalized_residuals(alpha * model._weights(degree), roots).max() <= 1e-8
        for i in range(rows):
            one_roots, one_conv = zeros._aberth_batch(w[i : i + 1])
            assert np.array_equal(one_roots[0], roots[i])
            assert one_conv[0] == conv[i]


class TestCountFromRoots:
    def test_linear_cases(self):
        zs = zeros.find_all_roots(SU2Polynomial(1, [1, 1]))  # root -1
        assert zeros.count_zeros_from_roots(zs, zeros.Disk(0, 0.5)).count == 0
        assert zeros.count_zeros_from_roots(zs, zeros.Disk(0, 2.0)).count == 1

    def test_multiplicity(self):
        zs = zeros.find_all_roots(SU2Polynomial(2, [0, 0, 1]))
        assert zeros.count_zeros_from_roots(zs, zeros.Disk(0, 0.1)).count == 2

    def test_boundary_flagging(self):
        zs = zeros.find_all_roots(SU2Polynomial(1, [1, 1]))  # root exactly at -1
        zc = zeros.count_zeros_from_roots(zs, zeros.Disk(0, 1.0))
        assert zc.near_boundary == 1
        assert zc.count == 0  # strict inequality

    def test_off_center_disk(self):
        zs = zeros.find_all_roots(SU2Polynomial(1, [1, 1]))
        assert zeros.count_zeros_from_roots(zs, zeros.Disk(-1 + 0j, 0.3)).count == 1


EMPTY_BATCH_DTYPES = {  # each batch kernel's outputs on zero rows
    "_batch_winding": (np.int64, bool),
    "_batch_schur_cohn": (np.int64, bool),
    "_batch_boundary_log_max": (float, float),
    "_batch_circle_log_means": (float, float, bool, float),
}


class TestArgumentPrinciple:
    def test_monomial_multiplicity(self):
        p = SU2Polynomial(2, [0, 0, 1])
        zc = zeros.count_zeros_argument_principle(p, zeros.Disk(0, 1.0))
        assert zc.count == 2
        assert zc.method == "argument_principle"

    def test_linear_cases(self):
        p = SU2Polynomial(1, [1, 1])
        assert zeros.count_zeros_argument_principle(p, zeros.Disk(0, 0.5)).count == 0
        assert zeros.count_zeros_argument_principle(p, zeros.Disk(0, 2.0)).count == 1

    @pytest.mark.parametrize("disk", [zeros.Disk(0, 1.0), zeros.Disk(0.3 + 0.1j, 0.5)],
                             ids=["centered", "off-center"])
    def test_nonzero_constant_counts_zero(self, disk):
        zc = zeros.count_zeros_argument_principle(SU2Polynomial(0, [2.5 - 1j]), disk)
        assert zc.count == 0
        assert zc.method == "argument_principle"

    def test_near_boundary_zero_rejected(self):
        p = SU2Polynomial(1, [1, 1])  # root at -1
        with pytest.raises(zeros.ContourError):
            zeros.count_zeros_argument_principle(p, zeros.Disk(0, 1.0 + 1e-12))

    def test_off_center_contour(self):
        p = SU2Polynomial(2, [1, 0, 1])  # zeros at +-i
        assert zeros.count_zeros_argument_principle(
            p, zeros.Disk(1j, 0.5)
        ).count == 1

    def test_cross_oracle_agreement(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 60:
            n = int(rng.integers(1, 51))
            p = random_poly(rng, n)
            r = (0.5, 1.0, 2.0)[checked % 3]
            zs = zeros.find_all_roots(p)
            by_roots = zeros.count_zeros_from_roots(zs, zeros.Disk(0, r))
            if by_roots.near_boundary:
                continue
            by_phase = zeros.count_zeros_argument_principle(p, zeros.Disk(0, r))
            assert by_phase.count == by_roots.count
            checked += 1

    def test_center_zero_is_one_row_batch_winding(self):
        rng = np.random.default_rng(29)
        for i in range(200):
            n = int(rng.integers(1, 51))
            p = random_poly(rng, n)
            r = (0.5, 1.0, 2.0)[i % 3]
            counts, ok = zeros._batch_winding(_rows(p.coefficients, n, r)[0], r)
            if ok[0]:
                got = zeros.count_zeros_argument_principle(p, zeros.Disk(0, r))
                assert got.count == counts[0]
            else:
                with pytest.raises(zeros.ContourError):
                    zeros.count_zeros_argument_principle(p, zeros.Disk(0, r))

    def test_off_center_agrees_with_roots(self):
        # random disks, half of them centered near a zero so they hold
        # some, and every fourth one around the origin; |c| up to 30,
        # r down to 1e-3, and a few degrees up to 400
        rng = np.random.default_rng(41)
        degrees = [int(n) for n in rng.integers(1, 201, 80)] + [300, 400]
        checked = 0
        for i, n in enumerate(degrees):
            p = random_poly(rng, n)
            zs = zeros.find_all_roots(p)
            r = float(np.exp(rng.uniform(math.log(1e-3), math.log(3.0))))
            if i % 4 == 0:
                center = complex(*rng.uniform(-1, 1, 2)) * 0.9 * r
            elif i % 2:
                center = zs.locations[rng.integers(len(zs.locations))] \
                    + 0.5 * r * np.exp(2j * np.pi * rng.uniform())
            else:
                center = np.exp(rng.uniform(math.log(1e-3), math.log(30.0))
                                + 2j * np.pi * rng.uniform())
            disk = zeros.Disk(complex(center), r)
            by_roots = zeros.count_zeros_from_roots(zs, disk)
            if by_roots.near_boundary:
                continue
            assert zeros.count_zeros_argument_principle(p, disk).count == by_roots.count
            checked += 1
        assert checked >= 75

    def test_off_center_margin(self):
        rng = np.random.default_rng(43)
        center, r = 0.3 + 0.2j, 0.7
        edge = center + r * np.exp(0.7j)
        outward = np.exp(0.7j)
        p = SU2Polynomial(8, _alpha_with_zero_at(rng, 8, edge + 1e-10 * outward))
        with pytest.raises(zeros.ContourError):
            zeros.count_zeros_argument_principle(p, zeros.Disk(center, r))
        p = SU2Polynomial(8, _alpha_with_zero_at(rng, 8, edge + 1e-6 * outward))
        by_roots = zeros.count_zeros_from_roots(zeros.find_all_roots(p),
                                                zeros.Disk(center, r))
        got = zeros.count_zeros_argument_principle(p, zeros.Disk(center, r))
        assert got.count == by_roots.count

    def test_precision_floor_refuses_monomial_gaussian(self):
        # i.i.d. monomial coefficients: the normalized modulus spans too many
        # orders along this contour for the recentered row, which without
        # the floor counts 70 zeros for seed 0 against 71 roots
        n = 150
        disk = zeros.Disk(-0.2 + 0.9j, 1.3)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            p = SU2Polynomial(n, g * np.exp(-model._log_weights(n)))
            with pytest.raises(zeros.ContourError):
                zeros.count_zeros_argument_principle(p, disk)

    @pytest.mark.parametrize("modulus", [1e-8, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e6])
    def test_recentered_disk(self, modulus):
        # against a 60-digit evaluation of the same closed forms
        center = modulus * np.exp(2.2j)
        for r in (1e-4, 1e-2, 0.3, 1.0, 4.0, 100.0):
            a, rho = zeros._recentered_disk(center, r)
            with localcontext() as ctx:
                ctx.prec = 60
                m, rr = Decimal(abs(center)), Decimal(r)
                d = 1 + rr * rr - m * m
                t = ((d * d + 4 * m * m).sqrt() - d) / (2 * m)
                want = rr * (1 + t * t) / ((1 + t * (m - rr)) * (1 + t * (m + rr)))
            assert abs(float((Decimal(abs(a)) - t) / t)) <= 1e-15
            assert abs(float((Decimal(rho) - want) / want)) <= 1e-15
            assert abs(a / abs(a) - center / abs(center)) <= 1e-15

    def test_far_disks(self):
        # rho is about 1/|c|^2: the product of its two denominator factors
        # overflows from |c| = 1e77 on, and t itself past |c| = 1.3e154,
        # where the disk is refused by name
        for n in (12, 200):
            p = model.sample_polynomial(n, RngSeed(1, 0))
            for c in (1e100, -1e120j, 1e153 * np.exp(0.4j)):
                a, rho = zeros._recentered_disk(c, 1.0)
                assert rho == pytest.approx(abs(c) ** -2, rel=1e-12)
                assert zeros.count_zeros_argument_principle(p, zeros.Disk(c, 1.0)).count == 0
            for c in (1e154, 1e200j):
                with pytest.raises(ValueError, match=r"Disk\(center="):
                    zeros.count_zeros_argument_principle(p, zeros.Disk(c, 1.0))

    @pytest.mark.parametrize("center", [1e-8j, 0.3 - 0.4j, -1.0, 2.0 + 2.0j])
    def test_recentered_disk_maps_diameter_ends(self, center):
        for r in (0.1, 0.5, 1.0, 3.0, 10.0):
            a, rho = zeros._recentered_disk(center, r)
            for sign in (-1, 1):
                z = center + sign * r * center / abs(center)
                w = (z - a) / (1 + np.conj(a) * z)
                assert abs(abs(w) - rho) <= 1e-14 * rho

    def test_off_center_count_is_one_winding_call(self, monkeypatch):
        calls = []
        winding = zeros._batch_winding

        def spy(*args):
            calls.append(args[0].shape)
            return winding(*args)

        monkeypatch.setattr(zeros, "_batch_winding", spy)
        p = model.sample_polynomial(200, RngSeed(3, 0))
        for disk in (zeros.Disk(0.3 + 0.2j, 0.7), zeros.Disk(0, 0.7)):
            calls.clear()
            zeros.count_zeros_argument_principle(p, disk)
            assert calls == [(1, 201)]

    # the row of (z - 1.0001 e^{0.06 i pi})(z + 0.5) on the unit circle: its
    # zero 1e-4 outside, between two of 8 start angles (2 samples per
    # coefficient, in the tests that use it), forces a dozen bisection rounds
    Z0 = 1.0001 * np.exp(0.06j * np.pi)
    NEAR_ROW = np.array([[-0.5 * Z0, 0.5 - Z0, 1.0]])

    def _spy_bisection(self, monkeypatch):
        # the midpoints of each bisection round, in turns: the round's one
        # Horner pass is the only one a winding count runs
        seen = []
        horner = zeros._horner

        def spy(top, cols, x, depth):
            seen.append(np.angle(x) / (2.0 * np.pi) % 1.0)
            return horner(top, cols, x, depth)

        monkeypatch.setattr(zeros, "_horner", spy)
        return seen

    def test_bisection_evaluates_each_point_once(self, monkeypatch):
        # each round evaluates only its new midpoints, never a start angle
        monkeypatch.setattr(zeros, "_WINDING_SAMPLES", 2)
        seen = self._spy_bisection(monkeypatch)
        counts, ok = zeros._batch_winding(self.NEAR_ROW, 1.0, 1e-9)
        assert ok[0] and counts[0] == 1
        assert len(seen) > 10
        turns = np.concatenate(seen)
        assert len(np.unique(turns)) == len(turns)
        assert not np.any(turns * 8 == np.round(turns * 8))

    def test_bisection_stops_at_node_cap(self, monkeypatch):
        # the row needs 8 start points plus its midpoints; one point fewer
        # fails it, and a null row fails at any cap
        monkeypatch.setattr(zeros, "_WINDING_SAMPLES", 2)
        seen = self._spy_bisection(monkeypatch)
        zeros._batch_winding(self.NEAR_ROW, 1.0, 1e-9)
        needed = 8 + sum(len(t) for t in seen)
        for cap, certified in ((needed, True), (needed - 1, False)):
            monkeypatch.setattr(zeros, "NODE_CAP", cap)
            counts, ok = zeros._batch_winding(self.NEAR_ROW, 1.0, 1e-9)
            assert ok[0] == certified
            assert counts[0] == (1 if certified else 0)
        _, ok = zeros._batch_winding(np.zeros((1, 5), dtype=complex), 1.0, 1e-9)
        assert not ok[0]

    def test_bisection_fails_a_row_left_rough(self, monkeypatch):
        # two zeros 1e-4 inside the unit circle: with fewer rounds than the
        # row needs, its rough intervals hold whole turns of phase, and a
        # total without them would certify a wrong count
        z1, z2 = 0.9999 * np.exp(0.06j * np.pi), 0.9999 * np.exp(1.1j * np.pi)
        row = np.array([[z1 * z2, -(z1 + z2), 1.0]])
        monkeypatch.setattr(zeros, "_WINDING_SAMPLES", 2)
        seen = self._spy_bisection(monkeypatch)
        counts, ok = zeros._batch_winding(row, 1.0, 1e-9)
        assert ok[0] and counts[0] == 2
        for rounds in range(1, len(seen)):
            monkeypatch.setattr(zeros, "_MAX_REFINEMENTS", rounds)
            counts, ok = zeros._batch_winding(row, 1.0, 1e-9)
            assert not ok[0] and counts[0] == 0

    def test_mixed_batch_bisects_each_row_as_alone(self, monkeypatch):
        # rows with a zero 1e-4 to 1e-7 outside the unit circle, a third of
        # the way between two first-grid angles, and one 1e-11 outside,
        # which 20 rounds cannot resolve, among random rows.  A small
        # _GRID_CHUNK splits the first grid into chunks of one or two rows,
        # whose rough intervals must still be bisected as one list: one
        # Horner pass per round
        rng = np.random.default_rng(47)
        for n in (12, 50):
            m0 = zeros._next_pow2(zeros._WINDING_SAMPLES * (n + 1))
            rows = []
            for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-11):
                angle = 2.0 * np.pi * (rng.integers(m0) + 1 / 3) / m0
                rows.append(_alpha_with_zero_at(rng, n, (1.0 + eps) * np.exp(1j * angle)))
                rows.extend(random_poly(rng, n).coefficients for _ in range(3))
            alpha = np.array(rows)
            b = _rows(alpha, n, 1.0)[0]
            whole = zeros._batch_winding(b, 1.0)
            with monkeypatch.context() as patch:
                seen = self._spy_bisection(patch)
                patch.setattr(zeros, "_GRID_CHUNK", 1 << 9)
                counts, ok = zeros._batch_winding(b, 1.0)
                assert 10 < len(seen) <= zeros._MAX_REFINEMENTS
                assert np.array_equal(counts, whole[0]) and np.array_equal(ok, whole[1])
                assert ok.tolist() == [i != 16 for i in range(len(alpha))]
                for i, a in enumerate(alpha):
                    one, one_ok = zeros._batch_winding(_rows(a, n, 1.0)[0], 1.0)
                    assert one_ok[0] == ok[i] and one[0] == counts[i]
            for a, count in zip(alpha[ok], counts[ok]):
                roots = zeros.find_all_roots(SU2Polynomial(n, a))
                assert zeros.count_zeros_from_roots(roots, zeros.Disk(0, 1.0)).count == count

    def test_pruned_derivative_grid_keeps_margin_refusals(self):
        # 1-3 zeros 1e-13 to 1e-3 from the contour, each at a first-grid
        # angle so that the Newton step there sees it: every row whose
        # Newton distance on the full first grids falls below the margin
        # must be refused, though the kernel takes the derivative grid only
        # for rows with a sample below 2 margin sum k |b_k| / r
        rng = np.random.default_rng(53)
        margin = zeros.DEFAULT_BOUNDARY_MARGIN
        within = 0
        for n in (8, 30, 60):
            for r in (0.5, 1.0, 2.0):
                m0 = zeros._next_pow2(zeros._WINDING_SAMPLES * (n + 1))
                alpha = np.array([_alpha_with_zero_at(rng, n, *(
                    (r + rng.choice((-1, 1)) * 10 ** rng.uniform(-13, -3))
                    * np.exp(2j * np.pi * rng.integers(m0) / m0)
                    for _ in range(rng.integers(1, 4)))) for _ in range(40)])
                b = zeros._circle_fourier_coeffs(alpha, n, r)[0]
                mag = np.abs(_circle_grid(b, m0))
                dmag = np.abs(_circle_grid(b * (1j * np.arange(n + 1)), m0))
                with np.errstate(divide="ignore", invalid="ignore"):
                    newton = (r * mag / dmag < margin).any(axis=1)
                _, ok = zeros._batch_winding(b, r)
                assert not (ok & newton).any(), (n, r)
                within += newton.sum()
        assert within >= 50

    def test_rare_rows_take_their_branches_alone(self, monkeypatch):
        # a first-grid chunk runs the TINY_SAMPLE test and the derivative
        # grid only when one of its rows needs them.  Row 1 is 2^-980 z,
        # below the range band: its samples fall under TINY_SAMPLE but
        # clear the floor, and the products of its phase steps underflow to
        # 0, so without the test it would certify 0 zeros.  Row 6 has a zero
        # 3e-10 outside the circle at a grid angle, inside the Bernstein
        # gate.  A small _GRID_CHUNK puts them in different chunks.  Each
        # must equal its one-row call, and the other rows the batch without
        # both
        rng = np.random.default_rng(59)
        n, r, margin = 12, 1.0, zeros.DEFAULT_BOUNDARY_MARGIN
        m0 = zeros._next_pow2(zeros._WINDING_SAMPLES * (n + 1))
        alpha = np.array([random_poly(rng, n).coefficients for _ in range(8)])
        alpha[6] = _alpha_with_zero_at(rng, n, (r + 3e-10) * np.exp(2j * np.pi * 37 / m0))
        b = zeros._circle_fourier_coeffs(alpha, n, r)[0]
        b[1] = 0.0
        b[1, 1] = 2.0**-980
        low = np.abs(_circle_grid(b, m0)).min(axis=1)
        gate = (2.0 * margin / r) * (np.abs(b) @ np.arange(n + 1))
        assert (low < zeros.TINY_SAMPLE).tolist() == [i == 1 for i in range(8)]
        assert (low < gate).tolist() == [i == 6 for i in range(8)]
        monkeypatch.setattr(zeros, "_GRID_CHUNK", 4 * m0)
        counts, ok = zeros._batch_winding(b, r, margin)
        # the tiny row's intervals stay rough, and the Newton step refuses
        # row 6; z itself counts 1
        assert ok.tolist() == [i not in (1, 6) for i in range(8)]
        one, one_ok = zeros._batch_winding(b[1:2] * 2.0**980, r, margin)
        assert one_ok[0] and one[0] == 1
        for i in (1, 6):
            one = zeros._batch_winding(b[i : i + 1], r, margin)
            assert (counts[i], ok[i]) == (one[0][0], one[1][0])
        rest = [0, 2, 3, 4, 5, 7]
        want = zeros._batch_winding(b[rest], r, margin)
        assert np.array_equal(counts[rest], want[0]) and np.array_equal(ok[rest], want[1])

    @pytest.mark.parametrize("kernel", [getattr(zeros, name) for name in EMPTY_BATCH_DTYPES])
    def test_empty_batch(self, kernel):
        b, log_scale = _rows(np.zeros((0, 13), dtype=complex), 12, 1.0)
        # the counts read the radius, the log kernels the log scale
        counting = kernel in (zeros._batch_winding, zeros._batch_schur_cohn)
        out = kernel(b, 1.0 if counting else log_scale)
        assert [(a.shape, a.dtype) for a in out] == [
            ((0,), np.dtype(t)) for t in EMPTY_BATCH_DTYPES[kernel.__name__]]

    def test_huge_radius_counts_every_zero(self):
        p = model.sample_polynomial(12, RngSeed(5, 0))
        assert zeros.count_zeros_argument_principle(p, zeros.Disk(0, 1e200)).count == 12

    @pytest.mark.parametrize("center,radius", [
        (0.0, math.inf), (0.0, math.nan), (complex(math.inf, 0), 1.0),
        (complex(0, math.nan), 1.0),
    ])
    def test_disk_refuses_non_finite(self, center, radius):
        with pytest.raises(ValueError):
            zeros.Disk(center, radius)


def _sample(seed, rows, degree):
    return gaussian_matrix(seed, np.arange(rows, dtype=np.uint64), degree + 1)


def _alpha_with_zero_at(rng, degree, *zs):
    """Coefficients of a random polynomial times (z - zero) for each zero."""
    k = degree + 1 - len(zs)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    for zero in zs:
        w = np.convolve(w, [-zero, 1.0])
    return w * np.exp(-model._log_weights(degree))


SCHUR_COHN_GRID = [(n, r) for n in (1, 4, 8, 12, 16, 24, 32) for r in (0.5, 1.0, 2.0)]
# settings where the floor proves nearly every row clear of the default
# margin; at r = 1 it weakens from N = 12 on, and at N >= 24 a share of
# rows (nearly all at r = 1) is left to winding
FLOOR_CLEARS = {(n, r) for n, r in SCHUR_COHN_GRID
                if n <= 8 or (n <= 16 and r != 1.0)}


class TestSchurCohn:
    @pytest.mark.parametrize("degree,r", SCHUR_COHN_GRID)
    def test_agrees_with_winding_and_roots(self, degree, r):
        # counts do not depend on the margin; the gap rule alone
        # (boundary_margin = 0) certifies them on the whole grid
        alpha = _sample(300 + degree, 16384, degree)
        b = _rows(alpha, degree, r)[0]
        counts, certified = zeros._batch_schur_cohn(b, r)
        _, gap_ok = zeros._batch_schur_cohn(b, r, boundary_margin=0.0)
        assert not (certified & ~gap_ok).any()
        assert gap_ok.mean() > 0.99
        if (degree, r) in FLOOR_CLEARS:
            assert certified.mean() > 0.99
        wcounts, wok = zeros._batch_winding(b, r)
        both = gap_ok & wok
        assert wok.all()
        assert np.array_equal(counts[both], wcounts[both])
        sub = alpha[:1024]
        roots, conv = zeros._aberth_batch(sub * np.exp(model._log_weights(degree)))
        res = zeros._normalized_residuals(sub * model._weights(degree), roots).max(axis=1)
        trusted = conv & (res <= 1e-8) & gap_ok[:1024]
        assert trusted.mean() > 0.95
        rcounts = (np.abs(roots) < r).sum(axis=1)
        assert np.array_equal(counts[:1024][trusted], rcounts[trusted])

    def test_degree_zero(self):
        counts, certified = zeros._batch_schur_cohn(_rows([[2.0 + 1j], [0.0]], 0, 0.7)[0], 0.7)
        assert counts.tolist() == [0, 0]
        assert certified.tolist() == [True, False]

    def test_degree_one(self):
        # psi = a0 + a1 z has its zero at -a0/a1
        alpha = np.array([[1.0, 4.0], [1.0, 1.0], [3.0, -1j], [1.0, 3.0]])
        counts, certified = zeros._batch_schur_cohn(_rows(alpha, 1, 0.5)[0], 0.5)
        assert certified.all()
        assert counts.tolist() == [1, 0, 0, 1]
        counts, certified = zeros._batch_schur_cohn(_rows(alpha, 1, 4.0)[0], 4.0)
        assert certified.all()
        assert counts.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("degree,r", [(1, 1.0), (8, 0.5), (12, 1.0), (20, 2.0)])
    def test_zero_on_circle_is_uncertified(self, degree, r):
        rng = np.random.default_rng(degree)
        rows = [_alpha_with_zero_at(rng, degree, r * np.exp(1j * t))
                for t in rng.uniform(0, 2 * np.pi, 16)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for margin in (zeros.DEFAULT_BOUNDARY_MARGIN, 0.0):
                _, certified = zeros._batch_schur_cohn(_rows(rows, degree, r)[0], r, margin)
                assert not certified.any()

    def test_gap_rule(self):
        # at N = 32, r = 1 about 1 % of rows have a step gap below the
        # threshold; exactly those are refused
        alpha = _sample(77, 4096, 32)
        b = _rows(alpha, 32, 1.0)[0]
        _, certified = zeros._batch_schur_cohn(b, 1.0, boundary_margin=0.0)
        trail, lead, _ = zeros._schur_cohn_steps(b)
        small = (np.abs(trail - lead) < zeros.SCHUR_COHN_MIN_GAP).any(axis=1)
        assert small.sum() >= 10
        assert np.array_equal(certified, ~small)

    def test_degree_above_cap_is_uncertified(self):
        n = zeros.SCHUR_COHN_MAX_DEGREE + 1
        counts, certified = zeros._batch_schur_cohn(_rows(_sample(5, 64, n), n, 0.5)[0], 0.5)
        assert not certified.any()
        assert counts.shape == (64,)

    def test_vanishing_recursion_is_uncertified_without_warnings(self):
        # psi = 1 + z^2 equals its own reflection on |z| = 1, so F = 0;
        # a null row divides 0 by 0 at the first step
        alpha = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.25]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, certified = zeros._batch_schur_cohn(_rows(alpha, 2, 1.0)[0], 1.0)
        assert certified.tolist() == [False, False, True]
        assert counts[2] == 0  # zeros of 1 + z^2/4 at +-2i

    def test_never_writes_its_input(self):
        b = _rows(_sample(21, 512, 12), 12, 1.0)[0]
        fortran = np.asfortranarray(b)
        frozen = b.copy()
        frozen.flags.writeable = False
        want = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (b.copy(), fortran, frozen):
                before = rows.copy(order="A")
                got = (*zeros._schur_cohn_steps(rows), *zeros._batch_schur_cohn(rows, 1.0))
                assert rows.tobytes(order="A") == before.tobytes(order="A")
                if want is None:
                    want = got
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("degree", [1, 2, 12, 32])
    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_counts_rebuilt_from_steps(self, degree, r):
        # the documented rules applied to the recursion's moduli: a step
        # flips where |a_0| < |a_d| and adds +-d, the sign alternating per
        # flip; a row is certified when every gap clears the threshold and
        # the floor clears the margin slope (margin 0: any finite floor)
        b = _rows(_sample(500 + degree, 4096, degree), degree, r)[0]
        trail, lead, log_floor = zeros._schur_cohn_steps(b)
        gap = trail - lead
        flips = gap < 0
        sign = 1 - 2 * ((np.cumsum(flips, axis=1) - flips) & 1)
        counts = (flips * sign * np.arange(degree, 0, -1)).sum(axis=1)
        gap_ok = (np.abs(gap) >= zeros.SCHUR_COHN_MIN_GAP).all(axis=1)
        assert gap_ok.mean() > 0.9
        k = np.arange(1, degree + 1)
        for margin in (zeros.DEFAULT_BOUNDARY_MARGIN, 0.0):
            h = margin / r
            with np.errstate(divide="ignore"):
                log_slope = np.log(2.0 * h * (np.abs(b[:, 1:]) @ (k * (1.0 + h) ** (k - 1))))
            got_counts, got_certified = zeros._batch_schur_cohn(b, r, margin)
            assert np.array_equal(got_counts, counts)
            assert np.array_equal(got_certified, gap_ok & (log_floor > log_slope))

    @pytest.mark.parametrize("degree,r", [(4, 0.5), (12, 1.0), (24, 2.0), (32, 1.0)])
    def test_floor_bounds_circle_minimum(self, degree, r):
        # the floor must sit below min |f| on |z| = 1, which a dense grid
        # over-estimates
        b = zeros._circle_fourier_coeffs(_sample(40 + degree, 2048, degree), degree, r)[0]
        _, _, log_floor = zeros._schur_cohn_steps(b)
        grid_min = np.abs(_circle_grid(b, 64 * (degree + 1))).min(axis=1)
        finite = np.isfinite(log_floor)
        assert finite.mean() > 0.99
        assert (log_floor[finite] <= np.log(grid_min[finite])).all()

    @pytest.mark.parametrize("degree,r", [(6, 0.5), (12, 2.0)])
    def test_margin_excludes_near_contour_zero(self, degree, r):
        # a zero 1e-4 r outside the contour: clear of a 1e-9 margin, inside
        # a 1e-3 r one
        rng = np.random.default_rng(degree)
        rows = np.array([_alpha_with_zero_at(rng, degree, r * (1 + 1e-4) * np.exp(1j * t))
                         for t in rng.uniform(0, 2 * np.pi, 32)])
        b = _rows(rows, degree, r)[0]
        counts, certified = zeros._batch_schur_cohn(b, r)
        wcounts, wok = zeros._batch_winding(b, r)
        assert certified.mean() > 0.9
        assert np.array_equal(counts[certified & wok], wcounts[certified & wok])
        _, certified = zeros._batch_schur_cohn(b, r, boundary_margin=1e-3 * r)
        assert not certified.any()

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is no wider than double here")
    def test_calibration_against_long_double(self):
        # the same recursion rerun in clongdouble on the same inputs: on
        # certified rows each step's error must sit far below that step's
        # gap and below a tenth of the certification threshold, and the
        # floor's log within 1e-3 (its use leaves a factor of 2)
        tau = zeros.SCHUR_COHN_MIN_GAP
        worst = 0.0
        for degree, r in SCHUR_COHN_GRID:
            alpha = _sample(700 + degree, 8192, degree)
            b = zeros._circle_fourier_coeffs(alpha, degree, r)[0]
            trail, lead, log_floor = zeros._schur_cohn_steps(b)
            trail_ld, lead_ld, log_floor_ld = zeros._schur_cohn_steps(b.astype(np.clongdouble))
            gap = np.abs(trail - lead)
            certified = (gap >= tau).all(axis=1)
            err = np.maximum(np.abs(trail - trail_ld), np.abs(lead - lead_ld)).astype(float)
            assert (err[certified] < gap[certified] / 100).all(), (degree, r)
            floor_err = np.abs(log_floor - log_floor_ld).astype(float)[certified]
            assert (floor_err < 1e-3).all(), (degree, r)
            worst = max(worst, float(err[certified].max()))
        assert worst < tau / 10


class TestCircleLogIntegral:
    def test_constant(self):
        assert zeros.circle_log_integral(SU2Polynomial(0, [3.0]), 1.0) == \
            pytest.approx(math.log(3.0), abs=1e-12)

    def test_no_zeros_mean_value(self):
        assert zeros.circle_log_integral(SU2Polynomial(1, [1, 1]), 0.5) == \
            pytest.approx(0.0, abs=1e-9)

    def test_single_zero_inside(self):
        assert zeros.circle_log_integral(SU2Polynomial(1, [1, 1]), 2.0) == \
            pytest.approx(math.log(2.0), abs=1e-9)

    def test_zero_on_circle_fails_at_cap(self):
        # root at distance ~1e-12 from the circle cannot converge
        p = SU2Polynomial(1, [1 + 1e-12, 1])
        with pytest.raises(zeros.QuadratureError) as err:
            zeros.circle_log_integral(p, 1.0)
        assert math.isfinite(err.value.best_estimate)

    def test_node_cap_reports_last_gap(self, monkeypatch):
        monkeypatch.setattr(zeros, "NODE_CAP", 1024)
        p = SU2Polynomial(1, [1 + 1e-12, 1])
        with pytest.raises(zeros.QuadratureError) as err:
            zeros.circle_log_integral(p, 1.0)
        assert math.isfinite(err.value.gap)
        assert err.value.gap >= zeros.DEFAULT_QUADRATURE_TARGET
        _, _, ok, gap = zeros._batch_circle_log_means(*_rows([[1 + 1e-12, 1], [1.0, 0.0]], 1, 1.0))
        assert ok.tolist() == [False, True]
        assert np.isfinite(gap).all()

    def test_zero_on_a_node_fails_only_its_row(self):
        # psi = 1 + z has its zero at theta = pi, a node of every grid: the
        # floored sample stays in each doubling, so the row never settles
        on_node = SU2Polynomial(1, [1, 1])
        for integral in (zeros.circle_log_integral, zeros.circle_abs_log_integral):
            with pytest.raises(zeros.QuadratureError) as err:
                integral(on_node, 1.0)
            assert math.isfinite(err.value.best_estimate)
            assert math.isfinite(err.value.gap)
        rng = np.random.default_rng(12)
        rows = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / math.sqrt(2)
        rows = np.insert(rows, 2, on_node.coefficients, axis=0)
        batch = zeros._batch_circle_log_means(*_rows(rows, 1, 1.0))
        assert batch[2].tolist() == [True, True, False, True, True]
        for i in (0, 1, 3, 4):
            alone = zeros._batch_circle_log_means(*_rows(rows[i : i + 1], 1, 1.0))
            for got, want in zip(batch, alone):
                assert got[i : i + 1].tobytes() == want.tobytes()

    def test_chunking_keeps_every_bit(self, monkeypatch):
        # a small _GRID_CHUNK splits the rows into chunks at M0 and again in
        # the doubling tail; each row must not see where its chunk ends
        n = 10
        binom = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
        rng = np.random.default_rng(21)
        rows = (rng.standard_normal((40, n + 1))
                + 1j * rng.standard_normal((40, n + 1))) / math.sqrt(2)
        for i, root in ((5, (1 + 1e-7) * np.exp(0.7j)), (17, -1.0)):
            # psi = (z - root) q(z): a zero 1e-7 off the circle, and one on
            # the node theta = pi of every grid
            w = np.convolve(rows[i, :n], [-root, 1.0])
            rows[i] = w / np.sqrt(binom)
        whole = zeros._batch_circle_log_means(*_rows(rows, n, 1.0))
        monkeypatch.setattr(zeros, "_GRID_CHUNK", 1 << 9)
        chunked = zeros._batch_circle_log_means(*_rows(rows, n, 1.0))
        assert not chunked[2][[5, 17]].any()
        for got, want in zip(chunked, whole):
            assert got.tobytes() == want.tobytes()
        for i in range(len(rows)):
            alone = zeros._batch_circle_log_means(*_rows(rows[i : i + 1], n, 1.0))
            for got, want in zip(chunked, alone):
                assert got[i : i + 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("absolute", [True, False])
    def test_near_circle_zeros_keep_every_bit(self, monkeypatch, absolute):
        # two zeros 1e-6 and 1e-5 off the circle, 1e-3 rad apart: the Newton
        # starts and the zeros divided out must not see the batch or the chunk
        n = 10
        binom = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
        rng = np.random.default_rng(22)
        rows = (rng.standard_normal((24, n + 1))
                + 1j * rng.standard_normal((24, n + 1))) / math.sqrt(2)
        for i in (3, 11, 12, 20):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            pair = [-(1 - 1e-6) * np.exp(1j * angle), 1.0], \
                [-(1 + 1e-5) * np.exp(1j * (angle + 1e-3)), 1.0]
            rows[i] = np.convolve(np.convolve(rows[i, : n - 1], pair[0]), pair[1]) \
                / np.sqrt(binom)
        whole = zeros._batch_circle_log_means(*_rows(rows, n, 1.0), absolute=absolute)
        monkeypatch.setattr(zeros, "_GRID_CHUNK", 1 << 9)
        chunked = zeros._batch_circle_log_means(*_rows(rows, n, 1.0), absolute=absolute)
        outputs = [k for k, out in enumerate(whole) if out is not None]
        assert len(outputs) == (4 if absolute else 3)
        for k in outputs:
            assert chunked[k].tobytes() == whole[k].tobytes()
        for i in range(len(rows)):
            alone = zeros._batch_circle_log_means(*_rows(rows[i : i + 1], n, 1.0),
                                                  absolute=absolute)
            for k in outputs:
                assert chunked[k][i : i + 1].tobytes() == alone[k].tobytes()

    @pytest.mark.parametrize("seed", [46, 107])
    def test_near_circle_zero_converges(self, seed):
        # these N = 200 rows ran to the node cap and were refused before their
        # zeros near the circle were divided out
        poly = model.sample_polynomial(200, RngSeed(seed, 0))
        assert zeros.jensen_residual(poly, 1.0) <= 1e-10

    def test_abs_log_integral_constant(self):
        # |log| of a unit constant is 0, below any outlier threshold
        assert zeros.circle_abs_log_integral(SU2Polynomial(0, [1.0]), 1.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_abs_log_integral_nonnegative_integrand(self):
        # psi = 1 + z on r = 2: |1 + 2e^{it}| >= 1, so |log| and log agree
        p = SU2Polynomial(1, [1, 1])
        assert zeros.circle_abs_log_integral(p, 2.0) == pytest.approx(
            zeros.circle_log_integral(p, 2.0), abs=1e-9
        )

    def test_abs_log_integral_splits_signs(self):
        # psi = 1 + z on r = 1.2: |psi| crosses 1, so mean |log| > mean log;
        # oracle: dense fixed-grid trapezoid, independent of the adaptive path
        r = 1.2
        theta = 2 * np.pi * np.arange(1 << 22) / (1 << 22)
        logs = 0.5 * np.log(1 + r * r + 2 * r * np.cos(theta))
        p = SU2Polynomial(1, [1, 1])
        mean_abs = zeros.circle_abs_log_integral(p, r)
        assert mean_abs == pytest.approx(float(np.mean(np.abs(logs))), abs=1e-6)
        assert mean_abs > zeros.circle_log_integral(p, r) + 0.05


class TestJensen:
    def test_linear_exact(self):
        assert zeros.jensen_residual(SU2Polynomial(1, [1, 1]), 2.0) <= 1e-10

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 12:
            n = int(rng.integers(1, 51))
            p = random_poly(rng, n)
            zs = zeros.find_all_roots(p)
            if np.min(np.abs(np.abs(zs.locations) - 1.0)) < 1e-3:
                continue
            if abs(p.coefficients[0]) <= 1e-12 * np.abs(p.coefficients).max():
                continue
            assert zeros.jensen_residual(p, 1.0) <= 1e-6
            done += 1

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ValueError):
            zeros.jensen_residual(SU2Polynomial(1, [0, 1]), 1.0)

    def test_overflowing_moduli(self):
        # every part is finite but every modulus overflows: psi(0) is not
        # zero, and the residual reads as on the row times 2^-60
        alpha = np.full(13, 1.7e308 + 1.7e308j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeros.jensen_residual(SU2Polynomial(12, alpha), 0.5) <= 1e-9
            assert zeros.jensen_residual(SU2Polynomial(12, alpha * 2.0**-60), 0.5) <= 1e-9

    def test_two_radius_difference(self):
        # annulus Jensen: circle-average difference balances root terms
        rng = np.random.default_rng(12)
        r, kappa = 1.0, 1.2
        done = 0
        while done < 8:
            n = int(rng.integers(1, 31))
            p = random_poly(rng, n)
            mods = np.abs(zeros.find_all_roots(p).locations)
            if np.min(np.abs(mods - r)) < 1e-3 or np.min(np.abs(mods - kappa * r)) < 1e-3:
                continue
            inside = mods < r
            annulus = (mods > r) & (mods < kappa * r)
            lhs = float(np.sum(np.log(kappa * r / mods[annulus]))) \
                + int(inside.sum()) * math.log(kappa)
            rhs = zeros.circle_log_integral(p, kappa * r) \
                - zeros.circle_log_integral(p, r)
            assert abs(lhs - rhs) <= 1e-6
            done += 1


class TestReversalDuality:
    def test_roots_invert(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 15:
            n = int(rng.integers(1, 31))
            p = random_poly(rng, n)
            fwd = zeros.find_all_roots(p).locations
            if np.min(np.abs(fwd)) < 1e-6:
                continue
            rev = zeros.find_all_roots(model.reverse_coefficients(p)).locations
            assert match_max_distance(rev, 1.0 / fwd) <= 1e-8
            done += 1

    def test_count_complement(self):
        # zeros of psi in B(0,r) <-> N minus zeros of reversal in closed B(0,1/r)
        rng = np.random.default_rng(32)
        r = 1.3
        done = 0
        while done < 10:
            n = int(rng.integers(1, 31))
            p = random_poly(rng, n)
            zs = zeros.find_all_roots(p)
            if zeros.count_zeros_from_roots(zs, zeros.Disk(0, r)).near_boundary:
                continue
            inside = zeros.count_zeros_from_roots(zs, zeros.Disk(0, r)).count
            rev = zeros.find_all_roots(model.reverse_coefficients(p))
            rev_inside_closed = int(np.sum(np.abs(rev.locations) <= 1.0 / r))
            assert inside == n - rev_inside_closed
            done += 1


_ORACLE_WIDTH = 1e-10  # final golden-section bracket width of the reference


def _golden_max_batch(obj_fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section maximization on bracketed unimodal data."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = invphi * invphi
    span = hi - lo
    x1 = lo + invphi2 * span
    x2 = lo + invphi * span
    f1 = obj_fn(x1)
    f2 = obj_fn(x2)
    # a bracket below the tolerance, or none at all, takes no iteration
    width = float(np.max(span, initial=_ORACLE_WIDTH))
    n_iter = int(math.ceil(math.log(_ORACLE_WIDTH / width) / math.log(invphi)))
    for _ in range(n_iter):
        take_left = f1 >= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
        x1_new = np.where(take_left, lo + invphi2 * (hi - lo), x2)
        x2_new = np.where(take_left, x1, lo + invphi * (hi - lo))
        fresh = obj_fn(np.where(take_left, x1_new, x2_new))
        f1, f2 = np.where(take_left, fresh, f2), np.where(take_left, f1, fresh)
        x1, x2 = x1_new, x2_new
    mid = 0.5 * (lo + hi)
    return mid, obj_fn(mid)


def _loop_log_abs(b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """log|psi_hat| of the B rows ``b`` at the (K, B) angles ``theta``,
    K per row, by a Horner loop over the coefficients."""
    x = np.exp(1j * theta)
    acc = np.zeros(x.shape, dtype=complex)
    for c in np.ascontiguousarray(b.T)[::-1]:
        acc *= x
        acc += c
    v = np.abs(acc)
    np.maximum(v, 1e-300, out=v)
    return np.log(v, out=v)


def _loop_boundary_log_max(alpha: np.ndarray, degree: int, r: float):
    """Reference boundary maximum: ``argpartition`` picks the three best
    grid peaks of each row, and golden-section search refines all three
    brackets of every row for the full number of rounds, as a (3, B)
    array whose Horner adds one whole coefficient row per step."""
    alpha = np.atleast_2d(alpha)
    n = degree
    b = zeros._circle_fourier_coeffs(alpha, n, r)[0]
    m = zeros._circle_nodes(n + 1)
    vals = np.abs(_circle_grid(b, m))
    np.maximum(vals, 1e-300, out=vals)
    logs = np.log(vals)
    is_peak = (logs >= np.roll(logs, 1, axis=1)) & (logs >= np.roll(logs, -1, axis=1))
    masked = np.where(is_peak, logs, -np.inf)
    top3 = np.argpartition(masked, -3, axis=1)[:, -3:]
    theta0 = 2.0 * np.pi * top3.T / m
    h = 2.0 * np.pi / m
    best_theta, best_val = _golden_max_batch(lambda t: _loop_log_abs(b, t), theta0 - h, theta0 + h)
    best_theta, best_val = best_theta.T, best_val.T
    scan_best = logs.max(axis=1)
    scan_arg = 2.0 * np.pi * logs.argmax(axis=1) / m
    refined_best = best_val.max(axis=1)
    refined_arg = np.take_along_axis(
        best_theta, best_val.argmax(axis=1)[:, None], axis=1
    )[:, 0]
    use_refined = refined_best >= scan_best
    out_log = np.where(use_refined, refined_best, scan_best)
    out_theta = np.where(use_refined, refined_arg, scan_arg)
    return out_log, out_theta


def _hat_log_max(alpha, degree: int, r: float):
    """The boundary-maximum kernel at log scale 0: log max |psi_hat| and
    the angles, which the grid and reference tests compare."""
    b, _ = _rows(alpha, degree, r)
    return zeros._batch_boundary_log_max(b, np.zeros(len(b)))


def _assert_matches_loop_max(alpha, degree, r, single=True):
    """The kernel's log maximum is the reference's within 1e-13, and the
    reference's objective at the kernel's angle reaches it within 1e-13.
    Where the maximizer is single (N >= 1, and not ``single=False``), the
    angles also name the same point within 1e-6, the resolution of
    golden-section search on a log value: its angles sit up to 2e-7 from
    the stationary point, where Newton's sit within 1e-10."""
    got_log, got_theta = _hat_log_max(alpha, degree, r)
    want_log, want_theta = _loop_boundary_log_max(alpha, degree, r)
    assert np.abs(got_log - want_log).max(initial=0.0) <= 1e-13
    if len(got_log):
        b = zeros._circle_fourier_coeffs(np.atleast_2d(alpha), degree, r)[0]
        at = _loop_log_abs(b, got_theta[None])[0]
        assert np.abs(at - want_log).max() <= 1e-13
    if single and degree:
        gap = np.abs(np.angle(np.exp(1j * (got_theta - want_theta))))
        assert gap.max(initial=0.0) <= 1e-6


def _tied_rows(degree):
    """1 + z^N and 1 + z^(N/2) + z^N: peaks of equal height all round."""
    rows = np.zeros((2, degree + 1), dtype=complex)
    rows[:, 0] = rows[:, degree] = 1.0
    rows[1, degree // 2] += 1.0
    return rows


class TestMaxModulus:
    def test_constant(self):
        mm = zeros.max_modulus_boundary(SU2Polynomial(0, [2.5]), 1.0)
        assert mm.value == pytest.approx(2.5, rel=1e-12)

    def test_positive_coefficients_peak_on_axis(self):
        rng = np.random.default_rng(2)
        n = 20
        p = SU2Polynomial(n, np.abs(rng.standard_normal(n + 1)))
        r = 1.3
        mm = zeros.max_modulus_boundary(p, r)
        # triangle equality: the maximum sits at z = r
        at_r = abs(model.evaluate(p, r)) if n <= 30 else None
        assert abs(mm.argmax - r) <= 1e-6
        assert mm.value == pytest.approx(at_r, rel=1e-10)

    def test_against_dense_scan(self):
        # oracle: brute-force Horner max on a grid fine enough that the
        # grid-max error (~(pi N h)^2) sits below the comparison tolerance
        rng = np.random.default_rng(44)
        n = 50
        a = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) / math.sqrt(2)
        p = SU2Polynomial(n, a)
        mm = zeros.max_modulus_boundary(p, 1.0)
        w = p.weighted_coefficients()
        x = np.exp(2j * np.pi * np.arange(1 << 21) / (1 << 21))
        acc = np.zeros_like(x)
        for k in range(n, -1, -1):
            acc = acc * x + w[k]
        dense = float(np.max(np.abs(acc)))
        assert mm.value == pytest.approx(dense, rel=1e-8)

    def test_row_angle_derivs_any_block(self):
        # psi_hat and its two theta-derivatives at a point do not depend on
        # the other points of its block, from one point up: the winding
        # bisection's midpoints move between blocks of every size, the
        # boundary maximum's brackets freeze one by one, and a one-row call
        # at N = 1 refines a single bracket
        rng = np.random.default_rng(6)
        b = rng.standard_normal((6, 11)) + 1j * rng.standard_normal((6, 11))
        row = rng.integers(0, 6, 18)
        theta = rng.uniform(0.0, 2.0 * np.pi, 18)
        top = np.ascontiguousarray(b.T[::-1])
        full = zeros._row_angle_derivs(top, row, theta)
        k = np.arange(11)
        for weight, got in zip((1.0, 1j * k, -k * k), full):
            want = (b[row] * weight * np.exp(1j * np.outer(theta, k))).sum(axis=1)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(b).sum())
        for size in (1, 2, 3, 5, 17):
            for s in range(0, 18 - size + 1, size):
                part = zeros._row_angle_derivs(top, row[s : s + size], theta[s : s + size])
                for got, whole in zip(part, full):
                    assert got.tobytes() == whole[s : s + size].tobytes()

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 40, 200])
    def test_matches_reference_kernel(self, n, r):
        # at every batch size, down to one row and to none
        rng = np.random.default_rng(100 + n)
        for rows in (0, 1, 2, 3, 7, 300):
            alpha = (rng.standard_normal((rows, n + 1))
                     + 1j * rng.standard_normal((rows, n + 1))) / math.sqrt(2)
            _assert_matches_loop_max(alpha, n, r)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_peaks_match_reference(self, n):
        # |psi_hat|^2 has degree N in e^{i theta}, so at N <= 2 no row has
        # three grid peaks, and its -inf slots get no bracket
        alpha = _sample(3, 64, n)
        b = zeros._circle_fourier_coeffs(alpha, n, 1.0)[0]
        logs = np.log(np.abs(_circle_grid(b, zeros._circle_nodes(n + 1))))
        peaks = (logs >= np.roll(logs, 1, axis=1)) & (logs >= np.roll(logs, -1, axis=1))
        assert peaks.sum(axis=1).max() < 3
        for r in (0.5, 1.0, 2.0):
            _assert_matches_loop_max(alpha, n, r)

    def test_constant_rows_keep_their_brackets(self):
        # at N = 0 psi_hat is the constant b_0, so each bracket's Horner value
        # ties the scan maximum log v exactly and the row returns log v; these
        # v are ones whose exp(log v) rounds below v, where a test made
        # through exp would misjudge that tie
        v = np.random.default_rng(1).uniform(0.5, 3.0, 20000)
        f = np.log(v)
        v = v[np.log(np.exp(f)) < f][:5]
        assert len(v) == 5
        for r in (0.5, 1.0, 2.0):
            _assert_matches_loop_max(v[:, None].astype(complex), 0, r)

    @pytest.mark.parametrize("n", [2, 4, 10, 40, 200])
    def test_tied_rows_match_reference(self, n):
        # equal peaks tie the third place of the scan and the refined maxima,
        # so the angle may be any of the tied maximizers
        tied = _tied_rows(n)
        mixed = np.concatenate((tied, _sample(4, 5, n), tied))
        for r in (0.5, 1.0, 2.0):
            for alpha in (tied, tied[:1], tied[1:], mixed):
                _assert_matches_loop_max(alpha, n, r, single=False)

    def test_scan_value_stands_when_horner_rounds_below(self):
        # positive coefficients peak at theta = 0, on the grid, where the
        # Horner value of some rows rounds below the FFT scan's: those rows
        # keep the scan value, so the maximum is never below a scan sample
        alpha = np.abs(_sample(90, 500, 10)).astype(complex)
        log_max, theta = _hat_log_max(alpha, 10, 1.0)
        b = zeros._circle_fourier_coeffs(alpha, 10, 1.0)[0]
        scan = np.log(np.abs(_circle_grid(b, zeros._circle_nodes(11))))
        horner = _loop_log_abs(b, np.zeros((1, 500)))[0]
        below = horner < scan[:, 0]
        assert below.sum() > 10
        assert (log_max == scan.max(axis=1))[below].all()
        assert (theta[below] == 0.0).all()

    # rows of gaussian_matrix(12, arange(16384), N + 1) whose maximum at r = 1
    # comes from a grid peak other than the scan's first
    LATER_PEAK_ROWS = {3: [2285], 10: [7696, 8506, 9211, 11685, 16378], 40: [9592]}

    @pytest.mark.parametrize("n", sorted(LATER_PEAK_ROWS))
    def test_later_peak_wins(self, n):
        alpha = _sample(12, 16384, n)[self.LATER_PEAK_ROWS[n]]
        log_max, theta = _hat_log_max(alpha, n, 1.0)
        b = zeros._circle_fourier_coeffs(alpha, n, 1.0)[0]
        m = zeros._circle_nodes(n + 1)
        first = 2.0 * np.pi * np.abs(_circle_grid(b, m)).argmax(axis=1) / m
        assert (np.abs(np.angle(np.exp(1j * (theta - first)))) > 2.0 * np.pi / m).all()
        want, _ = _loop_boundary_log_max(alpha, n, 1.0)
        assert np.abs(log_max - want).max() <= 1e-13
        dense = np.log(np.abs(_circle_grid(b, 16 * m)))
        assert (log_max >= dense.max(axis=1) - 1e-13).all()

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 40, 100, 200])
    def test_dense_envelope(self, n, r):
        # the maximum is at least every sample of a grid 16 times finer than the scan
        alpha = _sample(60 + n, 64, n)
        log_max, _ = _hat_log_max(alpha, n, r)
        b = zeros._circle_fourier_coeffs(alpha, n, r)[0]
        dense = np.log(np.abs(_circle_grid(b, 16 * zeros._circle_nodes(n + 1))))
        assert (log_max >= dense.max(axis=1) - 1e-13).all()

    def test_scan_samples_the_circle_mean_grid(self, monkeypatch):
        # the boundary scan and the circle means' first grid read one grid rule
        b, log_scale = _rows(_sample(5, 4, 10), 10, 1.0)
        log_abs = zeros._log_abs
        monkeypatch.setattr(zeros, "_circle_nodes", lambda n1: 256)
        for kernel in (zeros._batch_boundary_log_max, zeros._batch_circle_log_means):
            shapes = []
            monkeypatch.setattr(zeros, "_log_abs", lambda v: shapes.append(v.shape) or log_abs(v))
            kernel(b, log_scale)
            assert shapes[0] == (4, 256), kernel.__name__

    def test_quartic_maximum(self):
        # psi_hat = 1 + 4x - x^2/2 turned off the grid: at its maximum 4.5,
        # |psi_hat|^2 has zero second derivative, where Newton converges only
        # linearly (five fixed rounds miss by 8.5e-14)
        alpha = np.array([2.0, 4.0 * math.sqrt(2.0), -1.0]) * np.exp(0.0123j * np.arange(3))
        log_max, theta = _hat_log_max(alpha, 2, 1.0)
        assert abs(log_max[0] - math.log(4.5)) <= 1e-13
        assert abs(np.angle(np.exp(1j * (theta[0] + 0.0123)))) <= 1e-3

    def test_angles_are_stationary(self):
        # the refined angle zeroes d|psi_hat|^2/d theta: one Newton step in
        # long double moves it by less than 1e-9
        for n, r in ((3, 0.5), (10, 1.0), (40, 2.0), (200, 1.0)):
            alpha = _sample(70 + n, 32, n)
            _, theta = zeros._batch_boundary_log_max(*_rows(alpha, n, r))
            b = zeros._circle_fourier_coeffs(alpha, n, r)[0].astype(np.clongdouble)
            k = np.arange(n + 1, dtype=np.longdouble)
            x = np.exp(1j * np.outer(theta.astype(np.longdouble), k))
            v, d1, d2 = ((b * w * x).sum(axis=1) for w in (1, 1j * k, -k * k))
            g = (np.conj(v) * d1).real
            slope = (np.abs(d1) ** 2 + (np.conj(v) * d2).real)
            assert (np.abs(g / slope) < 1e-9).all(), (n, r)

    def test_chunks_keep_every_bit(self, monkeypatch):
        # a small _GRID_CHUNK splits the scan into chunks of a few rows, and a
        # small _SWEEP_CHUNK each round's Horner pass into spans of a few steps
        for n in (0, 2, 10, 40):
            alpha = _sample(80 + n, 300, n)
            want = zeros._batch_boundary_log_max(*_rows(alpha, n, 1.0))
            with monkeypatch.context() as patch:
                patch.setattr(zeros, "_GRID_CHUNK", 1 << 9)
                patch.setattr(zeros, "_SWEEP_CHUNK", 1 << 9)
                got = zeros._batch_boundary_log_max(*_rows(alpha, n, 1.0))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 40])
    def test_batch_rows_are_independent(self, n):
        # N = 1 has one grid peak per row, so a one-row call refines a single
        # bracket; N = 0 has three tied peaks per row
        rng = np.random.default_rng(30 + n)
        rows = (rng.standard_normal((9, n + 1))
                + 1j * rng.standard_normal((9, n + 1))) / math.sqrt(2)
        log_max, theta = zeros._batch_boundary_log_max(*_rows(rows, n, 1.0))
        for i in range(len(rows)):
            one_log, one_theta = zeros._batch_boundary_log_max(*_rows(rows[i : i + 1], n, 1.0))
            assert log_max[i : i + 1].tobytes() == one_log.tobytes()
            assert theta[i : i + 1].tobytes() == one_theta.tobytes()

    def test_value_up_to_the_largest_double(self):
        # log_value 709.196 lies above 709 but below log(max double) 709.78
        mm = zeros.max_modulus_boundary(SU2Polynomial(0, [1e308]), 1.0)
        assert 709.0 < mm.log_value < 709.7
        assert mm.value == math.exp(mm.log_value)
        assert mm.value == pytest.approx(1e308, rel=1e-12)

    @pytest.mark.parametrize("n, c", [(3, 1e308), (10, 1.7e308), (40, 1e308)])
    def test_overflowing_rows_stay_finite(self, n, c):
        # the reference runs the row scaled by 2^-60, where nothing overflows.
        # These rows have their zeros on |z| = 1, where only the maximum is
        # defined; at r = 0.5 every circle call and count agrees too
        ref = SU2Polynomial(n, [c * 2.0**-60] * (n + 1))
        shift = 60 * math.log(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = SU2Polynomial(n, [c] * (n + 1))
            mm = zeros.max_modulus_boundary(p, 1.0)
            assert mm.log_value == pytest.approx(
                zeros.max_modulus_boundary(ref, 1.0).log_value + shift, abs=1e-12)
            for disk in (zeros.Disk(0, 0.5), zeros.Disk(0.3 + 0.2j, 0.7)):
                want = zeros.count_zeros_argument_principle(ref, disk).count
                assert zeros.count_zeros_argument_principle(p, disk).count == want
            for value in (lambda x: zeros.circle_log_integral(x, 0.5),
                          lambda x: zeros.circle_abs_log_integral(x, 0.5),
                          lambda x: zeros.max_modulus_boundary(x, 0.5).log_value,
                          lambda x: zeros.poisson_log_average(x, 0.2 - 0.1j, 0.5)):
                assert value(p) == pytest.approx(value(ref) + shift, rel=1e-12, abs=0)

    def test_block_memory(self):
        # the refinement gathers one chunk of brackets at a time, never the
        # whole (N+1) x 3B block (40 MiB here)
        from su2lab import montecarlo as mc

        alpha = mc._sample_block(mc.TrialPlan(200, 1.0, 4096, 3), 0, 4096)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            zeros._batch_boundary_log_max(*_rows(alpha, 200, 1.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_log_safe_form(self):
        n = 600  # value ~ e^210: still representable
        p = SU2Polynomial(n, np.ones(n + 1))
        mm = zeros.max_modulus_boundary(p, 1.0)
        assert math.isfinite(mm.value)
        assert mm.log_value == pytest.approx(math.log(mm.value), rel=1e-12)
        n = 2400  # value ~ e^834: past double range, log form survives
        p = SU2Polynomial(n, np.ones(n + 1))
        mm = zeros.max_modulus_boundary(p, 1.0)
        assert mm.value == math.inf
        assert math.isfinite(mm.log_value)
        assert mm.log_value > 0.5 * n * math.log(2)


class TestPoissonKernel:
    def test_center_is_one(self):
        for z in (1.0, 1j, np.exp(0.3j)):
            assert zeros.poisson_kernel(0.0, complex(z), 1.0) == pytest.approx(1.0)

    def test_mean_one(self):
        theta = 2 * np.pi * np.arange(4096) / 4096
        for zeta, r in ((0.3 + 0.2j, 1.0), (0.9, 1.0), (1.5j, 2.0)):
            vals = [zeros.poisson_kernel(zeta, r * np.exp(1j * t), r) for t in theta]
            assert abs(np.mean(vals) - 1.0) <= 1e-10

    def test_half_radius_bounds(self):
        # sources at |zeta| = r/2 keep the kernel within [1/3, 3]
        theta = 2 * np.pi * np.arange(512) / 512
        for r in (1.0, 2.5):
            zeta = 0.5 * r * np.exp(0.7j)
            vals = [zeros.poisson_kernel(zeta, r * np.exp(1j * t), r) for t in theta]
            assert min(vals) >= 1.0 / 3.0 - 1e-12
            assert max(vals) <= 3.0 + 1e-12

    def test_beyond_square_range(self):
        # r*r overflows above about 1.3e154 and underflows below 1.5e-162.
        # The kernel does not depend on scale, and on circles this small or
        # large log|psi| is nearly constant, so any Poisson average of it is
        # the circle mean
        zeta, z = 0.5 * np.exp(0.7j), np.exp(0.2j)
        want = zeros.poisson_kernel(zeta, z, 1.0)
        for r in (1e-300, 1e-170, 1e-150, 1e150, 2e150, 1e160, 1e300):
            assert zeros.poisson_kernel(zeta * r, z * r, r) == pytest.approx(want, rel=1e-14)
        p = model.sample_polynomial(12, RngSeed(1, 0))
        for r in (1e-300, 1e-170, 1e160, 1e300):
            assert zeros.poisson_log_average(p, 0.1 * r, r) == pytest.approx(
                zeros.circle_log_integral(p, r), rel=1e-12, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zeros.poisson_kernel(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            zeros.poisson_kernel(0.0, 0.5, 1.0)  # z off the circle


class TestPoissonPartition:
    def test_sources_at_center(self):
        assert zeros.poisson_partition_deviation(7, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_sqrt_scaling_stays_bounded(self):
        for delta in (1e-2, 1e-3, 1e-4):
            kappa = 1.0 - delta**0.25
            m = int(math.ceil(1.0 / delta))
            val = zeros.poisson_partition_deviation(m, kappa, 1.0, delta)
            assert val / math.sqrt(delta) <= 3.0

    def test_refinement_stability(self):
        for m in (8, 32):
            v1 = zeros.poisson_partition_deviation(m, 0.6, 1.0, 0.0)
            v2 = zeros.poisson_partition_deviation(2 * m, 0.6, 1.0, 0.0)
            assert v2 <= 2.0 * v1 + 1e-15

    def test_geometry_violation(self):
        with pytest.raises(ValueError):
            zeros.poisson_partition_deviation(4, 0.9, 1.0, 0.2)

    def test_beyond_square_range(self):
        # r*r overflows above about 1.3e154 and underflows below 1.5e-162,
        # where the kernel once read nan; the deviation does not depend on scale
        want = zeros.poisson_partition_deviation(4, 0.5, 1.0)
        for r in (1e160, 1e-170):
            assert zeros.poisson_partition_deviation(4, 0.5, r) == want
        assert zeros.poisson_partition_deviation(4, 0.5, 1e160, 1e159) == \
            zeros.poisson_partition_deviation(4, 0.5, 1.0, 0.1)


class TestRadiusRule:
    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda p, r: zeros.Disk(0.0, r),
        lambda p, r: zeros.circle_log_integral(p, r),
        lambda p, r: zeros.circle_abs_log_integral(p, r),
        lambda p, r: zeros.jensen_residual(p, r),
        lambda p, r: zeros.max_modulus_boundary(p, r),
        lambda p, r: zeros.poisson_kernel(0.0, r, r),
        lambda p, r: zeros.poisson_partition_deviation(4, 0.5, r),
        lambda p, r: zeros.poisson_log_average(p, 0.0, r),
    ], ids=["Disk", "circle_log_integral", "circle_abs_log_integral",
            "jensen_residual", "max_modulus_boundary", "poisson_kernel",
            "poisson_partition_deviation", "poisson_log_average"])
    def test_radius_is_positive_and_finite(self, call, r):
        p = model.sample_polynomial(6, RngSeed(1, 0))
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            call(p, r)


class TestSubharmonic:
    def test_log_value_below_poisson_average(self):
        rng = np.random.default_rng(55)
        r = 1.0
        for _ in range(8):
            n = int(rng.integers(1, 31))
            p = random_poly(rng, n)
            zeta = rng.uniform(0, r / 2) * np.exp(2j * np.pi * rng.uniform())
            val = abs(model.evaluate(p, zeta))
            if val == 0:
                continue
            avg = zeros.poisson_log_average(p, complex(zeta), r)
            assert math.log(val) <= avg + 1e-8


RANGE_SCALES = (1e-305, 1e-200, 1e200, 1e300, None)  # None: max |alpha_j| = 1.7e308
RANGE_IDS = ["1e-305", "1e-200", "1e200", "1e300", "max"]
RANGE_DISKS = (zeros.Disk(0, 0.5), zeros.Disk(0, 1.0), zeros.Disk(0, 2.0),
               zeros.Disk(0.3 + 0.2j, 0.7), zeros.Disk(-1 + 0.5j, 1.5))


def _scaled_polys(n, c):
    """``(p, q, log c)`` per seed 0-2: the Gaussian polynomial p and q = c p,
    with c = 1.7e308 / max |alpha_j| when ``c`` is None."""
    for seed in range(3):
        p = model.sample_polynomial(n, RngSeed(seed, 0))
        q, log_c = _scaled_rows(p.coefficients, c)
        yield p, SU2Polynomial(n, q), float(log_c)


def _scaled_rows(alpha, c):
    """``(c alpha, log c)`` per row, with c = 1.7e308 / max_j |alpha_j| when
    ``c`` is None (divided first, since that c can pass the largest double)."""
    if c is not None:
        return alpha * c, math.log(c)
    top = np.abs(alpha).max(axis=-1, keepdims=True)
    return alpha / top * 1.7e308, math.log(1.7e308) - np.log(top[..., 0])


def _unshifted(alpha, n, r):
    """Whether the range rule leaves every Fourier row as it is: a log
    scale of (N/2) log(1+r^2) alone, with no shift log 2 added."""
    return (_rows(alpha, n, r)[1] == model._log_normalization(n, r)).all()


@pytest.mark.filterwarnings("error")
class TestRangeRule:
    """A finite row far outside double's comfortable range gives the
    counts of the unscaled row and its values plus log c."""

    @pytest.mark.parametrize("c", RANGE_SCALES, ids=RANGE_IDS)
    @pytest.mark.parametrize("n", [1, 3, 12, 50, 200])
    def test_counts_as_unscaled(self, n, c):
        # without the range rule, N = 1, seed 2 times 1e200 counted 4 zeros in B(0, 0.5):
        # each phase step overflowed to angle(inf + inf j) = pi/4
        for p, q, _ in _scaled_polys(n, c):
            for disk in RANGE_DISKS:
                want = zeros.count_zeros_argument_principle(p, disk).count
                assert zeros.count_zeros_argument_principle(q, disk).count == want, disk
        alpha = _sample(17, 64, n)
        big, _ = _scaled_rows(alpha, c)
        kernels = [zeros._batch_winding]
        if n <= zeros.SCHUR_COHN_MAX_DEGREE:
            kernels.append(zeros._batch_schur_cohn)
        for r in (0.5, 1.0, 2.0):
            for kernel in kernels:
                counts, ok = kernel(_rows(alpha, n, r)[0], r)
                got, got_ok = kernel(_rows(big, n, r)[0], r)
                assert ok.any() and np.array_equal(got_ok, ok), (kernel.__name__, r)
                assert np.array_equal(got[ok], counts[ok]), (kernel.__name__, r)

    @pytest.mark.parametrize("c", RANGE_SCALES, ids=RANGE_IDS)
    @pytest.mark.parametrize("n", [1, 3, 12, 50, 200])
    def test_values_shift_by_log_c(self, n, c):
        # without the range rule the 1e-300 floor of the samples clipped every 1e-305 row
        for p, q, log_c in _scaled_polys(n, c):
            for r in (0.5, 1.0, 2.0):
                for value in (lambda x: zeros.circle_log_integral(x, r),
                              lambda x: zeros.max_modulus_boundary(x, r).log_value,
                              lambda x: zeros.poisson_log_average(x, 0.2 - 0.1j, r)):
                    assert value(q) == pytest.approx(value(p) + log_c, rel=1e-12, abs=0)
                b = zeros._circle_fourier_coeffs(p.coefficients[None], n, r)[0]
                logs = np.log(np.abs(_circle_grid(b, 1 << 18)))
                logs += model._log_normalization(n, r) + log_c
                want = float(np.abs(logs).mean())
                assert zeros.circle_abs_log_integral(q, r) == pytest.approx(want, rel=1e-12, abs=0)

    def test_gaussian_and_pinned_rows_keep_their_bits(self):
        # the rule leaves every row of the pinned outputs unscaled; the tied
        # row 1 + z^200 at r = 1 has its largest part at 2^-100, so a band of
        # 2^+-100 would scale it and change its pinned boundary maximum
        for n in (0, 1, 10, 200, 2000):
            alpha = _sample(9, 512, n)
            for r in (0.05, 0.5, 1.0, 2.0, 20.0):
                assert _unshifted(alpha, n, r), (n, r)
        for n in (2, 4, 10, 40, 100, 200):
            for r in (0.5, 1.0, 2.0):
                assert _unshifted(_tied_rows(n), n, r)
        # the generator of the near-contour winding rows, as the identity
        # outputs write it; their largest parts go down to about 2^-48
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
                assert _unshifted(np.array(rows), n, r)

    def test_rows_below_the_band_rebuild_from_logs(self):
        # the product alpha_j * scale_j of 1e-300 z^200 at r = 0.5 underflows
        # to zero, and so does scale_2000 itself for z^2000 at r = 0.05
        for p, r, want in ((SU2Polynomial(200, [0] * 200 + [1e-300]), 0.5,
                            200 * math.log(0.5) + math.log(1e-300)),
                           (SU2Polynomial(2000, [0] * 2000 + [1]), 0.05, 2000 * math.log(0.05))):
            assert zeros.circle_log_integral(p, r) == pytest.approx(want, rel=1e-12, abs=0)
            assert zeros.max_modulus_boundary(p, r).log_value == pytest.approx(want, rel=1e-12, abs=0)
            assert zeros.count_zeros_argument_principle(p, zeros.Disk(0, r)).count == p.degree

    def test_subnormal_rows_as_scaled(self):
        # an entry of this row is subnormal, so 1/|a| overflows: the rebuild
        # from logs and the Aberth rows' normalization divided by it.  The row
        # is compared with itself times 2^1000, not with the Gaussian row:
        # subnormal entries carry fewer bits
        p = SU2Polynomial(3, np.array([1, 0.5 - 0.2j, 0.3j, 0.7]) * 5e-320)
        parts = p.coefficients.view(float)
        q = SU2Polynomial(3, np.ldexp(parts, 1000).view(complex))
        log_c = -1000 * math.log(2.0)
        for value in (lambda x: zeros.circle_log_integral(x, 1.0),
                      lambda x: zeros.max_modulus_boundary(x, 1.0).log_value,
                      lambda x: zeros.poisson_log_average(x, 0.2 - 0.1j, 1.0)):
            assert value(p) == pytest.approx(value(q) + log_c, rel=1e-12, abs=0)
        b, log_scale = _rows(q.coefficients, 3, 1.0)
        logs = np.log(np.abs(_circle_grid(b, 1 << 18))) + log_scale[:, None] + log_c
        want = float(np.abs(logs).mean())
        assert zeros.circle_abs_log_integral(p, 1.0) == pytest.approx(want, rel=1e-12, abs=0)
        disk = zeros.Disk(0, 1.0)
        assert zeros.count_zeros_argument_principle(p, disk).count == \
            zeros.count_zeros_argument_principle(q, disk).count == 1
        want = zeros.find_all_roots(q).locations
        assert match_max_distance(zeros.find_all_roots(p).locations, want) <= 1e-12
        assert zeros.jensen_residual(p, 1.0) <= 1e-9

    @pytest.mark.parametrize("n, c", [(200, 1e300), (12, None), (50, None), (200, None)],
                             ids=["200-1e300", "12-max", "50-max", "200-max"])
    def test_roots_of_overflowing_rows(self, n, c):
        # the weighted coefficients of these rows overflow; the roots do not
        # depend on scale, and the residuals are reported at the row's own
        p = model.sample_polynomial(n, RngSeed(0, 0))
        alpha, log_c = _scaled_rows(p.coefficients, c)
        q = SU2Polynomial(n, alpha)
        want, got = zeros.find_all_roots(p), zeros.find_all_roots(q)
        assert match_max_distance(got.locations, want.locations) <= 1e-12
        assert np.log(got.residuals.max()) - log_c <= np.log(want.residuals.max()) + 1.0
        assert zeros.jensen_residual(q, 1.0) <= 1e-9

    @pytest.mark.parametrize("alpha", [[1, 1, 1.5e308 + 1.5e308j], [1, 0.9e308 + 0.9e308j, 1]],
                             ids=["modulus", "weighted-modulus"])
    def test_roots_of_rows_whose_moduli_overflow(self, alpha):
        # every part is finite and so is every weighted part, but a modulus
        # overflows: of the coefficient itself, or only once weighted by
        # sqrt(2).  Unrescaled, the first row gave the roots [0, -0] and the
        # second divided inf by inf
        q = SU2Polynomial(2, alpha)
        want = zeros.find_all_roots(SU2Polynomial(2, q.coefficients / 4))
        got = zeros.find_all_roots(q)
        assert got.degree_deficit == want.degree_deficit
        scale = np.abs(want.locations).max()
        assert scale > 0 and match_max_distance(got.locations, want.locations) <= 1e-12 * scale
        assert np.isfinite(got.residuals).all()
        assert np.log(got.residuals.max()) - math.log(4) <= np.log(want.residuals.max()) + 1.0
