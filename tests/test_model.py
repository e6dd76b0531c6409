import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lab import model
from su2lab.model import SU2Polynomial
from su2lab.rng import RngSeed


def random_poly(rng, degree):
    a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return SU2Polynomial(degree, a / math.sqrt(2.0))


class TestLogBinomial:
    def test_small_exact(self):
        assert model.log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-14)

    def test_edges_are_zero(self):
        for n in (0, 1, 17, 500):
            assert model.log_binomial(n, 0) == 0.0
            assert model.log_binomial(n, n) == 0.0

    def test_against_exact_integer_oracle(self):
        # independent oracle: exact big-integer binomial, then log
        assert model.log_binomial(50, 25) == pytest.approx(
            math.log(math.comb(50, 25)), rel=1e-12
        )

    @given(st.integers(0, 400), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_comb_everywhere(self, n, data):
        j = data.draw(st.integers(0, n))
        want = math.log(math.comb(n, j))
        got = model.log_binomial(n, j)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_log_weights_cached_read_only(self):
        for n in (0, 7, 60):
            logw = model._log_weights(n)
            assert logw is model._log_weights(n)
            assert not logw.flags.writeable
            want = np.array([0.5 * model.log_binomial(n, k) for k in range(n + 1)])
            assert np.array_equal(logw, want)
            with pytest.raises(ValueError):
                logw[0] = 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            model.log_binomial(4, 5)
        with pytest.raises(ValueError):
            model.log_binomial(4, -1)


class TestSU2Polynomial:
    def test_length_contract(self):
        with pytest.raises(ValueError):
            SU2Polynomial(2, [1, 2])

    def test_finiteness(self):
        with pytest.raises(ValueError):
            SU2Polynomial(1, [1.0, math.nan])
        with pytest.raises(ValueError):
            SU2Polynomial(1, [1.0, complex(math.inf, 0)])

    def test_immutable(self):
        p = SU2Polynomial(1, [1.0, 2.0])
        with pytest.raises(ValueError):
            p.coefficients[0] = 5.0

    def test_weights_refuse_overflow(self):
        # sqrt(C(N, N/2)) passes the largest double between N = 2053 and 2054
        for n in (12, 2053):
            w = model._weights(n)
            assert np.array_equal(w, np.exp(model._log_weights(n)))
            assert not w.flags.writeable
        for n in (2054, 2100):
            with pytest.raises(OverflowError, match=f"degree {n}"):
                model._weights(n)
        with np.errstate(all="raise"), pytest.raises(OverflowError):
            SU2Polynomial(2100, np.ones(2101)).weighted_coefficients()

    def test_weighted_coefficients_refuse_overflow(self):
        # below the weight limit a product alpha_j sqrt(C(N, j)) can still
        # pass the largest double: |alpha_j| = 1 fits at N = 2053, 2 does not
        assert np.isfinite(SU2Polynomial(2053, np.ones(2054)).weighted_coefficients()).all()
        with np.errstate(all="raise"), pytest.raises(OverflowError, match="degree 2053"):
            SU2Polynomial(2053, np.full(2054, 2.0)).weighted_coefficients()


class TestSampling:
    def test_degree_zero_has_one_coefficient(self):
        assert len(model.sample_polynomial(0, RngSeed(1, 0)).coefficients) == 1

    def test_bit_identical_resampling(self):
        a = model.sample_polynomial(40, RngSeed(9, 3)).coefficients
        b = model.sample_polynomial(40, RngSeed(9, 3)).coefficients
        assert np.array_equal(a, b)

    def test_coefficient_moment(self):
        sq = [
            abs(model.sample_polynomial(3, RngSeed(31, t)).coefficients[2]) ** 2
            for t in range(10000)
        ]
        assert abs(np.mean(sq) - 1.0) < 0.05


class TestEvaluate:
    def test_at_origin(self):
        p = SU2Polynomial(5, [3.5 + 1j, 0, 0, 0, 0, 2])
        assert model.evaluate(p, 0) == 3.5 + 1j

    def test_linear(self):
        assert model.evaluate(SU2Polynomial(1, [1, 1]), 2.0) == pytest.approx(3.0)

    def test_quadratic_root(self):
        assert model.evaluate(SU2Polynomial(2, [1, 0, 1]), 1j) == pytest.approx(0.0)

    def test_overflow_guard(self):
        p = SU2Polynomial(900, np.ones(901))
        with pytest.raises(OverflowError, match="evaluate_normalized"):
            model.evaluate(p, 10.0)
        with pytest.raises(OverflowError):
            model.evaluate(SU2Polynomial(1200, np.ones(1201)), 0.5)


class TestEvaluateNormalized:
    def test_single_surviving_term(self):
        n = 12
        p = SU2Polynomial(n, [1] + [0] * n)
        for z in (0.3, 2j, -1.5 + 0.4j):
            want = (1 + abs(z) ** 2) ** (-n / 2)
            assert model.evaluate_normalized(p, z) == pytest.approx(want, rel=1e-12)

    def test_consistency_with_direct(self):
        rng = np.random.default_rng(11)
        for n in (3, 14, 30):
            p = random_poly(rng, n)
            pts = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            pts = 3.0 * pts / np.max(np.abs(pts))
            for z in pts:
                direct = model.evaluate(p, z)
                scaled = model.evaluate_normalized(p, z) * (1 + abs(z) ** 2) ** (n / 2)
                assert abs(scaled - direct) <= 1e-10 * abs(direct)

    @given(st.integers(1, 40), st.complex_numbers(max_magnitude=50, allow_nan=False,
                                                  allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_cauchy_schwarz_bound(self, n, z):
        # all |alpha_j| <= 1 forces |psi_hat| <= sqrt(N+1)
        p = SU2Polynomial(n, np.ones(n + 1))
        assert abs(model.evaluate_normalized(p, z)) <= math.sqrt(n + 1) + 1e-9

    def test_finite_at_huge_degree(self):
        n = 10000
        p = SU2Polynomial(n, np.ones(n + 1))
        v = model.evaluate_normalized(p, 0.8 + 0.1j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_beyond_square_overflow(self):
        # (1 + |z|^2) overflows above about 1.3e154; far out only the
        # leading term alpha_N e^{i N arg z} survives
        p = SU2Polynomial(3, [1, 2, 3, 4])
        for z in (1e160, -1e200j, 1e300 * (0.6 + 0.8j)):
            want = 4 * (z / abs(z)) ** 3
            assert model.evaluate_normalized(p, z) == pytest.approx(want, rel=1e-12)
        # the two sides of the 1e150 switch agree
        below, above = model.evaluate_normalized(p, np.array([1e150, 1.0000001e150]))
        assert above == pytest.approx(below, rel=1e-12)

    def test_array_input(self):
        p = SU2Polynomial(2, [1, 0, 1])
        vals = model.evaluate_normalized(p, np.array([0.0, 1j]))
        assert vals[0] == pytest.approx(1.0)
        assert abs(vals[1]) < 1e-14


class TestReverse:
    def test_small_case(self):
        p = SU2Polynomial(2, [1, 2, 3])
        assert np.array_equal(model.reverse_coefficients(p).coefficients, [3, 2, 1])

    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, coeffs):
        p = SU2Polynomial(len(coeffs) - 1, coeffs)
        double = model.reverse_coefficients(model.reverse_coefficients(p))
        assert np.array_equal(double.coefficients, p.coefficients)

    def test_linear_root_inversion(self):
        # psi = 1 + 2z has root -1/2; reversal 2 + z has root -2
        p = SU2Polynomial(1, [1, 2])
        q = model.reverse_coefficients(p)
        assert (-q.coefficients[0] / q.coefficients[1]) == pytest.approx(-2.0)


class TestBasisChange:
    def test_center_zero_is_identity(self):
        u = model.basis_change_matrix(7, 0.0).matrix
        assert np.max(np.abs(u - np.eye(8))) == 0.0

    def test_hand_case_degree_one(self):
        # recentered elements at center 1: (1+z)/sqrt2 and (z-1)/sqrt2;
        # their expansions sit in the columns of U*
        u = model.basis_change_matrix(1, 1.0).matrix
        b = u.conj().T
        s = 1 / math.sqrt(2)
        assert np.allclose(b[:, 0], [s, s], atol=1e-14)
        assert np.allclose(b[:, 1], [-s, s], atol=1e-14)

    @pytest.mark.parametrize("n,zeta", [
        (20, 0.7 + 0.2j),
        (60, 1.0 + 0.0j),
        (100, 1.875 + 0.25j),  # |zeta| ~ 1.9 > 1
        (100, 0.7 + 0.2j),
        (200, 0.7 + 0.2j),
        (200, 1.875 + 0.25j),
    ])
    def test_unitarity(self, n, zeta):
        u = model.basis_change_matrix(n, zeta).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(n + 1))) <= 1e-10

    @pytest.mark.parametrize("zeta", [1e200 + 1e200j, 1.5e308 - 1.5e308j])
    def test_huge_finite_center(self, zeta):
        # |c|^2 overflows, and so does sqrt(1 + |c|^2) for the second
        u = model.basis_change_matrix(6, zeta).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(7))) <= 1e-10

    @pytest.mark.parametrize("zeta", [math.inf, complex(0.5, math.nan)])
    def test_non_finite_center(self, zeta):
        with pytest.raises(ValueError, match="finite"):
            model.basis_change_matrix(3, zeta)

    @pytest.mark.parametrize("zeta", [0.5, -0.3 + 0.8j, 1.875 + 0.25j])
    def test_matches_float_expansion(self, zeta):
        # independent oracle: expand (z-c)^j (1+conj(c) z)^(N-j) by float
        # convolution, harmless at these small degrees
        for n in range(9):
            b = model.basis_change_matrix(n, zeta).matrix.conj().T
            weights = np.sqrt([math.comb(n, k) for k in range(n + 1)])
            for j in range(n + 1):
                coeffs = np.ones(1, dtype=complex)
                for _ in range(j):
                    coeffs = npoly.polymul(coeffs, [-zeta, 1])
                for _ in range(n - j):
                    coeffs = npoly.polymul(coeffs, [1, np.conj(zeta)])
                want = weights[j] * coeffs / weights / (1 + abs(zeta) ** 2) ** (n / 2)
                assert np.max(np.abs(b[:, j] - want)) <= 1e-13

    @pytest.mark.parametrize("zeta", [0.7 + 0.2j, -0.3 + 0.8j, 1.875 + 0.25j])
    def test_buffers_match_allocating_recursion(self, zeta):
        # the same recursion with fresh arrays at every degree step
        def allocating(n):
            half_s = math.hypot(0.5, zeta.real / 2, zeta.imag / 2)
            g, h = 0.5 / half_s, complex(zeta.real / 2 / half_s, zeta.imag / 2 / half_s)
            mat = np.ones((1, 1), dtype=complex)
            for m in range(1, n + 1):
                up = np.sqrt(np.arange(m + 1) / m)
                down = up[::-1]
                one = np.zeros((m + 1, m), dtype=complex)
                one[:-1] = down[:-1, None] * mat
                zed = np.zeros((m + 1, m), dtype=complex)
                zed[1:] = up[1:, None] * mat
                mat = np.zeros((m + 1, m + 1), dtype=complex)
                mat[:, :-1] = (g * one + h.conjugate() * zed) * down[:-1]
                mat[:, 1:] += (g * zed - h * one) * up[1:]
            return mat

        for n in (1, 2, 7, 60):
            assert np.array_equal(model._expansion_matrix(n, zeta), allocating(n))


class TestEq2Identity:
    def test_center_zero(self):
        rng = np.random.default_rng(0)
        p = random_poly(rng, 9)
        pts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert model.eq2_identity_residual(p, 0.0, pts) < 1e-12

    def test_hand_case(self):
        # alpha = (1, 0) at center 1: both sides are identically 1
        p = SU2Polynomial(1, [1, 0])
        for z in (0.0, 1.0, -2.0 + 1j, 0.5j):
            left = model.evaluate(p, z)
            assert left == pytest.approx(1.0)
        assert model.eq2_identity_residual(p, 1.0, [0.0, 1.0, -2.0 + 1j]) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for n, zeta in ((1, 0.5), (11, 0.5), (30, 0.5), (200, 0.5),
                        (200, 1.875 + 0.25j)):
            p = random_poly(rng, n)
            pts = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            pts = 2.0 * pts / np.max(np.abs(pts))
            assert model.eq2_identity_residual(p, zeta, pts) <= 1e-8

    @pytest.mark.parametrize("n, center", [(7, 1), (30, 0.5 + 0.5j), (200, 0.7 + 0.2j)])
    def test_pole_of_the_rotation(self, n, center):
        # at z = -1/conj(c), v = 1 + conj(c) z vanishes (or nearly) and the
        # right side is its limit
        p = random_poly(np.random.default_rng(n), n)
        assert model.eq2_identity_residual(p, center, [-1 / np.conj(center)]) <= 1e-12

    def test_huge_center(self):
        # the rotation's scale sqrt(1 + |c|^2) must not square |c| past the
        # double range
        p = SU2Polynomial(3, [1, 2, 3, 4])
        assert model.eq2_identity_residual(p, 1e200, [0.5]) <= 1e-8

    def test_rotation_overflow_is_refused(self):
        # v = 1 + conj(c) z overflows at c = 1e200, z = 1e200j
        p = SU2Polynomial(3, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="double range"):
            model.eq2_identity_residual(p, 1e200, [0.5, 1e200j])


class TestInnerProduct:
    def test_weighted_basis_orthonormal(self):
        n = 10
        basis = [SU2Polynomial(n, np.eye(n + 1)[j]) for j in range(n + 1)]
        for j in range(n + 1):
            for k in range(n + 1):
                val = model.fs_inner_product(basis[j], basis[k], n)
                assert abs(val - (1.0 if j == k else 0.0)) <= 1e-10

    def test_monomial_beta_identity(self):
        # <z^j, z^j>_N = 1/C(N, j): Beta-integral closed form
        n = 40
        for j in (0, 3, 11, 20, 32, 40):
            mono = SU2Polynomial(j, np.eye(j + 1)[j])
            val = model.fs_inner_product(mono, mono, n).real
            assert val == pytest.approx(1.0 / math.comb(n, j), rel=1e-10)

    def test_recentered_family_orthonormal(self):
        n, zeta = 8, 0.3j
        b = model.basis_change_matrix(n, zeta).matrix.conj().T
        cols = [SU2Polynomial(n, b[:, j]) for j in range(n + 1)]
        for j in range(n + 1):
            for k in range(n + 1):
                val = model.fs_inner_product(cols[j], cols[k], n)
                assert abs(val - (1.0 if j == k else 0.0)) <= 1e-9

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            model.fs_inner_product(
                SU2Polynomial(5, np.ones(6)), SU2Polynomial(3, np.ones(4)), 4
            )
