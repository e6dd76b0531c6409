"""Random SU(2) polynomials: sampling, stable evaluation, structural transforms.

The central object is the degree-``N`` polynomial

    psi(z) = sum_j alpha_j * sqrt(C(N, j)) * z^j

with i.i.d. standard complex Gaussian coefficients ``alpha_j``
(``E|alpha_j|^2 = 1``).  Binomial weights are kept in log form throughout:
``sqrt(C(N, N/2))`` overflows doubles from ``N = 2054``, so linear-domain
weights are only materialized by ``_weights``, which refuses such degrees.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .rng import RngSeed, _check_int, gaussian_matrix

__all__ = [
    "SU2Polynomial",
    "BasisChangeMatrix",
    "log_binomial",
    "sample_polynomial",
    "evaluate",
    "evaluate_normalized",
    "reverse_coefficients",
    "basis_change_matrix",
    "eq2_identity_residual",
    "fs_inner_product",
]

EVALUATE_MAX_DEGREE = 1000
EVALUATE_MAX_TERM_LOG = 700.0


def log_binomial(n: int, j: int) -> float:
    """Natural log of C(n, j), via log-gamma (never raw factorials)."""
    if not 0 <= j <= n:
        raise ValueError(f"j={j} outside [0, {n}]")
    return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)


@functools.lru_cache(maxsize=None)
def _log_weights(degree: int) -> np.ndarray:
    """log sqrt(C(N, j)) for j = 0..N; cached, so the array is read-only."""
    logw = np.array([0.5 * log_binomial(degree, j) for j in range(degree + 1)])
    logw.flags.writeable = False
    return logw


@functools.lru_cache(maxsize=None)
def _weights(degree: int) -> np.ndarray:
    """sqrt(C(N, j)) for j = 0..N, read-only; ``OverflowError`` when one
    leaves double range (N >= 2054), where the weights exist only as logs.
    The central weight, the largest, refuses such a degree before the O(N)
    table is built."""
    message = f"degree {degree}: the weights sqrt(C(N, j)) overflow doubles"
    if 0.5 * log_binomial(degree, degree // 2) > math.log(sys.float_info.max):
        raise OverflowError(message)
    with np.errstate(over="ignore"):
        w = np.exp(_log_weights(degree))
    if not np.isfinite(w).all():
        raise OverflowError(message)
    w.flags.writeable = False
    return w


def _check_radius(r: float) -> None:
    """Refuse a circle or disk radius that is not positive and finite."""
    if not 0 < r < math.inf:
        raise ValueError("radius must be positive and finite")


def _check_finite(values, name: str) -> None:
    """Refuse points or values of which one is NaN or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _log_normalization(degree: int, r: float) -> float:
    """(N/2) log(1 + r^2), the log of the spherical normalization at |z| = r;
    above r = 1e150, where r*r overflows, as (N/2)(2 log r + log1p(r^-2))."""
    if r <= 1e150:
        return (degree / 2.0) * math.log1p(r * r)
    return (degree / 2.0) * (2.0 * math.log(r) + math.log1p((1.0 / r) ** 2))


def _log1p_square(a: np.ndarray) -> np.ndarray:
    """log(1 + a^2) elementwise for a >= 0 by ``_log_normalization``'s rule:
    log1p(a*a) up to 1e150, and 2 log a + log1p(a^-2) above it.

    A second spelling, not a copy: numpy's ``log1p`` differs from
    ``math.log1p`` in the last bit on a few percent of radii, so the
    scalar and array callers each keep their own to keep their bits."""
    big = a > 1e150
    small = np.where(big, 0.0, a)
    out = np.log1p(small * small)
    if big.any():
        out[big] = 2.0 * np.log(a[big]) + np.log1p((1.0 / a[big]) ** 2)
    return out


@dataclass(frozen=True)
class SU2Polynomial:
    """Degree ``N`` plus coefficient vector against the weighted monomials.

    ``coefficients[j]`` multiplies ``sqrt(C(N, j)) z^j``; the vector has
    length exactly ``degree + 1`` and must be finite.
    """

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degree", _check_int(self.degree, "degree"))
        coeffs = np.array(self.coefficients, dtype=complex, copy=True)
        if coeffs.shape != (self.degree + 1,):
            raise ValueError(
                f"need {self.degree + 1} coefficients, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs.real) & np.isfinite(coeffs.imag)):
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def log_weights(self) -> np.ndarray:
        return _log_weights(self.degree)

    def weighted_coefficients(self) -> np.ndarray:
        """Monomial coefficients alpha_j * sqrt(C(N, j)).

        Raises ``OverflowError`` where the weights do (see ``_weights``), or
        where a product leaves double range, which |alpha_j| above about 1.3
        does at N = 2053; callers holding such polynomials must stay in log
        space.
        """
        with np.errstate(over="ignore"):
            w = self.coefficients * _weights(self.degree)
        if not np.isfinite(w).all():
            raise OverflowError(f"degree {self.degree}: the weighted coefficients "
                                f"alpha_j sqrt(C(N, j)) overflow doubles")
        return w


def sample_polynomial(degree: int, seed: RngSeed) -> SU2Polynomial:
    """Draw alpha_j i.i.d. standard complex Gaussian for the given trial.

    Pure function of ``(degree, seed.master_seed, seed.trial_index)``.
    """
    trials = np.array([seed.trial_index], dtype=np.uint64)
    alpha = gaussian_matrix(seed.master_seed, trials, degree + 1)[0]
    return SU2Polynomial(degree, alpha)


def evaluate(poly: SU2Polynomial, z: complex) -> complex:
    """psi(z) by Horner on the weighted coefficients.

    Guarded: refuses inputs whose individual terms would leave double
    range; use :func:`evaluate_normalized` for those.
    """
    _check_finite(z, "point")
    n = poly.degree
    if n > EVALUATE_MAX_DEGREE:
        raise OverflowError(
            f"degree {n} > {EVALUATE_MAX_DEGREE}: use evaluate_normalized"
        )
    az = abs(z)
    logz = math.log(az) if az > 0 else -math.inf
    logw = poly.log_weights()
    with np.errstate(divide="ignore", invalid="ignore"):
        amag = np.abs(poly.coefficients)
        term_logs = np.where(amag > 0, np.log(np.where(amag > 0, amag, 1.0)), -math.inf)
        term_logs = term_logs + logw + np.arange(n + 1) * logz
    if np.max(term_logs) >= EVALUATE_MAX_TERM_LOG:
        raise OverflowError(
            "term magnitude exceeds double range: use evaluate_normalized"
        )
    w = poly.weighted_coefficients()
    acc = 0.0 + 0.0j
    for k in range(n, -1, -1):
        acc = acc * z + w[k]
    return acc


def evaluate_normalized(poly: SU2Polynomial, z):
    """psi(z) / (1 + |z|^2)^(N/2), finite for any degree.

    Each term is assembled in log space, so its magnitude never exceeds
    |alpha_j| (the normalized weights C(N,j)|z|^(2j)/(1+|z|^2)^N are <= 1).
    Accepts a complex scalar or an ndarray of points.
    """
    scalar = np.isscalar(z) or np.asarray(z).shape == ()
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_finite(zs, "points")
    n = poly.degree
    j = np.arange(n + 1)
    logw = poly.log_weights()
    az = np.abs(zs)
    out = np.empty(zs.shape, dtype=complex)
    pos = az > 0
    if np.any(pos):
        zp = zs[pos]
        azp = az[pos]
        logmag = logw[None, :] + np.outer(np.log(azp), j) \
            - (n / 2.0) * _log1p_square(azp)[:, None]
        phase = np.outer(np.angle(zp), j)
        terms = poly.coefficients[None, :] * np.exp(logmag + 1j * phase)
        out[pos] = terms.sum(axis=1)
    out[~pos] = poly.coefficients[0]
    return complex(out[0]) if scalar else out.reshape(np.shape(z))


def reverse_coefficients(poly: SU2Polynomial) -> SU2Polynomial:
    """alpha_j -> alpha_{N-j}; sends every nonzero root z0 to 1/z0.

    The weight symmetry C(N, j) = C(N, N-j) makes the reversed vector a
    valid coefficient vector for the same weighted basis.
    """
    return SU2Polynomial(poly.degree, poly.coefficients[::-1])


@dataclass(frozen=True)
class BasisChangeMatrix:
    """Unitary coefficient transform attached to a recentering point."""

    center: complex
    matrix: np.ndarray


def _expansion_matrix(degree: int, center: complex) -> np.ndarray:
    """Matrix whose column j expands the recentered basis element

        E_j = sqrt(C(N,j)) u^j v^(N-j),  u = (z - c)/s,  v = (1 + conj(c) z)/s,

    with s = sqrt(1 + |c|^2), against the weighted monomials
    sqrt(C(N,k)) z^k.

    Built degree by degree with Risbo's recursion (the matrix is the
    spin-N/2 representation of an SU(2) element; T. Risbo, J. Geodesy 70
    (1996) 383-396):

        E_j^(m+1) = sqrt((m+1-j)/(m+1)) v E_j^m + sqrt(j/(m+1)) u E_(j-1)^m,

    where in the weighted basis multiplying by 1 sends e_k^m to
    sqrt((m+1-k)/(m+1)) e_k^(m+1) and multiplying by z sends it to
    sqrt((k+1)/(m+1)) e_(k+1)^(m+1).  Every factor has modulus <= 1, so each
    step is a contraction and plain floats stay accurate (unitarity error
    ~2e-13 at N = 1000).  Expanding (z - c)^j (1 + conj(c) z)^(N-j) by a
    float convolution instead cancels ~C(N, N/2) worth of digits.
    """
    n = degree
    c = complex(center)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("center must be finite")
    if c == 0:
        # exact: the recursion would leave sqrt(a)*sqrt(a) rounding on the diagonal
        return np.eye(n + 1, dtype=complex)
    # halved, so s/2 stays finite for every finite center
    hr, hi = c.real / 2, c.imag / 2
    half_s = math.hypot(0.5, hr, hi)
    g = 0.5 / half_s
    h = complex(hr / half_s, hi / half_s)  # c / s
    # every step writes into contiguous leading views of these buffers, so
    # no step allocates; E^m lives in the first (m+1)^2 entries of mat
    mat = np.empty((n + 1) ** 2, dtype=complex)
    bufs = [np.empty((n + 1) * n, dtype=complex) for _ in range(4)]
    mat[0] = 1.0
    for m in range(1, n + 1):
        # complex already, as numpy would cast them for each product
        up = np.sqrt(np.arange(m + 1) / m).astype(complex)  # sqrt(k/m)
        down = up[::-1]  # sqrt((m-k)/m)
        prev = mat[: m * m].reshape(m, m)
        o, zz, a, b = (buf[: (m + 1) * m].reshape(m + 1, m) for buf in bufs)
        np.multiply(down[:-1, None], prev, out=o[:-1])  # 1 * E^(m-1)
        o[-1] = 0.0
        np.multiply(up[1:, None], prev, out=zz[1:])  # z * E^(m-1)
        zz[0] = 0.0
        cur = mat[: (m + 1) ** 2].reshape(m + 1, m + 1)
        # v E_j = (g one + conj(h) zed) down
        np.multiply(g, o, out=a)
        np.multiply(h.conjugate(), zz, out=b)
        np.add(a, b, out=a)
        np.multiply(a, down[:-1], out=cur[:, :-1])
        cur[:, -1] = 0.0
        # u E_(j-1) = (g zed - h one) up
        np.multiply(g, zz, out=a)
        np.multiply(h, o, out=b)
        np.subtract(a, b, out=a)
        np.multiply(a, up[1:], out=a)
        cur[:, 1:] += a
    return mat.reshape(n + 1, n + 1)


def basis_change_matrix(degree: int, center: complex) -> BasisChangeMatrix:
    """Unitary U with ``alpha' = U alpha`` re-expressing psi in the
    recentered orthonormal family:

        sum_j alpha_j sqrt(C(N,j)) z^j
          = sum_j alpha'_j sqrt(C(N,j)) (z-c)^j (1+conj(c) z)^(N-j)
            / (1+|c|^2)^(N/2)

    Columns of ``U.conj().T`` hold the monomial-basis expansions of the
    recentered basis elements.
    """
    mat = _expansion_matrix(_check_int(degree, "degree"), center)
    return BasisChangeMatrix(center=complex(center), matrix=mat.conj().T)


def eq2_identity_residual(poly: SU2Polynomial, center: complex, sample_points) -> float:
    """Max relative gap between the two sides of eq. (2) at the sample points.

    Under the rotation w = u/v, u = z - c, v = 1 + conj(c) z, the
    normalized value psi_hat(z) = psi(z) / (1 + |z|^2)^(N/2) changes only by
    a unit factor:

        psi_hat(z) = (v/|v|)^N psi_hat'(w),

    where psi' has the coefficients ``alpha' = U alpha`` of
    ``basis_change_matrix``.  Both sides are ``evaluate_normalized`` calls;
    at the map's pole v = 0 (or where w overflows) the right side is its
    limit alpha'_N (u/|u|)^N.  A point where v overflows is refused.
    """
    zs = np.asarray(sample_points, dtype=complex).ravel()
    _check_finite(zs, "points")
    n = poly.degree
    rotated = SU2Polynomial(n, basis_change_matrix(n, center).matrix @ poly.coefficients)
    c = complex(center)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, v = zs - c, 1 + c.conjugate() * zs
        w = u / v
    if not np.isfinite(v).all():
        raise ValueError("points and center must stay in double range under the rotation")
    pole = ~np.isfinite(w)
    right = np.exp(1j * n * np.angle(np.where(pole, u, v)))
    right[~pole] *= evaluate_normalized(rotated, w[~pole])
    right[pole] *= rotated.coefficients[-1]
    left = evaluate_normalized(poly, zs)
    scale = np.maximum(np.abs(left), np.abs(right))
    nonzero = scale > 0
    return float((np.abs(left - right)[nonzero] / scale[nonzero]).max(initial=0.0))


def _normalized_values_on_grid(poly: SU2Polynomial, ambient_degree: int,
                               z: np.ndarray) -> np.ndarray:
    """psi(z) / (1+|z|^2)^(ambient/2) on an array of points."""
    vals = evaluate_normalized(poly, z)
    gap = poly.degree - ambient_degree
    if gap:
        vals = vals * np.power(1.0 + np.abs(z) ** 2, gap / 2.0)
    return vals


def fs_inner_product(f: SU2Polynomial, g: SU2Polynomial, degree: int) -> complex:
    """Invariant inner product on polynomials of degree <= N:

        ((N+1)/pi) * Int f(z) conj(g(z)) (1+|z|^2)^(-(N+2)) dm(z)

    The substitution t = rho^2/(1+rho^2) makes the radial integrand a
    polynomial of degree <= N in t, handled exactly by Gauss-Legendre with
    N/2 + 2 nodes; the angular average is an exact uniform rule with
    2N + 2 points.
    """
    n = degree
    if f.degree > n or g.degree > n:
        raise ValueError("polynomial degree exceeds the ambient degree")
    n_rad = n // 2 + 2
    n_ang = 2 * n + 2
    nodes, weights = np.polynomial.legendre.leggauss(n_rad)
    t = 0.5 * (nodes + 1.0)  # map to (0, 1)
    w = 0.5 * weights
    rho = np.sqrt(t / (1.0 - t))
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    z = rho[:, None] * np.exp(1j * theta)[None, :]
    fv = _normalized_values_on_grid(f, n, z)
    gv = _normalized_values_on_grid(g, n, z)
    ang = (fv * np.conj(gv)).sum(axis=1)
    return complex((n + 1) / n_ang * np.sum(w * ang))
