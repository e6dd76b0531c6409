"""Named invariant suites behind the ``verify`` subcommand.

Each check exercises one structural identity or statistical contract of
the library at desk scale and reports the measured figure against its
threshold.  All randomness is seeded, so a verify run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, montecarlo as mc, zeros
from .rng import RngSeed, gaussian_matrix

VERIFY_SEED = 0x5EED_CAFE


@dataclass(frozen=True)
class CheckResult:
    check: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold


def _random_poly(rng: np.random.Generator, degree: int) -> model.SU2Polynomial:
    a = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return model.SU2Polynomial(degree, a / math.sqrt(2.0))


def check_sample_determinism() -> CheckResult:
    n = 24
    a = model.sample_polynomial(n, RngSeed(VERIFY_SEED, 7)).coefficients
    b = model.sample_polynomial(n, RngSeed(VERIFY_SEED, 7)).coefficients
    batch = gaussian_matrix(VERIFY_SEED, np.arange(64, dtype=np.uint64), n + 1)
    diff = max(float(np.max(np.abs(a - b))), float(np.max(np.abs(batch[7] - a))))
    return CheckResult("sample-determinism", diff, 0.0)


def check_gaussian_moment() -> CheckResult:
    trials = 10000
    draws = gaussian_matrix(VERIFY_SEED + 1, np.arange(trials, dtype=np.uint64), 4)
    sq = np.abs(draws[:, 2]) ** 2
    se = float(sq.std(ddof=1) / math.sqrt(trials))
    dev = abs(float(sq.mean()) - 1.0)
    return CheckResult("gaussian-moment", dev, 3.0 * se)


def check_point_value_distribution() -> CheckResult:
    """Normalized point evaluation is standard complex Gaussian at any center."""
    n, zeta, trials = 20, 0.3 + 0.4j, 10000
    alpha = gaussian_matrix(VERIFY_SEED + 2, np.arange(trials, dtype=np.uint64), n + 1)
    j = np.arange(n + 1)
    w = np.exp(model._log_weights(n) + j * math.log(abs(zeta))
               - (n / 2.0) * math.log1p(abs(zeta) ** 2))
    vals = alpha @ (w * np.exp(1j * j * np.angle(zeta)))
    sq = np.abs(vals) ** 2
    se = float(sq.std(ddof=1) / math.sqrt(trials))
    dev = abs(float(sq.mean()) - 1.0)
    return CheckResult("point-value-distribution", dev, 3.0 * se)


def check_normalized_eval_consistency() -> CheckResult:
    rng = np.random.default_rng(VERIFY_SEED)
    worst = 0.0
    for n in (5, 18, 30):
        p = _random_poly(rng, n)
        pts = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        pts = 3.0 * pts / np.max(np.abs(pts))
        for z in pts:
            direct = model.evaluate(p, z)
            rescaled = model.evaluate_normalized(p, z) * (1 + abs(z) ** 2) ** (n / 2)
            worst = max(worst, abs(direct - rescaled) / abs(direct))
    return CheckResult("normalized-eval-consistency", worst, 1e-10)


def check_unitarity() -> CheckResult:
    worst = 0.0
    for n, zeta in ((10, 0.5 + 0.0j), (40, 0.7 + 0.2j), (100, 1.25 + 0.5j)):
        u = model.basis_change_matrix(n, zeta).matrix
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(n + 1)))))
    return CheckResult("unitarity", worst, 1e-10)


def check_eq2_identity() -> CheckResult:
    rng = np.random.default_rng(VERIFY_SEED + 3)
    worst = 0.0
    for zeta in (0.5 + 0.0j, 0.7 + 0.2j):
        p = _random_poly(rng, 30)
        pts = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        pts = 2.0 * pts / np.max(np.abs(pts))
        worst = max(worst, model.eq2_identity_residual(p, zeta, pts))
    return CheckResult("eq2-identity", worst, 1e-8)


def _gram_deviation(basis: list, n: int) -> float:
    """Largest entry of |Gram - I| for degree-n polynomials."""
    worst = 0.0
    for j in range(n + 1):
        for k in range(j, n + 1):
            val = model.fs_inner_product(basis[j], basis[k], n)
            worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    return worst


def check_fs_orthonormality(n: int = 10) -> CheckResult:
    """Gram matrix of the weighted monomial basis at degree n."""
    basis = [model.SU2Polynomial(n, np.eye(n + 1)[j]) for j in range(n + 1)]
    worst = _gram_deviation(basis, n)
    return CheckResult("fs-orthonormality", worst, 1e-10)


def check_fs_beta_identity(n: int = 40, js=(0, 1, 7, 20, 33, 40)) -> CheckResult:
    """Norms of the plain monomials z^j, j in ``js``, at ambient degree n."""
    worst = 0.0
    for j in js:
        mono = model.SU2Polynomial(j, np.eye(j + 1)[j])
        val = model.fs_inner_product(mono, mono, n).real
        target = 1.0 / math.comb(n, j)
        worst = max(worst, abs(val - target) / target)
    return CheckResult("fs-beta-identity", worst, 1e-10)


def check_fs_zeta_orthonormality(n: int = 8) -> CheckResult:
    """Gram matrix of the basis recentered at 0.3i, at degree n."""
    zeta = 0.3j
    b = model.basis_change_matrix(n, zeta).matrix.conj().T
    worst = _gram_deviation([model.SU2Polynomial(n, b[:, j]) for j in range(n + 1)], n)
    return CheckResult("fs-zeta-orthonormality", worst, 1e-9)


def check_root_conservation() -> CheckResult:
    rng = np.random.default_rng(VERIFY_SEED + 4)
    bad = 0
    for n in (1, 2, 7, 23, 60):
        zs = zeros.find_all_roots(_random_poly(rng, n))
        if len(zs.locations) + zs.degree_deficit != n:
            bad += 1
    return CheckResult("root-count-conservation", float(bad), 0.0)


def check_root_residuals() -> CheckResult:
    rng = np.random.default_rng(VERIFY_SEED + 5)
    zs = zeros.find_all_roots(_random_poly(rng, 100))
    worst = float(zs.residuals.max())
    return CheckResult("root-residuals-n100", worst, 1e-8)


def check_oracle_equivalence() -> CheckResult:
    """Roots, winding and, where it certifies, Schur-Cohn give one count."""
    rng = np.random.default_rng(VERIFY_SEED + 6)
    radii = (0.5, 1.0, 2.0)
    mismatches = 0
    done = 0
    while done < 200:
        n = int(rng.integers(1, 51))
        p = _random_poly(rng, n)
        r = radii[done % 3]
        zs = zeros.find_all_roots(p)
        by_roots = zeros.count_zeros_from_roots(zs, zeros.Disk(0.0, r))
        if by_roots.near_boundary:
            continue
        try:
            by_winding = zeros.count_zeros_argument_principle(p, zeros.Disk(0.0, r))
        except zeros.ContourError:
            continue
        b, _ = zeros._circle_fourier_coeffs(p.coefficients[None], n, r)
        by_schur, certified = zeros._batch_schur_cohn(b, r)
        if by_roots.count != by_winding.count or (
                certified[0] and by_schur[0] != by_roots.count):
            mismatches += 1
        done += 1
    return CheckResult("oracle-equivalence", float(mismatches), 0.0)


def check_reversal_duality() -> CheckResult:
    rng = np.random.default_rng(VERIFY_SEED + 7)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 31))
        p = _random_poly(rng, n)
        fwd = zeros.find_all_roots(p).locations
        rev = zeros.find_all_roots(model.reverse_coefficients(p)).locations
        if np.min(np.abs(fwd)) < 1e-6:
            continue
        mapped = np.sort_complex(1.0 / fwd)
        worst = max(worst, float(np.max(np.abs(np.sort_complex(rev) - mapped))))
    return CheckResult("reversal-duality", worst, 1e-8)


def check_jensen() -> CheckResult:
    rng = np.random.default_rng(VERIFY_SEED + 8)
    worst = 0.0
    done = 0
    while done < 30:
        n = int(rng.integers(1, 51))
        p = _random_poly(rng, n)
        zs = zeros.find_all_roots(p)
        if np.min(np.abs(np.abs(zs.locations) - 1.0)) < 1e-3:
            continue
        if abs(p.coefficients[0]) <= 1e-12 * np.abs(p.coefficients).max():
            continue
        worst = max(worst, zeros.jensen_residual(p, 1.0))
        done += 1
    return CheckResult("jensen-identity", worst, 1e-6)


def check_two_radius_jensen() -> CheckResult:
    """Annulus form of Jensen: the difference of circle averages at kappa*r
    and r equals the zero-count term plus the annulus-moduli term."""
    rng = np.random.default_rng(VERIFY_SEED + 9)
    r, kappa = 1.0, 1.2
    worst = 0.0
    done = 0
    while done < 15:
        n = int(rng.integers(1, 31))
        p = _random_poly(rng, n)
        mods = np.abs(zeros.find_all_roots(p).locations)
        if np.min(np.abs(mods - r)) < 1e-3 or np.min(np.abs(mods - kappa * r)) < 1e-3:
            continue
        inside = mods < r
        annulus = (mods > r) & (mods < kappa * r)
        lhs = float(np.sum(np.log(kappa * r / mods[annulus]))) \
            + int(inside.sum()) * math.log(kappa)
        rhs = zeros.circle_log_integral(p, kappa * r) - zeros.circle_log_integral(p, r)
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return CheckResult("two-radius-jensen", worst, 1e-6)


def check_subharmonic_majorization() -> CheckResult:
    """log|psi(zeta)| <= Poisson average of boundary log|psi|."""
    rng = np.random.default_rng(VERIFY_SEED + 10)
    r = 1.0
    worst = -math.inf
    for _ in range(12):
        n = int(rng.integers(1, 31))
        p = _random_poly(rng, n)
        zeta = (rng.standard_normal() + 1j * rng.standard_normal())
        zeta = zeta / abs(zeta) * rng.uniform(0, r / 2)
        val = abs(model.evaluate(p, zeta))
        if val == 0.0:
            continue
        excess = math.log(val) - zeros.poisson_log_average(p, zeta, r)
        worst = max(worst, excess)
    return CheckResult("subharmonic-majorization", worst, 1e-8)


def check_poisson_mean_one() -> CheckResult:
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    worst = 0.0
    for frac in (0.0 + 0.0j, 0.3 + 0.2j, -0.7j, 0.9 + 0.0j):
        for r in (1.0, 2.0):
            zeta = frac * r
            z = r * np.exp(1j * theta)
            kern = np.array([zeros.poisson_kernel(zeta, zz, r) for zz in z])
            worst = max(worst, abs(float(kern.mean()) - 1.0))
    return CheckResult("poisson-mean-one", worst, 1e-10)


def check_poisson_partition_scaling() -> CheckResult:
    """Perturbed-midpoint kernel averages stay within the square-root
    envelope of the perturbation scale."""
    worst = 0.0
    for delta in (1e-2, 1e-3):
        kappa = 1.0 - delta**0.25
        m = int(math.ceil(1.0 / delta))
        val = zeros.poisson_partition_deviation(m, kappa, 1.0, delta)
        worst = max(worst, val / math.sqrt(delta))
    return CheckResult("poisson-partition-scaling", worst, 3.0)


def check_omega_exact() -> CheckResult:
    got = mc.omega_lower_bound(1, 1.0)
    want = math.log(math.exp(-1.0) * (1.0 - math.exp(-1.0)))
    dev = abs(got - want)
    return CheckResult("omega-exact-n1", dev, 1e-12)


def check_omega_dominance() -> CheckResult:
    """The explicit coefficient event is contained in the hole event."""
    worst = -math.inf
    for n, r in ((1, 1.0), (4, 0.5), (6, 0.5)):
        plan = mc.TrialPlan(n, r, 20000, VERIFY_SEED + n)
        est = mc.estimate_hole_probability(plan)
        shortfall = math.exp(mc.omega_lower_bound(n, r)) - (est.point + 3 * est.stderr)
        worst = max(worst, shortfall)
    return CheckResult("omega-dominance", worst, 0.0)


def check_hole_deviation_consistency() -> CheckResult:
    """Hole frequency never exceeds the half-mean zero-count deviation
    frequency on the same trials: both are sums of one count law."""
    n, r = 4, 0.5
    hist = mc._count_law(mc.TrialPlan(n, r, 20000, VERIFY_SEED + 11))[:-2]
    mu = mc.expected_zero_count(n, r)
    hole = float(hist[0] / hist.sum())
    dev = float(hist[np.abs(np.arange(n + 1) - mu) >= mu / 2.0].sum() / hist.sum())
    return CheckResult("hole-deviation-consistency", hole - dev, 0.0)


def check_reversal_symmetry_statistic() -> CheckResult:
    """Hole frequency at (N, r) matches the all-zeros-inside frequency at
    1/r within 3 pooled stderr (coefficient reversal swaps the events)."""
    n, r, trials = 2, 1.25, 20000
    e_hole = mc.estimate_hole_probability(mc.TrialPlan(n, r, trials, VERIFY_SEED + 12))
    hist = mc._count_law(mc.TrialPlan(n, 1.0 / r, trials, VERIFY_SEED + 13))[:-2]
    full = float(hist[n] / hist.sum())
    se_full = math.sqrt(max(full * (1 - full), 1e-12) / hist.sum())
    pooled = math.sqrt(e_hole.stderr**2 + se_full**2)
    gap = abs(e_hole.point - full)
    return CheckResult("reversal-symmetry-statistic", gap, 3.0 * pooled)


def check_zero_count_mean() -> CheckResult:
    est = mc.estimate_zero_count_mean(mc.TrialPlan(10, 1.0, 2000, VERIFY_SEED + 14))
    dev = abs(est.point - 5.0)
    return CheckResult("zero-count-mean", dev, 3.0 * est.stderr)


def check_seed_determinism() -> CheckResult:
    plan1 = mc.TrialPlan(3, 1.0, 6000, VERIFY_SEED + 15, workers=1)
    plan2 = mc.TrialPlan(3, 1.0, 6000, VERIFY_SEED + 15, workers=2)
    a = mc.estimate_hole_probability(plan1)
    b = mc.estimate_hole_probability(plan1)
    c = mc.estimate_hole_probability(plan2)
    same = (a == b) and (a.point == c.point and a.ci95 == c.ci95)
    return CheckResult("seed-determinism", 0.0 if same else 1.0, 0.0)


ALL_CHECKS = (
    check_sample_determinism,
    check_gaussian_moment,
    check_point_value_distribution,
    check_normalized_eval_consistency,
    check_unitarity,
    check_eq2_identity,
    check_fs_orthonormality,
    check_fs_beta_identity,
    check_fs_zeta_orthonormality,
    check_root_conservation,
    check_root_residuals,
    check_oracle_equivalence,
    check_reversal_duality,
    check_jensen,
    check_two_radius_jensen,
    check_subharmonic_majorization,
    check_poisson_mean_one,
    check_poisson_partition_scaling,
    check_omega_exact,
    check_omega_dominance,
    check_hole_deviation_consistency,
    check_reversal_symmetry_statistic,
    check_zero_count_mean,
    check_seed_determinism,
)


def run_all_checks() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
