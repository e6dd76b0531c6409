import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lab import model
from su2lab import montecarlo as mc
from su2lab import zeros
from su2lab.rng import RngSeed


class TestExpectedZeroCount:
    def test_examples(self):
        assert mc.expected_zero_count(10, 1.0) == pytest.approx(5.0)
        assert mc.expected_zero_count(0, 2.0) == 0.0

    def test_unit_radius_is_half_degree(self):
        for n in (1, 7, 100):
            assert mc.expected_zero_count(n, 1.0) == pytest.approx(n / 2)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            mc.expected_zero_count(3, 0.0)

    def test_infinite_radius_counts_every_zero(self):
        assert mc.expected_zero_count(7, math.inf) == 7.0


class TestPlanAndEstimateTypes:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            mc.TrialPlan(3, -1.0, 10, 0)
        with pytest.raises(ValueError):
            mc.TrialPlan(3, 1.0, 0, 0)
        with pytest.raises(ValueError):
            mc.TrialPlan(-1, 1.0, 10, 0)
        with pytest.raises(ValueError, match="64 unsigned bits"):
            mc.TrialPlan(3, 1.0, 10, 2**64)
        with pytest.raises(ValueError, match="64 unsigned bits"):
            mc.TrialPlan(3, 1.0, 10, -1)
        mc.TrialPlan(3, 1.0, 10, 2**64 - 1)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    def test_plan_radius_is_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            mc.TrialPlan(4, radius, 100, 1)

    @pytest.mark.parametrize("call", [
        lambda: mc.TrialPlan(4, 0.5, 5000, 1.5),  # was seed 1's stream
        lambda: mc.TrialPlan(4.0, 0.5, 5000, 1),
        lambda: mc.TrialPlan(4, 0.5, 5000.0, 1),
        lambda: mc.TrialPlan(4, 0.5, 5000, 1, workers=2.0),
        lambda: RngSeed(1, 0.5),  # sampled trial 0
        lambda: model.SU2Polynomial(1.0, [1.0, 2.0]),
        lambda: mc.expected_zero_count(-3, 1.0),  # returned -1.5
        lambda: model.basis_change_matrix(-1, 0.5),  # raised IndexError
        lambda: mc.omega_lower_bound(2.5, 1.0),
        lambda: zeros.poisson_partition_deviation(2.5, 0.5, 1.0),
    ])
    def test_integer_inputs_are_integers_in_range(self, call):
        with pytest.raises(ValueError, match="must be"):
            call()

    def test_numpy_integer_plan_is_the_int_plan(self):
        plan = mc.TrialPlan(4, 0.5, 5000, 1, 1)
        np_plan = mc.TrialPlan(np.int64(4), 0.5, np.int32(5000), np.uint64(1), np.int8(1))
        assert np_plan == plan
        assert all(type(getattr(np_plan, f)) is int
                   for f in ("degree", "trials", "master_seed", "workers"))
        assert mc.estimate_hole_probability(np_plan) == mc.estimate_hole_probability(plan)

    def test_estimate_interval_contract(self):
        with pytest.raises(ValueError):
            mc.Estimate(0.5, 0.1, (0.6, 0.7), 10, 0)

    def test_deviation_delta_is_positive(self, monkeypatch):
        # refused before any block runs
        def no_blocks(plan, fn):
            raise AssertionError("blocks ran")

        monkeypatch.setattr(mc, "_run_blocked", no_blocks)
        for delta in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                mc.estimate_deviation_probability(mc.TrialPlan(4, 1.0, 100, 1), delta)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=100, deadline=None)
    def test_wilson_contains_point(self, n, data):
        k = data.draw(st.integers(0, n))
        point, _, (lo, hi) = mc._wilson(k, n)
        assert lo <= point <= hi
        assert 0.0 <= lo and hi <= 1.0

    def test_reliability_policy(self):
        plan = mc.TrialPlan(2, 1.0, 1000, 0)
        with pytest.raises(mc.ReliabilityError):
            mc._frequency_estimate(0, 11, plan)  # 1.1% > 1% limit
        est = mc._frequency_estimate(0, 10, plan)  # exactly 1%: allowed
        assert est.trials_failed == 10
        assert est.trials_used + est.trials_failed == plan.trials


class TestZeroCountMean:
    def test_degree_zero_exact(self):
        est = mc.estimate_zero_count_mean(mc.TrialPlan(0, 1.0, 50, 3))
        assert est.point == 0.0 and est.stderr == 0.0
        assert est.trials_used == 50

    def test_matches_formula(self):
        est = mc.estimate_zero_count_mean(mc.TrialPlan(8, 1.0, 1500, 10))
        assert abs(est.point - 4.0) <= 3 * est.stderr
        assert est.trials_used + est.trials_failed == 1500


class TestDeviation:
    def test_impossible_event(self):
        # delta beyond max(r^2,1)/(1+r^2) empties the event since Xi in [0,N]
        plan = mc.TrialPlan(6, 1.0, 300, 4)
        est = mc.estimate_deviation_probability(plan, 0.51)
        assert est.point == 0.0

    def test_tiny_delta_is_certain(self):
        plan = mc.TrialPlan(5, 1.0, 300, 4)  # mean 2.5 is never an integer count
        est = mc.estimate_deviation_probability(plan, 1e-12)
        assert est.point == 1.0

    def test_decreasing_in_degree(self):
        small = mc.estimate_deviation_probability(mc.TrialPlan(6, 1.0, 10000, 23), 0.3)
        large = mc.estimate_deviation_probability(mc.TrialPlan(12, 1.0, 10000, 23), 0.3)
        pooled = math.hypot(small.stderr, large.stderr)
        assert large.point <= small.point - 2 * pooled


class TestHole:
    def test_degree_zero(self):
        est = mc.estimate_hole_probability(mc.TrialPlan(0, 1.0, 123, 5))
        assert est.point == 1.0
        assert est.trials_used == 123

    def test_degree_one_analytic(self):
        # root is -a0/a1; |a0|^2, |a1|^2 are unit exponentials, so
        # P(no zero in B(0,r)) = P(E0 > r^2 E1) = 1/(1+r^2)
        for r in (0.5, 1.0):
            est = mc.estimate_hole_probability(mc.TrialPlan(1, r, 30000, 6))
            assert abs(est.point - 1 / (1 + r * r)) <= 3 * est.stderr

    def test_monotone_in_radius(self):
        vals = [
            mc.estimate_hole_probability(mc.TrialPlan(6, r, 5000, 7))
            for r in (0.25, 0.5, 1.0)
        ]
        for a, b in zip(vals, vals[1:]):
            pooled = math.hypot(a.stderr, b.stderr)
            assert b.point <= a.point - 2 * pooled or (a.point == b.point == 0.0)

    def test_hole_subset_of_deviation(self):
        # a hole forces |Xi - mean| = mean >= mean/2 on the same trials
        plan = mc.TrialPlan(4, 0.5, 20000, 8)
        counts, failed = mc.zero_count_samples(plan)
        kept = counts[~failed]
        mu = mc.expected_zero_count(4, 0.5)
        hole = float((kept == 0).mean())
        dev = float((np.abs(kept - mu) >= mu / 2).mean())
        assert hole <= dev

    @staticmethod
    def _certify_none(monkeypatch):
        monkeypatch.setattr(mc, "_batch_schur_cohn", lambda b, radius, margin: (
            np.zeros(len(b), dtype=np.int64), np.zeros(len(b), dtype=bool)))

    @pytest.mark.parametrize("degree,r", [(8, 0.5), (24, 1.0), (40, 0.5)])
    def test_schur_cohn_path_matches_winding_path(self, degree, r, monkeypatch):
        # the same block counted by winding alone: identical counts and
        # indicators
        plan = mc.TrialPlan(degree, r, 4096, 11)
        fast = mc._block_counts(plan, 0, 4096)
        self._certify_none(monkeypatch)
        slow = mc._block_counts(plan, 0, 4096)
        for got, want in zip(fast, slow):
            assert np.array_equal(got, want)
        assert not fast[2].any()

    def test_each_block_builds_its_rows_once(self, monkeypatch):
        # the count block hands its Fourier rows to Schur-Cohn and the
        # redone ones to winding; the circle-mean block reads its means, its
        # bound and its undecided log-L1 rows from one build.  Both bindings
        # are watched, so a kernel that built rows again would show
        plan = mc.TrialPlan(8, 1.0, 1000, 12)
        l1_plan = mc.TrialPlan(6, 1.0, 600, 20)
        alpha = mc._sample_block(l1_plan, 0, l1_plan.trials)
        _, mean_abs, _, _ = zeros._batch_circle_log_means(
            *zeros._circle_fourier_coeffs(alpha, 6, 1.0), mc.TOLERANCES.quadrature_target)
        threshold = float(np.median(mean_abs))
        calls, build = [], zeros._circle_fourier_coeffs

        def spy(alpha, *args):
            calls.append(len(alpha))
            return build(alpha, *args)

        for module in (zeros, mc):
            monkeypatch.setattr(module, "_circle_fourier_coeffs", spy)
        winding = _spy(monkeypatch, "_batch_winding")
        mc._block_counts(plan, 0, 1000)
        assert calls == [1000]
        assert len(winding) == 1 and winding[0] >= 1000 // mc.CROSS_CHECK_EVERY
        calls.clear()
        mc._block_circle_means(plan, 0, 1000)
        assert calls == [1000]
        # a threshold among the |log| means leaves trials undecided: the
        # estimator samples and builds its plan once all the same
        calls.clear()
        sampled, sample = [], mc.gaussian_matrix

        def sample_spy(seed, trials, *args):
            sampled.append(len(trials))
            return sample(seed, trials, *args)

        monkeypatch.setattr(mc, "gaussian_matrix", sample_spy)
        means = _spy(monkeypatch, "_batch_circle_log_means")
        monkeypatch.setattr(mc, "_log_l1_threshold", lambda plan: threshold)
        mc._plan_samples.cache_clear()
        try:
            mc.log_l1_outlier_frequency(l1_plan)
        finally:
            mc._plan_samples.cache_clear()
        assert calls == [600] and sampled == [600]
        assert len(means) == 2 and 0 < means[1] < 600

    @staticmethod
    def _off_by_one_schur_cohn(monkeypatch):
        real = mc._batch_schur_cohn

        def off_by_one(b, r, margin):
            counts, certified = real(b, r, margin)
            return counts + 1, certified

        monkeypatch.setattr(mc, "_batch_schur_cohn", off_by_one)

    def test_cross_check_flags_disagreement(self, monkeypatch):
        # a counter that is always off by one is caught on every sampled
        # trial, by winding, and only there
        plan = mc.TrialPlan(6, 0.5, 1000, 12)
        honest, _, _ = mc._block_counts(plan, 0, 1000)
        self._off_by_one_schur_cohn(monkeypatch)
        sampled = np.arange(1000) % mc.CROSS_CHECK_EVERY == 0
        counts, failed, mism = mc._block_counts(plan, 0, 1000)
        assert np.array_equal(mism, sampled)
        assert np.array_equal(failed, sampled)
        assert np.array_equal(counts, honest + 1)
        hole = mc.estimate_hole_probability(plan)
        assert hole.point == 0.0  # every count is at least 1
        assert hole.trials_failed == sampled.sum()

    def test_certified_counts_skip_the_root_recount(self, monkeypatch):
        # Schur-Cohn certifies every row of this block, so winding alone
        # recounts the sampled trials and Aberth runs on none
        plan = mc.TrialPlan(6, 0.5, 1000, 12)
        alpha = mc._sample_block(plan, 0, 1000)
        b, _ = zeros._circle_fourier_coeffs(alpha, 6, 0.5)
        _, certified = zeros._batch_schur_cohn(b, 0.5, mc.TOLERANCES.boundary_margin)
        assert certified.all()
        calls = _spy(monkeypatch, "_root_counts")
        winding = _spy(monkeypatch, "_batch_winding")
        _, failed, _ = mc._block_counts(plan, 0, 1000)
        assert calls == [] and winding == [1000 // mc.CROSS_CHECK_EVERY]
        assert not failed.any()

    @pytest.mark.parametrize("certify_none", [True, False])
    def test_winding_counts_get_the_root_recount(self, certify_none, monkeypatch):
        # the root oracle recounts exactly the sampled trials that winding
        # counted and certified: every such trial when Schur-Cohn certifies
        # no row, and only those it refused when it certifies some
        plan = mc.TrialPlan(20, 1.0, 2000, 12)
        alpha = mc._sample_block(plan, 0, 2000)
        b, _ = zeros._circle_fourier_coeffs(alpha, 20, 1.0)
        margin = mc.TOLERANCES.boundary_margin
        _, certified = zeros._batch_schur_cohn(b, 1.0, margin)
        _, wok = zeros._batch_winding(b, 1.0, margin)
        if certify_none:
            self._certify_none(monkeypatch)
            certified[:] = False
        sampled = np.arange(2000) % mc.CROSS_CHECK_EVERY == 0
        assert (sampled & certified).any() != certify_none
        calls, root_counts = [], mc._root_counts

        def spy(alpha, plan):
            calls.append(alpha)
            return root_counts(alpha, plan)

        monkeypatch.setattr(mc, "_root_counts", spy)
        mc._block_counts(plan, 0, 2000)
        assert len(calls) == 1
        assert np.array_equal(calls[0], alpha[sampled & ~certified & wok])

    def test_root_recount_flags_winding_disagreement(self, monkeypatch):
        # a winding counter that is always off by one, behind a Schur-Cohn
        # that certifies nothing, fails exactly the sampled trials winding
        # certified, each as a mismatch
        plan = mc.TrialPlan(8, 1.0, 1000, 12)
        alpha = mc._sample_block(plan, 0, 1000)
        b, _ = zeros._circle_fourier_coeffs(alpha, 8, 1.0)
        real = mc._batch_winding
        honest, wok = real(b, 1.0, mc.TOLERANCES.boundary_margin)
        want = (np.arange(1000) % mc.CROSS_CHECK_EVERY == 0) & wok
        assert want.any()

        def off_by_one(b, r, margin):
            counts, ok = real(b, r, margin)
            return counts + 1, ok

        self._certify_none(monkeypatch)
        monkeypatch.setattr(mc, "_batch_winding", off_by_one)
        counts, failed, mism = mc._block_counts(plan, 0, 1000)
        assert np.array_equal(mism, want)
        assert np.array_equal(failed, ~wok | want)
        assert np.array_equal(counts[wok], honest[wok] + 1)

    def test_zero_count_samples_are_cross_checked(self, monkeypatch):
        # mean-zeros and deviation count through the same cascade, so the
        # off-by-one counter fails exactly the sampled trials there too
        plan = mc.TrialPlan(6, 0.5, 5000, 13)
        self._off_by_one_schur_cohn(monkeypatch)
        _, failed = mc.zero_count_samples(plan)
        assert np.array_equal(failed, np.arange(5000) % mc.CROSS_CHECK_EVERY == 0)
        # and every one of those failures is a cross-check mismatch, which
        # the count law records
        _, _, mism = mc._run_blocked(plan, mc._block_counts)
        assert np.array_equal(mism, failed)
        (_, n_failed, n_mismatched), = mc._count_laws([plan])
        assert n_failed == n_mismatched == 50

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_law_is_the_law_of_the_samples(self, workers):
        # three full blocks and a partial one, over an unsorted ladder with
        # degree 0 and a repeated degree: each plan's law, from one pass
        # that draws every block at the top degree, is the histogram of its
        # own per-trial view, then its failed and mismatched totals, at any
        # worker count; the one-plan law is the same
        plans = [mc.TrialPlan(n, 1.0, 3 * mc.BLOCK_TRIALS + 100, 21, workers)
                 for n in (6, 0, 3, 6)]
        laws = mc._count_laws(plans)
        assert len(laws) == len(plans)
        for plan, (hist, n_failed, n_mismatched) in zip(plans, laws):
            counts, failed = mc.zero_count_samples(plan)
            _, failed_again, mism = mc._run_blocked(plan, mc._block_counts)
            want = np.bincount(counts[~failed], minlength=plan.degree + 1)
            assert hist.dtype == np.int64 and hist.tolist() == want.tolist()
            assert (n_failed, n_mismatched) == (failed_again.sum(), mism.sum())
            assert hist.sum() + n_failed == plan.trials
        (hist, *totals), = mc._count_laws(plans[:1])
        assert [hist.tolist(), *totals] == [laws[0][0].tolist(), *laws[0][1:]]

    @pytest.mark.parametrize("change", [
        {"master_seed": 22}, {"trials": 5000}, {"workers": 2}])
    def test_count_ladder_plans_share_their_trials(self, change):
        plan = mc.TrialPlan(6, 1.0, 4096, 21)
        other = dataclasses.replace(mc.TrialPlan(3, 0.5, 4096, 21), **change)
        with pytest.raises(ValueError, match="share seed, trials and workers"):
            mc._count_laws([plan, other])

    def test_root_check_skips_degrees_beyond_weight_range(self, monkeypatch):
        # the weights overflow from N = 2054: no row is trusted or iterated
        def no_aberth(w):
            raise AssertionError("Aberth ran")

        monkeypatch.setattr(mc, "_aberth_batch", no_aberth)
        plan = mc.TrialPlan(2100, 1.0, 3, 0)
        counts, trusted = mc._root_counts(mc._sample_block(plan, 0, 3), plan)
        assert len(counts) == 3 and not trusted.any()

    def test_root_check_skips_overflowing_rows(self, monkeypatch):
        # at N = 2053 the weights fit, but |alpha_j| = 2 at j = N/2 takes
        # its product past the largest double: that row is neither iterated
        # nor trusted
        seen = []

        def fake_aberth(w):
            seen.append(w)
            return np.zeros((len(w), w.shape[1] - 1), dtype=complex), np.ones(len(w), dtype=bool)

        monkeypatch.setattr(mc, "_aberth_batch", fake_aberth)
        plan = mc.TrialPlan(2053, 1.0, 3, 0)
        alpha = np.ones((3, 2054), dtype=complex)
        alpha[1, 1026] = 2.0
        with np.errstate(all="raise"):
            counts, trusted = mc._root_counts(alpha, plan)
        assert len(seen) == 1 and len(seen[0]) == 2 and np.isfinite(seen[0]).all()
        assert counts.dtype == np.int64 and not trusted[1] and counts[1] == 0

    def test_reversal_symmetry(self):
        # hole at (N, r) <-> all N zeros inside closed B(0, 1/r) for the
        # reversed coefficients; statistically equal frequencies
        n, r = 2, 1.25
        hole = mc.estimate_hole_probability(mc.TrialPlan(n, r, 40000, 9))
        counts, failed = mc.zero_count_samples(mc.TrialPlan(n, 1 / r, 40000, 10))
        kept = counts[~failed]
        full = float((kept == n).mean())
        se = math.sqrt(full * (1 - full) / len(kept))
        pooled = math.hypot(hole.stderr, se)
        assert abs(hole.point - full) <= 3 * pooled


class TestOmegaBound:
    def test_exact_degree_one(self):
        want = math.log(math.exp(-1) * (1 - math.exp(-1)))
        assert mc.omega_lower_bound(1, 1.0) == pytest.approx(want, abs=1e-14)

    def test_dominated_by_first_factor(self):
        for n, r in ((1, 1.0), (5, 0.5), (20, 2.0), (50, 1.0)):
            assert mc.omega_lower_bound(n, r) <= -float(n * n)

    def test_unit_radius_window(self):
        # exponent stays within the explicit envelope at r=1
        for n in (10, 20, 30, 40, 50):
            ratio = -mc.omega_lower_bound(n, 1.0) / n**2
            assert 1.0 <= ratio <= 1.0 + math.log(2.0) + 1.0 / (12 * n) + 0.01

    def test_extreme_radii_stay_finite(self):
        for r in (1e-8, 1e8):
            v = mc.omega_lower_bound(30, r)
            assert math.isfinite(v)
            assert v <= -900.0

    @given(st.integers(1, 60), st.floats(0.05, 4.0), st.floats(1.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_in_radius(self, n, r, factor):
        # widening the disk shrinks every coefficient box, so log P drops
        assert mc.omega_lower_bound(n, r * factor) <= mc.omega_lower_bound(n, r)

    def test_infinite_radius_forces_no_hole(self):
        assert mc.omega_lower_bound(4, math.inf) == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.omega_lower_bound(0, 1.0)
        with pytest.raises(ValueError):
            mc.omega_lower_bound(3, 0.0)

    def test_hole_dominates_omega(self):
        for n, r, seed in ((1, 1.0, 11), (4, 0.5, 12)):
            est = mc.estimate_hole_probability(mc.TrialPlan(n, r, 20000, seed))
            assert est.point >= math.exp(mc.omega_lower_bound(n, r)) - 3 * est.stderr


class TestConcentrationEstimators:
    def test_delta_one_never_violates_lower_side(self):
        plan = mc.TrialPlan(8, 1.0, 2000, 13)
        est = mc.max_modulus_outlier_frequency(plan, 1.0)
        # upper side at delta=1 is a 2^{N/2} overshoot: effectively never
        assert est.point <= 0.01

    def test_max_modulus_outliers_resolvable_band(self):
        # at a narrow band (delta = 0.05) the outlier rate is large and
        # visibly decreasing in degree
        lo = mc.max_modulus_outlier_frequency(mc.TrialPlan(10, 1.0, 4000, 14), 0.05)
        hi = mc.max_modulus_outlier_frequency(mc.TrialPlan(40, 1.0, 4000, 14), 0.05)
        pooled = math.hypot(lo.stderr, hi.stderr)
        assert hi.point <= lo.point - 2 * pooled

    def test_max_modulus_large_degree_within_band(self):
        est = mc.max_modulus_outlier_frequency(mc.TrialPlan(50, 1.0, 2000, 15), 0.5)
        assert est.point < 0.05

    def test_circle_average_tail_vanishes_with_wide_margin(self):
        plan = mc.TrialPlan(40, 1.0, 500, 16)
        est = mc.circle_average_lower_tail_frequency(plan, 0.5)
        assert est.point < 0.05

    def test_circle_average_tail_resolvable_margin(self):
        # a shallow margin (delta = 0.1) keeps both tails well above
        # 1/trials, so the decrease is a comparison of two nonzero rates
        lo = mc.circle_average_lower_tail_frequency(mc.TrialPlan(6, 1.0, 4000, 17), 0.1)
        hi = mc.circle_average_lower_tail_frequency(mc.TrialPlan(12, 1.0, 4000, 17), 0.1)
        pooled = math.hypot(lo.stderr, hi.stderr)
        assert lo.point > 0
        assert hi.point <= lo.point - 2 * pooled

    def test_log_l1_outliers_rare(self):
        est = mc.log_l1_outlier_frequency(mc.TrialPlan(30, 1.0, 2000, 18))
        assert est.point < 0.05
        small = mc.log_l1_outlier_frequency(mc.TrialPlan(10, 1.0, 2000, 18))
        pooled = math.hypot(est.stderr, small.stderr)
        assert est.point <= small.point + 2 * pooled

    @pytest.mark.parametrize("degree", [10, 40])
    def test_circle_means_agree_with_jensen(self, degree):
        # Jensen's formula on converged Aberth roots; before zeros near the
        # circle were divided out, row 2163 at N = 40 was off by 1.7e-4
        plan = mc.TrialPlan(degree, 1.0, mc.BLOCK_TRIALS, 41)
        mean_log, *_, failed = mc._block_circle_means(plan, 0, mc.BLOCK_TRIALS)
        alpha = mc._sample_block(plan, 0, mc.BLOCK_TRIALS)
        roots, conv = zeros._aberth_batch(alpha * mc._weights(degree))
        mods = np.abs(roots)
        inside = np.log(np.minimum(mods, 1.0)).sum(axis=1)
        want = np.log(np.abs(alpha[:, 0])) - inside
        assert conv.all() and not failed.any()
        assert np.abs(mean_log - want).max() <= 1e-6

    @pytest.mark.parametrize("trials", [600, mc.BLOCK_TRIALS + 300])
    def test_log_l1_undecided_trials_use_the_abs_kernel(self, trials, monkeypatch):
        # a threshold among the trials' |log| means leaves many undecided by
        # the bounds; their hits must be the abs kernel's.  Each block reruns
        # its own undecided rows
        plan = mc.TrialPlan(6, 1.0, trials, 19)
        alpha = mc._sample_block(plan, 0, plan.trials)
        _, mean_abs, ok, _ = zeros._batch_circle_log_means(
            *zeros._circle_fourier_coeffs(alpha, 6, 1.0), mc.TOLERANCES.quadrature_target)
        threshold = float(np.median(mean_abs))
        means = _spy(monkeypatch, "_batch_circle_log_means")
        monkeypatch.setattr(mc, "_log_l1_threshold", lambda plan: threshold)
        mc._plan_samples.cache_clear()
        try:
            est = mc.log_l1_outlier_frequency(plan)
        finally:
            mc._plan_samples.cache_clear()
        blocks = [min(mc.BLOCK_TRIALS, trials - s) for s in range(0, trials, mc.BLOCK_TRIALS)]
        assert means[::2] == blocks
        assert len(means) == 2 * len(blocks)
        assert all(0 < rerun < block for rerun, block in zip(means[1::2], blocks))
        want = mc._frequency_estimate(int((mean_abs > threshold)[ok].sum()),
                                      int((~ok).sum()), plan)
        assert est == want

    def test_parameter_validation(self):
        plan = mc.TrialPlan(4, 1.0, 10, 0)
        with pytest.raises(ValueError):
            mc.max_modulus_outlier_frequency(plan, 1.5)
        with pytest.raises(ValueError):
            mc.circle_average_lower_tail_frequency(plan, 1.0)

    def test_unreachable_quadrature_target_is_refused(self, monkeypatch):
        # a zero gap target forces every trial to the node cap; the
        # estimator must refuse rather than report from failed trials.  A
        # cap of 2^12 nodes fails every trial as the default 2^20 does, at
        # a 256th of the nodes
        monkeypatch.setattr(mc, "TOLERANCES", mc.Tolerances(quadrature_target=0.0))
        monkeypatch.setattr(zeros, "NODE_CAP", 1 << 12)
        mc._plan_samples.cache_clear()
        plan = mc.TrialPlan(4, 1.0, 200, 1)
        try:
            with pytest.raises(mc.ReliabilityError, match="200/200 trials failed"):
                mc.circle_average_lower_tail_frequency(plan, 0.5)
        finally:
            mc._plan_samples.cache_clear()

    def test_absurd_boundary_margin_is_refused(self, monkeypatch):
        # margin wider than the disk flags every trial's contour as
        # singular, tripping the failed-trial guard
        monkeypatch.setattr(mc, "TOLERANCES", mc.Tolerances(boundary_margin=1.0))
        with pytest.raises(mc.ReliabilityError):
            mc.estimate_hole_probability(mc.TrialPlan(4, 1.0, 200, 1))


class TestConditionalEstimators:
    """The ``*_probability`` estimators against the ``*_frequency`` counts
    on the same trials, at settings where plain Monte Carlo resolves."""

    SETTINGS = [
        (10, mc.max_modulus_outlier_frequency, mc.max_modulus_outlier_probability, 0.05),
        (40, mc.max_modulus_outlier_frequency, mc.max_modulus_outlier_probability, 0.05),
        (10, mc.circle_average_lower_tail_frequency,
         mc.circle_average_lower_tail_probability, 0.1),
    ]

    @pytest.mark.parametrize("degree,frequency,probability,delta", SETTINGS)
    def test_agrees_with_frequency(self, degree, frequency, probability, delta):
        plan = mc.TrialPlan(degree, 1.0, 10000, 14)
        freq = frequency(plan, delta)
        cond = probability(plan, delta)
        assert freq.point > 0
        assert abs(cond.point - freq.point) <= 3 * freq.stderr
        assert 0 < cond.stderr <= freq.stderr
        assert cond.ci95[0] <= cond.point <= cond.ci95[1]
        assert cond.trials_failed == freq.trials_failed
        assert cond.trials_used == freq.trials_used

    @pytest.mark.parametrize("probability,delta", [
        (mc.max_modulus_outlier_probability, 0.05),
        (mc.circle_average_lower_tail_probability, 0.1),
    ])
    def test_worker_invariance(self, probability, delta):
        base = dict(degree=10, radius=1.0, trials=9000, master_seed=14)
        one = probability(mc.TrialPlan(workers=1, **base), delta)
        two = probability(mc.TrialPlan(workers=2, **base), delta)
        assert one == two

    def test_delta_one_drops_lower_side(self):
        plan = mc.TrialPlan(8, 1.0, 2000, 13)
        upper = mc.max_modulus_outlier_probability(plan, 1.0)
        both = mc.max_modulus_outlier_probability(plan, 0.99)
        assert upper.point <= 0.01
        assert both.point >= upper.point

    def test_parameter_validation(self):
        plan = mc.TrialPlan(4, 1.0, 10, 0)
        with pytest.raises(ValueError):
            mc.max_modulus_outlier_probability(plan, 0.0)
        with pytest.raises(ValueError):
            mc.max_modulus_outlier_probability(plan, 1.5)
        with pytest.raises(ValueError):
            mc.circle_average_lower_tail_probability(plan, 1.0)

    def test_reliability_policy_and_interval(self):
        plan = mc.TrialPlan(2, 1.0, 1000, 0)
        probs = np.full(1000, 1e-200)
        failed = np.zeros(1000, dtype=bool)
        failed[:11] = True  # 1.1% > 1% limit
        with pytest.raises(mc.ReliabilityError):
            mc._probability_estimate(probs[~failed], int(failed.sum()), plan)
        failed[:] = False
        failed[:10] = True  # exactly 1%: allowed
        probs[10] = 3e-200
        est = mc._probability_estimate(probs[~failed], int(failed.sum()), plan)
        assert est.trials_failed == 10 and est.trials_used == 990
        # spread of values whose squares underflow is still resolved
        assert est.stderr == pytest.approx(2e-200 / 990, rel=1e-6)
        assert 0.0 < est.ci95[0] < est.point < est.ci95[1]


class TestGammaTails:
    @pytest.mark.parametrize("k", [2, 7, 13, 51])
    def test_matches_scipy(self, k):
        # at k = 51 the range spans P ~ 1e-133 and Q ~ 1e-73
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.geomspace(1e-3, 0.999, 40), [1.0],
                            np.geomspace(1.001, 6.0, 40)]) * k
        p, q = mc._gamma_tails(k, np.log(x))
        np.testing.assert_allclose(p, special.gammainc(k, x), rtol=1e-12, atol=0)
        np.testing.assert_allclose(q, special.gammaincc(k, x), rtol=1e-12, atol=0)

    def test_shape_one_closed_form(self):
        log_x = np.log([1e-300, 1e-12, 0.3, 1.0, 2.5, 40.0, 700.0])
        x = np.exp(log_x)  # the argument the helper sees
        p, q = mc._gamma_tails(1, log_x)
        np.testing.assert_allclose(p, -np.expm1(-x), rtol=1e-13, atol=0)
        np.testing.assert_allclose(q, np.exp(-x), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k", [1, 3, 13, 51])
    def test_tails_sum_to_one(self, k):
        log_x = np.linspace(-5.0, 6.0, 200)
        p, q = mc._gamma_tails(k, log_x)
        assert np.all((p >= 0) & (p <= 1) & (q >= 0) & (q <= 1))
        np.testing.assert_allclose(p + q, 1.0, rtol=0, atol=4e-16)

    def test_small_tails_not_flushed(self):
        # leading terms: P_k(x) ~ x^k / k! as x -> 0, and
        # Q_k(x) ~ e^-x x^(k-1) / (k-1)! as x -> inf
        k = 13
        log_x = -23.6
        p, _ = mc._gamma_tails(k, np.array([log_x]))
        lead = math.exp(k * log_x - math.lgamma(k + 1))
        assert 1e-150 < p[0] < 1e-140
        assert p[0] == pytest.approx(lead, rel=1e-9)
        _, q = mc._gamma_tails(k, np.array([math.log(600.0)]))
        lead = math.exp(-600.0 + (k - 1) * math.log(600.0) - math.lgamma(k))
        assert 0 < q[0] == pytest.approx(lead, rel=0.03)

    def test_out_of_range_is_exact_zero(self):
        p, q = mc._gamma_tails(13, np.array([-1e4, 1e4]))
        assert p[0] == 0.0 and q[0] == 1.0
        assert p[1] == 1.0 and q[1] == 0.0


class TestDecayFit:
    def test_exact_synthetic(self):
        fit = mc.fit_decay_exponent([(2, -8.0), (4, -32.0), (6, -72.0), (8, -128.0)])
        assert fit.c_hat == pytest.approx(2.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            mc.fit_decay_exponent([(2, -1.0), (4, -2.0)])

    def test_degenerate_design(self):
        with pytest.raises(ValueError):
            mc.fit_decay_exponent([(3, -1.0), (3, -2.0), (3, -3.0)])

    def test_omega_curve_fit(self):
        pts = [(n, mc.omega_lower_bound(n, 1.0)) for n in range(10, 51, 10)]
        fit = mc.fit_decay_exponent(pts)
        assert 1.0 <= fit.c_hat <= 1.71
        assert fit.r_squared >= 0.999


def _spy(monkeypatch, name):
    """Replace montecarlo's binding of kernel ``name`` with one that logs
    the rows of each call."""
    calls, kernel = [], getattr(mc, name)

    def spy(rows, *args, **kwargs):
        calls.append(len(rows))
        return kernel(rows, *args, **kwargs)

    monkeypatch.setattr(mc, name, spy)
    return calls


class TestConcentrationMemo:
    """``_plan_samples`` keeps the last boundary-maximum or circle-mean run."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        mc._plan_samples.cache_clear()
        yield
        mc._plan_samples.cache_clear()

    @staticmethod
    def plan(**changes):
        return mc.TrialPlan(**{**dict(degree=6, radius=1.0, trials=600, master_seed=41),
                               **changes})

    def test_one_kernel_pass_per_plan(self, monkeypatch):
        means = _spy(monkeypatch, "_batch_circle_log_means")
        maxima = _spy(monkeypatch, "_batch_boundary_log_max")
        mc.circle_average_lower_tail_frequency(self.plan(), 0.1)
        mc.log_l1_outlier_frequency(self.plan())  # an equal plan, not the same object
        mc.circle_average_lower_tail_probability(self.plan(), 0.1)
        mc.max_modulus_outlier_frequency(self.plan(), 0.05)
        mc.max_modulus_outlier_probability(self.plan(), 0.05)
        assert means == [600]
        assert maxima == [600]

    @pytest.mark.parametrize("changes", [
        dict(workers=2),
        dict(master_seed=42),
        dict(degree=7),
    ])
    def test_other_plan_misses(self, changes, monkeypatch):
        means = _spy(monkeypatch, "_batch_circle_log_means")
        mc.circle_average_lower_tail_frequency(self.plan(), 0.1)
        mc.circle_average_lower_tail_frequency(self.plan(**changes), 0.1)
        assert means == [600, 600]

    def test_other_run_drops_the_entry(self, monkeypatch):
        means = _spy(monkeypatch, "_batch_circle_log_means")
        mc.circle_average_lower_tail_frequency(self.plan(), 0.1)
        mc.max_modulus_outlier_frequency(self.plan(), 0.05)
        mc.log_l1_outlier_frequency(self.plan())
        assert means == [600, 600]

    def test_other_blocks_always_run(self):
        starts = []

        def block(plan, start, stop):
            starts.append(start)
            return (np.arange(start, stop),)

        mc._run_blocked(self.plan(), block)
        out = mc._run_blocked(self.plan(), block)
        assert starts == [0, 0]
        assert out[0].flags.writeable
        assert mc._plan_samples.cache_info().currsize == 0

    @pytest.mark.parametrize("block", [mc._block_circle_means, mc._block_log_max])
    def test_cached_arrays_refuse_writes(self, block):
        for col in mc._plan_samples(self.plan(), block):
            with pytest.raises(ValueError):
                col[0] = 0

    @pytest.mark.parametrize("block", [mc._block_circle_means, mc._block_log_max])
    def test_hit_equals_fresh_run(self, block):
        plan = self.plan(trials=mc.BLOCK_TRIALS + 300)
        first = mc._plan_samples(plan, block)
        hit = mc._plan_samples(plan, block)
        fresh = mc._run_blocked(plan, block)
        assert hit is first
        assert len(hit) == len(fresh)
        for a, b in zip(hit, fresh):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_threads_get_their_own_plan(self):
        # threads alternate two plans through the one entry; a lost race
        # may recompute but must never hand out the other plan's result.
        # A cheap block makes hits and misses interleave often.
        def seed_block(plan, start, stop):
            return (np.full(stop - start, plan.master_seed),)

        wrong = []

        def work(k):
            for i in range(8000):
                # a fresh plan object: the key compares by TrialPlan.__eq__
                plan = self.plan(trials=3, master_seed=43 + (i // 2 + k) % 2)
                try:
                    if mc._plan_samples(plan, seed_block)[0][0] != plan.master_seed:
                        wrong.append((k, i))
                except Exception as exc:  # a racing thread's error is a finding too
                    wrong.append((k, i, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestDeterminism:
    def test_same_plan_same_estimate(self):
        plan = mc.TrialPlan(4, 1.0, 5000, 19)
        assert mc.estimate_hole_probability(plan) == mc.estimate_hole_probability(plan)

    def test_worker_invariance(self):
        base = dict(degree=3, radius=0.8, trials=9000, master_seed=20)
        one = mc.estimate_hole_probability(mc.TrialPlan(workers=1, **base))
        two = mc.estimate_hole_probability(mc.TrialPlan(workers=2, **base))
        assert one.point == two.point
        assert one.ci95 == two.ci95
        assert one.trials_failed == two.trials_failed

    def test_worker_invariance_mean(self):
        base = dict(degree=7, radius=1.0, trials=9000, master_seed=21)
        one = mc.estimate_zero_count_mean(mc.TrialPlan(workers=1, **base))
        two = mc.estimate_zero_count_mean(mc.TrialPlan(workers=2, **base))
        assert one == two


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _die(plan, start, stop):
    os.kill(os.getpid(), signal.SIGKILL)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _until_broken(pool):
    """Submit no-ops until the pool has noticed a dead worker."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            pool.submit(int).result(timeout=30)
        except BrokenProcessPool:
            return
    pytest.fail("the pool never noticed its dead worker")


class TestWorkerPool:
    """The one worker pool a process keeps across parallel estimates."""

    @pytest.fixture(autouse=True)
    def no_pool(self):
        mc._close_pool()
        yield
        mc._close_pool()

    @staticmethod
    def estimate(workers, blocks=2, degree=5):
        plan = mc.TrialPlan(degree, 0.7, blocks * mc.BLOCK_TRIALS, 23, workers=workers)
        return mc.estimate_hole_probability(plan)

    def test_consecutive_estimates_share_workers(self):
        first = self.estimate(2)
        pids = _worker_pids()
        second = self.estimate(2, degree=3)
        assert len(pids) == 2
        assert _worker_pids() == pids
        assert first == self.estimate(1)
        assert second == self.estimate(1, degree=3)

    def test_new_size_replaces_pool(self, monkeypatch):
        monkeypatch.setattr(mc, "default_workers", lambda: 3)  # the pool is capped at the CPUs
        self.estimate(2)
        old_pool, old = mc._pool, multiprocessing.active_children()
        got = self.estimate(3, blocks=3)
        assert mc._pool is not old_pool
        assert len(old) == 2
        assert all(p.exitcode is not None for p in old)  # joined, not orphaned
        new = _worker_pids()
        assert len(new) == 3
        assert not new & {p.pid for p in old}
        assert got == self.estimate(1, blocks=3)

    def test_pool_is_capped_at_the_cpus(self, monkeypatch):
        # no process starts: the fake pool records its size and maps in place
        sizes = []

        def fake_map(size, fn, *iterables):
            sizes.append(size)
            return list(map(fn, *iterables))

        monkeypatch.setattr(mc, "default_workers", lambda: 3)
        monkeypatch.setattr(mc, "_map_blocks", fake_map)
        got = self.estimate(5000, blocks=4, degree=1)
        assert sizes == [3] and mc._pool is None
        assert got == self.estimate(1, blocks=4, degree=1)

    def test_killed_worker_is_replaced(self):
        self.estimate(2)
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        _until_broken(mc._pool)
        assert self.estimate(2) == self.estimate(1)
        pids = _worker_pids()
        assert len(pids) == 2
        assert victim.pid not in pids

    def test_worker_death_mid_estimate_propagates(self):
        plan = mc.TrialPlan(5, 0.7, 2 * mc.BLOCK_TRIALS, 23, workers=2)
        with pytest.raises(BrokenProcessPool):
            mc._run_blocked(plan, _die)
        assert mc._pool is None
        assert self.estimate(2) == self.estimate(1)

    def test_forked_child_forks_its_own_pool(self, tmp_path):
        serial = self.estimate(1)
        self.estimate(2)
        parent_pool, parent_pids = mc._pool, _worker_pids()
        report = tmp_path / "child.pickle"
        pid = os.fork()
        if pid == 0:  # the child reports and leaves without pytest's exit path
            code = 1
            try:
                est = self.estimate(2)
                reused = mc._pool is parent_pool
                own = len(_worker_pids() - parent_pids)
                mc._close_pool()
                report.write_bytes(pickle.dumps((est, reused, own)))
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(done[1]) == 0
        est, reused, own = pickle.loads(report.read_bytes())
        assert not reused
        assert own == 2
        assert est == serial
        assert mc._pool is parent_pool
        assert self.estimate(2) == serial
        assert _worker_pids() == parent_pids

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_workers_exit_after_parent_is_killed(self):
        code = ("import multiprocessing, sys\n"
                "from su2lab import montecarlo as mc\n"
                f"plan = mc.TrialPlan(5, 0.7, {2 * mc.BLOCK_TRIALS}, 23, workers=2)\n"
                "mc.estimate_hole_probability(plan)\n"
                "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
                "sys.stdin.read()\n")
        src = os.path.dirname(os.path.dirname(mc.__file__))
        proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        pids = [int(p) for p in proc.stdout.readline().split()]
        proc.kill()
        proc.wait(timeout=30)
        proc.stdin.close()
        proc.stdout.close()
        try:
            deadline = time.monotonic() + 30
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert len(pids) == 2
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)
