import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lab import model
from su2lab.rng import RngSeed, _mix64_np, gaussian_matrix, mix64


_U64 = np.uint64


def _reference_gaussian_matrix(master_seed, trial_indices, n_coeffs):
    """The sampler as first written: interleaved words, one new array per
    step.  Frozen here as the oracle of the two-plane, in-place one."""
    def mix(x):
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        return x ^ (x >> _U64(31))

    gamma = _U64(0x9E3779B97F4A7C15)
    trials = np.asarray(trial_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = mix(_U64(master_seed) + gamma * (trials + _U64(1)))
        pos = np.arange(1, 2 * n_coeffs + 1, dtype=np.uint64)
        words = mix(keys[:, None] + gamma * pos[None, :])
    u = (words >> _U64(11)).astype(np.float64)
    u1 = (u[:, 0::2] + 1.0) * 2.0**-53
    u2 = u[:, 1::2] * 2.0**-53
    r = np.sqrt(-np.log(u1))
    return r * np.exp(2j * np.pi * u2)


@pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("shape", [(1, 1), (1, 201), (7, 13), (4096, 51)])
def test_matches_frozen_reference_bit_for_bit(master_seed, shape):
    # (1, 1) matters: numpy's in-place complex product can round
    # differently on a one-element array
    rows, n_coeffs = shape
    for trials in (np.arange(rows, dtype=np.uint64),
                   _U64(2**64 - 1) - np.arange(rows, dtype=np.uint64)):
        got = gaussian_matrix(master_seed, trials, n_coeffs)
        want = _reference_gaussian_matrix(master_seed, trials, n_coeffs)
        assert got.shape == shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1, 0)
    with pytest.raises(ValueError):
        RngSeed(2**64, 0)
    with pytest.raises(ValueError):
        RngSeed(0, -1)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_mix64_vectorized_matches_scalar(x):
    vec = _mix64_np(np.array([x], dtype=np.uint64))[0]
    assert int(vec) == mix64(x)


def test_scalar_matches_batch():
    batch = gaussian_matrix(12345, np.arange(100, dtype=np.uint64), 31)
    for trial in (0, 1, 57, 99):
        poly = model.sample_polynomial(30, RngSeed(12345, trial))
        for j in (0, 17, 30):
            assert poly.coefficients[j] == batch[trial, j]


def test_batch_rows_independent_of_batch_shape():
    big = gaussian_matrix(7, np.arange(200, dtype=np.uint64), 9)
    small = gaussian_matrix(7, np.arange(50, 60, dtype=np.uint64), 9)
    assert np.array_equal(big[50:60], small)


@pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("trials,widths", [
    (np.arange(4096, dtype=np.uint64), (1, 2, 5, 13, 51, 200)),  # a full block
    (np.arange(8192, 8292, dtype=np.uint64), range(1, 201)),  # a partial one
    (np.array([2**64 - 1], dtype=np.uint64), range(1, 201)),  # one row
], ids=["full", "partial", "row"])
def test_row_prefix_does_not_depend_on_width(master_seed, trials, widths):
    # a ladder of degrees reads each lower degree as a prefix of the top
    # degree's rows
    wide = gaussian_matrix(master_seed, trials, 201)
    for n in widths:
        narrow = gaussian_matrix(master_seed, trials, n)
        assert np.array_equal(narrow.view(np.uint64), wide[:, :n].view(np.uint64))


def test_streams_differ_across_trials_and_seeds():
    a = gaussian_matrix(1, np.arange(4, dtype=np.uint64), 8)
    b = gaussian_matrix(2, np.arange(4, dtype=np.uint64), 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])


def test_gaussian_moment():
    # E|alpha|^2 = 1: sample mean within 1 +/- 0.05 over 1e4 draws
    draws = gaussian_matrix(2024, np.arange(10000, dtype=np.uint64), 1)[:, 0]
    mean_sq = float(np.mean(np.abs(draws) ** 2))
    assert abs(mean_sq - 1.0) < 0.05


def test_exponential_tail():
    # P(|alpha| >= lam) = exp(-lam^2) exactly, by construction
    draws = gaussian_matrix(77, np.arange(200000, dtype=np.uint64), 1)[:, 0]
    mags = np.abs(draws)
    for lam in (0.3, 0.8, 1.3, 2.0):
        emp = float((mags >= lam).mean())
        want = np.exp(-lam * lam)
        se = np.sqrt(want * (1 - want) / len(mags))
        assert abs(emp - want) < 5 * se


def test_real_imag_parts_have_half_variance():
    draws = gaussian_matrix(5, np.arange(50000, dtype=np.uint64), 2).ravel()
    assert abs(np.var(draws.real) - 0.5) < 0.01
    assert abs(np.var(draws.imag) - 0.5) < 0.01
    assert abs(np.mean(draws.real)) < 0.01
