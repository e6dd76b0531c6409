"""Counter-based deterministic random streams.

Every random draw in this package is a pure function of
``(master_seed, trial_index, position)``, so trial ensembles can be sharded
across workers in any order and still reproduce bit-identically.

The generator is the SplitMix64 output function applied to an additive
Weyl sequence: stream ``t`` has key ``mix64(master_seed + GAMMA*(t+1))``
and its ``k``-th 64-bit word is ``mix64(key + GAMMA*(k+1))``.  Coefficient
``j`` of a sampled polynomial consumes words ``2j`` and ``2j+1``, which are
turned into one standard complex Gaussian (``E|alpha|^2 = 1``) by the polar
form of Box-Muller:

    alpha = sqrt(-ln u1) * exp(2*pi*i*u2),  u1 in (0,1], u2 in [0,1).

``|alpha|^2`` is then exactly a unit-rate exponential, i.e.
``P(|alpha| >= lam) = exp(-lam^2)``.

A batch draws its words as two planes, all u1 words and then all u2
words, and mixes, logs and square-roots them in place.  The phase is
written into the imaginary part of a zeroed complex array, which the
complex exp and the product with the radius overwrite in place.  The
stream is unchanged: each entry is bit for bit the formula above on words
``2j`` and ``2j+1``.

A row's first ``n`` coefficients therefore do not depend on ``n_coeffs``:
``gaussian_matrix(s, t, n)`` is bit for bit ``gaussian_matrix(s, t, m)[:, :n]``
for any ``m >= n``.  A ladder of degrees over the same trials draws each
block once, at its top degree, and reads every lower degree as a prefix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_INV_2_53 = 2.0**-53


def _check_int(value, name: str, low: int = 0, high: int | None = None,
               rule: str | None = None) -> int:
    """``value`` as an ``int`` in ``[low, high]``.  Integers of any type
    pass, numpy's too; a float does not, not even a whole one, so no two
    unequal inputs name one stream.  A refusal is a ``ValueError`` that
    says "<name> must <rule>", by default "be nonnegative" or "be at least
    <low>"."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < low or (high is not None and value > high):
        rule = rule or ("be nonnegative" if low == 0 else f"be at least {low}")
        raise ValueError(f"{name} must {rule}")
    return value


@dataclass(frozen=True)
class RngSeed:
    """Address of one trial's coefficient stream."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        seed = _check_int(self.master_seed, "master_seed", 0, _MASK64, "fit in 64 unsigned bits")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "trial_index", _check_int(self.trial_index, "trial_index"))


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; returns ``x``."""
    tmp = np.empty_like(x)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, _U64(shift), out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.multiply(x, _U64(mult), out=x)
    np.right_shift(x, _U64(31), out=tmp)
    return np.bitwise_xor(x, tmp, out=x)


def gaussian_matrix(master_seed: int, trial_indices: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Coefficient block for a batch of trials, shape ``(len(trials), n_coeffs)``.

    Row ``i`` is the stream of trial ``trial_indices[i]``, whatever the
    other rows of the batch.
    """
    trials = np.asarray(trial_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64_np(_U64(master_seed) + _U64(_GAMMA) * (trials + _U64(1)))
        # plane 0 holds the u1 words 2j, plane 1 the u2 words 2j + 1
        pos = np.arange(1, 2 * n_coeffs + 1, dtype=np.uint64).reshape(n_coeffs, 2).T
        words = _mix64_np(keys[:, None] + _U64(_GAMMA) * pos[:, None, :])
    u1, u2 = np.right_shift(words, _U64(11), out=words).astype(np.float64)
    # every step below rounds as the textbook form does: (w + 1) 2^-53 and
    # the phase 2 pi w 2^-53 differ from it only by exact powers of two
    u1 += 1.0
    u1 *= _INV_2_53
    r = np.sqrt(np.negative(np.log(u1, out=u1), out=u1), out=u1)
    alpha = np.zeros(u2.shape, dtype=complex)
    np.multiply(u2, 2.0 * np.pi * _INV_2_53, out=alpha.imag)
    np.exp(alpha, out=alpha)
    return np.multiply(alpha, r, out=alpha)
