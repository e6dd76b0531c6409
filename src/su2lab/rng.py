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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_INV_2_53 = 2.0**-53


@dataclass(frozen=True)
class RngSeed:
    """Address of one trial's coefficient stream."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.trial_index < 0:
            raise ValueError("trial_index must be nonnegative")


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _U64(30))) * _U64(_MIX1)
    x = (x ^ (x >> _U64(27))) * _U64(_MIX2)
    return x ^ (x >> _U64(31))


def gaussian_matrix(master_seed: int, trial_indices: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Coefficient block for a batch of trials, shape ``(len(trials), n_coeffs)``.

    Row ``i`` is the stream of trial ``trial_indices[i]``, whatever the
    other rows of the batch.
    """
    trials = np.asarray(trial_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64_np(_U64(master_seed) + _U64(_GAMMA) * (trials + _U64(1)))
        pos = np.arange(1, 2 * n_coeffs + 1, dtype=np.uint64)
        words = _mix64_np(keys[:, None] + _U64(_GAMMA) * pos[None, :])
    u = (words >> _U64(11)).astype(np.float64)
    u1 = (u[:, 0::2] + 1.0) * _INV_2_53
    u2 = u[:, 1::2] * _INV_2_53
    r = np.sqrt(-np.log(u1))
    return r * np.exp(2j * np.pi * u2)
