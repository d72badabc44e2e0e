"""Counter-based (stateless) random numbers.

Every draw is a pure function of (seed, index, step), so sampling is
deterministic regardless of how the index range is split across workers;
``potential.sample_mu_f`` splits it into blocks that run on threads.
The generator is two rounds of the splitmix64 finalizer over the mixed
key words.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(x):
    x = np.uint64(x) if np.isscalar(x) else x.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def counter_key(seed, index):
    """The first of the two mixes of ``counter_bits``, of (seed, index):
    the step enters only the second, so a caller that draws many steps
    for the same indices mixes them once and passes the result as
    ``key``."""
    with np.errstate(over="ignore"):
        seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        index = np.asarray(index, dtype=np.uint64)
        return _mix(index * _GOLDEN + seed)


def counter_bits(seed, index, step, key=None):
    """64 mixed bits for the (seed, index, step) counter triple; a given
    ``key`` is taken as ``counter_key(seed, index)``."""
    if key is None:
        key = counter_key(seed, index)
    with np.errstate(over="ignore"):
        step = np.uint64(int(step) & 0xFFFFFFFFFFFFFFFF)
        return _mix(key + step * _MIX2 + _GOLDEN)


def counter_uniform(seed, index, step, key=None):
    """Uniform float64 in [0, 1) keyed by (seed, index, step)."""
    bits = counter_bits(seed, index, step, key=key)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def counter_choice(seed, index, step, n_choices, key=None):
    """Uniform integer in [0, n_choices) keyed by (seed, index, step)."""
    u = counter_uniform(seed, index, step, key=key)
    return np.minimum((u * n_choices).astype(np.int64), n_choices - 1)
