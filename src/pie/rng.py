"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a Philox (counter-based)
generator built from an explicit integer key.  Results therefore depend only
on the key, never on execution order or the number of workers, which is what
makes shard-level sampling reproducible and safe to parallelize.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Leading key-space tags.  Distinct tags keep streams for different purposes
# disjoint even when the same master seed is reused across phases.
SHARD = 0
ORACLE = 1
RESAMPLE = 2
PARTITION = 3
SIMULATE = 4
CHAIN = 5


def stream(*key: int) -> np.random.Generator:
    """Return a generator keyed by the given integers."""
    entropy = tuple(int(k) & _MASK64 for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derived_seed(*key: int) -> int:
    """Collapse a key to a single 63-bit integer, for APIs taking one seed."""
    entropy = tuple(int(k) & _MASK64 for k in key)
    state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0]
    return int(state) & ((1 << 63) - 1)


def shard_seed(master_seed: int, shard_id: int) -> int:
    """Seed for one shard's sampler, keyed (master_seed, shard_id).

    Recomputing a single shard from this key reproduces its draws exactly,
    independently of how many shards exist or which worker ran it.
    """
    return derived_seed(SHARD, master_seed, shard_id)


def oracle_seed(master_seed: int) -> int:
    """Seed for the full-data reference sampler, disjoint from shard streams."""
    return derived_seed(ORACLE, master_seed)
