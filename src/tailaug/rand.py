"""Derived random streams for reproducible, schedule-independent sampling.

Every stochastic site gets its own generator derived from (seed, purpose
tag, *indices), so results are identical no matter how work is batched or
parallelized.  Training draws the prefix ends, negatives and stage-2
augmentation uniforms of all users at once, from one ``(seed, PREFIX,
epoch)``, ``(seed, NEGATIVE, epoch)`` and ``(seed, AUGMENT, epoch)`` stream
each, as arrays indexed by user id or training-prefix position.  Only the
cross plan draws per batch, from ``(seed, CROSS, epoch, step)``.
"""

from __future__ import annotations

import numpy as np

# purpose tags
INIT = 0
SHUFFLE = 1
PREFIX = 2
NEGATIVE = 3
AUGMENT = 4
CROSS = 5
SUBSAMPLE = 6


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags)))
