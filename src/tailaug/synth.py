"""Seeded synthetic interaction logs with long-tail structure.

The generator mimics the shape of public e-commerce review logs: a
Zipf-distributed item popularity (a few head items absorb most traffic),
short per-user histories, and learnable first-order structure.  Items are
grouped into latent topics; each item has a handful of designated
follower items inside its topic, and sequences interleave follower
transitions with popularity-weighted draws.  Because followers are picked
uniformly over the topic, most of them are tail items, so the log carries
genuine head-to-tail co-occurrence signal.

Useful as a desk-scale stand-in wherever a real export is unavailable,
and for deterministic test fixtures.
"""

from __future__ import annotations

import numpy as np

from . import serialize
from .corpus import InteractionLog
from .rand import derive_rng

N_TOPICS = 12  # topics of the default log; a log needs at least one item per topic
MEAN_EXTRA_LEN = 5.0  # a history is 3 + Poisson(MEAN_EXTRA_LEN) interactions long
ZIPF_EXPONENT = 1.05  # item popularity falls as rank ** -ZIPF_EXPONENT
FOLLOW_PROB = 0.55  # chance a step follows the previous item to one of its followers
TOPIC_PROB = 0.85  # chance a step that does not follow draws from the user's topic
N_FOLLOWERS = 3  # designated follower items per item


def generate_interactions(n_users: int, n_items: int, n_topics: int = N_TOPICS, *,
                          seed: int) -> InteractionLog:
    """Draw a full interaction log; deterministic per seed."""
    rng = derive_rng(seed, 0)

    popularity = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** ZIPF_EXPONENT
    # shuffle so popularity rank is independent of topic layout
    pop_rank = rng.permutation(n_items)
    weight = popularity[pop_rank]
    weight /= weight.sum()

    topics = np.arange(n_items) % n_topics
    topic_items = [np.flatnonzero(topics == t) for t in range(n_topics)]
    topic_weights = []
    for t in range(n_topics):
        w = weight[topic_items[t]]
        topic_weights.append(w / w.sum())

    followers = np.zeros((n_items, N_FOLLOWERS), dtype=np.int64)
    for v in range(n_items):
        pool = topic_items[topics[v]]
        followers[v] = pool[rng.integers(len(pool), size=N_FOLLOWERS)]

    users, items, steps = [], [], []
    for u in range(n_users):
        urng = derive_rng(seed, 1, u)
        topic = int(urng.integers(n_topics))
        length = 3 + int(urng.poisson(MEAN_EXTRA_LEN))
        prev = None
        for step in range(length):
            roll = urng.random()
            if prev is not None and roll < FOLLOW_PROB:
                v = int(followers[prev][urng.integers(N_FOLLOWERS)])
            elif roll < FOLLOW_PROB + (1 - FOLLOW_PROB) * TOPIC_PROB:
                pool = topic_items[topic]
                v = int(urng.choice(pool, p=topic_weights[topic]))
            else:
                v = int(urng.choice(n_items, p=weight))
            users.append(f"u{u:05d}")
            items.append(f"i{v:05d}")
            steps.append(step)
            prev = v
    return InteractionLog.from_columns(users, items, steps)


def write_csv(path, log: InteractionLog) -> None:
    """Write ``user,item,timestamp`` lines atomically, in log order."""
    serialize.write_text(path, "".join(
        f"{log.user_ids[u]},{log.item_ids[v]},{t}\n" for u, v, t in
        zip(log.users.tolist(), log.items.tolist(), log.timestamps.tolist())))
