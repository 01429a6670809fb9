"""Benchmark workloads: a seeded long-tail log generator and the CLI flags
each workload passes to ``tailaug``.

The generator belongs to the benchmark, not to the program, so a change to
``tailaug.synth`` or to the program's random streams never changes the
inputs a benchmark run feeds in.  It draws the same kind of log as
``tailaug.synth``: Zipf item popularity, items grouped into topics, a few
designated follower items per item (mostly tail items), and users that mix
follower transitions with popularity-weighted draws.  It is vectorised over
users so that set-up stays small next to the pipeline it feeds.

The seed relabels the log, it does not redraw it: each workload's log is
drawn once from a fixed stream, and the seed permutes its user labels, its
item labels and its row order.  Every seed therefore feeds the program a
different input (other internal ids, other sampled users, other training
draws) of the same size and structure.  Redrawing the log per seed made the
work itself vary: on ``catalog-pooled`` the 5-core filter took 5 to 9
rounds over ten seeds, and ``prepare`` time followed by up to 25%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogShape:
    n_users: int
    n_items: int
    n_topics: int
    mean_extra_len: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    log: LogShape
    prepare: tuple[str, ...]
    candidates: tuple[str, ...]
    train: tuple[str, ...]

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-gru",
            why=("acceptance-gate configuration (GRU, dim 32, augmented arm, one "
                 "seed) on a 3,500 x 1,200 log: short ragged prefixes, training "
                 "dominates"),
            log=LogShape(n_users=3500, n_items=1200, n_topics=12, mean_extra_len=5.0),
            prepare=("--k-core", "5", "--max-len", "50", "--sample-users", "3000",
                     "--seed", "7"),
            candidates=("--k", "10"),
            train=("--encoder", "gru", "--dim", "32", "--batch-size", "256",
                   "--stage1-epochs", "2", "--stage2-epochs", "1",
                   "--learning-rate", "0.003", "--patience", "-1"),
        ),
        Workload(
            name="catalog-pooled",
            why=("wide catalog with the pooled encoder and few epochs: "
                 "the dense item x item solve, per-item top-K and full-catalog "
                 "evaluation dominate; GRU changes should not show"),
            log=LogShape(n_users=4500, n_items=2400, n_topics=24, mean_extra_len=5.0),
            prepare=("--k-core", "5", "--max-len", "50", "--seed", "7"),
            candidates=("--k", "10"),
            train=("--encoder", "pooled", "--dim", "32", "--batch-size", "256",
                   "--stage1-epochs", "2", "--stage2-epochs", "1",
                   "--learning-rate", "0.003", "--patience", "-1"),
        ),
        Workload(
            name="long-gru",
            why=("long histories (mean length ~36 of max 50) with a GRU and "
                 "per-epoch validation: substitution-heavy augmentation, long "
                 "recurrences, rank-only evaluation every epoch"),
            log=LogShape(n_users=1300, n_items=650, n_topics=8, mean_extra_len=35.0),
            prepare=("--k-core", "5", "--max-len", "50", "--seed", "7"),
            candidates=("--k", "10"),
            # patience above the epoch count: validation runs every epoch and
            # training never stops early
            train=("--encoder", "gru", "--dim", "32", "--batch-size", "256",
                   "--stage1-epochs", "2", "--stage2-epochs", "1",
                   "--learning-rate", "0.003", "--patience", "100"),
        ),
    )
}


# Zipf exponent of item popularity; the chance that a step follows one of the
# previous item's followers; the chance that any other step stays within the
# user's topic; followers per item
ZIPF_EXPONENT = 1.05
FOLLOW_PROB = 0.55
TOPIC_PROB = 0.85
N_FOLLOWERS = 3


def generate_log(shape: LogShape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (user, item, timestamp) arrays; identical for identical inputs."""
    users, items, stamps = draw_log(shape)
    rng = np.random.default_rng([int(seed), shape.n_users, shape.n_items])
    users = rng.permutation(shape.n_users)[users]
    items = rng.permutation(shape.n_items)[items]
    order = rng.permutation(len(users))
    return users[order], items[order], stamps[order]


def draw_log(shape: LogShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log's structure, drawn from a stream fixed by the shape alone."""
    rng = np.random.default_rng([shape.n_users, shape.n_items, shape.n_topics])
    n_items, n_topics = shape.n_items, shape.n_topics

    popularity = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** ZIPF_EXPONENT
    weight = popularity[rng.permutation(n_items)]
    weight /= weight.sum()
    global_cdf = np.cumsum(weight)

    topics = np.arange(n_items) % n_topics
    # items sorted by topic; each topic is a contiguous block with its own CDF
    by_topic = np.argsort(topics, kind="stable")
    topic_start = np.searchsorted(topics[by_topic], np.arange(n_topics))
    topic_size = np.bincount(topics, minlength=n_topics)
    topic_cdf = np.zeros(n_items)
    for t in range(n_topics):
        block = slice(topic_start[t], topic_start[t] + topic_size[t])
        w = weight[by_topic[block]]
        topic_cdf[block] = np.cumsum(w) / w.sum()

    # followers: uniform members of the item's own topic
    pick = rng.integers(0, topic_size[topics][:, None],
                        size=(n_items, N_FOLLOWERS))
    followers = by_topic[topic_start[topics][:, None] + pick]

    n_users = shape.n_users
    user_topic = rng.integers(n_topics, size=n_users)
    length = 3 + rng.poisson(shape.mean_extra_len, size=n_users)
    steps = int(length.max())
    items = np.full((n_users, steps), -1, dtype=np.int64)
    prev = np.full(n_users, -1, dtype=np.int64)
    for step in range(steps):
        active = length > step
        roll = rng.random(n_users)
        u01 = rng.random(n_users)
        which = rng.integers(N_FOLLOWERS, size=n_users)
        follow = (prev >= 0) & (roll < FOLLOW_PROB)
        in_topic = ~follow & (roll < FOLLOW_PROB
                              + (1 - FOLLOW_PROB) * TOPIC_PROB)
        choice = np.minimum(np.searchsorted(global_cdf, u01, side="right"), n_items - 1)
        t = user_topic
        offset = np.empty(n_users, dtype=np.int64)
        for topic in range(n_topics):
            rows = t == topic
            block = topic_cdf[topic_start[topic]:topic_start[topic] + topic_size[topic]]
            offset[rows] = np.minimum(np.searchsorted(block, u01[rows], side="right"),
                                      topic_size[topic] - 1)
        topic_choice = by_topic[topic_start[t] + offset]
        choice = np.where(in_topic, topic_choice, choice)
        choice = np.where(follow, followers[np.maximum(prev, 0), which], choice)
        items[active, step] = choice[active]
        prev = np.where(active, choice, prev)

    users, pos = np.nonzero(items >= 0)
    return users, items[users, pos], pos


def write_log_csv(path, users: np.ndarray, items: np.ndarray, stamps: np.ndarray) -> None:
    lines = [f"u{u:05d},i{v:05d},{s}" for u, v, s in
             zip(users.tolist(), items.tolist(), stamps.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
