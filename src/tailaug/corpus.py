"""Interaction-log ingestion and corpus preparation.

Pipeline: ``load_interactions`` -> ``k_core_filter`` -> ``build_sequences``
-> ``leave_one_out_split`` -> ``segment``.  The result is an immutable
:class:`SequenceStore` (per-user chronological item sequences with split
markers) plus a :class:`Segmentation` (head/tail membership for users and
items).  All steps are deterministic: identical input and config produce
byte-identical persisted artifacts.

Identifiers are opaque strings.  Wherever an ordering over raw ids is
needed (tie-breaks, head-quota fills, internal id assignment) the ids are
ordered numerically when every id in the universe parses as an integer,
lexicographically otherwise.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

HEAD_FRACTION = 0.2

STORE_SCHEMA = "tailaug.sequence_store.v1"
SEGMENTATION_SCHEMA = "tailaug.segmentation.v1"
STATS_SCHEMA = "tailaug.dataset_stats.v1"

PADDING_ID = 0  # internal item id 0 is reserved, never a real item


@dataclass(frozen=True)
class Interaction:
    user_id: str
    item_id: str
    timestamp: int


class PreferenceClass(Enum):
    HEAD_PREFERRING = "head"
    TAIL_PREFERRING = "tail"


def _id_order(ids: Iterable[str]):
    """Sort key over raw ids: numeric when the whole universe is numeric."""
    ids = list(ids)
    try:
        numeric = {i: int(i) for i in ids}
    except ValueError:
        return lambda i: i
    return lambda i: numeric[i]


def load_interactions(path, delimiter: str = ",", header: bool = False) -> list[Interaction]:
    """Read one interaction per line: user_id, item_id, timestamp.

    Malformed rows are errors (reported with their line number), never
    silently skipped.  Duplicate rows are retained.
    """
    out: list[Interaction] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(delimiter)]
            if len(parts) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 3 fields (user, item, timestamp), got {len(parts)}"
                )
            user, item, ts = parts
            if not user or not item:
                raise DataError(f"{path}:{lineno}: empty user or item id")
            try:
                timestamp = int(ts)
            except ValueError:
                raise DataError(f"{path}:{lineno}: timestamp {ts!r} is not an integer") from None
            out.append(Interaction(user, item, timestamp))
    return out


def k_core_filter(log: Sequence[Interaction], k: int) -> list[Interaction]:
    """Largest subset of the log where every user and item has >= k interactions.

    Prunes under-represented users and items alternately until a fixed
    point; repeated (user, item) rows each count.  An empty result is
    legal and signals that the log is too sparse for this ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = list(log)
    while True:
        user_counts = Counter(r.user_id for r in rows)
        item_counts = Counter(r.item_id for r in rows)
        keep = [
            r for r in rows
            if user_counts[r.user_id] >= k and item_counts[r.item_id] >= k
        ]
        if len(keep) == len(rows):
            return keep
        rows = keep


@dataclass
class SequenceStore:
    """Per-user chronological item sequences mapped to dense internal ids.

    Internal user index = position in ``user_ids``.  Internal item id =
    position in ``item_ids`` + 1; id 0 is reserved for padding and never
    denotes a real item.  After ``leave_one_out_split`` the last item of
    every sequence is the test target and the second-to-last the
    validation target; everything before is the training prefix.
    """

    max_len: int
    user_ids: list[str]
    item_ids: list[str]
    sequences: list[np.ndarray]
    split: bool = False

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def full_sequence(self, u: int) -> np.ndarray:
        return self.sequences[u]

    def _require_split(self):
        if not self.split:
            raise DataError("sequence store has no split markers; run leave_one_out_split first")

    def train_prefix(self, u: int) -> np.ndarray:
        self._require_split()
        return self.sequences[u][:-2]

    def valid_item(self, u: int) -> int:
        self._require_split()
        return int(self.sequences[u][-2])

    def test_item(self, u: int) -> int:
        self._require_split()
        return int(self.sequences[u][-1])

    def to_fields(self) -> dict:
        return {
            "max_len": self.max_len,
            "split": self.split,
            "users": self.user_ids,
            "items": self.item_ids,
            "sequences": [seq.tolist() for seq in self.sequences],
        }

    @classmethod
    def from_fields(cls, d: dict) -> "SequenceStore":
        return cls(
            max_len=int(d["max_len"]),
            user_ids=list(d["users"]),
            item_ids=list(d["items"]),
            sequences=[np.asarray(s, dtype=np.int64) for s in d["sequences"]],
            split=bool(d["split"]),
        )


def build_sequences(log: Sequence[Interaction], max_len: int) -> SequenceStore:
    """Group interactions per user in chronological order.

    Timestamp ties are broken by ascending item id, then by input order,
    so the result is deterministic.  Sequences longer than ``max_len``
    keep only the most recent ``max_len`` interactions.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    item_key = _id_order({r.item_id for r in log})
    user_key = _id_order({r.user_id for r in log})

    per_user: dict[str, list[tuple]] = defaultdict(list)
    for pos, r in enumerate(log):
        per_user[r.user_id].append((r.timestamp, item_key(r.item_id), pos, r.item_id))

    user_ids = sorted(per_user, key=user_key)
    item_ids = sorted({r.item_id for r in log}, key=item_key)
    item_index = {raw: i + 1 for i, raw in enumerate(item_ids)}

    sequences = []
    for u in user_ids:
        rows = sorted(per_user[u])
        items = [item_index[raw] for (_, _, _, raw) in rows][-max_len:]
        sequences.append(np.asarray(items, dtype=np.int64))
    return SequenceStore(max_len=max_len, user_ids=user_ids, item_ids=item_ids,
                         sequences=sequences)


def leave_one_out_split(store: SequenceStore) -> SequenceStore:
    """Mark the last item of each sequence as test, the one before as valid."""
    for u, seq in enumerate(store.sequences):
        if len(seq) < 3:
            raise DataError(
                f"user {store.user_ids[u]!r} has only {len(seq)} interactions; "
                "need >= 3 for a leave-one-out split"
            )
    return SequenceStore(max_len=store.max_len, user_ids=store.user_ids,
                         item_ids=store.item_ids, sequences=store.sequences,
                         split=True)


@dataclass
class Segmentation:
    """Disjoint head/tail membership for users and items.

    Head = the ceil(20%) most active users / most popular items, counted
    on training prefixes only.  ``beta`` is the tail-ratio threshold used
    by :func:`classify_sequence`.  Membership is over internal ids.
    """

    head_users: frozenset[int]
    tail_users: frozenset[int]
    head_items: frozenset[int]
    tail_items: frozenset[int]
    beta: float
    n_users: int
    n_items: int

    def __post_init__(self):
        # item_head_mask[internal item id]; index 0 (padding) is always False
        mask = np.zeros(self.n_items + 1, dtype=bool)
        if self.head_items:
            mask[np.fromiter(self.head_items, dtype=np.int64)] = True
        object.__setattr__(self, "item_head_mask", mask)
        umask = np.zeros(self.n_users, dtype=bool)
        if self.head_users:
            umask[np.fromiter(self.head_users, dtype=np.int64)] = True
        object.__setattr__(self, "user_head_mask", umask)

    def to_fields(self) -> dict:
        return {
            "beta": self.beta,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "head_users": sorted(self.head_users),
            "tail_users": sorted(self.tail_users),
            "head_items": sorted(self.head_items),
            "tail_items": sorted(self.tail_items),
        }

    @classmethod
    def from_fields(cls, d: dict) -> "Segmentation":
        return cls(
            head_users=frozenset(d["head_users"]),
            tail_users=frozenset(d["tail_users"]),
            head_items=frozenset(d["head_items"]),
            tail_items=frozenset(d["tail_items"]),
            beta=float(d["beta"]),
            n_users=int(d["n_users"]),
            n_items=int(d["n_items"]),
        )


def _head_cut(ranked: list[int], n_total: int) -> frozenset[int]:
    quota = math.ceil(HEAD_FRACTION * n_total)
    return frozenset(ranked[:quota])


def segment(store: SequenceStore, beta: float = 0.5) -> Segmentation:
    """Split users and items into head (top 20% by ceil) and tail.

    Users are ranked by training-prefix length, items by training
    interaction count (valid/test interactions are excluded so evaluation
    cannot leak into the segmentation).  Ties at the quota boundary are
    admitted in ascending internal-id order.
    """
    store._require_split()
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")

    user_len = np.array([len(store.train_prefix(u)) for u in range(store.n_users)])
    item_count = np.zeros(store.n_items + 1, dtype=np.int64)
    for u in range(store.n_users):
        np.add.at(item_count, store.train_prefix(u), 1)

    users_ranked = sorted(range(store.n_users), key=lambda u: (-user_len[u], u))
    items_ranked = sorted(range(1, store.n_items + 1), key=lambda v: (-item_count[v], v))

    head_users = _head_cut(users_ranked, store.n_users)
    head_items = _head_cut(items_ranked, store.n_items)
    return Segmentation(
        head_users=head_users,
        tail_users=frozenset(range(store.n_users)) - head_users,
        head_items=head_items,
        tail_items=frozenset(range(1, store.n_items + 1)) - head_items,
        beta=beta,
        n_users=store.n_users,
        n_items=store.n_items,
    )


def classify_sequence(seq, segmentation: Segmentation, beta: float | None = None) -> PreferenceClass:
    """Tail-preferring iff the tail-item fraction of ``seq`` strictly exceeds beta.

    Depends only on the multiset of items; order is irrelevant.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size == 0:
        raise DataError("cannot classify an empty sequence prefix")
    if beta is None:
        beta = segmentation.beta
    tail_ratio = float(np.mean(~segmentation.item_head_mask[seq]))
    if tail_ratio > beta:
        return PreferenceClass.TAIL_PREFERRING
    return PreferenceClass.HEAD_PREFERRING


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_length: float
    sparsity: float

    def to_fields(self) -> dict:
        return asdict(self)


def dataset_stats(store: SequenceStore) -> DatasetStats:
    """Counts and sparsity over the full (pre-split) sequences."""
    n_inter = int(sum(len(s) for s in store.sequences))
    n_u, n_v = store.n_users, store.n_items
    if n_u == 0 or n_v == 0:
        return DatasetStats(n_u, n_v, 0, 0.0, 0.0)
    return DatasetStats(
        n_users=n_u,
        n_items=n_v,
        n_interactions=n_inter,
        avg_length=n_inter / n_u,
        sparsity=1.0 - n_inter / (n_u * n_v),
    )
