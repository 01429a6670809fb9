"""Interaction-log ingestion and corpus preparation.

Pipeline: ``load_interactions`` -> ``k_core_filter`` -> ``build_sequences``
-> ``leave_one_out_split`` -> ``segment``.  The first three steps pass one
columnar :class:`InteractionLog`: int64 user and item codes and int64
timestamps in file row order, plus the raw-id vocabularies the codes index.
The result is a :class:`SequenceStore` (per-user chronological item
sequences with split markers), the one persisted artifact of this module.
The store is columnar as well: one int64 item array holds every sequence
back to back, cut by row offsets, so the steps that read every user work
on that array and one user's prefix or target is a slice or a lookup.
Its ``store.json`` form is unchanged: one JSON list of item ids per user.
:func:`segment` derives a :class:`Segmentation` (head/tail membership for
users and items) from a split store; it is a pure function of the store,
so every command that needs it recomputes it instead of reading it back.
All steps are deterministic: identical input and config produce
byte-identical stores.

Identifiers are opaque strings.  Wherever an ordering over raw ids is
needed (tie-breaks, head-quota fills, internal id assignment) the ids are
ordered numerically when every id in the universe parses as an integer,
lexicographically otherwise; numerically equal ids (``7``, ``07``) are
ordered by their raw strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DataError

HEAD_FRACTION = 0.2

STORE_SCHEMA = "tailaug.sequence_store.v1"


class PreferenceClass(Enum):
    HEAD_PREFERRING = "head"
    TAIL_PREFERRING = "tail"


def _code(raw: list[str]) -> tuple[np.ndarray, list[str]]:
    index = dict(zip(dict.fromkeys(raw), range(len(raw))))
    return np.fromiter(map(index.__getitem__, raw), np.int64, len(raw)), list(index)


@dataclass(frozen=True, eq=False)
class InteractionLog:
    """Interactions as columns, one entry per row in file order.

    ``users`` and ``items`` are int64 codes into the raw-id vocabularies
    ``user_ids`` and ``item_ids``, which filtering keeps whole.
    """

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    user_ids: list[str]
    item_ids: list[str]

    @classmethod
    def from_columns(cls, users: list[str], items: list[str], stamps: list[int]) -> "InteractionLog":
        """Code raw-id columns, numbering ids by first appearance."""
        (ucodes, uvocab), (icodes, ivocab) = _code(users), _code(items)
        return cls(ucodes, icodes, np.array(stamps, dtype=np.int64), uvocab, ivocab)

    def __len__(self) -> int:
        return len(self.users)

    def select(self, rows) -> "InteractionLog":
        """The rows picked by a boolean mask or index array, in log order."""
        return InteractionLog(self.users[rows], self.items[rows], self.timestamps[rows],
                              self.user_ids, self.item_ids)


def _id_order(vocab: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The raw ids that ``codes`` use, in id order, and each code's rank among them."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(vocab)))
    ids = [vocab[c] for c in used.tolist()]
    try:
        keys = [(int(i), i) for i in ids]
    except ValueError:
        keys = ids
    order = sorted(range(len(ids)), key=keys.__getitem__)
    rank = np.zeros(len(vocab), dtype=np.int64)
    rank[used[order]] = np.arange(len(order))
    return [ids[j] for j in order], rank


def load_interactions(path, delimiter: str, header: bool) -> InteractionLog:
    """Read one interaction per line: user_id, item_id, timestamp.

    The file must be UTF-8 (a leading byte-order mark is dropped) and
    timestamps must fit in int64.  Malformed rows are errors (reported with
    their line number), never silently skipped.  Duplicate rows are retained.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc
    users, items, stamps = [], [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (header and lineno == 1):
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields (user, item, timestamp), "
                            f"got {len(parts)}")
        user, item, ts = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if not user or not item:
            raise DataError(f"{path}:{lineno}: empty user or item id")
        try:
            timestamp = int(ts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: timestamp {ts!r} is not an integer") from None
        if not -2 ** 63 <= timestamp < 2 ** 63:
            raise DataError(f"{path}:{lineno}: timestamp {ts} does not fit in int64")
        users.append(user)
        items.append(item)
        stamps.append(timestamp)
    return InteractionLog.from_columns(users, items, stamps)


def k_core_filter(log: InteractionLog, k: int) -> InteractionLog:
    """Largest subset of the log where every user and item has >= k interactions.

    Prunes under-represented users and items alternately until a fixed
    point; repeated (user, item) rows each count.  An empty result is
    legal and signals that the log is too sparse for this ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = np.arange(len(log))
    users, items = log.users, log.items
    while True:
        keep = ((np.bincount(users, minlength=len(log.user_ids)) >= k)[users]
                & (np.bincount(items, minlength=len(log.item_ids)) >= k)[items])
        if keep.all():
            return log.select(rows)
        rows, users, items = rows[keep], users[keep], items[keep]


@dataclass
class SequenceStore:
    """Per-user chronological item sequences mapped to dense internal ids.

    Internal user index = position in ``user_ids``.  Internal item id =
    position in ``item_ids`` + 1; id 0 is reserved for padding and never
    denotes a real item.  User ``u``'s sequence is the slice
    ``items[offsets[u]:offsets[u + 1]]`` of one int64 array.  After
    ``leave_one_out_split`` the last item of every sequence is the test
    target and the second-to-last the validation target; everything
    before is the training prefix.  ``sequences`` gives per-user views for
    readers of one user at a time, such as the acceptance gate; on disk
    (``to_fields``) each sequence is still its own JSON list.
    """

    max_len: int
    user_ids: list[str]
    item_ids: list[str]
    items: np.ndarray
    offsets: np.ndarray
    split: bool = False

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def sequences(self) -> list[np.ndarray]:
        """Each user's sequence as a read-only view of ``items``."""
        view = self.items.view()
        view.flags.writeable = False
        return id_rows(view, self.offsets)

    def _require_split(self):
        if not self.split:
            raise DataError("sequence store has no split markers; run leave_one_out_split first")

    def train_prefix(self, u: int) -> np.ndarray:
        self._require_split()
        return self.items[self.offsets[u]:self.offsets[u + 1] - 2]

    def valid_item(self, u: int) -> int:
        self._require_split()
        return int(self.items[self.offsets[u + 1] - 2])

    def test_item(self, u: int) -> int:
        self._require_split()
        return int(self.items[self.offsets[u + 1] - 1])

    def train_prefixes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every training prefix back to back in user order, and their lengths."""
        self._require_split()
        keep = np.ones(len(self.items), dtype=bool)
        keep[self.offsets[1:] - 1] = keep[self.offsets[1:] - 2] = False
        return self.items[keep], np.diff(self.offsets) - 2

    def to_fields(self) -> dict:
        return {
            "max_len": self.max_len,
            "split": self.split,
            "users": self.user_ids,
            "items": self.item_ids,
            "sequences": id_rows(self.items.tolist(), self.offsets),
        }

    @classmethod
    def from_fields(cls, d: dict) -> "SequenceStore":
        """Decode and check: distinct string user and item names, one sequence
        per user, integer item ids in ``1..len(items)``, lengths up to ``max_len``."""
        names = {key: json_value(d, key, list) for key in ("users", "items")}
        if any(set(map(type, v)) - {str} or len(set(v)) < len(v) for v in names.values()):
            raise ValueError("users and items must be lists of distinct strings")
        items, offsets = ragged_ids(d["sequences"], len(names["items"]), "sequences")
        store = cls(
            max_len=json_value(d, "max_len", int),
            user_ids=names["users"],
            item_ids=names["items"],
            items=items, offsets=offsets,
            split=json_value(d, "split", bool),
        )
        if store.n_users != len(offsets) - 1:
            raise ValueError(f"store lists {store.n_users} users and "
                             f"{len(offsets) - 1} sequences")
        lengths = np.diff(offsets)
        if np.any(lengths > store.max_len):
            raise ValueError(f"sequences must be at most max_len={store.max_len} long")
        if store.split and np.any(lengths < 3):
            raise ValueError("split sequences must be at least 3 long")
        return store


def id_rows(flat, offsets: np.ndarray) -> list:
    """``flat`` cut at ``offsets``: row ``r`` is ``flat[offsets[r]:offsets[r + 1]]``."""
    return [flat[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def _pair_keys(owner, member, n: int) -> np.ndarray:
    """One int64 key per (owner, member) pair, member in ``0..n``, ordered by owner."""
    return owner * (n + 1) + member


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array by sort and mask, ~10x faster than numpy 2's hash."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])[:len(keys)]]


def _in_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.isin(values, keys)`` for ascending ``keys``, by ``searchsorted``."""
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[at] == values if len(keys) else np.zeros(np.shape(values), dtype=bool)


def json_value(d: dict, key: str, kind: type):
    """``d[key]``, which must be a JSON value of type ``kind``; a boolean is no ``int``."""
    if type(d[key]) is not kind:
        raise TypeError(f"{key} must be a JSON {kind.__name__}, got {d[key]!r}")
    return d[key]


def ragged_ids(rows, high: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """JSON lists of integer item ids in ``1..high`` as one int64 array and its row offsets."""
    offsets = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    flat = [v for row in rows for v in row]
    kinds = set(map(type, flat)) - {int}
    if kinds:
        raise TypeError(f"{name} holds {sorted(k.__name__ for k in kinds)}, not only integers")
    # a safe cast refuses the object or uint64 array of ints past int64
    ids = np.asarray(flat).astype(np.int64, casting="safe" if flat else "unsafe")
    if np.any((ids < 1) | (ids > high)):
        raise ValueError(f"{name} must hold item ids in 1..{high}")
    return ids, offsets


def build_sequences(log: InteractionLog, max_len: int) -> SequenceStore:
    """Group interactions per user in chronological order.

    Timestamp ties are broken by ascending item id, then by input order,
    so the result is deterministic.  Sequences longer than ``max_len``
    keep only the most recent ``max_len`` interactions.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    user_ids, user_rank = _id_order(log.user_ids, log.users)
    item_ids, item_rank = _id_order(log.item_ids, log.items)
    users = user_rank[log.users]
    # lexsort is stable: rows equal in every key keep their input order
    order = np.lexsort((item_rank[log.items], log.timestamps, users))
    counts = np.bincount(users, minlength=len(user_ids))
    # each row's place counted back from its user's last row, which is 1
    from_end = np.repeat(np.cumsum(counts), counts) - np.arange(len(order))
    items = item_rank[log.items[order[from_end <= max_len]]] + 1
    offsets = np.concatenate([[0], np.cumsum(np.minimum(counts, max_len))])
    return SequenceStore(max_len=max_len, user_ids=user_ids, item_ids=item_ids,
                         items=items, offsets=offsets)


def leave_one_out_split(store: SequenceStore) -> SequenceStore:
    """Mark the last item of each sequence as test, the one before as valid."""
    lengths = np.diff(store.offsets)
    if np.any(lengths < 3):
        u = int(np.argmax(lengths < 3))
        raise DataError(f"user {store.user_ids[u]!r} has only {lengths[u]} interactions; "
                        "need >= 3 for a leave-one-out split")
    return replace(store, split=True)


@dataclass
class Segmentation:
    """Disjoint head/tail membership for users and items.

    Head = the ceil(20%) most active users / most popular items, counted
    on training prefixes only.  ``beta`` is the tail-ratio threshold used
    by :func:`preference_classes`.  Membership is over internal ids.
    """

    head_users: frozenset[int]
    tail_users: frozenset[int]
    head_items: frozenset[int]
    tail_items: frozenset[int]
    beta: float
    n_users: int
    n_items: int

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:  # nan fails too
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        # item_head_mask[internal item id]; index 0 (padding) is always False
        mask = np.zeros(self.n_items + 1, dtype=bool)
        if self.head_items:
            mask[np.fromiter(self.head_items, dtype=np.int64)] = True
        object.__setattr__(self, "item_head_mask", mask)


def _head_cut(counts: np.ndarray) -> frozenset[int]:
    """Positions of the ceil(20%) largest counts, ties to the lower position."""
    quota = math.ceil(HEAD_FRACTION * len(counts))
    return frozenset(np.argsort(-counts, kind="stable")[:quota].tolist())


def segment(store: SequenceStore, beta: float = 0.5) -> Segmentation:
    """Split users and items into head (top 20% by ceil) and tail.

    Users are ranked by training-prefix length, items by training
    interaction count (valid/test interactions are excluded so evaluation
    cannot leak into the segmentation).  Ties at the quota boundary are
    admitted in ascending internal-id order.  ``beta`` does not move the
    cut; it is only carried to :func:`preference_classes`.
    """
    items, user_len = store.train_prefixes()
    item_count = np.bincount(items, minlength=store.n_items + 1)

    head_users = _head_cut(user_len)
    head_items = frozenset(v + 1 for v in _head_cut(item_count[1:]))
    return Segmentation(
        head_users=head_users,
        tail_users=frozenset(range(store.n_users)) - head_users,
        head_items=head_items,
        tail_items=frozenset(range(1, store.n_items + 1)) - head_items,
        beta=beta,
        n_users=store.n_users,
        n_items=store.n_items,
    )


def preference_classes(ids, lengths, segmentation: Segmentation) -> np.ndarray:
    """Per row of ``ids`` (rows back to back): tail-preferring iff its tail share > beta."""
    lengths = np.asarray(lengths, dtype=np.int64)
    tail = ~segmentation.item_head_mask[np.asarray(ids, dtype=np.int64)]
    rows = np.repeat(np.arange(len(lengths)), lengths)
    tail_ratio = np.bincount(rows, weights=tail, minlength=len(lengths)) / np.maximum(lengths, 1)
    classes = np.array([PreferenceClass.HEAD_PREFERRING, PreferenceClass.TAIL_PREFERRING])
    return classes[(tail_ratio > segmentation.beta).view(np.int8)]


def classify_sequence(seq, segmentation: Segmentation) -> PreferenceClass:
    """The :func:`preference_classes` of one sequence; item order is irrelevant."""
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size == 0:
        raise DataError("cannot classify an empty sequence prefix")
    return preference_classes(seq, [seq.size], segmentation)[0]


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_length: float
    sparsity: float


def dataset_stats(store: SequenceStore) -> DatasetStats:
    """Counts and sparsity over the full (pre-split) sequences."""
    n_inter = len(store.items)
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
