from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from tailaug import corpus, simcand, synth
from tailaug.augment import CrossPlan
from tailaug.encoders import encode_batch

DTYPES = (np.float64, np.float32)  # the library default and the CLI's training dtype


@dataclass(frozen=True)
class Interaction:
    """One log row, for building small logs by hand."""
    user_id: str
    item_id: str
    timestamp: int


def log_from_rows(rows) -> corpus.InteractionLog:
    return corpus.InteractionLog.from_columns([r.user_id for r in rows],
                                              [r.item_id for r in rows],
                                              [r.timestamp for r in rows])


def log_rows(log) -> list:
    """An ``InteractionLog`` read back as its ``Interaction`` rows, in log order."""
    return [Interaction(log.user_ids[u], log.item_ids[v], t) for u, v, t in
            zip(log.users.tolist(), log.items.tolist(), log.timestamps.tolist())]


def store_from_sequences(user_items: dict, max_len: int = 50, split: bool = True):
    """Build a split store from {user: [raw item ids in time order]}."""
    log = []
    for user, items in user_items.items():
        for t, item in enumerate(items):
            log.append(Interaction(str(user), str(item), t))
    store = corpus.build_sequences(log_from_rows(log), max_len)
    return corpus.leave_one_out_split(store) if split else store


def ragged_pair(rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ids as one int64 ``(ids, offsets)`` pair: row ``r`` is
    ``ids[offsets[r]:offsets[r + 1]]``."""
    ids = np.concatenate([np.zeros(0, np.int64), *map(np.asarray, rows)]).astype(np.int64)
    return ids, np.cumsum([0, *map(len, rows)], dtype=np.int64)


def store_from_rows(rows, *, max_len: int, user_ids, item_ids, split: bool):
    """A store holding ``rows`` (lists of internal item ids), one row per user."""
    items, offsets = ragged_pair(rows)
    return corpus.SequenceStore(max_len=max_len, user_ids=list(user_ids),
                                item_ids=list(item_ids), items=items, offsets=offsets,
                                split=split)


@st.composite
def ragged_rows(draw, min_users: int = 0, min_items: int = 1):
    """``(rows, n_items, max_len)``: up to 8 rows of 3 to ``max_len`` item ids each."""
    n_items = draw(st.integers(min_items, 6))
    max_len = draw(st.integers(3, 7))
    rows = draw(st.lists(st.lists(st.integers(1, n_items), min_size=3, max_size=max_len),
                         min_size=min_users, max_size=8))
    return rows, n_items, max_len


def decoded_store(rows, n_items: int, max_len: int):
    """The split store of ``rows``, decoded from JSON fields as ``store.json`` is."""
    return corpus.SequenceStore.from_fields({
        "max_len": max_len, "split": True, "users": [f"u{u}" for u in range(len(rows))],
        "items": [f"i{v}" for v in range(n_items)], "sequences": rows})


def segmentation_with_heads(store, head_items, head_users=(), beta=0.5):
    """Segmentation with explicit head membership (internal ids)."""
    head_items = frozenset(head_items)
    head_users = frozenset(head_users)
    return corpus.Segmentation(
        head_users=head_users,
        tail_users=frozenset(range(store.n_users)) - head_users,
        head_items=head_items,
        tail_items=frozenset(range(1, store.n_items + 1)) - head_items,
        beta=beta, n_users=store.n_users, n_items=store.n_items)


def encode_one(model, seq) -> np.ndarray:
    """One sequence's encoding, through the batched path."""
    return encode_batch(model, [np.asarray(seq, dtype=np.int64)])[0][0]


def identity_plan(classes, lam: float = 1.0):
    """A cross plan that pairs every position with itself, at weight ``lam``."""
    n = len(classes)
    return CrossPlan(pairing=np.arange(n, dtype=np.int64),
                     lams=np.full(n, lam, dtype=np.float64))


def bruteforce_tail_coverage(model, store, seg, k):
    """Test-phase TCov@k from one encode of every user and a pure-Python sort.

    Each user's top-k list orders items by score descending, id ascending
    on ties; coverage is the share of tail items in at least one list.
    """
    seqs = [np.concatenate([store.train_prefix(u), [store.valid_item(u)]])[-store.max_len:]
            for u in range(store.n_users)]
    h, _ = encode_batch(model, seqs)
    scores = h @ model.embeddings[1:].T
    n = store.n_items
    covered = set()
    for s in scores:
        top = sorted(range(1, n + 1), key=lambda v: (-s[v - 1], v))[:k]
        covered |= {v for v in top if v in seg.tail_items}
    return len(covered) / len(seg.tail_items)


def candidate_sets(n_items, mapping: dict, k: int = 10):
    """CandidateSets with an explicit union list per internal item id."""
    empty = ragged_pair([[]] * n_items)
    c = ragged_pair([mapping.get(v, []) for v in range(1, n_items + 1)])
    return simcand.CandidateSets(k=k, cr=empty, cc=empty, c=c)


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic synthetic corpus shared by training/eval tests."""
    log = synth.generate_interactions(n_users=80, n_items=50, n_topics=5, seed=11)
    log = corpus.k_core_filter(log, 3)
    store = corpus.leave_one_out_split(corpus.build_sequences(log, 20))
    seg = corpus.segment(store, beta=0.5)
    cands, sim = simcand.build_candidates(
        store, seg, simcand.SolverConfig(ridge_penalty=10.0, diag_cap=0.2), k=5)
    return store, seg, cands, sim


@pytest.fixture(scope="session")
def medium_store():
    """Larger corpus where per-epoch progress dominates sampling noise."""
    log = synth.generate_interactions(n_users=300, n_items=80, n_topics=6, seed=11)
    log = corpus.k_core_filter(log, 3)
    return corpus.leave_one_out_split(corpus.build_sequences(log, 20))


def users_with_train_len(store, min_len, count):
    users = [u for u in range(store.n_users) if len(store.train_prefix(u)) >= min_len]
    return users[:count]
