"""Item-item similarity and augmentation candidate sets.

The similarity model is a ridge-regularized linear autoencoder over the
binary user-item training matrix, with the diagonal of the learned
item-item matrix constrained to be at most ``diag_cap``.  The constrained
problem has a closed-form solution obtained from a single SPD inverse
(EASE, Steck, WWW 2019; the diagonal cap follows Steck, NeurIPS 2020):

    P = (X^T X + ridge * I)^-1
    gamma_j = ridge            if 1 - ridge * P_jj <= diag_cap
              (1 - diag_cap) / P_jj   otherwise
    S = I - P @ diagMat(gamma)

Items whose gamma takes the second branch have their self-similarity
pinned exactly at ``diag_cap`` (active constraint); the first branch means
the unconstrained ridge optimum already satisfies the cap.

The inverse is computed in place in the Gram buffer (LAPACK ``potrf`` then
``potri``), its other triangle is mirrored and the gamma scaling applied in
place, so the solve peaks at about two ``n x n`` float64 arrays: the dense
Gram matrix and the sparse product it is densified from.

Candidate sets per item are the union of the top-K most similar items
(correlation) and first-order neighbours from training sequences
(co-occurrence).

scipy is imported inside the two functions that use it, so importing this
module, and every CLI command but ``candidates``, leaves scipy unloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Segmentation, SequenceStore, id_rows, json_value, ragged_ids
from .errors import DataError, NumericError, finite_positive

CANDIDATES_SCHEMA = "tailaug.candidate_sets.v1"


@dataclass(frozen=True)
class SolverConfig:
    ridge_penalty: float = 10.0
    diag_cap: float = 0.2

    def __post_init__(self):
        if not finite_positive(self.ridge_penalty):
            raise ValueError(f"ridge_penalty must be finite and > 0, got {self.ridge_penalty}")
        if not 0.0 <= self.diag_cap < 1.0:
            raise ValueError(f"diag_cap must be in [0, 1), got {self.diag_cap}")


def _concat(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The id arrays concatenated in order, as int64, and their lengths."""
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    flat = np.concatenate(arrays) if arrays else np.empty(0)
    return flat.astype(np.int64, copy=False), lengths


def _pair_keys(owner: np.ndarray, member: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per (item, member) pair of ids in ``0..n``, ordered by item."""
    return owner * (n + 1) + member


def _split_by_owner(owner: np.ndarray, member: np.ndarray, n: int) -> list[np.ndarray]:
    """Per item ``1..n``, its members in array order; ``owner`` is sorted."""
    return id_rows(member, np.searchsorted(owner, np.arange(1, n + 2)))


def build_interaction_matrix(store: SequenceStore) -> scipy.sparse.csr_matrix:
    """Users x items 0/1 matrix over training prefixes (repeats collapse to 1).

    Column ``j`` corresponds to internal item id ``j + 1``; the padding id
    has no column.
    """
    import scipy.sparse

    items, lengths = store.train_prefixes()
    rows = np.repeat(np.arange(store.n_users), lengths)
    X = scipy.sparse.csr_matrix((np.ones(len(items)), (rows, items - 1)),
                                shape=(store.n_users, store.n_items))
    X.sum_duplicates()
    X.data[:] = 1.0
    return X


@dataclass
class SimilarityMatrix:
    """Dense item-item scores with per-item diagnostics of the diag constraint.

    ``values[i, j]`` scores internal item ``i + 1`` as a predictor of
    internal item ``j + 1``.  ``capped[j]`` is True where the constraint
    was active (second gamma branch), pinning ``values[j, j]`` at the cap.
    """

    values: np.ndarray
    gamma: np.ndarray
    capped: np.ndarray
    config: SolverConfig

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def branch_counts(self) -> dict:
        capped = int(np.count_nonzero(self.capped))
        return {"capped": capped, "uncapped": int(self.capped.size - capped)}


def _gram(X: scipy.sparse.csr_matrix, ridge: float) -> np.ndarray:
    """``X^T X + ridge * I`` as a dense C-ordered array."""
    # the product is CSC: densified in F order it needs no sparse copy, and
    # its transpose view is the same symmetric matrix in C order
    X = X.astype(np.float64, copy=False)
    gram = (X.T @ X).toarray(order="F").T
    gram[np.diag_indices_from(gram)] += ridge
    return gram


_BLOCK = 256  # rows per step of the in-place mirror and of top-K: bounds their temporaries


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the upper triangle of square ``a`` onto its lower one, in place."""
    for i in range(0, a.shape[0], _BLOCK):
        rows = slice(i, i + _BLOCK)
        a[rows, :i] = a[:i, rows].T
        diag = a[rows, rows]
        lower = np.tril_indices(diag.shape[0], -1)
        diag[lower] = diag.T[lower]


def solve_similarity(X: scipy.sparse.csr_matrix, config: SolverConfig) -> SimilarityMatrix:
    """Closed-form solve of the diagonal-constrained ridge system.

    Inverts the Gram matrix plus ridge (SPD for any positive ridge) in
    place through its Cholesky factor.  Raises NumericError on
    factorization or inversion failure and on non-finite output.
    """
    from scipy.linalg import lapack

    n_items = X.shape[1]
    if n_items < 1:
        raise DataError("interaction matrix has no items")
    # LAPACK reads the C-ordered symmetric Gram buffer as its F-ordered
    # transpose, so the lower triangle it writes is the upper triangle of P
    factor, info = lapack.dpotrf(_gram(X, config.ridge_penalty).T,
                                 lower=1, clean=0, overwrite_a=1)
    if info != 0:
        eigs = np.linalg.eigvalsh(_gram(X, config.ridge_penalty))  # the buffer is overwritten
        raise NumericError(
            "SPD factorization of the Gram system failed "
            f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]): LAPACK dpotrf info {info}")
    inverse, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericError(f"inverse of the Gram system failed: LAPACK dpotri info {info}")
    P = inverse.T
    _mirror_upper(P)

    p_diag = np.diag(P).copy()
    capped = (1.0 - config.ridge_penalty * p_diag) > config.diag_cap
    gamma = np.where(capped, (1.0 - config.diag_cap) / p_diag, config.ridge_penalty)
    P *= -gamma  # S = I - P diagMat(gamma), in place
    P[np.diag_indices_from(P)] += 1.0
    if not np.all(np.isfinite(P)):
        raise NumericError("similarity solve produced non-finite entries")
    return SimilarityMatrix(values=P, gamma=gamma, capped=capped, config=config)


def smallest_k(keys: np.ndarray, take: int) -> np.ndarray:
    """Per row, the columns of the ``take`` smallest keys, in stable-argsort order."""
    part = np.argpartition(keys, take - 1, axis=1)[:, :take]
    part_keys = np.take_along_axis(keys, part, axis=1)
    top = np.take_along_axis(part, np.lexsort((part, part_keys), axis=-1), axis=1)
    # rows tied at the k-th key beyond the slice may have lost a lower index
    kth = part_keys.max(axis=1, keepdims=True)
    for r in np.flatnonzero(np.count_nonzero(keys <= kth, axis=1) > take):
        top[r] = np.lexsort((np.arange(keys.shape[1]), keys[r]))[:take]
    return top


def top_k_correlation(sim: SimilarityMatrix, k: int) -> list[np.ndarray]:
    """Per item, the k most similar other items by score, ties by ascending id.

    Candidates for item v are scored by ``values[:, v]``, the items that
    predict v.  Negative scores stay eligible.  Returns internal item ids,
    indexed by internal id - 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = sim.values.T
    n = sim.n_items
    take = min(k, n - 1)
    if take == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]
    out = []
    for start in range(0, n, _BLOCK):
        # ascending -score, self last: the k-slice holds the top scores
        neg = np.negative(scores[start:start + _BLOCK], order="C")
        np.fill_diagonal(neg[:, start:], np.inf)
        out.extend(smallest_k(neg, take) + 1)
    return out


def build_cooccurrence(store: SequenceStore, segmentation: Segmentation) -> list[np.ndarray]:
    """First-order co-occurrence candidates from training prefixes.

    Head item: the tail items immediately before or after it anywhere in
    training data.  Tail item: every item immediately preceding it (these
    are the behaviours that lead to the tail item).  Returned in ascending
    id order, indexed by internal id - 1.
    """
    items, lengths = store.train_prefixes()
    user = np.repeat(np.arange(store.n_users), lengths)
    inside = user[:-1] == user[1:]
    a, b = items[:-1][inside], items[1:][inside]  # adjacent pairs within a prefix
    head = segmentation.item_head_mask
    # b gains its predecessor a unless both are head items (a tail b takes
    # any predecessor, itself included); a head a gains a tail successor b
    back = ~(head[a] & head[b])
    ahead = head[a] & ~head[b]
    n = store.n_items
    keys = np.unique(np.concatenate([_pair_keys(b[back], a[back], n),
                                     _pair_keys(a[ahead], b[ahead], n)]))
    return _split_by_owner(keys // (n + 1), keys % (n + 1), n)


@dataclass
class CandidateSets:
    """Per-item augmentation candidates: correlation, co-occurrence, union.

    Lists are indexed by internal item id - 1.  The union keeps the
    correlation ordering first, then co-occurrence-only members by
    ascending id; the item itself never appears in its own candidates.
    """

    k: int
    cr: list[np.ndarray]
    cc: list[np.ndarray]
    c: list[np.ndarray]

    def candidates_for(self, v: int) -> np.ndarray:
        return self.c[v - 1]

    @cached_property
    def flat_union(self) -> tuple[np.ndarray, np.ndarray]:
        """``c`` as CSR: item ``v``'s union is ``members[offsets[v]:offsets[v + 1]]``."""
        members, lengths = _concat(self.c)
        return np.concatenate([[0, 0], np.cumsum(lengths)]), members

    def to_fields(self) -> dict:
        return {
            "k": self.k,
            "cr": [a.tolist() for a in self.cr],
            "cc": [a.tolist() for a in self.cc],
            "c": [a.tolist() for a in self.c],
        }

    @classmethod
    def from_fields(cls, d: dict) -> "CandidateSets":
        """Decode and check: three lists of integer ids in ``1..len(c)``."""
        n = len(d["c"])
        lists = {name: ragged_ids(d[name], n, name) for name in ("cr", "cc", "c")}
        if any(len(offsets) != n + 1 for _, offsets in lists.values()):
            raise ValueError(f"cr, cc and c must each hold {n} lists")
        return cls(k=json_value(d, "k", int),
                   **{name: id_rows(*flat) for name, flat in lists.items()})


def union_candidates(cr: list[np.ndarray], cc: list[np.ndarray], k: int) -> CandidateSets:
    """Per item, its ``cr`` in order, then the ``cc``-only members by ascending id.

    Members are internal ids in ``1..len(cr)``; the item itself and
    repeated members are dropped.
    """
    if len(cr) != len(cc):
        raise ValueError("cr and cc must cover the same item universe")
    n = len(cr)
    ids = np.arange(1, n + 1)
    cr_member, cr_len = _concat(cr)
    cc_member, cc_len = _concat(cc)
    for members in (cr_member, cc_member):
        if np.any((members < 1) | (members > n)):
            raise ValueError(f"candidate ids must be internal item ids in 1..{n}")
    cr_owner = np.repeat(ids, cr_len)
    cr_keys = _pair_keys(cr_owner, cr_member, n)
    # the first occurrence of each cr member, self excluded, in cr order
    keep = np.zeros(len(cr_keys), dtype=bool)
    keep[np.unique(cr_keys, return_index=True)[1]] = True
    keep &= cr_member != cr_owner
    # cc members that are neither in cr nor the item itself, ascending
    cc_keys = np.unique(_pair_keys(np.repeat(ids, cc_len), cc_member, n))
    cc_keys = cc_keys[~np.isin(cc_keys, cr_keys)]
    cc_owner, cc_member = cc_keys // (n + 1), cc_keys % (n + 1)
    cc_new = cc_member != cc_owner
    owner = np.concatenate([cr_owner[keep], cc_owner[cc_new]])
    member = np.concatenate([cr_member[keep], cc_member[cc_new]])
    # a stable sort keeps each item's cr members ahead of its cc-only ones
    order = np.argsort(owner, kind="stable")
    union = _split_by_owner(owner[order], member[order], n)
    return CandidateSets(k=k, cr=[a.copy() for a in cr], cc=[b.copy() for b in cc], c=union)


def build_candidates(store: SequenceStore, segmentation: Segmentation,
                     config: SolverConfig, k: int) -> tuple[CandidateSets, SimilarityMatrix]:
    """End-to-end candidate construction: solve, top-K, co-occurrence, union."""
    sim = solve_similarity(build_interaction_matrix(store), config)
    cr = top_k_correlation(sim, k)
    cc = build_cooccurrence(store, segmentation)
    return union_candidates(cr, cc, k), sim
