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
place, so the solve peaks at about two ``n x n`` arrays of its dtype: the
dense Gram matrix and the sparse product it is densified from.
``build_candidates`` solves in float32 when the Gershgorin bound on the
condition number of ``X^T X + ridge * I``, ``(max row sum + ridge) / ridge``,
is below ``F32_COND_BOUND``, and in float64 otherwise; the gamma branch rule
is evaluated in float64 either way.

Candidate sets per item are the union of the top-K most similar items
(correlation) and first-order neighbours from training sequences
(co-occurrence).  Each family is one ``(ids, offsets)`` pair from the
builders to augmentation (item ``v``'s list is ``ids[offsets[v - 1]:offsets[v]]``,
as ``corpus.ragged_ids`` returns); the union is derived from the other two.

scipy is imported inside the two functions that use it, so importing this
module, and every CLI command but ``candidates``, leaves scipy unloaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Segmentation, SequenceStore, id_rows, json_value, ragged_ids
from .errors import DataError, NumericError, finite_positive

CANDIDATES_SCHEMA = "tailaug.candidate_sets.v1"
# largest Gershgorin bound on cond(X^T X + ridge * I) that ``build_candidates``
# solves in float32: up to ~1e5 the float32 solve stays within ~5e-6 of float64
F32_COND_BOUND = 1e5


@dataclass(frozen=True)
class SolverConfig:
    ridge_penalty: float = 10.0
    diag_cap: float = 0.2

    def __post_init__(self):
        if not finite_positive(self.ridge_penalty):
            raise ValueError(f"ridge_penalty must be finite and > 0, got {self.ridge_penalty}")
        if not 0.0 <= self.diag_cap < 1.0:
            raise ValueError(f"diag_cap must be in [0, 1), got {self.diag_cap}")


def _pair_keys(owner: np.ndarray, member: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per (item, member) pair of ids in ``0..n``, ordered by item."""
    return owner * (n + 1) + member


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


def _gram(X: scipy.sparse.csr_matrix, ridge: float, dtype) -> np.ndarray:
    """``X^T X + ridge * I`` as a dense C-ordered array of ``dtype``."""
    # the product is CSC: densified in F order it needs no sparse copy, and
    # its transpose view is the same symmetric matrix in C order
    X = X.astype(dtype, copy=False)
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


def solve_similarity(X: scipy.sparse.csr_matrix, config: SolverConfig,
                     dtype=np.float64) -> SimilarityMatrix:
    """Closed-form solve of the diagonal-constrained ridge system.

    Inverts the Gram matrix plus ridge (SPD for any positive ridge) in
    place through its Cholesky factor, in ``dtype`` (float32 or float64).
    Raises NumericError on factorization or inversion failure and on
    non-finite output.
    """
    from scipy.linalg import lapack

    n_items = X.shape[1]
    if n_items < 1:
        raise DataError("interaction matrix has no items")
    # looked up per call, so the error names the routine that ran
    prefix = {"f": "s", "d": "d"}[np.dtype(dtype).char]
    # LAPACK reads the C-ordered symmetric Gram buffer as its F-ordered
    # transpose, so the lower triangle it writes is the upper triangle of P
    factor, info = getattr(lapack, prefix + "potrf")(
        _gram(X, config.ridge_penalty, dtype).T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        # the buffer is overwritten; the Gram's entries are exact in float64
        eigs = np.linalg.eigvalsh(_gram(X, config.ridge_penalty, np.float64))
        raise NumericError(
            "SPD factorization of the Gram system failed (eigenvalue range "
            f"[{eigs[0]:.3e}, {eigs[-1]:.3e}]): LAPACK {prefix}potrf info {info}")
    inverse, info = getattr(lapack, prefix + "potri")(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericError(f"inverse of the Gram system failed: LAPACK {prefix}potri info {info}")
    P = inverse.T
    _mirror_upper(P)

    p_diag = np.diag(P).astype(np.float64)
    capped = (1.0 - config.ridge_penalty * p_diag) > config.diag_cap
    gamma = np.where(capped, (1.0 - config.diag_cap) / p_diag, config.ridge_penalty)
    P *= (-gamma).astype(P.dtype)  # S = I - P diagMat(gamma), in place
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


def top_k_correlation(sim: SimilarityMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the k most similar other items by score, ties by ascending id.

    Candidates for item v are scored by ``values[:, v]``, the items that
    predict v.  Negative scores stay eligible.  Items with identical
    training columns tie only up to rounding, so their order follows the
    solve's precision.  Returns internal item ids as an ``(ids, offsets)`` pair.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = sim.values.T
    n = sim.n_items
    take = min(k, n - 1)
    blocks = [np.empty(0, dtype=np.int64)]
    for start in range(0, n if take else 0, _BLOCK):
        # ascending -score, self last: the k-slice holds the top scores
        neg = np.negative(scores[start:start + _BLOCK], order="C")
        np.fill_diagonal(neg[:, start:], np.inf)
        blocks.append(smallest_k(neg, take).ravel() + 1)
    return np.concatenate(blocks), np.arange(n + 1, dtype=np.int64) * take


def build_cooccurrence(store: SequenceStore,
                       segmentation: Segmentation) -> tuple[np.ndarray, np.ndarray]:
    """First-order co-occurrence candidates from training prefixes.

    Head item: the tail items immediately before or after it anywhere in
    training data.  Tail item: every item immediately preceding it (these
    are the behaviours that lead to the tail item).  Returned as an
    ``(ids, offsets)`` pair, each item's list in ascending id order.
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
    return keys % (n + 1), np.searchsorted(keys // (n + 1), np.arange(1, n + 2))


@dataclass
class CandidateSets:
    """Per-item augmentation candidates: correlation, co-occurrence, union.

    Each is an int64 ``(ids, offsets)`` pair: item ``v``'s list is
    ``ids[offsets[v - 1]:offsets[v]]``.  The union ``c`` keeps the correlation
    ordering first, then co-occurrence-only members by ascending id; the item
    itself never appears in its own candidates.  ``from_fields`` derives ``c``
    from ``cr`` and ``cc`` and refuses a stored ``c`` that differs.
    """

    k: int
    cr: tuple[np.ndarray, np.ndarray]
    cc: tuple[np.ndarray, np.ndarray]
    c: tuple[np.ndarray, np.ndarray]

    def candidates_for(self, v: int) -> np.ndarray:
        ids, offsets = self.c
        return ids[offsets[v - 1]:offsets[v]]

    def to_fields(self) -> dict:
        fields = {name: id_rows(ids.tolist(), offsets)
                  for name, (ids, offsets) in (("cr", self.cr), ("cc", self.cc), ("c", self.c))}
        return {"k": self.k, **fields}

    @classmethod
    def from_fields(cls, d: dict) -> "CandidateSets":
        """Decode and check: id lists in ``1..len(cr)``, ``c`` the union of ``cr`` and ``cc``."""
        n = len(d["cr"])
        cr, cc, c = (ragged_ids(d[name], n, name) for name in ("cr", "cc", "c"))
        sets = union_candidates(cr, cc, json_value(d, "k", int))
        if not all(np.array_equal(a, b) for a, b in zip(sets.c, c)):
            raise ValueError("c must be the union of cr and cc")
        return sets


def union_candidates(cr: tuple[np.ndarray, np.ndarray], cc: tuple[np.ndarray, np.ndarray],
                     k: int) -> CandidateSets:
    """Per item, its ``cr`` in order, then the ``cc``-only members by ascending id.

    ``cr`` and ``cc`` are ``(ids, offsets)`` pairs over the same items, with
    members internal ids in ``1..n``; the item itself and repeated members
    are dropped.
    """
    (cr_member, cr_offsets), (cc_member, cc_offsets) = cr, cc
    if len(cr_offsets) != len(cc_offsets):
        raise ValueError("cr and cc must cover the same item universe")
    n = len(cr_offsets) - 1
    ids = np.arange(1, n + 1)
    for members in (cr_member, cc_member):
        if np.any((members < 1) | (members > n)):
            raise ValueError(f"candidate ids must be internal item ids in 1..{n}")
    cr_owner = np.repeat(ids, np.diff(cr_offsets))
    cr_keys = _pair_keys(cr_owner, cr_member, n)
    # the first occurrence of each cr member, self excluded, in cr order
    keep = np.zeros(len(cr_keys), dtype=bool)
    keep[np.unique(cr_keys, return_index=True)[1]] = True
    keep &= cr_member != cr_owner
    # cc members that are neither in cr nor the item itself, ascending
    cc_keys = np.unique(_pair_keys(np.repeat(ids, np.diff(cc_offsets)), cc_member, n))
    cc_keys = cc_keys[~np.isin(cc_keys, cr_keys)]
    cc_owner, cc_member = cc_keys // (n + 1), cc_keys % (n + 1)
    cc_new = cc_member != cc_owner
    owner = np.concatenate([cr_owner[keep], cc_owner[cc_new]])
    member = np.concatenate([cr_member[keep], cc_member[cc_new]])
    # a stable sort keeps each item's cr members ahead of its cc-only ones
    order = np.argsort(owner, kind="stable")
    c = (member[order], np.searchsorted(owner[order], np.arange(1, n + 2)))
    return CandidateSets(k=k, cr=cr, cc=cc, c=c)


def build_candidates(store: SequenceStore, segmentation: Segmentation,
                     config: SolverConfig, k: int) -> tuple[CandidateSets, SimilarityMatrix]:
    """End-to-end candidate construction: solve, top-K, co-occurrence, union.

    The solve runs in float32 when the conditioning bound allows it.
    """
    X = build_interaction_matrix(store)
    gram_row_sums = X.T @ (X @ np.ones(X.shape[1]))
    bound = (np.max(gram_row_sums, initial=0.0) + config.ridge_penalty) / config.ridge_penalty
    sim = solve_similarity(X, config, np.float32 if bound < F32_COND_BOUND else np.float64)
    cr = top_k_correlation(sim, k)
    cc = build_cooccurrence(store, segmentation)
    return union_candidates(cr, cc, k), sim
