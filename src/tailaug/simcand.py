"""Item-item similarity and augmentation candidate sets.

The similarity model is a ridge-regularized linear autoencoder over the
binary user-item training matrix, with the diagonal of the learned
item-item matrix constrained to be at most ``diag_cap``.  The constrained
problem has a closed-form solution obtained from a single SPD solve:

    P = (X^T X + ridge * I)^-1
    gamma_j = ridge            if 1 - ridge * P_jj <= diag_cap
              (1 - diag_cap) / P_jj   otherwise
    S = I - P @ diagMat(gamma)

Items whose gamma takes the second branch have their self-similarity
pinned exactly at ``diag_cap`` (active constraint); the first branch means
the unconstrained ridge optimum already satisfies the cap.

Candidate sets per item are the union of the top-K most similar items
(correlation) and first-order neighbours from training sequences
(co-occurrence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .corpus import Segmentation, SequenceStore
from .errors import DataError, NumericError

CANDIDATES_SCHEMA = "tailaug.candidate_sets.v1"


@dataclass(frozen=True)
class SolverConfig:
    ridge_penalty: float = 10.0
    diag_cap: float = 0.2

    def __post_init__(self):
        if not self.ridge_penalty > 0:
            raise ValueError(f"ridge_penalty must be > 0, got {self.ridge_penalty}")
        if not 0.0 <= self.diag_cap < 1.0:
            raise ValueError(f"diag_cap must be in [0, 1), got {self.diag_cap}")


def build_interaction_matrix(store: SequenceStore) -> scipy.sparse.csr_matrix:
    """Users x items 0/1 matrix over training prefixes (repeats collapse to 1).

    Column ``j`` corresponds to internal item id ``j + 1``; the padding id
    has no column.
    """
    store._require_split()
    rows, cols = [], []
    for u in range(store.n_users):
        items = np.unique(store.train_prefix(u))
        rows.extend([u] * len(items))
        cols.extend((items - 1).tolist())
    data = np.ones(len(rows), dtype=np.float64)
    return scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(store.n_users, store.n_items)
    )


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


def solve_similarity(X: scipy.sparse.csr_matrix, config: SolverConfig) -> SimilarityMatrix:
    """Closed-form solve of the diagonal-constrained ridge system.

    Uses a Cholesky factorization of the Gram matrix plus ridge (SPD for
    any positive ridge).  Raises NumericError on factorization failure or
    non-finite output.
    """
    n_items = X.shape[1]
    if n_items < 1:
        raise DataError("interaction matrix has no items")
    gram = np.asarray((X.T @ X).todense(), dtype=np.float64)
    gram[np.diag_indices_from(gram)] += config.ridge_penalty
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(gram)
        raise NumericError(
            "SPD factorization of the Gram system failed "
            f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]): {exc}"
        ) from exc
    P = scipy.linalg.cho_solve(factor, np.eye(n_items), check_finite=False)
    P = (P + P.T) / 2.0  # enforce symmetry lost to rounding

    p_diag = np.diag(P).copy()
    capped = (1.0 - config.ridge_penalty * p_diag) > config.diag_cap
    gamma = np.where(capped, (1.0 - config.diag_cap) / p_diag, config.ridge_penalty)
    values = -P * gamma[np.newaxis, :]
    values[np.diag_indices_from(values)] += 1.0
    if not np.all(np.isfinite(values)):
        raise NumericError("similarity solve produced non-finite entries")
    return SimilarityMatrix(values=values, gamma=gamma, capped=capped, config=config)


def top_k_correlation(sim: SimilarityMatrix, k: int, read: str = "column") -> list[np.ndarray]:
    """Per item, the k most similar other items by score, ties by ascending id.

    ``read="column"`` scores candidates for item v by ``values[:, v]``
    (items that predict v); ``read="row"`` is the ablation alternative.
    Negative scores stay eligible.  Returns internal item ids, indexed by
    internal id - 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if read not in ("column", "row"):
        raise ValueError(f"read must be 'column' or 'row', got {read!r}")
    scores = sim.values if read == "row" else sim.values.T
    n = sim.n_items
    ids = np.arange(1, n + 1, dtype=np.int64)
    out = []
    for j in range(n):
        s = scores[j].copy()
        s[j] = -np.inf  # exclude self
        order = np.lexsort((ids, -s))
        take = min(k, n - 1)
        out.append(ids[order[:take]].copy())
    return out


def build_cooccurrence(store: SequenceStore, segmentation: Segmentation) -> list[np.ndarray]:
    """First-order co-occurrence candidates from training prefixes.

    Head item: the tail items immediately before or after it anywhere in
    training data.  Tail item: every item immediately preceding it (these
    are the behaviours that lead to the tail item).  Returned in ascending
    id order, indexed by internal id - 1.
    """
    store._require_split()
    head = segmentation.item_head_mask
    sets: list[set[int]] = [set() for _ in range(store.n_items)]
    for u in range(store.n_users):
        prefix = store.train_prefix(u)
        for i in range(len(prefix)):
            v = int(prefix[i])
            if head[v]:
                for nb in (prefix[i - 1] if i > 0 else None,
                           prefix[i + 1] if i + 1 < len(prefix) else None):
                    if nb is not None and not head[int(nb)]:
                        sets[v - 1].add(int(nb))
            else:
                if i > 0:
                    sets[v - 1].add(int(prefix[i - 1]))
    return [np.asarray(sorted(s), dtype=np.int64) for s in sets]


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

    def to_fields(self) -> dict:
        return {
            "k": self.k,
            "cr": [a.tolist() for a in self.cr],
            "cc": [a.tolist() for a in self.cc],
            "c": [a.tolist() for a in self.c],
        }

    @classmethod
    def from_fields(cls, d: dict) -> "CandidateSets":
        as_arrays = lambda lists: [np.asarray(a, dtype=np.int64) for a in lists]
        return cls(k=int(d["k"]), cr=as_arrays(d["cr"]), cc=as_arrays(d["cc"]),
                   c=as_arrays(d["c"]))


def union_candidates(cr: list[np.ndarray], cc: list[np.ndarray], k: int) -> CandidateSets:
    if len(cr) != len(cc):
        raise ValueError("cr and cc must cover the same item universe")
    union = []
    for j, (a, b) in enumerate(zip(cr, cc)):
        self_id = j + 1
        seen = set()
        merged = []
        for v in list(a) + sorted(set(b.tolist()) - set(a.tolist())):
            v = int(v)
            if v != self_id and v not in seen:
                seen.add(v)
                merged.append(v)
        union.append(np.asarray(merged, dtype=np.int64))
    return CandidateSets(k=k, cr=[a.copy() for a in cr], cc=[b.copy() for b in cc], c=union)


def build_candidates(store: SequenceStore, segmentation: Segmentation,
                     config: SolverConfig, k: int, read: str = "column"
                     ) -> tuple[CandidateSets, SimilarityMatrix]:
    """End-to-end candidate construction: solve, top-K, co-occurrence, union."""
    sim = solve_similarity(build_interaction_matrix(store), config)
    cr = top_k_correlation(sim, k, read=read)
    cc = build_cooccurrence(store, segmentation)
    return union_candidates(cr, cc, k), sim
