"""Full-ranking evaluation with segmented metrics and tail coverage.

Every evaluation scores the target against the whole real-item set (no
sampled negatives, no seen-item filtering by default) and breaks ties
pessimistically: the target ranks after every item with an equal score,
so metrics never benefit from score collisions.

Reports carry hit ratio and NDCG at each cutoff for five segments
(overall, head/tail item by the *target's* membership, head/tail user by
the user's membership) plus tail coverage: the fraction of tail items
that appear in at least one user's top-K list.

Scoring encodes each block of users without the per-step history a
backward would need, holds at most ``simcand.BLOCK_ENTRIES`` scores at a
time, and yields int64 rank arrays; the report masks each
segment out of the user, target and rank columns.  ``hit_at_k`` and
``ndcg_at_k`` over per-user ``RankingResult`` lists compute through the
same array formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Segmentation, SequenceStore
from .encoders import ModelState, _gemm, encode_batch
from .errors import DataError, NumericError
from .simcand import block_rows, smallest_k

REPORT_SCHEMA = "tailaug.metric_report.v1"

_EVAL_BATCH = 512
VALID_K = 10  # early stopping compares NDCG at this cutoff


@dataclass(frozen=True)
class RankingResult:
    user: int
    target: int
    rank: int


def rank_of_target(scores: np.ndarray, target) -> np.ndarray:
    """1-based pessimistic rank along the last axis: the target sorts after equal scores.

    ``scores[..., j]`` is the score of internal item id j + 1; ``target``
    holds one item id per row of ``scores`` (a scalar for a single row).
    """
    own = np.take_along_axis(scores, np.asarray(target)[..., None] - 1, axis=-1)
    return np.count_nonzero(scores >= own, axis=-1)


def _score_blocks(model: ModelState, store: SequenceStore, phase: str,
                  filter_seen: bool, depth: int = 0):
    """Yield (targets, int64 target ranks, top-``depth`` item ids) per chunk of users.

    Each block of users is encoded once and scored in chunks of at most
    ``BLOCK_ENTRIES`` scores that share one buffer; ranks and top lists
    read the same (optionally seen-filtered) scores.  Top lists order by
    score descending, then id ascending on ties.
    """
    if phase not in ("valid", "test"):
        raise ValueError(f"phase must be 'valid' or 'test', got {phase!r}")
    store._require_split()
    # a user's input: every item before its target, at most max_len - 1 of them
    ends = store.offsets[1:] - (2 if phase == "valid" else 1)
    firsts, lasts = store.offsets[:-1].tolist(), ends.tolist()
    item_emb = model.embeddings[1:]  # padding row excluded from ranking
    take, chunk = min(depth, len(item_emb)), block_rows(len(item_emb))
    buffer = np.empty((min(chunk, _EVAL_BATCH, store.n_users), len(item_emb)), item_emb.dtype)
    for start in range(0, store.n_users, _EVAL_BATCH):
        stop = min(start + _EVAL_BATCH, store.n_users)
        seqs = [store.items[a:b] for a, b in zip(firsts[start:stop], lasts[start:stop])]
        h = encode_batch(model, seqs, history=False)[0]  # no backward: no per-step state
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            targets = store.items[ends[lo:hi]]
            scores = _gemm(h[lo - start:hi - start], item_emb.T, buffer[:hi - lo])
            if not np.all(np.isfinite(scores)):
                raise NumericError(f"non-finite {phase} scores for users {lo}..{hi - 1}")
            if filter_seen:  # the target itself stays ranked when it reoccurs
                rows = np.repeat(np.arange(hi - lo), ends[lo:hi] - store.offsets[lo:hi])
                seen = np.concatenate(seqs[lo - start:hi - start])
                other = seen != targets[rows]
                scores[rows[other], seen[other] - 1] = -np.inf
            ranks = rank_of_target(scores, targets)
            top = smallest_k(np.negative(scores, out=scores), take) + 1 if take else None
            yield targets, ranks, top


def _hit_ndcg(ranks: np.ndarray, k: int) -> tuple[float, float]:
    """Hit ratio and single-target NDCG at ``k`` of a rank array: NDCG's gain
    is 1/log2(rank+1) inside the cutoff, else 0.

    NDCG sums with correct rounding, so the value is reproducible to the
    last bit regardless of accumulation order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not len(ranks):
        raise DataError("cannot compute metrics over zero ranking results")
    inside = ranks[ranks <= k]
    gain = [0.0] + [1.0 / math.log2(r + 1) for r in range(1, int(inside.max(initial=0)) + 1)]
    return len(inside) / len(ranks), math.fsum(np.take(gain, inside).tolist()) / len(ranks)


def hit_at_k(results, k: int) -> float:
    return _hit_ndcg(np.array([r.rank for r in results]), k)[0]


def ndcg_at_k(results, k: int) -> float:
    return _hit_ndcg(np.array([r.rank for r in results]), k)[1]


@dataclass
class MetricReport:
    """Per-segment metrics; empty segments are absent rather than zero."""

    ks: list[int]
    segments: dict[str, dict[str, float]]
    tcov: dict[int, float]
    phase: str

    def to_fields(self) -> dict:
        return {
            "ks": list(self.ks),
            "phase": self.phase,
            "segments": self.segments,
            "tcov": {str(k): v for k, v in self.tcov.items()},
        }


def segmented_report(users: np.ndarray, targets: np.ndarray, ranks: np.ndarray,
                     segmentation: Segmentation, ks, tcov: dict[int, float],
                     phase: str) -> MetricReport:
    """Metrics per segment of the aligned user, target and rank columns; item
    segments key on the held-out target."""
    if not len(ranks):
        raise DataError("cannot build a report from zero ranking results")
    head_item = segmentation.item_head_mask[targets]
    head_user = np.isin(users, np.fromiter(segmentation.head_users, dtype=np.int64))
    segments = {}
    for name, mask in (("overall", slice(None)), ("head_item", head_item),
                       ("tail_item", ~head_item), ("head_user", head_user),
                       ("tail_user", ~head_user)):
        members = ranks[mask]
        if not len(members):
            continue
        row: dict[str, float] = {"count": len(members)}
        for k in ks:
            row[f"hit@{k}"], row[f"ndcg@{k}"] = _hit_ndcg(members, k)
        segments[name] = row
    return MetricReport(ks=list(ks), segments=segments, tcov=tcov, phase=phase)


def evaluate_model(model: ModelState, store: SequenceStore,
                   segmentation: Segmentation, ks,
                   phase: str = "test", filter_seen: bool = False) -> MetricReport:
    """Score every user once: the segmented report plus tail coverage per cutoff.

    TCov@K is the fraction of tail items in at least one user's top-K list.
    ``filter_seen`` drops each user's already-seen items, except the target
    itself when it reoccurs, from the ranks and from those lists.
    """
    targets, ranks = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    listed = {int(k): np.zeros(store.n_items + 1, dtype=bool) for k in ks}
    for block_targets, block, top in _score_blocks(model, store, phase, filter_seen,
                                                   depth=max(listed, default=0)):
        targets.append(block_targets)
        ranks.append(block)
        for k, covered in listed.items():
            covered[top[:, :k]] = True
    n_tail = len(segmentation.tail_items)
    tail = ~segmentation.item_head_mask
    tcov = {k: np.count_nonzero(covered & tail) / n_tail if n_tail else 0.0
            for k, covered in listed.items()}
    return segmented_report(np.arange(store.n_users), np.concatenate(targets),
                            np.concatenate(ranks), segmentation, ks, tcov=tcov, phase=phase)


def validation_score(model: ModelState, store: SequenceStore) -> float:
    """NDCG@``VALID_K`` on the validation targets (early-stopping criterion)."""
    ranks = [block for _, block, _ in _score_blocks(model, store, "valid", False)]
    return _hit_ndcg(np.concatenate([np.empty(0, dtype=np.int64), *ranks]), VALID_K)[1]


_COLUMNS = (("overall", "Overall"), ("head_item", "Head Item"),
            ("tail_item", "Tail Item"), ("head_user", "Head User"),
            ("tail_user", "Tail User"))


def format_table(report: MetricReport) -> str:
    """Aligned text table: one metric per row, one segment per column."""
    width = 11
    header = f"{'metric':<10}" + "".join(f"{label:>{width}}" for _, label in _COLUMNS)
    lines = [header, "-" * len(header)]
    for k in report.ks:
        for metric in (f"hit@{k}", f"ndcg@{k}"):
            cells = []
            for name, _ in _COLUMNS:
                seg = report.segments.get(name)
                cells.append(f"{seg[metric]:>{width}.4f}" if seg else f"{'--':>{width}}")
            lines.append(f"{metric:<10}" + "".join(cells))
    counts = []
    for name, _ in _COLUMNS:
        seg = report.segments.get(name)
        counts.append(f"{seg['count']:>{width}d}" if seg else f"{'--':>{width}}")
    lines.append(f"{'count':<10}" + "".join(counts))
    for k in sorted(report.tcov):
        lines.append(f"tcov@{k:<5}{report.tcov[k]:>{width}.4f}")
    return "\n".join(lines)


def mean_report(reports: list[MetricReport]) -> MetricReport:
    """Average metrics across reports of one phase, cutoffs and segments (multi-seed runs)."""
    if not reports:
        raise DataError("no reports to aggregate")
    first = reports[0]
    segments = {}
    for name, row in first.segments.items():
        out = {"count": row["count"]}
        for key in row:
            if key == "count":
                continue
            out[key] = float(np.mean([r.segments[name][key] for r in reports]))
        segments[name] = out
    tcov = {k: float(np.mean([r.tcov[k] for r in reports])) for k in first.tcov}
    return MetricReport(ks=list(first.ks), segments=segments, tcov=tcov,
                        phase=first.phase)
