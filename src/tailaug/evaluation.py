"""Full-ranking evaluation with segmented metrics and tail coverage.

Every evaluation scores the target against the whole real-item set (no
sampled negatives, no seen-item filtering by default) and breaks ties
pessimistically: the target ranks after every item with an equal score,
so metrics never benefit from score collisions.

Reports carry hit ratio and NDCG at each cutoff for five segments
(overall, head/tail item by the *target's* membership, head/tail user by
the user's membership) plus tail coverage: the fraction of tail items
that appear in at least one user's top-K list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Segmentation, SequenceStore
from .encoders import ModelState, encode_batch
from .errors import DataError, NumericError
from .simcand import smallest_k

REPORT_SCHEMA = "tailaug.metric_report.v1"

SEGMENTS = ("overall", "head_item", "tail_item", "head_user", "tail_user")

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
    """Yield (ranking results, top-``depth`` item ids) per block of users.

    Each block is encoded and scored once; ranks and top lists read the
    same (optionally seen-filtered) scores.  Top lists order by score
    descending, then id ascending on ties.
    """
    if phase not in ("valid", "test"):
        raise ValueError(f"phase must be 'valid' or 'test', got {phase!r}")
    store._require_split()
    # a user's input: every item before its target, at most max_len - 1 of them
    ends = store.offsets[1:] - (2 if phase == "valid" else 1)
    firsts, lasts = store.offsets[:-1].tolist(), ends.tolist()
    item_emb = model.embeddings[1:]  # padding row excluded from ranking
    take = min(depth, len(item_emb))
    for start in range(0, store.n_users, _EVAL_BATCH):
        chunk = range(start, min(start + _EVAL_BATCH, store.n_users))
        seqs = [store.items[a:b] for a, b in zip(firsts[start:chunk.stop], lasts[start:chunk.stop])]
        targets = store.items[ends[start:chunk.stop]]
        h = encode_batch(model, seqs)[0]  # unbound, the backward cache is freed here
        scores = h @ item_emb.T
        if not np.all(np.isfinite(scores)):
            raise NumericError(f"non-finite {phase} scores for users {chunk[0]}..{chunk[-1]}")
        if filter_seen:  # the target itself stays ranked when it reoccurs
            for row, seq, target in zip(scores, seqs, targets):
                row[seq[seq != target] - 1] = -np.inf
        ranks = rank_of_target(scores, targets)
        results = [RankingResult(user=u, target=int(t), rank=int(r))
                   for u, t, r in zip(chunk, targets, ranks)]
        top = smallest_k(np.negative(scores, out=scores), take) + 1 if take else None
        yield results, top


def hit_at_k(results, k: int) -> float:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not results:
        raise DataError("cannot compute metrics over zero ranking results")
    return sum(r.rank <= k for r in results) / len(results)


def ndcg_at_k(results, k: int) -> float:
    """Single-target NDCG: gain 1/log2(rank+1) inside the cutoff, else 0.

    Uses correctly-rounded summation so the value is reproducible to the
    last bit regardless of accumulation order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not results:
        raise DataError("cannot compute metrics over zero ranking results")
    gains = [1.0 / math.log2(r.rank + 1) if r.rank <= k else 0.0 for r in results]
    return math.fsum(gains) / len(results)


def _finite(value) -> bool:
    """A finite JSON number; ``bool`` is not one."""
    return type(value) in (int, float) and math.isfinite(value)


@dataclass
class MetricReport:
    """Per-segment metrics; empty segments are absent rather than zero."""

    ks: list[int]
    segments: dict[str, dict[str, float]]
    tcov: dict[int, float]
    phase: str = "test"

    def to_fields(self) -> dict:
        return {
            "ks": list(self.ks),
            "phase": self.phase,
            "segments": self.segments,
            "tcov": {str(k): v for k, v in self.tcov.items()},
        }

    @classmethod
    def from_fields(cls, d: dict) -> "MetricReport":
        """Decode and check: counts are non-negative integers, every other value
        a finite number, and each segment has each cutoff's metrics."""
        if not all(map(_finite, d["tcov"].values())):
            raise ValueError(f"tcov values {list(d['tcov'].values())} are not all finite")
        report = cls(ks=[int(k) for k in d["ks"]],
                     segments=d["segments"],
                     tcov={int(k): float(v) for k, v in d["tcov"].items()},
                     phase=d.get("phase", "test"))
        keys = {"count", *(f"{m}@{k}" for k in report.ks for m in ("hit", "ndcg"))}
        for name, row in report.segments.items():
            if not keys <= set(row):
                raise ValueError(f"segment {name!r} lacks {sorted(keys - set(row))}")
            count = row["count"]
            if type(count) is not int or count < 0:
                raise ValueError(f"segment {name!r} count {count!r} is not an integer >= 0")
            bad = sorted(key for key, v in row.items() if key != "count" and not _finite(v))
            if bad:
                raise ValueError(f"segment {name!r} values {bad} are not finite numbers")
        if not set(report.tcov) <= set(report.ks):
            raise ValueError(f"tcov cutoffs {sorted(report.tcov)} outside ks {report.ks}")
        return report


def _segment_members(results, segmentation: Segmentation):
    yield "overall", results
    yield "head_item", [r for r in results if r.target in segmentation.head_items]
    yield "tail_item", [r for r in results if r.target in segmentation.tail_items]
    yield "head_user", [r for r in results if r.user in segmentation.head_users]
    yield "tail_user", [r for r in results if r.user in segmentation.tail_users]


def segmented_report(results, segmentation: Segmentation, ks,
                     tcov: dict[int, float] | None = None,
                     phase: str = "test") -> MetricReport:
    """Metrics per segment; item segments key on the held-out target."""
    if not results:
        raise DataError("cannot build a report from zero ranking results")
    segments = {}
    for name, members in _segment_members(results, segmentation):
        if not members:
            continue
        row: dict[str, float] = {"count": len(members)}
        for k in ks:
            row[f"hit@{k}"] = hit_at_k(members, k)
            row[f"ndcg@{k}"] = ndcg_at_k(members, k)
        segments[name] = row
    return MetricReport(ks=list(ks), segments=segments, tcov=tcov or {}, phase=phase)


def evaluate_model(model: ModelState, store: SequenceStore,
                   segmentation: Segmentation, ks=(5, 10, 20),
                   phase: str = "test", filter_seen: bool = False) -> MetricReport:
    """Score every user once: the segmented report plus tail coverage per cutoff.

    TCov@K is the fraction of tail items in at least one user's top-K list.
    ``filter_seen`` drops each user's already-seen items, except the target
    itself when it reoccurs, from the ranks and from those lists.
    """
    results = []
    listed = {int(k): np.zeros(store.n_items + 1, dtype=bool) for k in ks}
    for block, top in _score_blocks(model, store, phase, filter_seen,
                                    depth=max(listed, default=0)):
        results += block
        for k, covered in listed.items():
            covered[top[:, :k]] = True
    n_tail = len(segmentation.tail_items)
    tail = ~segmentation.item_head_mask
    tcov = {k: np.count_nonzero(covered & tail) / n_tail if n_tail else 0.0
            for k, covered in listed.items()}
    return segmented_report(results, segmentation, ks, tcov=tcov, phase=phase)


def validation_score(model: ModelState, store: SequenceStore) -> float:
    """NDCG@``VALID_K`` on the validation targets (early-stopping criterion)."""
    results = [r for block, _ in _score_blocks(model, store, "valid", False) for r in block]
    return ndcg_at_k(results, VALID_K)


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
    """Average metrics across same-structure, same-phase reports (multi-seed runs)."""
    if not reports:
        raise DataError("no reports to aggregate")
    first = reports[0]
    for other in reports[1:]:
        if (other.ks, other.phase, set(other.segments), set(other.tcov)) != \
                (first.ks, first.phase, set(first.segments), set(first.tcov)):
            raise DataError("reports differ in cutoffs, phase, segments or tcov; "
                            "cannot average")
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
