"""Spans recorded around the calls into each ``tailaug`` layer, and the
per-layer metrics derived from them.

A :class:`Tracer` replaces a public entry point with a timing wrapper at the
place its calling module looks it up (``tailaug.training.encode_batch`` is
the name ``training`` resolves at call time), so ``src/`` needs no change.
Spans stay in memory as ``[name, start, end, parent, extra]`` lists and are
written out by the caller once the run ends.  An entry point that no longer
exists is recorded as absent and its metrics read zero.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, EXTRA = range(5)

STAGES = {"training.train_stage1": "stage1", "training.train_stage2": "stage2"}
COMMANDS = ("prepare", "candidates", "train", "evaluate")
MODULES = ("cli", "corpus", "simcand", "rand", "training", "encoders", "augment",
           "evaluation", "serialize")


def _file_size(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _encode_rows(args, kwargs, result):
    seqs = kwargs.get("seqs", args[1] if len(args) > 1 else ())
    lengths = [len(s) for s in seqs]
    return (len(lengths), max(lengths, default=0), sum(lengths))


def _capped(args, kwargs, result):
    return int(np.count_nonzero(result.capped))


def _operator(args, kwargs, result):
    return result.operator


# (module that looks the name up, attribute, span name, probe).  A probe
# reads a count off the call after its span has closed.
STAGE_ENTRY_POINTS = (
    ("training", "train_stage1", "training.train_stage1", None),
    ("training", "train_stage2", "training.train_stage2", None),
)

ENTRY_POINTS = STAGE_ENTRY_POINTS + (
    ("corpus", "load_interactions", "corpus.load_interactions", None),
    ("corpus", "k_core_filter", "corpus.k_core_filter", None),
    ("corpus", "build_sequences", "corpus.build_sequences", None),
    ("corpus", "leave_one_out_split", "corpus.leave_one_out_split", None),
    ("corpus", "segment", "corpus.segment", None),
    ("corpus", "dataset_stats", "corpus.dataset_stats", None),
    ("corpus", "write_json", "corpus.write_json", _file_size),
    ("corpus", "read_json", "corpus.read_json", _file_size),
    ("simcand", "write_json", "corpus.write_json", _file_size),
    ("simcand", "read_json", "corpus.read_json", _file_size),
    ("evaluation", "write_json", "corpus.write_json", _file_size),
    ("evaluation", "read_json", "corpus.read_json", _file_size),
    ("simcand", "build_candidates", "simcand.build_candidates", None),
    ("simcand", "build_interaction_matrix", "simcand.build_interaction_matrix", None),
    ("simcand", "solve_similarity", "simcand.solve_similarity", _capped),
    ("simcand", "top_k_correlation", "simcand.top_k_correlation", None),
    ("simcand", "build_cooccurrence", "simcand.build_cooccurrence", None),
    ("simcand", "union_candidates", "simcand.union_candidates", None),
    ("training", "derive_rng", "rand.derive_rng", None),
    ("training", "sample_negative", "training.sample_negative", None),
    ("training", "batch_loss", "training.batch_loss", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "encode_batch", "encoders.encode_batch", _encode_rows),
    ("training", "backward_batch", "encoders.backward_batch", None),
    ("training", "augment_sequence", "augment.augment_sequence", _operator),
    ("training", "plan_cross_batch", "augment.plan_cross_batch", None),
    ("evaluation", "evaluate_model", "evaluation.evaluate_model", None),
    ("evaluation", "rank_users", "evaluation.rank_users", None),
    ("evaluation", "tail_coverage_at_k", "evaluation.tail_coverage_at_k", None),
    ("evaluation", "top_k_lists", "evaluation.top_k_lists", None),
    ("evaluation", "validation_score", "evaluation.validation_score", None),
    ("evaluation", "encode_batch", "encoders.encode_batch", _encode_rows),
    ("serialize", "write_blob", "serialize.write_blob", _file_size),
    ("serialize", "read_blob", "serialize.read_blob", _file_size),
)


class Tracer:
    """Records spans around wrapped entry points and harness-level blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield self.spans[index]
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][START] = start
            self.spans[index][END] = end

    def install(self, entry_points) -> None:
        """Wrap each entry point; record the ones that do not exist as absent."""
        for module_name, attr, name, probe in entry_points:
            try:
                owner = importlib.import_module(f"tailaug.{module_name}")
            except ImportError:
                owner = None
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"tailaug.{module_name}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, probe))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self.absent.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, probe):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                record = self.spans[index]
                record[START] = start
                record[END] = end
            if probe is not None:
                record[EXTRA] = probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered_length(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


def _contexts(spans):
    """Per span, the enclosing CLI command and training stage (or None)."""
    command, stage = [], []
    for s in spans:
        parent = s[PARENT]
        name = s[NAME]
        command.append(name[4:] if name.startswith("cli.") else
                       (command[parent] if parent >= 0 else None))
        stage.append(STAGES.get(name) or (stage[parent] if parent >= 0 else None))
    return command, stage


def stage_seconds(spans) -> dict[str, float]:
    out = defaultdict(float)
    for s in spans:
        if s[NAME] in STAGES:
            out[STAGES[s[NAME]]] += s[END] - s[START]
    return dict(out)


def _step_durations(spans, stage_of, stage):
    """Time between consecutive optimizer steps of one stage, validation excluded.

    A step is everything from the end of one ``adam_step`` to the end of the
    next: batch assembly, stage-2 draws, loss and update.  The first step of
    a stage has no preceding boundary and is left out.
    """
    steps = [s for s, st in zip(spans, stage_of) if st == stage
             and s[NAME] == "training.adam_step"]
    validation = [(s[START], s[END]) for s, st in zip(spans, stage_of) if st == stage
                  and s[NAME] == "evaluation.validation_score"]
    return [b[END] - a[END] - covered_length(validation, a[END], b[END])
            for a, b in zip(steps, steps[1:])]


def layer_metrics(spans, n_users: int, n_items: int, absent=()) -> dict[str, tuple]:
    """Per-layer metrics of one traced pipeline, as ``name -> (value, unit)``."""
    selfs = self_times(spans)
    command_of, stage_of = _contexts(spans)
    by_name = defaultdict(list)
    dur = defaultdict(float)
    self_by_name = defaultdict(float)
    for i, (s, own) in enumerate(zip(spans, selfs)):
        by_name[s[NAME]].append(i)
        dur[s[NAME]] += s[END] - s[START]
        self_by_name[s[NAME]] += own

    def total(name, where=lambda i: True):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name] if where(i))

    def count(name, where=lambda i: True):
        return sum(1 for i in by_name[name] if where(i))

    def extras(name, where=lambda i: True):
        return [spans[i][EXTRA] for i in by_name[name]
                if where(i) and spans[i][EXTRA] is not None]

    m = {}
    m["corpus.load_s"] = (dur["corpus.load_interactions"], "s")
    m["corpus.k_core_s"] = (dur["corpus.k_core_filter"], "s")
    m["corpus.build_sequences_s"] = (dur["corpus.build_sequences"], "s")
    m["corpus.segment_s"] = (dur["corpus.segment"], "s")
    m["corpus.json_io_s"] = (dur["corpus.write_json"] + dur["corpus.read_json"], "s")
    m["corpus.json_bytes"] = (sum(extras("corpus.write_json") + extras("corpus.read_json")),
                              "bytes")

    m["simcand.interaction_matrix_s"] = (dur["simcand.build_interaction_matrix"], "s")
    m["simcand.solve_s"] = (dur["simcand.solve_similarity"], "s")
    m["simcand.topk_s"] = (dur["simcand.top_k_correlation"], "s")
    m["simcand.cooccurrence_s"] = (dur["simcand.build_cooccurrence"], "s")
    m["simcand.union_s"] = (dur["simcand.union_candidates"], "s")
    # one dense item x item float64 array; the solve holds several at once
    m["simcand.dense_bytes"] = (8 * n_items * n_items, "bytes_computed")
    m["simcand.capped_items"] = (sum(extras("simcand.solve_similarity")), "count")

    for stage_span, stage in STAGES.items():
        in_stage = lambda i, stage=stage: stage_of[i] == stage
        m[f"rand.derive_rng_calls.{stage}"] = (count("rand.derive_rng", in_stage), "count")
        m[f"rand.derive_rng_s.{stage}"] = (total("rand.derive_rng", in_stage), "s")
        steps = _step_durations(spans, stage_of, stage)
        m[f"training.steps.{stage}"] = (count("training.adam_step", in_stage), "count")
        m[f"training.step_s.p50.{stage}"] = (
            float(np.percentile(steps, 50)) if steps else 0.0, "s")
        m[f"training.step_s.p95.{stage}"] = (
            float(np.percentile(steps, 95)) if steps else 0.0, "s")
        m[f"training.batch_assembly_s.{stage}"] = (self_by_name[stage_span], "s")

    m["training.sample_negative_calls"] = (count("training.sample_negative"), "count")
    m["training.sample_negative_s"] = (dur["training.sample_negative"], "s")
    m["training.batch_loss_self_s"] = (self_by_name["training.batch_loss"], "s")
    m["training.adam_step_s"] = (dur["training.adam_step"], "s")
    m["training.validation_calls"] = (count("evaluation.validation_score"), "count")
    m["training.validation_s"] = (dur["evaluation.validation_score"], "s")

    in_training = lambda i: stage_of[i] is not None
    rows = extras("encoders.encode_batch", in_training)
    step_rows = sum(n * t for n, t, _ in rows)
    real_rows = sum(real for _, _, real in rows)
    m["encoders.encode_calls"] = (count("encoders.encode_batch"), "count")
    m["encoders.encode_s"] = (dur["encoders.encode_batch"], "s")
    m["encoders.backward_s"] = (dur["encoders.backward_batch"], "s")
    m["encoders.step_rows"] = (step_rows, "count")
    m["encoders.real_step_rows"] = (real_rows, "count")
    m["encoders.padding_useful_ratio"] = (real_rows / step_rows if step_rows else 0.0,
                                          "ratio")

    operators = extras("augment.augment_sequence")
    m["augment.augment_calls"] = (count("augment.augment_sequence"), "count")
    m["augment.augment_s"] = (dur["augment.augment_sequence"], "s")
    m["augment.insert_share"] = (
        sum(op == "insert" for op in operators) / len(operators) if operators else 0.0,
        "ratio")
    m["augment.plan_cross_s"] = (dur["augment.plan_cross_batch"], "s")

    in_evaluate = lambda i: command_of[i] == "evaluate"
    eval_rows = sum(n for n, _, _ in extras("encoders.encode_batch", in_evaluate))
    m["evaluation.rank_s"] = (total("evaluation.rank_users", in_evaluate), "s")
    m["evaluation.coverage_s"] = (dur["evaluation.tail_coverage_at_k"], "s")
    m["evaluation.encode_passes_per_user"] = (eval_rows / n_users if n_users else 0.0,
                                              "count")
    m["evaluation.score_bytes"] = (8 * eval_rows * n_items, "bytes_computed")

    m["serialize.write_blob_s"] = (dur["serialize.write_blob"], "s")
    m["serialize.read_blob_s"] = (dur["serialize.read_blob"], "s")
    m["serialize.blob_bytes"] = (
        sum(extras("serialize.write_blob") + extras("serialize.read_blob")), "bytes")

    for command in COMMANDS:
        m[f"cli.{command}_self_s"] = (self_by_name[f"cli.{command}"], "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(v for name, v in self_by_name.items() if name.split(".")[0] == module), "s")

    command_time = sum(dur[f"cli.{c}"] for c in COMMANDS)
    command_self = sum(self_by_name[f"cli.{c}"] for c in COMMANDS)
    m["trace.coverage"] = (1.0 - command_self / command_time if command_time else 0.0,
                           "ratio")
    m["trace.spans"] = (len(spans), "count")
    m["trace.absent_entry_points"] = (len(absent), "count")
    return m
