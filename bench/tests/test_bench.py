"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = replace(
    workloads.WORKLOADS["long-gru"], name="tiny",
    log=workloads.LogShape(n_users=150, n_items=60, n_topics=4, mean_extra_len=8.0),
    train=("--encoder", "gru", "--dim", "8", "--batch-size", "64",
           "--stage1-epochs", "1", "--stage2-epochs", "1",
           "--learning-rate", "0.003", "--patience", "100"),
)


@pytest.fixture(autouse=True)
def one_setup_repeat(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, extra]


# ----------------------------------------------------------- self time

def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1, 4), (3, 6), (9, 12)], 0, 10) == 6
    assert spans.covered_length([(2, 3), (1, 5)], 0, 10) == 4
    assert spans.covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert spans.covered_length([], 0, 10) == 0


def test_self_time_with_nested_and_overlapping_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),   # nested: only counts against "a"
        _span("b", 3.0, 6.0, 0),         # overlaps "a"
        _span("c", 9.0, 12.0, 0),        # runs past the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_attribute_stage_and_command():
    tree = [
        _span("cli.train", 0.0, 10.0, -1),
        _span("training.train_stage1", 1.0, 9.0, 0),
        _span("rand.derive_rng", 1.0, 2.0, 1),
        _span("training.adam_step", 2.0, 3.0, 1),
        _span("training.adam_step", 4.0, 5.0, 1),
        _span("evaluation.validation_score", 5.0, 6.0, 1),
        _span("training.adam_step", 7.0, 8.0, 1),
    ]
    m = spans.layer_metrics(tree, n_users=10, n_items=5)
    assert m["rand.derive_rng_calls.stage1"] == (1, "count")
    assert m["rand.derive_rng_calls.stage2"] == (0, "count")
    assert m["training.steps.stage1"] == (3, "count")
    # steps end at 3, 5, 8; the validation second between them is excluded
    assert m["training.step_s.p50.stage1"][0] == pytest.approx(2.0)
    assert m["training.batch_assembly_s.stage1"][0] == pytest.approx(3.0)
    assert m["cli.train_self_s"][0] == pytest.approx(2.0)
    assert m["trace.coverage"][0] == pytest.approx(0.8)


# --------------------------------------------------------- entry points

def test_missing_entry_point_is_absent_not_an_error():
    from tailaug import training
    original = training.adam_step
    tracer = spans.Tracer()
    tracer.install([
        ("training", "adam_step", "training.adam_step", None),
        ("training", "no_such_entry_point", "training.gone", None),
        ("no_such_module", "anything", "gone.anything", None),
    ])
    try:
        assert training.adam_step is not original
        assert tracer.absent == ["tailaug.training.no_such_entry_point",
                                 "tailaug.no_such_module.anything"]
    finally:
        absent = list(tracer.absent)
        tracer.uninstall()
    assert training.adam_step is original
    m = spans.layer_metrics([_span("cli.train", 0.0, 1.0, -1)], 1, 1, absent)
    assert m["trace.absent_entry_points"] == (2, "count")
    assert m["training.adam_step_s"] == (0.0, "s")


def test_wrapper_records_span_and_probe():
    tracer = spans.Tracer()
    wrapped = tracer._wrap(lambda model, seqs: len(seqs), "encoders.encode_batch",
                           spans._encode_rows)
    with tracer.span("cli.train"):
        assert wrapped(None, [[1, 2, 3], [4]]) == 2
    (outer, inner) = tracer.spans
    assert inner[spans.PARENT] == 0 and inner[spans.EXTRA] == (2, 3, 4)
    assert outer[spans.START] <= inner[spans.START] <= inner[spans.END] <= outer[spans.END]


# ------------------------------------------------------------ harness

def test_generator_is_seeded():
    shape = TINY.log
    a = workloads.generate_log(shape, 3)
    b = workloads.generate_log(shape, 3)
    c = workloads.generate_log(shape, 4)
    assert all((x == y).all() for x, y in zip(a, b))
    assert not all(len(x) == len(y) and (x == y).all() for x, y in zip(a, c))


def test_seeds_relabel_one_structure():
    a = workloads.generate_log(TINY.log, 3)
    c = workloads.generate_log(TINY.log, 4)
    for x, y in zip(a, c):
        assert sorted(np.bincount(x)) == sorted(np.bincount(y))
    per_user = lambda users, stamps: sorted(np.bincount(users, weights=stamps))
    assert per_user(a[0], a[2]) == per_user(c[0], c[2])


def test_pipeline_scales_each_command_by_the_probe(tmp_path):
    from tailaug import cli
    csv = tmp_path / "log.csv"
    workloads.write_log_csv(csv, *workloads.generate_log(TINY.log, 1))
    times, scales = run.Run(cli, TINY, csv, tmp_path / "artifacts").pipeline(spans.Tracer())
    assert set(times) == set(scales) == set(spans.COMMANDS)
    assert all(t > 0 for t in times.values()) and all(v > 0 for v in scales.values())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_workload_smoke(tmp_path, trace, kind):
    context, result = run.run_workload(TINY, seed=1, seconds=0.1, trace=trace,
                                       root=tmp_path)
    assert result["correct"], context["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 8
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared(kind)
    assert context["digest"]["digest"]
    assert not list((tmp_path / run.OUT_DIR).glob("work-*"))
    if trace:
        assert context["pipelines"] == {"untraced": 1, "traced": 1}
        assert result["metrics"]["training.validation_calls"]["value"] == 2
        assert 0 < context["shape"]["padding_useful_ratio"] <= 1


@pytest.mark.parametrize("candidates", [
    ("--k", "0"),                     # config error: main returns 2
    ("--k", "10", "--no-such-flag"),  # unknown flag: argparse raises SystemExit(2)
])
def test_failing_command_counts_as_failed_operation(tmp_path, candidates):
    broken = replace(TINY, candidates=candidates)
    context, result = run.run_workload(broken, seed=1, seconds=0.1, trace=0,
                                       root=tmp_path)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert context["failures"][0].startswith("command.candidates: exit 2")
    assert result["metrics"] == {}


def test_failing_setup_import_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run.sys, "executable", shutil.which("false"))
    context, result = run.run_workload(TINY, seed=1, seconds=0.1, trace=0,
                                       root=tmp_path)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert context["failures"][0].startswith("setup.import: exit 1")
    assert context["pipelines"] == {"untraced": 0, "traced": 0}


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    from tailaug import cli
    work = tmp_path_factory.mktemp("tiny")
    csv = work / "log.csv"
    workloads.write_log_csv(csv, *workloads.generate_log(TINY.log, 1))
    harness = run.Run(cli, TINY, csv, work / "artifacts")
    assert harness.pipeline(spans.Tracer()) is not None, harness.failures
    return checks.Artifacts(harness.out_dir, run.TRAIN_SEED)


def test_checks_pass_on_real_outputs(tiny_artifacts):
    from tailaug.training import load_checkpoint
    results = (checks.cheap_checks(tiny_artifacts)
               + checks.check_reference(tiny_artifacts, load_checkpoint))
    assert [r for r in results if not r[1]] == []


def test_reference_detects_a_wrong_report(tiny_artifacts, tmp_path):
    from tailaug.training import load_checkpoint
    report = json.loads(tiny_artifacts.report.read_text())
    report["segments"]["overall"]["hit@10"] += 1.0 / report["segments"]["overall"]["count"]
    report["segments"]["overall"]["ndcg@10"] += 1e-9
    tampered = tmp_path / "artifacts"
    tampered.mkdir()
    for path in tiny_artifacts.out_dir.iterdir():
        (tampered / path.name).write_bytes(path.read_bytes())
    art = checks.Artifacts(tampered, tiny_artifacts.seed)
    art.report.write_text(json.dumps(report))
    results = dict((name, ok) for name, ok, _ in checks.check_reference(art, load_checkpoint))
    assert results == {"reference.hit@10": False, "reference.ndcg@10": False}


def test_range_checks_flag_bad_values(tiny_artifacts, tmp_path):
    cands = json.loads(tiny_artifacts.candidates.read_text())
    cands["c"][0] = [1] + cands["c"][0]
    cands["cr"][1] = cands["cr"][1][:-1]
    report = json.loads(tiny_artifacts.report.read_text())
    report["segments"]["overall"]["hit@20"] = 0.0
    report["tcov"]["5"] = float("nan")
    art = checks.Artifacts(tmp_path, tiny_artifacts.seed)
    art.candidates.write_text(json.dumps(cands))
    art.report.write_text(json.dumps(report))
    art.losses.write_text(json.dumps({"epoch": 0, "loss_total": float("inf")}) + "\n")
    failed = {name for name, ok, _ in checks.cheap_checks(art) if not ok}
    assert failed == {"candidates.no_self", "candidates.cr_length", "losses.finite",
                      "report.ranges"}


def test_refuses_a_directory_without_the_source_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "desk-gru", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_declared_workloads_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
