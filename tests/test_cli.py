import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tailaug import cli, corpus, evaluation, serialize, simcand, synth
from tailaug.cli import main
from tailaug.config import DEFAULTS, config_hash, load_config
from tailaug.errors import ConfigError


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "log.csv"
    log = synth.generate_interactions(n_users=120, n_items=60, n_topics=5, seed=21)
    synth.write_csv(path, log)
    return path


def _prepare(out_dir, csv_path, extra=()):
    return main(["prepare", "--input", str(csv_path), "--out-dir", str(out_dir),
                 "--k-core", "3", "--max-len", "20", *extra])


FAST_TRAIN = ["--dim", "8", "--encoder", "pooled", "--batch-size", "32",
              "--stage1-epochs", "2", "--stage2-epochs", "2",
              "--patience", "-1"]


class TestPrepare:
    def test_writes_three_artifacts(self, tmp_path, csv_path, capsys):
        # the store is the one artifact; segmentation and stats are derived from it
        assert _prepare(tmp_path, csv_path) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
        out = capsys.readouterr().out
        assert "users=" in out and "sparsity=" in out and "head_items=" in out

    def test_rerun_is_byte_identical(self, tmp_path, csv_path):
        _prepare(tmp_path / "a", csv_path)
        _prepare(tmp_path / "b", csv_path)
        assert (tmp_path / "a" / "store.json").read_bytes() == \
            (tmp_path / "b" / "store.json").read_bytes()

    def test_invalid_beta_fails_before_io(self, tmp_path, capsys):
        # no store exists; config must be rejected first
        code = main(["train", "--out-dir", str(tmp_path / "none"), "--beta", "1.2"])
        assert code == 2
        assert "augment.beta" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("argv, key", [
        (["prepare", "--input", "missing.csv", "--sample-users", "-5"],
         "corpus.sample_users"),
        (["train", "--stage1-epochs", "-1"], "train.stage1_epochs"),
        (["train", "--stage2-epochs", "-2"], "train.stage2_epochs"),
        (["train", "--encoder", "lstm"], "model.encoder"),
        (["prepare", "--input", "missing.csv", "--delimiter", ""], "corpus.delimiter"),
        (["evaluate", "--ks", "10,10,5"], "eval.ks"),
        (["candidates", "--ridge-penalty", "nan"], "simcand.ridge_penalty"),
        (["train", "--alpha", "nan"], "augment.alpha"),
        (["train", "--learning-rate", "nan"], "train.learning_rate"),
        (["train", "--learning-rate", "inf"], "train.learning_rate"),
        (["train", "--learning-rate", "0"], "train.learning_rate"),
        (["train", "--batch-size", "0"], "train.batch_size"),
        (["train", "--a", "0.9", "--b", "0.8"], "augment.a"),
        (["candidates", "--diag-cap", "1.0"], "simcand.diag_cap"),
        (["train", "--seeds", "1,2", "--trace", "trace.jsonl"], "--trace"),
        (["train", "--mode", "baseline", "--trace", "trace.jsonl"], "--trace"),
        (["train", "--seeds", "1,1"], "--seeds repeats a seed"),
        (["evaluate", "--seeds", "1,2,1"], "--seeds repeats a seed"),
        (["prepare", "--input", "missing.csv", "--seed", "-1", "--sample-users", "50"],
         "seed must be >= 0"),
        (["prepare", "--input", "missing.csv", "--seed", "-1"], "seed must be >= 0"),
        (["train", "--seed", "-2"], "seed must be >= 0"),
        (["train", "--seeds=-2"], "--seeds must be >= 0"),
        (["evaluate", "--seeds=-2"], "--seeds must be >= 0"),
    ])
    def test_negative_count_fails_before_io(self, tmp_path, capsys, argv, key):
        # neither the input nor the prepared artifacts exist
        code = main([*argv, "--out-dir", str(tmp_path / "none")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("key, value", [("corpus.k_core", True),
                                            ("simcand.diag_cap", False),
                                            ("corpus.k_core", float("inf")),
                                            ("corpus.k_core", 2.7),
                                            ("eval.ks", [5, 10.5])],
                             ids=["bool-int", "bool-float", "inf-int", "float-int",
                                  "float-int-list"])
    def test_non_numeric_config_value_fails_before_io(self, tmp_path, capsys, key, value):
        # JSON true/false would otherwise read as 1/0, Infinity overflows int,
        # and int() would truncate 2.7 to 2
        section, name = key.split(".")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({section: {name: value}}))
        code = main(["prepare", "--input", str(tmp_path / "missing.csv"),
                     "--out-dir", str(tmp_path / "none"), "--config", str(config)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_too_aggressive_kcore_is_data_error(self, tmp_path, csv_path, capsys):
        code = main(["prepare", "--input", str(csv_path), "--out-dir",
                     str(tmp_path), "--k-core", "500"])
        assert code == 3
        assert "sparse" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_is_data_error(self, tmp_path, csv_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert _prepare(taken, csv_path) == 3
        assert "cannot create output directory" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    def test_sample_users_shrinks_corpus(self, tmp_path, csv_path):
        _prepare(tmp_path, csv_path, extra=["--sample-users", "40"])
        store = json.loads((tmp_path / "store.json").read_text())
        assert len(store["users"]) <= 40

    @pytest.mark.parametrize("extra, digests", [
        (["--sample-users", "40"], ("22985718421b140c",)),
        (["--sample-users", "40", "--seed", "5"], ("350d9e6a73e981eb",)),
    ])
    def test_sample_users_artifacts_are_pinned(self, tmp_path, csv_path, extra, digests):
        # sha256 prefix of this log's store.json; but for its lineage id it is
        # the store the row-wise prepare wrote, byte for byte
        assert _prepare(tmp_path, csv_path, extra=extra) == 0
        assert (hashlib.sha256((tmp_path / "store.json").read_bytes()).hexdigest()[:16],) \
            == digests

    def test_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        # numerically equal ids once took their order from set iteration
        ids = ["7", "07", "007", "8", "08", "9"]
        csv = tmp_path / "log.csv"
        csv.write_text("".join(f"{u},{v},0\n" for u, v in itertools.product(ids, ids)))
        src = Path(cli.__file__).resolve().parents[1]
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            out = tmp_path / seed
            subprocess.run([sys.executable, "-m", "tailaug.cli", "prepare", "--input",
                            str(csv), "--out-dir", str(out), "--k-core", "1"],
                           env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
                           check=True, capture_output=True, timeout=120)
            outputs.add((out / "store.json").read_bytes())
        assert len(outputs) == 1


class TestCandidates:
    def test_requires_prepare(self, tmp_path, capsys):
        code = main(["candidates", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "prepare" in capsys.readouterr().err

    def test_builds_and_persists(self, tmp_path, csv_path):
        _prepare(tmp_path, csv_path)
        assert main(["candidates", "--out-dir", str(tmp_path), "--k", "5"]) == 0
        assert (tmp_path / "candidates.json").exists()

    def test_stdout_line_reports_tail_shares(self, tmp_path, csv_path, capsys):
        _prepare(tmp_path, csv_path)
        capsys.readouterr()
        assert main(["candidates", "--out-dir", str(tmp_path), "--k", "5"]) == 0
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(
            r"candidates for (\d+) items: mean \|c_v\|=\d+\.\d min=\d+ max=\d+; "
            r"tail share of head/tail items' sets=(\d\.\d{3})/(\d\.\d{3}); "
            r"solver branches=\{'capped': \d+, 'uncapped': \d+\} precision=float32; "
            r"lineage=\S+", line)
        assert match, line
        # per owner segment: tail members over all members, pooled over its sets
        store, _ = cli._load_prepared(tmp_path)
        seg = corpus.segment(store)
        cands, _ = serialize.load(tmp_path / "candidates.json", simcand.CANDIDATES_SCHEMA,
                                  simcand.CandidateSets.from_fields)
        pooled = {True: [0, 0], False: [0, 0]}
        for v, members in enumerate(corpus.id_rows(*cands.c), start=1):
            for m in members:
                pooled[v in seg.head_items][0] += m in seg.tail_items
                pooled[v in seg.head_items][1] += 1
        assert int(match[1]) == store.n_items
        assert match[2] == f"{pooled[True][0] / pooled[True][1]:.3f}"
        assert match[3] == f"{pooled[False][0] / pooled[False][1]:.3f}"

    def test_default_k_from_config(self):
        assert DEFAULTS["simcand.k"] == 10

    def test_failed_factorization_is_numeric_failure(self, tmp_path, csv_path,
                                                     monkeypatch, capsys):
        _prepare(tmp_path, csv_path)
        # the default ridge is well conditioned, so the solve runs in float32
        monkeypatch.setattr("scipy.linalg.lapack.spotrf", lambda a, **kwargs: (a, 1))
        assert main(["candidates", "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "eigenvalue range" in err
        assert "spotrf info 1" in err
        assert not (tmp_path / "candidates.json").exists()

    def test_tiny_ridge_reports_float64_solve(self, tmp_path, csv_path, capsys):
        _prepare(tmp_path, csv_path)
        capsys.readouterr()
        assert main(["candidates", "--out-dir", str(tmp_path), "--ridge-penalty", "1e-6"]) == 0
        assert "precision=float64;" in capsys.readouterr().out


class TestTrainEvaluate:
    def test_full_pipeline_under_a_minute(self, tmp_path, csv_path, capsys):
        t0 = time.perf_counter()
        _prepare(tmp_path, csv_path)
        assert main(["candidates", "--out-dir", str(tmp_path), "--k", "5"]) == 0
        assert main(["train", "--out-dir", str(tmp_path), "--mode", "augmented",
                     "--seed", "1", *FAST_TRAIN]) == 0
        assert main(["evaluate", "--out-dir", str(tmp_path), "--mode", "augmented",
                     "--seed", "1"]) == 0
        assert time.perf_counter() - t0 < 60
        out = capsys.readouterr().out
        assert "Overall" in out and "Tail Item" in out
        assert (tmp_path / "checkpoint_augmented_seed1.bin").exists()
        assert (tmp_path / "losses_augmented_seed1.jsonl").exists()
        assert (tmp_path / "checkpoint_augmented_seed1_report_test.json").exists()

    def test_missing_candidates_is_actionable(self, tmp_path, csv_path, capsys):
        _prepare(tmp_path, csv_path)
        code = main(["train", "--out-dir", str(tmp_path), "--mode", "augmented",
                     *FAST_TRAIN])
        assert code == 3
        assert "candidates" in capsys.readouterr().err

    def test_baseline_needs_no_candidates(self, tmp_path, csv_path):
        _prepare(tmp_path, csv_path)
        assert main(["train", "--out-dir", str(tmp_path), "--mode", "baseline",
                     "--seed", "2", *FAST_TRAIN]) == 0

    def test_fixed_seed_identical_checkpoints(self, tmp_path, csv_path):
        _prepare(tmp_path, csv_path)
        main(["candidates", "--out-dir", str(tmp_path), "--k", "5"])
        ckpts = []
        for run in ("x", "y"):
            code = main(["train", "--out-dir", str(tmp_path), "--mode",
                         "augmented", "--seed", "3", *FAST_TRAIN])
            assert code == 0
            ckpts.append((tmp_path / "checkpoint_augmented_seed3.bin").read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_lineage_mismatch_refused_unless_forced(self, tmp_path, csv_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _prepare(a, csv_path)
        _prepare(b, csv_path, extra=["--sample-users", "40"])
        main(["candidates", "--out-dir", str(a), "--k", "5"])
        # swap in candidates built against a different prepared corpus
        (b / "candidates.json").write_bytes((a / "candidates.json").read_bytes())
        code = main(["train", "--out-dir", str(b), "--mode", "augmented",
                     *FAST_TRAIN])
        assert code == 3
        assert "lineage" in capsys.readouterr().err

    def test_evaluate_refuses_foreign_checkpoint(self, tmp_path, csv_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _prepare(a, csv_path)
        # same corpus, different prepare seed -> different lineage id but
        # an identical item universe
        _prepare(b, csv_path, extra=["--seed", "3"])
        main(["candidates", "--out-dir", str(a), "--k", "5"])
        main(["train", "--out-dir", str(a), "--mode", "augmented", "--seed", "9",
              *FAST_TRAIN])
        ckpt = a / "checkpoint_augmented_seed9.bin"
        code = main(["evaluate", "--out-dir", str(b), "--checkpoint", str(ckpt)])
        assert code == 3
        assert "lineage" in capsys.readouterr().err
        assert main(["evaluate", "--out-dir", str(b), "--checkpoint", str(ckpt),
                     "--force"]) == 0

    def test_beta_sweep_reuses_prepare_and_candidates(self, pipeline_dir, tmp_path):
        # beta is a train key: sweeping it leaves the store and candidates valid
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        upstream = {name: (out / name).read_bytes() for name in ("store.json", "candidates.json")}
        params = []
        for beta in ("0.05", "0.95"):
            assert main(["train", "--out-dir", str(out), "--seed", "1", *FAST_TRAIN,
                         "--beta", beta]) == 0
            sections, meta = serialize.read_blob(out / CHECKPOINT)
            assert meta["config"]["augment.beta"] == float(beta)
            params.append(sections)
        assert {name: (out / name).read_bytes() for name in upstream} == upstream
        assert any(not np.array_equal(params[0][k], params[1][k]) for k in params[0])

    def test_seed_sweep_writes_mean_report(self, tmp_path, csv_path, capsys):
        _prepare(tmp_path, csv_path)
        main(["candidates", "--out-dir", str(tmp_path), "--k", "5"])
        assert main(["train", "--out-dir", str(tmp_path), "--mode", "augmented",
                     "--seeds", "1,2", *FAST_TRAIN]) == 0
        assert main(["evaluate", "--out-dir", str(tmp_path), "--mode", "augmented",
                     "--seeds", "1,2"]) == 0
        assert (tmp_path / "report_augmented_mean_test.json").exists()
        assert "mean over 2 checkpoints" in capsys.readouterr().out

    @pytest.mark.parametrize("spelling", ["same", "dotdot"])
    def test_repeated_checkpoint_is_config_error(self, spelling, pipeline_dir, tmp_path,
                                                 capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / REPORT).unlink()
        again = {"same": out, "dotdot": out / ".." / out.name}[spelling] / CHECKPOINT
        code = main(["evaluate", "--out-dir", str(out),
                     "--checkpoint", str(out / CHECKPOINT), str(again)])
        assert code == 2
        assert "--checkpoint repeats a file" in capsys.readouterr().err
        assert not (out / REPORT).exists()
        assert not (out / "report_augmented_mean_test.json").exists()

    def test_seeds_with_checkpoint_is_config_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / REPORT).unlink()
        for seeds in ("--seeds=1", "--seeds=-2"):
            code = main(["evaluate", "--out-dir", str(out), "--checkpoint",
                         str(out / CHECKPOINT), seeds])
            assert code == 2
            assert "--seeds" in capsys.readouterr().err
            assert not (out / REPORT).exists()

    @pytest.mark.parametrize("extra", [[], ["--seeds", "1"]], ids=["alone", "with-seeds"])
    def test_checkpoint_without_a_path_is_config_error(self, extra, pipeline_dir, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / REPORT).unlink()
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--out-dir", str(out), "--checkpoint", *extra])
        assert exc.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not (out / REPORT).exists()

    def test_mixed_modes_are_config_error_before_any_report(self, pipeline_dir, tmp_path,
                                                            capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        for report in out.glob("*report*"):
            report.unlink()
        assert main(["train", "--out-dir", str(out), "--mode", "baseline", "--seed", "2",
                     *FAST_TRAIN]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--out-dir", str(out), "--checkpoint",
                     str(out / "checkpoint_baseline_seed2.bin"), str(out / CHECKPOINT)])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint_baseline_seed2.bin=baseline" in err
        assert f"{CHECKPOINT}=augmented" in err
        assert not list(out.glob("*report*"))

    def test_mean_report_is_named_after_the_recorded_mode(self, pipeline_dir, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert main(["train", "--out-dir", str(out), "--mode", "baseline", "--seeds", "2,3",
                     *FAST_TRAIN]) == 0
        # --mode keeps its default, augmented; the checkpoints record baseline
        assert main(["evaluate", "--out-dir", str(out), "--checkpoint",
                     *(str(out / f"checkpoint_baseline_seed{s}.bin") for s in (2, 3))]) == 0
        assert "mean over 2 checkpoints" in capsys.readouterr().out
        assert (out / "report_baseline_mean_test.json").exists()
        assert not (out / "report_augmented_mean_test.json").exists()

    def test_unwritable_trace_fails_before_training(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        for trained in [*out.glob("checkpoint_*"), *out.glob("losses_*")]:
            trained.unlink()
        code = main(["train", "--out-dir", str(out), "--seeds", "1", *FAST_TRAIN,
                     "--trace", str(tmp_path / "nodir" / "t.jsonl")])
        assert code == 3
        assert "cannot write trace" in capsys.readouterr().err
        assert not list(out.glob("checkpoint_*")) and not list(out.glob("losses_*"))

    def test_trace_does_not_depend_on_batch_size(self, pipeline_dir, tmp_path):
        traces = []
        for batch_size in ("7", "256"):
            out = tmp_path / f"bs{batch_size}"
            shutil.copytree(pipeline_dir, out)
            trace = out / "trace.jsonl"
            assert main(["train", "--out-dir", str(out), "--seed", "1", *FAST_TRAIN,
                         "--batch-size", batch_size, "--trace", str(trace)]) == 0
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1] and traces[0].count(b"\n") > 100

    def test_stage2_with_both_losses_off_is_baseline(self, pipeline_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        for mode, extra in (("augmented", ["--no-operator-loss", "--no-cross-loss"]),
                            ("baseline", [])):
            assert main(["train", "--out-dir", str(out), "--mode", mode, "--seed", "5",
                         *FAST_TRAIN, *extra]) == 0
        off, off_meta = serialize.read_blob(out / "checkpoint_augmented_seed5.bin")
        base, base_meta = serialize.read_blob(out / "checkpoint_baseline_seed5.bin")
        assert off_meta["config"]["train.operator_loss"] is False
        assert off_meta["config"]["train.cross_loss"] is False
        assert sorted(off) == sorted(base) and off_meta["epoch"] == base_meta["epoch"]
        for name in base:
            np.testing.assert_array_equal(off[name], base[name])
        assert (out / "losses_augmented_seed5.jsonl").read_bytes() == \
            (out / "losses_baseline_seed5.jsonl").read_bytes()

    def test_fresh_model_chance_level(self, tmp_path, csv_path):
        # evaluating an effectively untrained model lands near K/|V|
        _prepare(tmp_path, csv_path)
        main(["candidates", "--out-dir", str(tmp_path), "--k", "5"])
        assert main(["train", "--out-dir", str(tmp_path), "--mode", "baseline",
                     "--seed", "4", "--dim", "8", "--encoder", "pooled",
                     "--batch-size", "32", "--stage1-epochs", "0",
                     "--stage2-epochs", "0", "--patience", "-1",
                     "--learning-rate", "1e-9"]) == 0
        assert main(["evaluate", "--out-dir", str(tmp_path), "--mode", "baseline",
                     "--seed", "4"]) == 0
        report = json.loads(
            (tmp_path / "checkpoint_baseline_seed4_report_test.json").read_text())
        store = json.loads((tmp_path / "store.json").read_text())
        chance = 10 / len(store["items"])
        assert report["segments"]["overall"]["hit@10"] <= 5 * chance


STARTUP_SCRIPT = """
import json, sys
from tailaug.cli import main

out, fast_train = sys.argv[1], sys.argv[2:]
loaded = {}

def note(step):
    loaded[step] = sorted(m for m in sys.modules if m.startswith("scipy"))

note("import")
for step, argv in [
        ("synth", ["synth", "--out", f"{out}/log.csv", "--users", "120", "--items", "60"]),
        ("prepare", ["prepare", "--input", f"{out}/log.csv", "--out-dir", out,
                     "--k-core", "3", "--max-len", "20"]),
        ("train", ["train", "--out-dir", out, "--mode", "baseline", "--seed", "1",
                   *fast_train]),
        ("evaluate", ["evaluate", "--out-dir", out, "--mode", "baseline", "--seed", "1"]),
        ("report", ["report", f"{out}/checkpoint_baseline_seed1_report_test.json"])]:
    assert main(argv) == 0, step
    note(step)
print(json.dumps(loaded))
"""


class TestStartup:
    def test_only_candidates_loads_scipy(self, tmp_path):
        # scipy costs about half of a fresh process's start-up; only the
        # similarity solve of `candidates` may import it
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path),
                               *FAST_TRAIN],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert list(loaded) == ["import", "synth", "prepare", "train", "evaluate", "report"]
        assert loaded == {step: [] for step in loaded}


class TestReportCommand:
    def test_aggregates_mean(self, tmp_path, csv_path, capsys):
        _prepare(tmp_path, csv_path)
        main(["candidates", "--out-dir", str(tmp_path), "--k", "5"])
        main(["train", "--out-dir", str(tmp_path), "--mode", "augmented",
              "--seeds", "1,2", *FAST_TRAIN])
        main(["evaluate", "--out-dir", str(tmp_path), "--mode", "augmented",
              "--seeds", "1,2"])
        r1 = tmp_path / "checkpoint_augmented_seed1_report_test.json"
        r2 = tmp_path / "checkpoint_augmented_seed2_report_test.json"
        out_path = tmp_path / "mean.json"
        assert main(["report", str(r1), str(r2), "--out", str(out_path)]) == 0
        merged = json.loads(out_path.read_text())
        a = json.loads(r1.read_text())["segments"]["overall"]["hit@10"]
        b = json.loads(r2.read_text())["segments"]["overall"]["hit@10"]
        assert merged["segments"]["overall"]["hit@10"] == pytest.approx((a + b) / 2)
        # mean reports carry the prepare lineage, so they are valid inputs
        for mean in (out_path, tmp_path / "report_augmented_mean_test.json"):
            assert main(["report", str(mean)]) == 0

    def test_refuses_to_average_phases(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        assert main(["evaluate", "--out-dir", str(out), "--seed", "1",
                     "--phase", "valid"]) == 0
        valid = out / REPORT.replace("_test", "_valid")
        capsys.readouterr()
        assert main(["report", str(out / REPORT), str(valid),
                     "--out", str(out / "m.json")]) == 3
        assert "phase" in capsys.readouterr().err
        assert not (out / "m.json").exists()


COMMAND_OF_SECTION = {"corpus": "prepare", "simcand": "candidates", "model": "train",
                      "train": "train", "augment": "train", "eval": "evaluate"}
OTHER_VALUE = {"corpus.delimiter": ";", "model.encoder": "pooled", "eval.ks": [3, 7]}


def _flag_for(key):
    """The flag arguments that set ``key`` to a valid non-default value, and that value."""
    default = DEFAULTS[key]
    name = "--" + key.rpartition(".")[2].replace("_", "-")
    if isinstance(default, bool):
        return [name if not default else name.replace("--", "--no-")], not default
    if key in OTHER_VALUE:
        value = OTHER_VALUE[key]
    else:
        value = default / 2 if isinstance(default, float) else default + 1
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return [name, text], value


class TestConfigFile:
    def test_key_value_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("corpus.k_core = 3\ntrain.batch_size = 16\n# comment\n")
        cfg = load_config(p)
        assert cfg["corpus.k_core"] == 3 and cfg["train.batch_size"] == 16

    def test_nested_json_file(self, tmp_path):
        p = tmp_path / "run.json"
        # an integral float is an integer: 16.0 loads as 16
        p.write_text(json.dumps({"corpus": {"k_core": 4}, "eval": {"ks": [5, 10.0]},
                                 "train": {"batch_size": 16.0}}))
        cfg = load_config(p)
        assert cfg["corpus.k_core"] == 4 and cfg["eval.ks"] == [5, 10]
        assert cfg["train.batch_size"] == 16 and type(cfg["train.batch_size"]) is int

    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_old_corpus_beta_key_is_config_error(self, command, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("corpus.beta = 0.4\n")
        extra = ["--input", "missing.csv"] if command == "prepare" else []
        assert main([command, "--out-dir", str(tmp_path / "none"), "--config", str(config),
                     *extra]) == 2
        assert "'corpus.beta'" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("corpus.bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(p)

    def test_flag_overrides_file(self, tmp_path, csv_path):
        p = tmp_path / "run.cfg"
        p.write_text("corpus.k_core = 2\n")
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(csv_path), "--out-dir", str(out),
                     "--config", str(p), "--k-core", "3", "--max-len", "20"]) == 0

    def test_config_hash_stable(self):
        cfg = dict(DEFAULTS)
        assert config_hash(cfg) == config_hash(dict(reversed(cfg.items())))

    def test_stock_hyperparameter_defaults(self):
        # the standard experimental settings this pipeline ships with
        assert DEFAULTS["model.dim"] == 64
        assert DEFAULTS["train.batch_size"] == 256
        assert DEFAULTS["train.learning_rate"] == pytest.approx(0.001)
        assert DEFAULTS["eval.ks"] == [5, 10, 20]
        assert DEFAULTS["corpus.k_core"] == 5
        assert DEFAULTS["corpus.max_len"] == 50
        assert DEFAULTS["simcand.k"] == 10
        assert 0.1 <= DEFAULTS["augment.a"] <= 0.3
        assert 0.5 <= DEFAULTS["augment.b"] <= 0.8
        assert 0.1 <= DEFAULTS["augment.alpha"] <= 0.5
        assert 0.4 <= DEFAULTS["augment.beta"] <= 0.6

    @pytest.mark.parametrize("key", [k for k in DEFAULTS if k != "seed"])
    def test_every_key_has_a_flag(self, key, tmp_path, monkeypatch):
        loaded = {}

        def spy(path, overrides):
            loaded.update(load_config(path, overrides))
            raise ConfigError("stop before any I/O")

        monkeypatch.setattr(cli, "load_config", spy)
        command = COMMAND_OF_SECTION[key.partition(".")[0]]
        flag, value = _flag_for(key)
        extra = ["--input", "missing.csv"] if command == "prepare" else []
        assert main([command, "--out-dir", str(tmp_path), *flag, *extra]) == 2
        assert loaded[key] == value and loaded[key] != DEFAULTS[key]

    @pytest.mark.parametrize("command, owned", [
        ("prepare", ["seed"] + [k for k in DEFAULTS if k.startswith("corpus.")]),
        ("candidates", [k for k in DEFAULTS if k.startswith("simcand.")]),
    ], ids=["prepare", "candidates"])
    def test_lineage_hash_covers_every_section_key(self, command, owned, csv_path,
                                                   tmp_path, monkeypatch):
        hashed = []

        def spy(cfg, keys):
            hashed.append((cfg, keys))
            return config_hash(cfg, keys)

        monkeypatch.setattr(cli, "config_hash", spy)
        assert _prepare(tmp_path, csv_path) == 0
        if command == "candidates":
            hashed.clear()
            assert main(["candidates", "--out-dir", str(tmp_path)]) == 0
        [(cfg, keys)] = hashed
        hashes = {config_hash(cfg, keys)}
        hashes.update(config_hash({**cfg, key: _flag_for(key)[1]}, keys) for key in owned)
        assert len(hashes) == len(owned) + 1

    def test_synth_subcommand(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(out), "--users", "30",
                     "--items", "20"]) == 0
        assert out.exists() and len(out.read_text().splitlines()) > 50

    @pytest.mark.parametrize("users, items", [(-3, 20), (0, 20), (30, 0),
                                              (30, synth.N_TOPICS - 1)])
    def test_synth_sizes_out_of_range_are_config_errors(self, users, items, tmp_path,
                                                         capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(out), "--users", str(users),
                     "--items", str(items)]) == 2
        assert "synth needs" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(out), "--users", "30", "--items", "20",
                     "--seed", "-1"]) == 2
        assert "--seed >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_smallest_catalog(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(out), "--users", "1",
                     "--items", str(synth.N_TOPICS)]) == 0
        assert len(out.read_text().splitlines()) >= 3


# ---------------------------------------------------------- fault injection

@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, csv_path):
    """One finished prepare -> candidates -> train -> evaluate run (seed 1)."""
    out = tmp_path_factory.mktemp("pipeline")
    assert _prepare(out, csv_path) == 0
    assert main(["candidates", "--out-dir", str(out), "--k", "5"]) == 0
    assert main(["train", "--out-dir", str(out), "--seed", "1", *FAST_TRAIN]) == 0
    assert main(["evaluate", "--out-dir", str(out), "--seed", "1"]) == 0
    return out


CHECKPOINT = "checkpoint_augmented_seed1.bin"
REPORT = "checkpoint_augmented_seed1_report_test.json"


def test_pipeline_leaves_only_what_is_read_or_reported(pipeline_dir):
    # an artifact that no command reads must not quietly come back
    assert sorted(p.name for p in pipeline_dir.iterdir()) == sorted([
        "store.json", "candidates.json", CHECKPOINT, "losses_augmented_seed1.jsonl",
        REPORT, REPORT.replace(".json", ".txt")])

# artifact -> (the command that reads it, a required JSON field or blob section)
ARTIFACTS = {
    "store.json": (["candidates", "--k", "5"], "sequences"),
    "candidates.json": (["train", "--seed", "1", *FAST_TRAIN], "cc"),
    CHECKPOINT: (["evaluate", "--seed", "1"], "param/item_embeddings"),
    REPORT: (["report"], "segments"),
}


def _command(name, out):
    argv, _ = ARTIFACTS[name]
    if argv == ["report"]:
        return ["report", str(out / name)]
    return [argv[0], "--out-dir", str(out), *argv[1:]]


def _edit_envelope(path, edit):
    """Apply ``edit`` to a JSON artifact's top-level dict or a blob's meta."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    else:
        sections, meta = serialize.read_blob(path)
        edit(meta)
        serialize.write_blob(path, sections, meta)


def _truncate(path, key):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _garbage_head(path, key):
    path.write_bytes(b"\xff" * 8 + path.read_bytes()[8:])


def _drop_field(path, key):
    if path.suffix == ".json":
        _edit_envelope(path, lambda doc: doc.pop(key))
    else:  # drop a section from the blob header; the payload checksum still holds
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
        header = json.loads(raw[16:16 + hlen])
        header["sections"] = [s for s in header["sections"] if s["name"] != key]
        text = json.dumps(header).encode()
        path.write_bytes(raw[:8] + np.uint64(len(text)).tobytes() + text + raw[16 + hlen:])


def _drop_lineage(path, key):
    _edit_envelope(path, lambda doc: doc.pop("lineage"))


CORRUPTIONS = {"truncate": _truncate, "garbage-head": _garbage_head,
               "drop-field": _drop_field, "drop-lineage": _drop_lineage}


class TestFaultInjection:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
    def test_corrupt_input_is_data_error(self, artifact, corruption, pipeline_dir,
                                         tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        CORRUPTIONS[corruption](out / artifact, ARTIFACTS[artifact][1])
        capsys.readouterr()
        assert main(_command(artifact, out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag, content, code, prefix", [
        ("--input", b"u1,i1,1\nu2,i1,2\nu3,\xff\xfe,3\n", 3, "data error:"),
        ("--input", b"u1,i1,1\nu1,i2,2\nu1,i3,99999999999999999999\n", 3, "data error:"),
        ("--config", b"corpus.k_core = 3\n# \xff\xfe\n", 2, "config error:"),
    ], ids=["non-utf8-log", "int64-overflow-log", "non-utf8-config"])
    def test_bad_prepare_input_is_refused(self, flag, content, code, prefix, csv_path,
                                          tmp_path, capsys):
        bad = tmp_path / "bad_input"
        bad.write_bytes(content)
        argv = {"--input": str(csv_path), "--k-core": "1", flag: str(bad)}
        capsys.readouterr()
        assert main(["prepare", "--out-dir", str(tmp_path / "out"),
                     *itertools.chain(*argv.items())]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "bad_input" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "store.json").exists()

    @pytest.mark.parametrize("artifact", ["candidates.json", CHECKPOINT])
    def test_missing_lineage_passes_with_force(self, artifact, pipeline_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        _drop_lineage(out / artifact, None)
        assert main(_command(artifact, out) + ["--force"]) == 0

    def test_forced_foreign_item_universe_is_data_error(self, pipeline_dir, csv_path,
                                                        tmp_path, capsys):
        out = tmp_path / "small"
        _prepare(out, csv_path, extra=["--sample-users", "40"])
        for name in ("candidates.json", CHECKPOINT):
            shutil.copy(pipeline_dir / name, out / name)
        for name in ("candidates.json", CHECKPOINT):
            assert main(_command(name, out) + ["--force"]) == 3
            assert "items" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, order", [
        (lambda doc: doc["segments"]["overall"].pop("ndcg@10"), "alone"),
        (lambda doc: doc["segments"]["tail_item"].pop("count"), "alone"),
        (lambda doc: doc["tcov"].update({"7": 0.5}), "alone"),
        (lambda doc: doc["tcov"].pop("10"), "first"),
        (lambda doc: doc["tcov"].pop("10"), "second"),
        (lambda doc: doc["segments"]["overall"].update({"hit@10": "high"}), "alone"),
        (lambda doc: doc["segments"]["overall"].update({"ndcg@5": True}), "alone"),
        (lambda doc: doc["segments"]["tail_item"].update({"hit@5": float("nan")}), "alone"),
        (lambda doc: doc["segments"]["overall"].update({"count": 2.5}), "alone"),
        (lambda doc: doc["segments"]["head_user"].update({"count": -1}), "second"),
        (lambda doc: doc["tcov"].update({"10": float("inf")}), "alone"),
        (lambda doc: doc["tcov"].update({"5": False}), "alone"),
    ], ids=["no-ndcg@10", "no-count", "tcov-outside-ks", "no-tcov@10-first",
            "no-tcov@10-second", "string-metric", "bool-metric", "nan-metric",
            "fractional-count", "negative-count", "inf-tcov", "bool-tcov"])
    def test_malformed_report_is_data_error(self, edit, order, pipeline_dir, tmp_path,
                                            capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        shutil.copy(pipeline_dir / REPORT, good)
        shutil.copy(pipeline_dir / REPORT, bad)
        _edit_envelope(bad, edit)
        inputs = {"alone": [bad], "first": [bad, good], "second": [good, bad]}[order]
        capsys.readouterr()
        assert main(["report", *map(str, inputs)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["c"][0].append(0),
        lambda doc: doc["c"][0].append(len(doc["c"]) + 7),
        lambda doc: doc["c"][0].append(-3),
        lambda doc: doc["cr"][0].append(len(doc["c"]) + 1),
        lambda doc: doc["cc"].pop(),
        lambda doc: doc["c"][0].__setitem__(0, doc["c"][0][0] + 0.5),
        lambda doc: doc["c"][1].append(True),
        lambda doc: doc.update({"k": doc["k"] + 0.5}),
        lambda doc: doc.update({"k": True}),
        # in range, but not the union of cr and cc
        lambda doc: doc["c"][0].reverse(),
        lambda doc: doc["c"][0].append(
            next(v for v in range(2, len(doc["c"]) + 1) if v not in doc["c"][0])),
        lambda doc: doc["c"][0].pop(),
    ], ids=["padding-id-in-c", "id-past-catalog-in-c", "negative-id-in-c",
            "id-past-catalog-in-cr", "short-cc", "non-integral-id-in-c", "bool-id",
            "fractional-k", "bool-k", "reversed-c", "extra-member-in-c",
            "dropped-member-in-c"])
    def test_out_of_range_candidate_is_data_error(self, edit, pipeline_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        _edit_envelope(out / "candidates.json", edit)
        capsys.readouterr()
        assert main(_command("candidates.json", out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["sequences"][0].__setitem__(-1, 0),
        lambda doc: doc["sequences"][0].__setitem__(-1, len(doc["items"]) + 7),
        lambda doc: doc["sequences"][0].__setitem__(-1, -3),
        lambda doc: doc["sequences"][0].extend([1] * doc["max_len"]),
        lambda doc: doc["sequences"][0].__delitem__(slice(2, None)),
        lambda doc: doc["sequences"][0].__setitem__(-1, doc["sequences"][0][-1] + 0.5),
        lambda doc: doc["sequences"][0].__setitem__(-1, True),
        lambda doc: doc.update({"max_len": doc["max_len"] + 0.9}),
        lambda doc: doc.update({"split": "false"}),
        lambda doc: doc.update({"split": 1}),
        lambda doc: doc.update({"users": ["u"] * len(doc["users"])}),
        lambda doc: doc.update({"items": "x" * len(doc["items"])}),
        lambda doc: doc["items"].__setitem__(1, doc["items"][0]),
        lambda doc: doc["users"].__setitem__(0, 7),
    ], ids=["padding-id-target", "id-past-catalog", "negative-id", "longer-than-max-len",
            "split-shorter-than-3", "non-integral-target", "bool-id", "fractional-max-len",
            "string-split", "integer-split", "repeated-user-ids", "items-not-a-list",
            "repeated-item-names", "integer-user-id"])
    def test_out_of_range_store_is_data_error(self, edit, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        _edit_envelope(out / "store.json", edit)
        capsys.readouterr()
        assert main(["evaluate", "--out-dir", str(out), "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_store_with_a_user_past_its_sequences_is_data_error(self, pipeline_dir,
                                                                 tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        _edit_envelope(out / "store.json", lambda doc: doc["users"].append("u-extra"))
        capsys.readouterr()
        assert main(["evaluate", "--out-dir", str(out), "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_stale_segmentation_and_stats_are_ignored(self, pipeline_dir, tmp_path):
        # an out-dir of an older version holds these two; an edited segmentation
        # once steered train and evaluate
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        store, lineage = serialize.load(out / "store.json", corpus.STORE_SCHEMA,
                                        corpus.SequenceStore.from_fields)
        seg = corpus.segment(store)
        moved = sorted(seg.head_items)[:10]
        serialize.save(out / "segmentation.json", "tailaug.segmentation.v1", {
            "beta": 0.5, "n_users": store.n_users, "n_items": store.n_items,
            "head_users": sorted(seg.head_users), "tail_users": sorted(seg.tail_users),
            "head_items": sorted(seg.head_items - set(moved)),
            "tail_items": sorted(seg.tail_items | set(moved))}, lineage)
        serialize.save(out / "stats.json", "tailaug.dataset_stats.v1",
                       {"n_users": 1, "n_items": 1, "n_interactions": 1,
                        "avg_length": 1.0, "sparsity": 0.0}, lineage)
        for name in ("candidates.json", CHECKPOINT, REPORT):
            (out / name).unlink()
        assert main(["candidates", "--out-dir", str(out), "--k", "5"]) == 0
        assert main(["train", "--out-dir", str(out), "--seed", "1", *FAST_TRAIN]) == 0
        assert main(["evaluate", "--out-dir", str(out), "--seed", "1"]) == 0
        for path in pipeline_dir.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_nan_embedding_is_refused_not_scored(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / REPORT).unlink()
        sections, meta = serialize.read_blob(out / CHECKPOINT)
        sections["param/item_embeddings"][3, 0] = np.nan
        serialize.write_blob(out / CHECKPOINT, sections, meta)
        assert main(["evaluate", "--out-dir", str(out), "--seed", "1"]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / REPORT).exists()

    def test_non_finite_scores_are_numeric_failure(self, pipeline_dir, tmp_path,
                                                   monkeypatch, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        monkeypatch.setattr(evaluation, "encode_batch", lambda model, seqs: (
            np.full((len(seqs), model.dim), np.nan), None))
        assert main(["evaluate", "--out-dir", str(out), "--seed", "1"]) == 4
        assert capsys.readouterr().err.startswith("numeric failure:")
