"""Benchmark of the tailaug pipeline: prepare -> candidates -> train -> evaluate.

Run from the repository root:

    python3 bench/run.py --workload desk-gru --seed 1 --seconds 42 --trace 0

The workload seed only labels the generated interaction log; the program
sees that CSV and its CLI flags, nothing else.  One process generates the
log and then calls ``tailaug.cli.main`` in process, one command after the
other (closed loop), repeating the whole pipeline until ``--seconds``,
set-up included, is used up or an operation fails.
Each metric pools those pipelines (see ``end_to_end_metrics``).  Every
time is scaled to a fixed host speed by a reference probe timed around each
command (see ``probe.py``); the raw wall times stay in the context line.
Output checks and the determinism digest run after each pipeline, outside
its timed commands.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced pipelines and prints per-layer metrics from spans around
each layer's public entry points (see ``spans.py``), plus the tracing
overhead.  The last line of standard output is the JSON result; the line
before it, prefixed ``context:``, holds sample counts, workload shape,
digest, checks and environment.  A copy of both, and in a traced run the
spans of the last traced pipeline, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the one training seed every workload trains and evaluates
TRAIN_SEED = 101
# set-up repeats per run; setup_s is their median
SETUP_REPEATS = 5


def limit_blas_threads() -> None:
    """Hold BLAS to one thread; call before numpy is imported.

    On a shared 2-vCPU guest, a second BLAS thread made whole runs much
    noisier for little speed: in alternating 12 s runs of ``catalog-pooled``
    the spread (IQR/median) of the end-to-end times was 0.06-0.13 with one
    thread and 0.20-0.37 with two, and the pipeline only 3% slower.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run: counts attempted and failed operations."""

    def __init__(self, cli, workload, csv: Path, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.csv = csv
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok

    def commands(self):
        wl, out, seed = self.workload, str(self.out_dir), str(TRAIN_SEED)
        return (
            ("prepare", ["prepare", "--out-dir", out, "--input", str(self.csv),
                         *wl.prepare]),
            ("candidates", ["candidates", "--out-dir", out, *wl.candidates]),
            ("train", ["train", "--out-dir", out, "--mode", "augmented",
                       "--seeds", seed, *wl.train]),
            ("evaluate", ["evaluate", "--out-dir", out, "--mode", "augmented",
                          "--seeds", seed]),
        )

    def pipeline(self, tracer) -> tuple[dict, dict] | None:
        """Run the four commands once, or return None on failure.

        Returns each command's wall time and its host-speed scale: the mean
        of the probes just before and after it, over ``probe.REFERENCE_S``.
        """
        import probe

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        tracer.reset()
        times, scales = {}, {}
        before = probe.probe()
        for name, argv in self.commands():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with tracer.span(f"cli.{name}") as span:
                        rc = self.cli.main(argv)
            except SystemExit as exc:
                # argparse rejects an unknown or malformed flag this way
                rc = 0 if exc.code is None else exc.code
            except Exception:
                rc = f"exception\n{traceback.format_exc()}"
            if not self.record(f"command.{name}", rc == 0,
                               f"exit {rc}; stderr: {err.getvalue()[-500:]}"):
                return None
            times[name] = span[2] - span[1]
            after = probe.probe()
            scales[name] = (before + after) / 2.0 / probe.REFERENCE_S
            before = after
        return times, scales


def run_workload(wl, seed: int, seconds: float, trace: int,
                 root: Path) -> tuple[dict, dict]:
    """Set up, run pipelines until ``seconds`` is used, check, and summarise."""
    import checks
    import probe
    import spans
    import workloads
    from tailaug import cli
    from tailaug.training import load_checkpoint

    out_root = root / OUT_DIR
    work = out_root / f"work-{os.getpid()}"
    csv = work / "log.csv"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(cli, wl, csv, work / "artifacts")
        # set-up counts against the run's seconds
        deadline = time.perf_counter() + seconds
        # set-up: a fresh interpreter importing the CLI, then the input log;
        # each repeat is scaled by the probes around it
        setup = []
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        before = probe.probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import tailaug.cli"], cwd=root,
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                run.record("setup.import", False,
                           f"exit {proc.returncode}; stderr: {proc.stderr[-500:]}")
                break
            users, items, stamps = workloads.generate_log(wl.log, seed)
            workloads.write_log_csv(csv, users, items, stamps)
            elapsed = time.perf_counter() - t0
            after = probe.probe()
            setup.append(elapsed * 2.0 * probe.REFERENCE_S / (before + after))
            before = after

        art = checks.Artifacts(run.out_dir, TRAIN_SEED)
        tracer = spans.Tracer()
        e2e, layers, digests = [], [], []
        shape = None
        last_spans, absent, rss_mb, traced_pipeline_s = [], [], [], []
        iteration_s = 0.0
        while not run.failed:
            traced = bool(trace) and len(e2e) > len(layers)
            tracer.install(spans.ENTRY_POINTS if traced else spans.STAGE_ENTRY_POINTS)
            t0 = time.perf_counter()
            try:
                timed = run.pipeline(tracer)
            finally:
                absent = list(tracer.absent)
                tracer.uninstall()
            if timed is None:
                break
            times, scales = timed
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            try:
                if shape is None:
                    shape = checks.workload_shape(art)
                    for name, ok, detail in checks.check_reference(art, load_checkpoint):
                        run.record(name, ok, detail)
                for name, ok, detail in checks.cheap_checks(art):
                    run.record(name, ok, detail)
                digests.append(checks.digest(art))
                epochs = [r["epoch"] for r in checks.loss_records(art)]
                stage1_epochs = sum(e < _flag(wl.train, "--stage1-epochs") for e in epochs)
                stage_s = spans.stage_seconds(tracer.spans)
                # figures at the reference host speed; stages run inside train
                scaled = {name: t / scales[name] for name, t in times.items()}
                sample = {
                    "pipeline_s": sum(scaled.values()),
                    **{f"{name}_s": t for name, t in scaled.items()},
                    "stage1_s": stage_s["stage1"] / scales["train"],
                    "stage2_s": stage_s["stage2"] / scales["train"],
                    "stage1_samples": shape["eligible_users"] * stage1_epochs,
                    "stage2_samples": shape["eligible_users"] * (len(epochs) - stage1_epochs),
                    "evaluated_users": shape["users"],
                    "wall_pipeline_s": sum(times.values()),
                    **{f"{name}_scale": v for name, v in scales.items()},
                }
            except Exception:
                # outputs or stage spans the harness cannot read: one failed check
                run.record("checks", False, traceback.format_exc(limit=4))
                break
            run.record("digest.repeat", digests[-1] == digests[0],
                       f"{digests[-1]['digest']} != {digests[0]['digest']}")
            if traced:
                layers.append(spans.layer_metrics(tracer.spans, shape["users"],
                                                  shape["items"], absent))
                traced_pipeline_s.append(sample["pipeline_s"])
                last_spans = tracer.spans
            else:
                e2e.append(sample)
            iteration_s = time.perf_counter() - t0
            need = 2 if trace else 1
            if (len(e2e) + len(layers) >= need
                    and time.perf_counter() + iteration_s > deadline):
                break

        samples = {"setup_s": setup, "running_peak_rss_mb": rss_mb}
        metrics = {}
        if e2e:
            for key in e2e[0]:
                samples[key] = [s[key] for s in e2e]
        if trace and layers:
            for key, (_, unit) in layers[0].items():
                samples[key] = [m[key][0] for m in layers]
                metrics[key] = (statistics.fmean(samples[key]), unit)
            samples["traced_pipeline_s"] = traced_pipeline_s
            metrics["trace.overhead_share"] = (
                statistics.fmean(traced_pipeline_s)
                / statistics.fmean(samples["pipeline_s"]) - 1.0, "ratio")
        elif e2e:
            metrics = end_to_end_metrics(samples)
        if shape is not None and layers:
            shape["padding_useful_ratio"] = metrics["encoders.padding_useful_ratio"][0]
            shape["insert_share"] = metrics["augment.insert_share"][0]
        if shape is not None:
            shape["stage1_samples"] = shape["eligible_users"] * _flag(wl.train, "--stage1-epochs")
            shape["stage2_samples"] = shape["eligible_users"] * _flag(wl.train, "--stage2-epochs")

        correct = run.failed == 0 and bool(e2e) and (not trace or bool(layers))
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        context = {
            "workload": wl.name, "why": wl.why, "seed": seed,
            "seconds": seconds, "trace": trace,
            "pipelines": {"untraced": len(e2e), "traced": len(layers)},
            "samples": samples, "shape": shape,
            "digest": digests[0] if digests else None,
            "failures": run.failures, "absent_entry_points": absent,
            "environment": environment(root),
        }
        out_root.joinpath(f"{wl.name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps({"context": context, "result": result}, indent=1) + "\n")
        if last_spans:
            # one file per workload: the spans of the last traced pipeline
            with open(out_root / f"{wl.name}.spans.jsonl", "w", encoding="utf-8") as fh:
                for name, start, end, parent, extra in last_spans:
                    fh.write(json.dumps([name, start, end, parent, extra]) + "\n")
        return context, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(samples: dict) -> dict[str, tuple]:
    """Whole-run figures: total work over total time across the run's pipelines.

    Times are already scaled to the probe's reference speed.  Their mean
    over a run's pipelines spread less across runs than their median.
    Set-up is the median of its repeats.
    """
    total = {k: math.fsum(v) for k, v in samples.items()}
    n = len(samples["pipeline_s"])
    return {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "pipeline_s": (total["pipeline_s"] / n, "s"),
        "prepare_s": (total["prepare_s"] / n, "s"),
        "candidates_s": (total["candidates_s"] / n, "s"),
        "train_s": (total["train_s"] / n, "s"),
        "stage1_samples_per_s": (total["stage1_samples"] / total["stage1_s"], "samples/s"),
        "stage2_samples_per_s": (total["stage2_samples"] / total["stage2_s"], "samples/s"),
        "evaluate_users_per_s": (total["evaluated_users"] / total["evaluate_s"], "users/s"),
        # a fresh process that has run the workload's pipeline once
        "peak_rss_mb": (samples["running_peak_rss_mb"][0], "MB"),
    }


def _flag(argv, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tailaug" / "cli.py").is_file():
        print(f"error: {root} holds no tailaug source tree (src/tailaug); run the "
              "benchmark from the repository root", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    context, result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                   args.seconds, args.trace, root)
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
