"""Command-line pipeline: prepare -> candidates -> train -> evaluate -> report.

Each subcommand persists versioned artifacts into an output directory and
embeds a lineage id (config hash chained through parents); downstream
subcommands refuse inputs from a different lineage, or with none, unless
``--force`` is given.  Only what the store does not determine is stored:
``candidates``, ``train`` and ``evaluate`` recompute the head/tail
segmentation from ``store.json`` with ``corpus.segment``.  Each pipeline
command has one flag per key of its config sections; flags override
config-file keys.  Exit codes: 0 ok, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus, evaluation, serialize, simcand, synth, training
from .config import (DEFAULTS, config_hash, lineage_id, load_config, operator_config,
                     section_keys, solver_config, train_config)
from .encoders import init_model
from .errors import ConfigError, DataError, NumericError, TailaugError
from .rand import SUBSAMPLE, derive_rng

WARN_ITEMS = 20_000  # the dense similarity solve is O(n^2) memory in items


def _file_sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _artifact(out_dir, name) -> Path:
    return Path(out_dir) / name


def _check_lineage(expected: str | None, found: str | None, what: str, force: bool):
    """Refuse unless both lineage ids are present and equal, or ``force``."""
    if force or (expected is not None and expected == found):
        return
    problem = "lineage mismatch" if expected and found else "missing lineage id"
    raise DataError(
        f"{what}: {problem} (expected {expected}, found {found}); artifacts "
        "come from a different config or input, or carry no lineage. Re-run "
        "the upstream step, or pass --force where the command offers it.")


def _check_items(n_items: int, store, path):
    """Item universes must agree even when --force overrides lineage."""
    if n_items != store.n_items:
        raise DataError(f"{path} covers {n_items} items, the prepared store {store.n_items}")


# ---------------------------------------------------------------- prepare

def cmd_prepare(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc

    log = corpus.load_interactions(args.input, delimiter=cfg["corpus.delimiter"],
                                   header=cfg["corpus.header"])
    log = corpus.k_core_filter(log, cfg["corpus.k_core"])
    n_sample = cfg["corpus.sample_users"]
    if n_sample:
        # user codes in lexicographic order of their raw ids
        users = sorted(np.unique(log.users).tolist(), key=log.user_ids.__getitem__)
        if n_sample < len(users):
            rng = derive_rng(cfg["seed"], SUBSAMPLE)
            keep = np.zeros(len(log.user_ids), dtype=bool)
            keep[np.asarray(users, dtype=np.int64)[rng.permutation(len(users))[:n_sample]]] = True
            log = corpus.k_core_filter(log.select(keep[log.users]), cfg["corpus.k_core"])
    if not log:
        raise DataError(
            f"k-core filtering with k={cfg['corpus.k_core']} removed every "
            "interaction; the dataset is too sparse for this k")

    store = corpus.leave_one_out_split(
        corpus.build_sequences(log, cfg["corpus.max_len"]))
    seg = corpus.segment(store)
    stats = corpus.dataset_stats(store)

    prep_id = lineage_id("prepare", config_hash(cfg, ["seed", *section_keys("prepare")]),
                         {"input": _file_sha(args.input)})
    serialize.save(_artifact(out_dir, "store.json"), corpus.STORE_SCHEMA,
                   store.to_fields(), {"id": prep_id})

    print(f"users={stats.n_users} items={stats.n_items} "
          f"interactions={stats.n_interactions} avg_length={stats.avg_length:.2f} "
          f"sparsity={stats.sparsity:.4%}")
    print(f"head_users={len(seg.head_users)} head_items={len(seg.head_items)} "
          f"lineage={prep_id}")
    return 0


def _load_prepared(out_dir):
    """The prepared store and its lineage id; a store without one is refused."""
    path = _artifact(out_dir, "store.json")
    if not path.exists():
        raise DataError(f"missing artifact {path}; run `tailaug prepare` first")
    store, lineage = serialize.load(path, corpus.STORE_SCHEMA, corpus.SequenceStore.from_fields)
    if not lineage.get("id"):
        raise DataError(f"{path}: missing lineage id; re-run `tailaug prepare`")
    return store, lineage["id"]


# ------------------------------------------------------------- candidates

def cmd_candidates(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out_dir = Path(args.out_dir)
    store, store_id = _load_prepared(out_dir)
    seg = corpus.segment(store)

    if store.n_items > WARN_ITEMS:
        print(f"warning: {store.n_items} items exceed {WARN_ITEMS}; the dense solve "
              f"needs ~{8 * store.n_items ** 2 / 1e9:.1f} GB (about two n x n float32 "
              "arrays at its peak; twice that if the ridge forces the float64 solve). "
              "Consider preparing with corpus.sample_users at desk scale.",
              file=sys.stderr)

    cands, sim = simcand.build_candidates(store, seg, solver_config(cfg), cfg["simcand.k"])
    cand_id = lineage_id("candidates", config_hash(cfg, section_keys("candidates")),
                         {"prepare": store_id})
    serialize.save(_artifact(out_dir, "candidates.json"), simcand.CANDIDATES_SCHEMA,
                   cands.to_fields(), {"id": cand_id, "prepare": store_id})
    sizes = np.diff(cands.c[1])
    # the tail share of tail items' sets, then of head items', pooled over members
    owner_head = np.repeat(seg.item_head_mask[1:], sizes)
    share = (np.bincount(owner_head, ~seg.item_head_mask[cands.c[0]], minlength=2)
             / np.maximum(np.bincount(owner_head, minlength=2), 1))
    print(f"candidates for {store.n_items} items: mean |c_v|={np.mean(sizes):.1f} "
          f"min={sizes.min()} max={sizes.max()}; tail share of head/tail items' sets="
          f"{share[1]:.3f}/{share[0]:.3f}; solver branches={sim.branch_counts} "
          f"precision={sim.values.dtype}; "
          f"lineage={cand_id}")
    return 0


# ------------------------------------------------------------------ train

def _train_one_seed(cfg, mode, seed, store, seg, cands, store_id, cand_id,
                    out_dir, trace_path):
    t0 = time.perf_counter()
    tcfg = train_config(cfg, seed)
    model = init_model(store.n_items, cfg["model.dim"], seed,
                       encoder=cfg["model.encoder"], dtype=np.float32)
    validator = None
    if tcfg.patience is not None:
        validator = lambda m: evaluation.validation_score(m, store)

    adam = training.init_adam(model.params)
    if mode == "baseline":
        history, adam = training.train_stage1(
            store, model, tcfg, epochs=tcfg.stage1_epochs + tcfg.stage2_epochs,
            adam=adam, validator=validator)
    else:
        # opened before stage 1, so an unwritable path fails before any training
        try:
            trace = open(trace_path, "w", encoding="utf-8") if trace_path else None
        except OSError as exc:
            raise DataError(f"cannot write trace {trace_path}: {exc}") from exc
        try:
            history, adam = training.train_stage1(store, model, tcfg, adam=adam,
                                                  validator=validator)
            h2, adam = training.train_stage2(store, model, cands, seg, tcfg,
                                             operator_config(cfg),
                                             adam=adam, validator=validator,
                                             trace=trace)
        finally:
            if trace is not None:
                trace.close()
        history = history + h2

    ckpt_path = _artifact(out_dir, f"checkpoint_{mode}_seed{seed}.bin")
    config_meta = {k: cfg[k] for k in section_keys("train")}
    config_meta.update({"mode": mode, "seed": seed})
    training.save_checkpoint(
        ckpt_path, model, adam, epoch=history[-1]["epoch"] if history else 0,
        config_meta=config_meta,
        metrics={"final_loss": history[-1]["loss_total"] if history else None},
        lineage={"prepare": store_id, "candidates": cand_id})
    serialize.write_jsonl(_artifact(out_dir, f"losses_{mode}_seed{seed}.jsonl"), history)
    last = history[-1] if history else {}
    print(f"mode={mode} seed={seed} epochs={len(history)} "
          f"final_loss={last.get('loss_total', float('nan')):.4f} "
          f"({time.perf_counter() - t0:.1f}s) -> {ckpt_path.name}")
    return ckpt_path


def cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    seeds = _parse_seeds(args.seeds) if args.seeds else [cfg["seed"]]
    if args.trace and (len(seeds) > 1 or args.mode == "baseline"):
        raise ConfigError("--trace records one seed's augmented samples; give a single "
                          "seed and --mode augmented")
    out_dir = Path(args.out_dir)
    store, store_id = _load_prepared(out_dir)
    seg = corpus.segment(store, beta=cfg["augment.beta"])

    cands, cand_id = None, None
    needs_candidates = args.mode == "augmented"
    cand_path = _artifact(out_dir, "candidates.json")
    if needs_candidates:
        if not cand_path.exists():
            raise DataError(f"missing artifact {cand_path}; run `tailaug candidates` first")
        cands, cand_lineage = serialize.load(cand_path, simcand.CANDIDATES_SCHEMA,
                                             simcand.CandidateSets.from_fields)
        cand_id = cand_lineage.get("id")
        _check_lineage(store_id, cand_lineage.get("prepare"),
                       "candidates vs store", args.force)
        _check_items(len(cands.c[1]) - 1, store, cand_path)

    for seed in seeds:
        _train_one_seed(cfg, args.mode, seed, store, seg, cands, store_id,
                        cand_id, out_dir, args.trace)
    return 0


# --------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out_dir = Path(args.out_dir)
    if args.checkpoint:
        if args.seeds:
            raise ConfigError("--seeds derives checkpoint paths; it cannot be combined "
                              "with --checkpoint")
        ckpt_paths = [Path(p) for p in args.checkpoint]
        if len({p.resolve() for p in ckpt_paths}) < len(ckpt_paths):
            raise ConfigError(f"--checkpoint repeats a file: {' '.join(args.checkpoint)}")
    else:
        seeds = _parse_seeds(args.seeds) if args.seeds else [cfg["seed"]]
        ckpt_paths = [_artifact(out_dir, f"checkpoint_{args.mode}_seed{s}.bin")
                      for s in seeds]
    store, store_id = _load_prepared(out_dir)
    seg = corpus.segment(store)

    # every checkpoint is read and checked before any report is written
    loaded = []
    for path in ckpt_paths:
        if not path.exists():
            raise DataError(f"missing checkpoint {path}; run `tailaug train` first")
        model, _, meta = training.load_checkpoint(path)
        _check_lineage(store_id, meta.get("lineage", {}).get("prepare"),
                       f"checkpoint {path.name} vs store", args.force)
        _check_items(model.n_items, store, path)
        loaded.append((path, model, meta.get("config", {}).get("mode")))
    modes = {mode for _, _, mode in loaded}
    if len(loaded) > 1 and (len(modes) > 1 or None in modes):
        raise ConfigError("averaged checkpoints must record one mode: " + ", ".join(
            f"{path.name}={mode}" for path, _, mode in loaded))

    reports = []
    for path, model, _ in loaded:
        report = evaluation.evaluate_model(
            model, store, seg, ks=cfg["eval.ks"], phase=args.phase,
            filter_seen=cfg["eval.filter_seen"])
        rep_path = path.with_name(path.stem + f"_report_{args.phase}.json")
        serialize.save(rep_path, evaluation.REPORT_SCHEMA, report.to_fields(),
                       {"checkpoint": path.name, "prepare": store_id})
        serialize.write_text(rep_path.with_suffix(".txt"),
                             evaluation.format_table(report) + "\n")
        reports.append(report)
        print(f"== {path.name} ({args.phase}) ==")
        print(evaluation.format_table(report))
    if len(reports) > 1:
        mean = evaluation.mean_report(reports)
        mean_path = _artifact(out_dir, f"report_{modes.pop()}_mean_{args.phase}.json")
        serialize.save(mean_path, evaluation.REPORT_SCHEMA, mean.to_fields(),
                       {"prepare": store_id})
        serialize.write_text(mean_path.with_suffix(".txt"),
                             evaluation.format_table(mean) + "\n")
        print(f"== mean over {len(reports)} checkpoints ==")
        print(evaluation.format_table(mean))
    return 0


# ----------------------------------------------------------------- report

def cmd_report(args) -> int:
    reports, prepare_id = [], None
    for path in args.reports:
        report, lineage = serialize.load(path, evaluation.REPORT_SCHEMA,
                                         evaluation.MetricReport.from_fields)
        prepare_id = prepare_id or lineage.get("prepare")
        _check_lineage(prepare_id, lineage.get("prepare"), f"report {path}", False)
        reports.append(report)
    mean = evaluation.mean_report(reports) if len(reports) > 1 else reports[0]
    if args.out:
        serialize.save(args.out, evaluation.REPORT_SCHEMA, mean.to_fields(),
                       {"prepare": prepare_id})
    print(evaluation.format_table(mean))
    return 0


# ------------------------------------------------------------------ synth

def cmd_synth(args) -> int:
    # test-fixture generator, handy for demos; not part of the core pipeline
    if args.users < 1 or args.items < synth.N_TOPICS or args.seed < 0:
        raise ConfigError(f"synth needs --users >= 1, --items >= {synth.N_TOPICS} "
                          f"(one per topic) and --seed >= 0, got {args.users}, "
                          f"{args.items} and {args.seed}")
    log = synth.generate_interactions(n_users=args.users, n_items=args.items,
                                      seed=args.seed)
    synth.write_csv(args.out, log)
    print(f"wrote {len(log)} interactions ({args.users} users, {args.items} items) "
          f"to {args.out}")
    return 0


# ------------------------------------------------------------------- main

def _overrides(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in DEFAULTS and v is not None}


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds expects comma-separated integers: {exc}") from exc
    if not seeds:
        raise ConfigError("--seeds is empty")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds repeats a seed: {text}")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be >= 0: {text}")
    return seeds


def _add_common(p, command):
    """Shared flags, then one flag per key of ``command``'s sections.

    The values stay strings; ``load_config`` coerces them to the keys' types.
    """
    p.add_argument("--config", help="config file (JSON or key=value lines)")
    p.add_argument("--out-dir", default="artifacts", help="artifact directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true",
                   help="proceed despite missing or mismatched artifact lineage")
    for key in section_keys(command):
        flag = "--" + key.rpartition(".")[2].replace("_", "-")
        if isinstance(DEFAULTS[key], bool):
            p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                           help=f"{key} (default {DEFAULTS[key]})")
        else:
            p.add_argument(flag, dest=key, metavar=key,
                           help=f"default {DEFAULTS[key]}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailaug",
        description="Long-tail sequential recommendation with tail-aware augmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest, filter and split into store.json")
    _add_common(p, "prepare")
    p.add_argument("--input", required=True, help="interaction file (user,item,timestamp)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("candidates", help="solve similarity and build candidate sets")
    _add_common(p, "candidates")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("train", help="train a model (baseline or augmented)")
    _add_common(p, "train")
    p.add_argument("--mode", choices=["baseline", "augmented"], default="augmented")
    p.add_argument("--seeds", default=None, help="comma-separated seed sweep")
    p.add_argument("--trace", default=None,
                   help="write one JSON line per augmented sample to this file "
                        "(augmented mode, a single seed only)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank held-out targets and report metrics")
    _add_common(p, "evaluate")
    p.add_argument("--checkpoint", nargs="+", default=None,
                   help="explicit checkpoint path(s), all of one recorded mode; "
                        "default derives from mode/seeds")
    p.add_argument("--mode", choices=["baseline", "augmented"], default="augmented",
                   help="mode of the derived checkpoint paths; --checkpoint reads it "
                        "from the checkpoints")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seed sweep (not with --checkpoint)")
    p.add_argument("--phase", choices=["valid", "test"], default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate one or more report files")
    p.add_argument("reports", nargs="+", help="metric report JSON files")
    p.add_argument("--out", default=None, help="write the (mean) report here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic long-tail interaction log")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=3500)
    p.add_argument("--items", type=int, default=1200)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except TailaugError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
