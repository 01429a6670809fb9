"""Command-line pipeline: prepare -> candidates -> train -> evaluate.

Each subcommand persists versioned artifacts into an output directory and
embeds a lineage id (config hash chained through parents); downstream
subcommands refuse inputs from a different lineage, or with none, unless
``--force`` is given, and inputs over another item universe even then; a
missing input names the command that writes it.  Only what the store does
not determine is stored: ``candidates``, ``train`` and ``evaluate``
recompute the head/tail segmentation from ``store.json`` with
``corpus.segment``.  ``train`` writes
``checkpoint_<mode>_seed<s>.bin`` per seed, the parameters of the epoch it
records (the restored one), and ``losses_<mode>_seed<s>.jsonl``; ``evaluate``
scores the checkpoints its ``--mode`` and ``--seeds`` name, which must record
that mode and one setting (config but the seed, and candidates), and on every
call writes their mean, one checkpoint's too, to
``report_<mode>_mean_<phase>.json``, with the seeds in its lineage.
Flags are the one configuration: each pipeline command has one flag per key
of its config sections, and every flag is spelled in full.  ``--seed`` is
``prepare``'s alone; ``train`` and ``evaluate`` take ``--seeds``.  Exit
codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
from dataclasses import replace
from functools import partial
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


def _checkpoint_path(out_dir: Path, mode: str, seed: int) -> Path:
    """Where ``train`` writes, and ``evaluate`` reads, one arm's checkpoint for one seed."""
    return out_dir / f"checkpoint_{mode}_seed{seed}.bin"


def _load_upstream(path: Path, command: str, load, items, store, store_id: str,
                   force: bool) -> tuple:
    """``load(path)`` of an artifact that ``tailaug <command>`` derives from the store.

    ``load`` returns the artifact and its lineage first.  A missing file names
    ``command``; a ``prepare`` lineage other than ``store_id``, or none, is
    refused unless ``force``; and ``items(artifact)`` must equal the store's
    item count even then.
    """
    if not path.exists():
        raise DataError(f"missing artifact {path}; run `tailaug {command}` first")
    loaded = load(path)
    found = loaded[1].get("prepare")
    if not force and found != store_id:
        problem = "lineage mismatch" if found else "missing lineage id"
        raise DataError(
            f"{path.name} vs store: {problem} (expected {store_id}, found {found}); "
            "artifacts come from a different config or input, or carry no lineage. "
            "Re-run the upstream step, or pass --force where the command offers it.")
    if items(loaded[0]) != store.n_items:
        raise DataError(f"{path} covers {items(loaded[0])} items, "
                        f"the prepared store {store.n_items}")
    return loaded


def _write_report(path: Path, report, lineage: dict, title: str):
    """Save ``report`` as JSON beside its ``.txt`` table, and print the table."""
    table = evaluation.format_table(report)
    serialize.save(path, evaluation.REPORT_SCHEMA, report.to_fields(), lineage)
    serialize.write_text(path.with_suffix(".txt"), table + "\n")
    print(f"== {title} ==")
    print(table)


# ---------------------------------------------------------------- prepare

def cmd_prepare(args) -> int:
    cfg = load_config(_overrides(args))
    log = corpus.load_interactions(args.input, delimiter=cfg["corpus.delimiter"],
                                   header=cfg["corpus.header"])
    log = corpus.k_core_filter(log, cfg["corpus.k_core"])
    n_sample = cfg["corpus.sample_users"]
    if n_sample:
        # user codes in lexicographic order of their raw ids
        users = sorted(corpus._sorted_unique(log.users).tolist(), key=log.user_ids.__getitem__)
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
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc
    serialize.save(out_dir / "store.json", corpus.STORE_SCHEMA,
                   store.to_fields(), {"id": prep_id})

    print(f"users={stats.n_users} items={stats.n_items} "
          f"interactions={stats.n_interactions} avg_length={stats.avg_length:.2f} "
          f"sparsity={stats.sparsity:.4%}")
    print(f"head_users={len(seg.head_users)} head_items={len(seg.head_items)} "
          f"lineage={prep_id}")
    return 0


def _load_prepared(out_dir):
    """The prepared store and its lineage id; a store without one is refused."""
    path = out_dir / "store.json"
    if not path.exists():
        raise DataError(f"missing artifact {path}; run `tailaug prepare` first")
    store, lineage = serialize.load(path, corpus.STORE_SCHEMA, corpus.SequenceStore.from_fields)
    if not lineage.get("id"):
        raise DataError(f"{path}: missing lineage id; re-run `tailaug prepare`")
    return store, lineage["id"]


# ------------------------------------------------------------- candidates

def cmd_candidates(args) -> int:
    cfg = load_config(_overrides(args))
    out_dir = Path(args.out_dir)
    store, store_id = _load_prepared(out_dir)
    seg = corpus.segment(store)

    if store.n_items > WARN_ITEMS:
        print(f"warning: {store.n_items} items exceed {WARN_ITEMS}; the dense solve "
              f"needs ~{5 * store.n_items ** 2 / 1e9:.1f} GB (one n x n float32 array and its "
              "sparse source at its peak; twice that if the ridge forces the float64 solve). "
              "Consider preparing with corpus.sample_users at desk scale.",
              file=sys.stderr)

    cands, sim = simcand.build_candidates(store, seg, solver_config(cfg), cfg["simcand.k"])
    cand_id = lineage_id("candidates", config_hash(cfg, section_keys("candidates")),
                         {"prepare": store_id})
    serialize.save(out_dir / "candidates.json", simcand.CANDIDATES_SCHEMA,
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

    # opened before stage 1, so an unwritable path fails before any training; the
    # file appears, whole, only when training ends
    with (serialize.atomic_open(trace_path, "w") if trace_path
          else contextlib.nullcontext()) as trace:
        adam = training.init_adam(model.params)  # stage 2 continues stage 1's optimizer
        if mode == "baseline":  # both stages' epochs go to the main loss
            tcfg = replace(tcfg, stage1_epochs=tcfg.stage1_epochs + tcfg.stage2_epochs)
        history = training.train_stage1(store, model, tcfg, adam=adam, validator=validator)
        if mode == "augmented":
            history += training.train_stage2(store, model, cands, seg, tcfg,
                                             operator_config(cfg), adam=adam,
                                             validator=validator, trace=trace)

    # the epoch whose parameters the model now holds: the last stage's restored one
    held = next((r for r in reversed(history) if r.get("restored")), {})
    ckpt_path = _checkpoint_path(out_dir, mode, seed)
    config_meta = {k: cfg[k] for k in section_keys("train")}
    config_meta.update({"mode": mode, "seed": seed})
    training.save_checkpoint(
        ckpt_path, model, epoch=held.get("epoch"), config_meta=config_meta,
        metrics={"epochs_run": len(history),
                 **{k: held[k] for k in ("loss_total", "valid_score") if k in held}},
        lineage={"prepare": store_id, "candidates": cand_id})
    serialize.write_jsonl(out_dir / f"losses_{mode}_seed{seed}.jsonl", history)
    print(f"mode={mode} seed={seed} epochs={len(history)} "
          f"restored_epoch={held.get('epoch')} "
          f"loss_total={held.get('loss_total', float('nan')):.4f} "
          f"({time.perf_counter() - t0:.1f}s) -> {ckpt_path.name}")
    return ckpt_path


def cmd_train(args) -> int:
    cfg = load_config(_overrides(args))
    seeds = _parse_seeds(args.seeds)
    if args.trace and (len(seeds) > 1 or args.mode == "baseline"
                       or not cfg["train.operator_loss"] or cfg["train.stage2_epochs"] == 0):
        raise ConfigError("--trace records one seed's augmented samples; give a single "
                          "seed, --mode augmented, the operator loss and stage-2 epochs")
    out_dir = Path(args.out_dir)
    store, store_id = _load_prepared(out_dir)
    seg = corpus.segment(store, beta=cfg["augment.beta"])

    cands, cand_id = None, None
    if args.mode == "augmented":
        cands, cand_lineage = _load_upstream(
            out_dir / "candidates.json", "candidates",
            lambda p: serialize.load(p, simcand.CANDIDATES_SCHEMA,
                                     simcand.CandidateSets.from_fields),
            lambda c: len(c.c[1]) - 1, store, store_id, args.force)
        cand_id = cand_lineage.get("id")

    for seed in seeds:
        _train_one_seed(cfg, args.mode, seed, store, seg, cands, store_id,
                        cand_id, out_dir, args.trace)
    return 0


# --------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    cfg = load_config(_overrides(args))
    out_dir = Path(args.out_dir)
    seeds = _parse_seeds(args.seeds)
    store, store_id = _load_prepared(out_dir)
    seg = corpus.segment(store)

    # every checkpoint is read and checked before any report is written
    loaded, settings = [], []
    for seed in seeds:
        path = _checkpoint_path(out_dir, args.mode, seed)
        model, lineage, meta = _load_upstream(path, "train", training.load_checkpoint,
                                              lambda m: m.n_items, store, store_id, args.force)
        recorded = meta.get("config", {}).get("mode")
        if recorded != args.mode:
            raise DataError(f"checkpoint {path.name} records mode {recorded}, but its "
                            f"name says {args.mode}; re-run `tailaug train --mode {args.mode}`")
        settings.append(({k: v for k, v in meta.get("config", {}).items() if k != "seed"},
                         lineage.get("candidates")))
        if settings[-1] != settings[0]:
            raise DataError(f"{path.name} was trained with other settings than "
                            f"{loaded[0][0].name}; train every seed with one config")
        loaded.append((path, model))

    reports = []
    for path, model in loaded:
        report = evaluation.evaluate_model(
            model, store, seg, ks=cfg["eval.ks"], phase=args.phase,
            filter_seen=cfg["eval.filter_seen"])
        _write_report(path.with_name(path.stem + f"_report_{args.phase}.json"), report,
                      {"checkpoint": path.name, "prepare": store_id},
                      f"{path.name} ({args.phase})")
        reports.append(report)
    _write_report(out_dir / f"report_{args.mode}_mean_{args.phase}.json",
                  evaluation.mean_report(reports), {"prepare": store_id, "seeds": seeds},
                  f"mean over {len(reports)} checkpoints")
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


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = _int_list(text)
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
    """Shared flags: ``--seed`` on ``prepare``, ``--seeds`` and ``--force`` on
    ``train`` and ``evaluate``, then one flag per key of ``command``'s sections.

    A value flag parses to its key's type; argparse refuses malformed text
    (exit 2).
    """
    p.add_argument("--out-dir", default="artifacts", help="artifact directory")
    if command == "prepare":
        p.add_argument("--seed", type=int, default=None)
    if command in ("train", "evaluate"):
        p.add_argument("--seeds", default=str(DEFAULTS["seed"]),
                       help=f"comma-separated seed sweep (default {DEFAULTS['seed']})")
        p.add_argument("--force", action="store_true",
                       help="proceed despite missing or mismatched artifact lineage")
    for key in section_keys(command):
        flag = "--" + key.rpartition(".")[2].replace("_", "-")
        if isinstance(DEFAULTS[key], bool):
            p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                           help=f"{key} (default {DEFAULTS[key]})")
        else:
            kind = _int_list if isinstance(DEFAULTS[key], list) else type(DEFAULTS[key])
            p.add_argument(flag, dest=key, metavar=key, type=kind,
                           help=f"default {DEFAULTS[key]}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailaug",
        description="Long-tail sequential recommendation with tail-aware augmentation",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags spelled in full: a prefix would otherwise set a key (`--k-c` as
    # `--k-core`) or take `train --seed` for `--seeds`
    add = partial(sub.add_parser, allow_abbrev=False)

    p = add("prepare", help="ingest, filter and split into store.json")
    _add_common(p, "prepare")
    p.add_argument("--input", required=True, help="interaction file (user,item,timestamp)")
    p.set_defaults(func=cmd_prepare)

    p = add("candidates", help="solve similarity and build candidate sets")
    _add_common(p, "candidates")
    p.set_defaults(func=cmd_candidates)

    p = add("train", help="train a model (baseline or augmented)")
    _add_common(p, "train")
    p.add_argument("--mode", choices=["baseline", "augmented"], default="augmented")
    p.add_argument("--trace", default=None,
                   help="write one JSON line per augmented sample to this file "
                        "(augmented mode, a single seed only)")
    p.set_defaults(func=cmd_train)

    p = add("evaluate", help="rank held-out targets and report metrics")
    _add_common(p, "evaluate")
    p.add_argument("--mode", choices=["baseline", "augmented"], default="augmented",
                   help="arm whose checkpoints are scored")
    p.add_argument("--phase", choices=["valid", "test"], default="test")
    p.set_defaults(func=cmd_evaluate)

    p = add("synth", help="generate a synthetic long-tail interaction log")
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
