"""Run configuration: defaults, flag overrides, validation, hashing.

Keys are dot-namespaced (``corpus.k_core``), and each is set by exactly
one CLI flag.  ``DEFAULTS`` lists every key; a command's ``SECTIONS``
give its flags and the keys hashed into its artifacts' lineage ids,
chained through parent ids to refuse mismatched inputs.
"""

from __future__ import annotations

import hashlib
import json

from .augment import OperatorConfig
from .encoders import ENCODERS
from .errors import ConfigError
from .simcand import SolverConfig
from .training import TrainConfig

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "corpus.k_core": 5,
    "corpus.max_len": 50,
    "corpus.delimiter": ",",
    "corpus.header": False,
    "corpus.sample_users": 0,          # 0 = keep all users
    "simcand.ridge_penalty": 10.0,
    "simcand.diag_cap": 0.2,
    "simcand.k": 10,
    "augment.a": 0.2,
    "augment.b": 0.8,
    "augment.alpha": 0.3,
    "augment.beta": 0.5,               # tail-ratio threshold of the preference classes
    "model.dim": 64,
    "model.encoder": "gru",
    "train.batch_size": 256,
    "train.stage1_epochs": 50,
    "train.stage2_epochs": 150,
    "train.learning_rate": 0.001,
    "train.operator_loss": True,
    "train.cross_loss": True,
    "train.patience": 10,              # early stopping on validation NDCG@10; <0 disables
    "eval.ks": [5, 10, 20],
    "eval.filter_seen": False,
}

# each command's key sections: its flags, and the keys its artifacts hash
SECTIONS = {"prepare": ("corpus",), "candidates": ("simcand",),
            "train": ("model", "train", "augment"), "evaluate": ("eval",)}


def section_keys(command: str) -> list[str]:
    """The keys of ``command``'s sections, section by section in DEFAULTS order."""
    return [k for s in SECTIONS[command] for k in DEFAULTS if k.startswith(s + ".")]


def load_config(overrides: dict) -> dict:
    """``DEFAULTS`` with ``overrides``, the argparse-typed flag values, then validated."""
    cfg = {**DEFAULTS, **overrides}
    validate_config(cfg)
    return cfg


def solver_config(cfg: dict) -> SolverConfig:
    return SolverConfig(ridge_penalty=cfg["simcand.ridge_penalty"],
                        diag_cap=cfg["simcand.diag_cap"])


def operator_config(cfg: dict) -> OperatorConfig:
    return OperatorConfig(a=cfg["augment.a"], b=cfg["augment.b"], alpha=cfg["augment.alpha"])


def train_config(cfg: dict, seed: int) -> TrainConfig:
    """The ``train`` keys as a TrainConfig; a negative patience disables early stopping."""
    return TrainConfig(
        batch_size=cfg["train.batch_size"],
        stage1_epochs=cfg["train.stage1_epochs"],
        stage2_epochs=cfg["train.stage2_epochs"],
        learning_rate=cfg["train.learning_rate"],
        seed=seed,
        enable_operator_loss=cfg["train.operator_loss"],
        enable_cross_loss=cfg["train.cross_loss"],
        patience=cfg["train.patience"] if cfg["train.patience"] >= 0 else None,
    )


def validate_config(cfg: dict) -> None:
    """Checks of the keys no library constructor sees, then the constructors.

    Each range check is written so that nan fails it.  The config
    dataclasses name the failing field first, so prefixing its section
    gives the key.
    """
    errors = []
    if cfg["seed"] < 0:
        errors.append("seed must be >= 0")
    if cfg["corpus.k_core"] < 1:
        errors.append("corpus.k_core must be >= 1")
    if cfg["corpus.max_len"] < 3:
        errors.append("corpus.max_len must be >= 3")
    if not cfg["corpus.delimiter"]:
        errors.append("corpus.delimiter must not be empty")
    if cfg["corpus.sample_users"] < 0:
        errors.append("corpus.sample_users must be >= 0")
    if cfg["simcand.k"] < 1:
        errors.append("simcand.k must be >= 1")
    if not 0.0 < cfg["augment.beta"] < 1.0:
        errors.append("augment.beta must be in (0, 1)")
    if cfg["model.encoder"] not in ENCODERS:
        errors.append(f"model.encoder must be one of {sorted(ENCODERS)}")
    if cfg["model.dim"] < 1:
        errors.append("model.dim must be >= 1")
    # stricter than TrainConfig, which allows 0 for no-op steps in tests
    if cfg["train.learning_rate"] == 0:
        errors.append("train.learning_rate must be > 0")
    ks = cfg["eval.ks"]
    if not ks or min(ks) < 1 or len(set(ks)) < len(ks):
        errors.append("eval.ks must be a non-empty list of distinct cutoffs >= 1")
    for section, build in (("simcand", solver_config), ("augment", operator_config),
                           ("train", lambda c: train_config(c, c["seed"]))):
        try:
            build(cfg)
        except ValueError as exc:
            errors.append(f"{section}.{exc}")
    if errors:
        raise ConfigError("; ".join(errors))


def config_hash(cfg: dict, keys: list[str]) -> str:
    subset = {k: cfg[k] for k in keys}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def lineage_id(step: str, config_hash_: str, parents: dict[str, str]) -> str:
    blob = json.dumps({"step": step, "config": config_hash_, "parents": parents},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
