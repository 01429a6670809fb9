"""Run configuration: defaults, config-file parsing, overrides, hashing.

Config files are JSON objects, flat or nested by section; keys are
dot-namespaced (``corpus.k_core``), and a key given twice is an error.
CLI flags override file keys.  ``DEFAULTS`` lists every key; a command's
``SECTIONS`` give its flags and the keys hashed into its artifacts'
lineage ids, chained through parent ids to refuse mismatched inputs.
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


def _flat_object(pairs: list) -> dict:
    """A ``json.loads`` hook: one object, its nested objects (already flat) as
    dotted keys.  A key given twice, in one object or nested and dotted, is refused."""
    flat = {}
    for name, value in pairs:
        inner = ({f"{name}.{k}": v for k, v in value.items()} if isinstance(value, dict)
                 else {name: value})
        for key, v in inner.items():
            if key in flat:
                raise ConfigError(f"config key {key!r} is given twice")
            flat[key] = v
    return flat


def _number(raw: object, kind: type) -> int | float:
    """A JSON number as ``kind`` (int or float); an int must be integral."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"not a number: {raw!r}")
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return kind(raw)


def _coerce(key: str, raw: object) -> object:
    """``raw``, which must have the JSON type of ``key``'s default, as that type."""
    kind = type(DEFAULTS[key])
    try:
        if kind in (int, float):
            return _number(raw, kind)
        if not isinstance(raw, kind):
            name = {bool: "boolean", list: "list", str: "string"}[kind]
            raise ValueError(f"not a {name}: {raw!r}")
        return [_number(v, int) for v in raw] if kind is list else raw
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then config file, then overrides; unknown keys are errors.

    File values and overrides alike must have their key's JSON type: a
    number, a list of integers, a boolean or a string.
    """
    cfg = dict(DEFAULTS)
    raw: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            raw = json.loads(text, object_pairs_hook=_flat_object)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    for key, value in {**raw, **overrides}.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value)
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
