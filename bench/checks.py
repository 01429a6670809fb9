"""Output checks and the determinism digest of one pipeline run.

The checks run outside the timed region.  The ranking reference is written
independently of ``tailaug.encoders`` and ``tailaug.evaluation``: it
recomputes every user's representation from the saved checkpoint (GRU or
pooled forward pass over sequences grouped by length, no padding) and counts
the pessimistic rank of each test target over the whole catalog.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

REFERENCE_K = 10


@dataclass(frozen=True)
class Artifacts:
    out_dir: Path
    seed: int

    @property
    def store(self) -> Path:
        return self.out_dir / "store.json"

    @property
    def candidates(self) -> Path:
        return self.out_dir / "candidates.json"

    @property
    def checkpoint(self) -> Path:
        return self.out_dir / f"checkpoint_augmented_seed{self.seed}.bin"

    @property
    def report(self) -> Path:
        return self.out_dir / f"checkpoint_augmented_seed{self.seed}_report_test.json"

    @property
    def losses(self) -> Path:
        return self.out_dir / f"losses_augmented_seed{self.seed}.jsonl"


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def loss_records(art: Artifacts) -> list[dict]:
    with open(art.losses, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest(art: Artifacts) -> dict:
    """Hashes of the candidate sets, checkpoint and test report, plus the final loss."""
    out = {
        "candidates_sha256": sha256_file(art.candidates),
        "checkpoint_sha256": sha256_file(art.checkpoint),
        "report_sha256": sha256_file(art.report),
        "final_loss_total": loss_records(art)[-1]["loss_total"],
    }
    out["digest"] = hashlib.sha256(
        json.dumps(out, sort_keys=True).encode("utf-8")).hexdigest()
    return out


def workload_shape(art: Artifacts) -> dict:
    """Corpus properties later claims can quote; read from the prepared store."""
    store = _read_json(art.store)
    train_lengths = np.array([len(s) - 2 for s in store["sequences"]])
    return {
        "users": len(store["users"]),
        "items": len(store["items"]),
        "eligible_users": int(np.count_nonzero(train_lengths >= 2)),
        "mean_train_len": float(train_lengths.mean()),
    }


def check_candidates(art: Artifacts) -> list[tuple[str, bool, str]]:
    d = _read_json(art.candidates)
    n_items = len(d["c"])
    want = min(int(d["k"]), n_items - 1)
    self_hits = [j + 1 for j, c in enumerate(d["c"]) if (j + 1) in c]
    short = [j + 1 for j, cr in enumerate(d["cr"]) if len(cr) != want]
    return [
        ("candidates.no_self", not self_hits,
         f"items in their own candidate set: {self_hits[:5]}"),
        ("candidates.cr_length", not short,
         f"cr lists without {want} entries: {short[:5]}"),
    ]


def check_losses(art: Artifacts) -> list[tuple[str, bool, str]]:
    bad = [r.get("epoch") for r in loss_records(art)
           if not all(math.isfinite(v) for k, v in r.items()
                      if k.startswith("loss_") or k == "valid_score")]
    return [("losses.finite", not bad, f"non-finite loss at epochs {bad[:5]}")]


def check_report(art: Artifacts) -> list[tuple[str, bool, str]]:
    d = _read_json(art.report)
    ks = sorted(int(k) for k in d["ks"])
    problems = []
    for name, row in d["segments"].items():
        for key, value in row.items():
            if key != "count" and not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{name}.{key}={value}")
        hits = [row[f"hit@{k}"] for k in ks]
        if any(a > b for a, b in zip(hits, hits[1:])):
            problems.append(f"{name}: hit@k decreases in k ({hits})")
    for k, value in d["tcov"].items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"tcov@{k}={value}")
    return [("report.ranges", not problems, "; ".join(problems[:5]))]


def _gru_forward(params, x):
    """Final GRU state for a (batch, steps, dim) block of equal-length inputs."""
    h = np.zeros((x.shape[0], x.shape[2]))
    for t in range(x.shape[1]):
        xt = x[:, t, :]
        z = expit(xt @ params["gru_Wz"] + h @ params["gru_Uz"] + params["gru_bz"])
        r = expit(xt @ params["gru_Wr"] + h @ params["gru_Ur"] + params["gru_br"])
        c = np.tanh(xt @ params["gru_Wh"] + (r * h) @ params["gru_Uh"] + params["gru_bh"])
        h = (1.0 - z) * h + z * c
    return h


def _pooled_forward(params, x):
    rho = float(expit(params["pool_theta"][0]))
    w = rho ** np.arange(x.shape[1] - 1, -1, -1, dtype=np.float64)
    return (w[None, :, None] * x).sum(axis=1) / w.sum()


def reference_ranks(params: dict, encoder: str, inputs: list[np.ndarray],
                    targets: np.ndarray) -> np.ndarray:
    """Pessimistic 1-based rank of each target: items scoring >= the target."""
    emb = params["item_embeddings"]
    forward = {"gru": _gru_forward, "pooled": _pooled_forward}[encoder]
    h = np.empty((len(inputs), emb.shape[1]))
    lengths = np.array([len(s) for s in inputs])
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        ids = np.stack([inputs[r] for r in rows])
        h[rows] = forward(params, emb[ids])
    ranks = np.empty(len(inputs), dtype=np.int64)
    for start in range(0, len(inputs), 1024):
        block = slice(start, start + 1024)
        scores = h[block] @ emb[1:].T
        target_scores = scores[np.arange(scores.shape[0]), targets[block] - 1]
        ranks[block] = np.count_nonzero(scores >= target_scores[:, None], axis=1)
    return ranks


def check_reference(art: Artifacts, load_checkpoint) -> list[tuple[str, bool, str]]:
    """The report's overall hit@10 / ndcg@10 against the independent reference."""
    store = _read_json(art.store)
    max_len = int(store["max_len"])
    inputs = [np.asarray(s[:-1][-max_len:], dtype=np.int64) for s in store["sequences"]]
    targets = np.asarray([s[-1] for s in store["sequences"]], dtype=np.int64)
    model, _, meta = load_checkpoint(art.checkpoint)
    ranks = reference_ranks(model.params, meta["encoder"], inputs, targets)
    k = REFERENCE_K
    hit = int(np.count_nonzero(ranks <= k)) / len(ranks)
    ndcg = math.fsum(1.0 / math.log2(r + 1) for r in ranks.tolist() if r <= k) / len(ranks)
    overall = _read_json(art.report)["segments"]["overall"]
    return [
        (f"reference.hit@{k}", overall[f"hit@{k}"] == hit,
         f"report {overall[f'hit@{k}']!r} vs reference {hit!r}"),
        (f"reference.ndcg@{k}", abs(overall[f"ndcg@{k}"] - ndcg) <= 1e-12,
         f"report {overall[f'ndcg@{k}']!r} vs reference {ndcg!r}"),
    ]


def cheap_checks(art: Artifacts) -> list[tuple[str, bool, str]]:
    return check_candidates(art) + check_losses(art) + check_report(art)
