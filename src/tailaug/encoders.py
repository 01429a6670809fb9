"""Item embedding table and sequence encoders with hand-written gradients.

Two reference encoders honor the same contract (embedded sequence in, one
D-vector out, exact analytic gradients back):

* ``pooled``  — recency-decayed pooling: a geometric weight per position
  with a single learnable decay scalar, normalized to a convex
  combination.  Cheap; useful for fast tests.
* ``gru``     — a single-layer gated recurrent unit; the output is the
  final hidden state.

Batches are left-padded with the reserved padding id 0 so every sequence
ends at the last time step; padded steps are masked out and the padding
embedding row stays exactly zero for the lifetime of a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rand import INIT, derive_rng


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pad_batch(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Left-pad variable-length id sequences into (ids, mask) arrays."""
    t = max(len(s) for s in seqs)
    ids = np.zeros((len(seqs), t), dtype=np.int64)
    mask = np.zeros((len(seqs), t), dtype=np.float64)
    for i, s in enumerate(seqs):
        if len(s) > 0:
            ids[i, t - len(s):] = s
            mask[i, t - len(s):] = 1.0
    return ids, mask


class PooledEncoder:
    """Decayed pooling: H = sum_j w_j e_j / sum_j w_j, w_j = rho^(L-j).

    The most recent item always has weight 1; rho = sigmoid(theta) lives
    in (0, 1), so rho -> 0 collapses onto the last item and rho -> 1 onto
    the plain mean.
    """

    name = "pooled"

    def init_params(self, dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {"pool_theta": np.zeros(1, dtype=np.float64)}

    def encode_batch(self, params, emb, mask):
        b, t, d = emb.shape
        rho = float(sigmoid(params["pool_theta"])[0])
        exponents = (t - 1) - np.arange(t, dtype=np.float64)  # last step -> 0
        w = rho ** exponents
        wm = mask * w[np.newaxis, :]
        wsum = wm.sum(axis=1, keepdims=True)
        h = np.einsum("bt,btd->bd", wm, emb) / wsum
        cache = {"emb": emb, "mask": mask, "w": w, "wm": wm, "wsum": wsum,
                 "h": h, "rho": rho, "exponents": exponents}
        return h, cache

    def backward_batch(self, params, cache, dh):
        emb, mask, w = cache["emb"], cache["mask"], cache["w"]
        wm, wsum, h, rho = cache["wm"], cache["wsum"], cache["h"], cache["rho"]
        ds = dh / wsum                       # d/d(weighted sum), per row
        dwsum = -np.sum(dh * h, axis=1, keepdims=True) / wsum
        demb = wm[:, :, np.newaxis] * ds[:, np.newaxis, :]
        # dL/dw_t accumulated over rows: via both the sum and the normalizer
        dw_per = mask * (np.einsum("btd,bd->bt", emb, ds) + dwsum)
        dw = dw_per.sum(axis=0)
        exps = cache["exponents"]
        # d(rho^e)/d(rho); the e=0 term is identically zero (avoid rho^-1)
        dw_drho = np.where(exps == 0.0, 0.0, exps * rho ** np.maximum(exps - 1.0, 0.0))
        drho = float(np.sum(dw * dw_drho))
        dtheta = drho * rho * (1.0 - rho)
        return {"pool_theta": np.array([dtheta], dtype=np.float64)}, demb


class GRUEncoder:
    """Single-layer GRU; the sequence representation is the final state."""

    name = "gru"

    _GATES = ("z", "r", "h")

    def init_params(self, dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        scale = 1.0 / np.sqrt(dim)
        params = {}
        for g in self._GATES:
            params[f"gru_W{g}"] = rng.uniform(-scale, scale, size=(dim, dim))
            params[f"gru_U{g}"] = rng.uniform(-scale, scale, size=(dim, dim))
            params[f"gru_b{g}"] = np.zeros(dim, dtype=np.float64)
        return params

    def encode_batch(self, params, emb, mask):
        b, t, d = emb.shape
        h = np.zeros((b, d), dtype=np.float64)
        steps = []
        for step in range(t):
            x = emb[:, step, :]
            m = mask[:, step][:, np.newaxis]
            z = sigmoid(x @ params["gru_Wz"] + h @ params["gru_Uz"] + params["gru_bz"])
            r = sigmoid(x @ params["gru_Wr"] + h @ params["gru_Ur"] + params["gru_br"])
            rh = r * h
            c = np.tanh(x @ params["gru_Wh"] + rh @ params["gru_Uh"] + params["gru_bh"])
            h_new = (1.0 - z) * h + z * c
            steps.append({"x": x, "m": m, "z": z, "r": r, "c": c, "h_prev": h})
            h = m * h_new + (1.0 - m) * h
        return h, {"steps": steps, "dim": d}

    def backward_batch(self, params, cache, dh):
        grads = {k: np.zeros_like(v) for k, v in params.items() if k.startswith("gru_")}
        steps = cache["steps"]
        b = dh.shape[0]
        t = len(steps)
        demb = np.zeros((b, t, cache["dim"]), dtype=np.float64)
        dh = dh.copy()
        for step in range(t - 1, -1, -1):
            s = steps[step]
            m, z, r, c, h_prev, x = s["m"], s["z"], s["r"], s["c"], s["h_prev"], s["x"]
            dh_new = dh * m
            dh_skip = dh * (1.0 - m)
            dz = dh_new * (c - h_prev)
            dc = dh_new * z
            dh_prev = dh_new * (1.0 - z)
            dc_pre = dc * (1.0 - c * c)
            drh = dc_pre @ params["gru_Uh"].T
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r
            dz_pre = dz * z * (1.0 - z)
            dr_pre = dr * r * (1.0 - r)
            grads["gru_Wh"] += x.T @ dc_pre
            grads["gru_Uh"] += (r * h_prev).T @ dc_pre
            grads["gru_bh"] += dc_pre.sum(axis=0)
            grads["gru_Wz"] += x.T @ dz_pre
            grads["gru_Uz"] += h_prev.T @ dz_pre
            grads["gru_bz"] += dz_pre.sum(axis=0)
            grads["gru_Wr"] += x.T @ dr_pre
            grads["gru_Ur"] += h_prev.T @ dr_pre
            grads["gru_br"] += dr_pre.sum(axis=0)
            demb[:, step, :] = (dz_pre @ params["gru_Wz"].T
                                + dr_pre @ params["gru_Wr"].T
                                + dc_pre @ params["gru_Wh"].T)
            dh = (dh_prev + dz_pre @ params["gru_Uz"].T + dr_pre @ params["gru_Ur"].T
                  + dh_skip)
        return grads, demb


ENCODERS = {"pooled": PooledEncoder(), "gru": GRUEncoder()}


def get_encoder(name: str):
    try:
        return ENCODERS[name]
    except KeyError:
        raise ValueError(f"unknown encoder {name!r}; available: {sorted(ENCODERS)}") from None


@dataclass
class ModelState:
    """Embedding table plus encoder parameters, one flat parameter dict.

    Row 0 of the embedding table is the padding row; it is initialized to
    zero and its gradient is always masked, so it stays exactly zero.
    """

    n_items: int
    dim: int
    encoder_name: str
    params: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def embeddings(self) -> np.ndarray:
        return self.params["item_embeddings"]

    @property
    def encoder(self):
        return get_encoder(self.encoder_name)


def init_model(n_items: int, dim: int, seed: int, encoder: str = "gru") -> ModelState:
    """Embeddings ~ Normal(0, 1/sqrt(dim)); padding row zeroed; seeded."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = derive_rng(seed, INIT)
    emb = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_items + 1, dim))
    emb[0] = 0.0
    enc = get_encoder(encoder)
    params = {"item_embeddings": emb}
    params.update(enc.init_params(dim, rng))
    return ModelState(n_items=n_items, dim=dim, encoder_name=encoder, params=params)


def lookup(model: ModelState, ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() > model.n_items):
        bad = ids[(ids < 0) | (ids > model.n_items)][0]
        raise ValueError(f"item id {bad} outside [0, {model.n_items}]")
    return model.embeddings[ids]


def encode_batch(model: ModelState, seqs: list[np.ndarray]):
    """Encode a list of id sequences; returns (H, cache) for backward."""
    for s in seqs:
        if len(s) == 0:
            raise ValueError("cannot encode an empty sequence")
    ids, mask = pad_batch([np.asarray(s, dtype=np.int64) for s in seqs])
    emb = lookup(model, ids)
    h, enc_cache = model.encoder.encode_batch(model.params, emb, mask)
    return h, {"ids": ids, "mask": mask, "enc": enc_cache}


def encode(model: ModelState, seq) -> np.ndarray:
    """Single-sequence convenience wrapper around the batched path."""
    h, _ = encode_batch(model, [np.asarray(seq, dtype=np.int64)])
    return h[0]


def backward_batch(model: ModelState, cache, dh) -> dict[str, np.ndarray]:
    """Gradients of a batch encode; embedding grads are scatter-added and
    the padding row is zeroed."""
    enc_grads, demb = model.encoder.backward_batch(model.params, cache["enc"], dh)
    demb_table = np.zeros_like(model.embeddings)
    np.add.at(demb_table, cache["ids"], demb)
    demb_table[0] = 0.0
    grads = {"item_embeddings": demb_table}
    grads.update(enc_grads)
    return grads
