"""Item embedding table and sequence encoders with hand-written gradients.

Two reference encoders honor the same contract (embedded sequence in, one
D-vector out, exact analytic gradients back):

* ``pooled``  — recency-decayed pooling: a geometric weight per position
  with a single learnable decay scalar, normalized to a convex
  combination.  Cheap; useful for fast tests.
* ``gru``     — a single-layer gated recurrent unit; the output is the
  final hidden state.

Batches are left-padded with the reserved padding id 0 so every sequence
ends at the last time step; padded steps are masked out (the GRU never
computes them) and the padding embedding row stays exactly zero for the
lifetime of a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rand import INIT, derive_rng


def sigmoid(x):
    """Logistic function without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def _gemm(a, b):
    """``a @ b`` as a matrix-matrix product even when ``a`` has one row.

    numpy sends a one-row product down a matrix-vector path that rounds
    differently; going through the matrix path keeps a row's result
    independent of how many rows share the product.
    """
    if len(a) > 1:
        return a @ b
    return (np.concatenate([a, a]) @ b)[:1]


class GRUEncoder:
    """Single-layer GRU; the sequence representation is the final state.

    This is the GRU4Rec encoder (Hidasi et al., ICLR 2016).  Rows are run
    longest first, so with left padding the rows active at a step are a
    leading slice and padded steps are never computed; each step does one
    ``x @ [Wz|Wr|Wh]``, one ``h @ [Uz|Ur]`` and one sigmoid over the z/r
    block.  A row's arithmetic is that of a masked step over the whole
    batch, so its encoding does not depend on the other rows.
    """

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
        lengths = np.count_nonzero(mask, axis=1)
        order = np.argsort(-lengths, kind="stable")
        # active rows per step: those whose sequence has started by then
        active = np.searchsorted(-lengths[order], np.arange(t) - t, side="right")
        xs = np.take(emb.transpose(1, 0, 2), order, axis=1)  # time-major, sorted rows
        w = np.hstack([params["gru_Wz"], params["gru_Wr"], params["gru_Wh"]])
        u_zr = np.hstack([params["gru_Uz"], params["gru_Ur"]])
        b_zr = np.concatenate([params["gru_bz"], params["gru_br"]])
        u_h, b_h = params["gru_Uh"], params["gru_bh"]
        h = np.zeros((0, d), dtype=np.float64)
        steps = []
        for step in range(t):
            k = active[step]
            if k > len(h):  # rows starting now enter with a zero state
                h = np.concatenate([h, np.zeros((k - len(h), d))])
            x = xs[step, :k]
            a = _gemm(x, w)
            zr = sigmoid(a[:, :2 * d] + _gemm(h, u_zr) + b_zr)
            z, r = zr[:, :d], zr[:, d:]
            c = np.tanh(a[:, 2 * d:] + _gemm(r * h, u_h) + b_h)
            steps.append((x, h, zr, c))
            h = (1.0 - z) * h + z * c
        out = np.empty_like(h)
        out[order] = h
        return out, {"steps": steps, "order": order, "w": w, "u_zr": u_zr, "t": t}

    def backward_batch(self, params, cache, dh):
        steps, order, w, u_zr = cache["steps"], cache["order"], cache["w"], cache["u_zr"]
        b, d = dh.shape
        u_h = params["gru_Uh"]
        dw, du_zr = np.zeros_like(w), np.zeros_like(u_zr)
        du_h, db = np.zeros_like(u_h), np.zeros(3 * d)
        demb = np.zeros((b, cache["t"], d), dtype=np.float64)
        dh = dh[order]
        for step in range(len(steps) - 1, -1, -1):
            x, h_prev, zr, c = steps[step]
            k = len(x)
            dh = dh[:k]  # rows not started yet carry no gradient further back
            z, r = zr[:, :d], zr[:, d:]
            dpre = np.empty((k, 3 * d))  # gradient of the [z | r | candidate] pre-activations
            dpre[:, 2 * d:] = dh * z * (1.0 - c * c)
            drh = dpre[:, 2 * d:] @ u_h.T
            dpre[:, :d] = dh * (c - h_prev)
            dpre[:, d:2 * d] = drh * h_prev
            dpre[:, :2 * d] *= zr * (1.0 - zr)
            dw += x.T @ dpre
            du_zr += h_prev.T @ dpre[:, :2 * d]
            du_h += (r * h_prev).T @ dpre[:, 2 * d:]
            db += dpre.sum(axis=0)
            demb[order[:k], step] = dpre @ w.T
            dh = dh * (1.0 - z) + drh * r + dpre[:, :2 * d] @ u_zr.T
        grads = {}
        for i, g in enumerate(self._GATES):
            grads[f"gru_W{g}"] = dw[:, i * d:(i + 1) * d]
            grads[f"gru_b{g}"] = db[i * d:(i + 1) * d]
        grads["gru_Uz"], grads["gru_Ur"] = du_zr[:, :d], du_zr[:, d:]
        grads["gru_Uh"] = du_h
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
    real = cache["mask"] > 0
    demb_table = np.zeros_like(model.embeddings)
    np.add.at(demb_table, cache["ids"][real], demb[real])
    demb_table[0] = 0.0
    grads = {"item_embeddings": demb_table}
    grads.update(enc_grads)
    return grads
