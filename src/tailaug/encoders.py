"""Item embedding table and sequence encoders with hand-written gradients.

Two reference encoders honor the same contract (item ids in, one D-vector
per sequence out, exact analytic gradients back):

* ``pooled``  — recency-decayed pooling: a geometric weight per position
  with a single learnable decay scalar, normalized to a convex
  combination.  Cheap; useful for fast tests.
* ``gru``     — a single-layer gated recurrent unit; the output is the
  final hidden state.

A batch is ragged: ``encode_ragged(model, ids, lengths, history)`` takes
the real item ids concatenated row by row and the per-row lengths, and
``backward_batch`` returns one embedding-gradient row per entry of
``ids``, in the same order; ``encode_batch(model, seqs)`` wraps it for a
list of sequences.  Only an encode with ``history`` keeps the cache a
backward needs; scoring encodes without it, to the same bits.  Nothing is
padded: a row's encoding depends on its own ids alone, to the last bit,
whatever else is in its batch.  Id 0 is never a real position, and the
padding embedding row stays exactly zero for the lifetime of a model.

Every encode buffer, cache entry and gradient takes its dtype from the
parameters, so a model initialized in float32 encodes and back-propagates
in float32.  The one exception is the embedding table's scatter-add,
which ``np.bincount`` sums in float64, one table column at a time, before
each column is cast to the table's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rand import INIT, derive_rng


def _sigmoid_(x, scratch):
    """Logistic function of ``x`` in place, with a ``scratch`` buffer of its shape.

    exp only sees min(x, -x) = -|x|, so nothing overflows; the numerator
    ``max(e, x >= 0)`` is 1 for x >= 0 and e otherwise, without a branch.
    """
    positive = x >= 0
    np.minimum(x, np.negative(x, out=scratch), out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=scratch)
    np.maximum(x, positive, out=x)
    return np.divide(x, scratch, out=x)


def sigmoid(x):
    """Logistic function without overflow; a new array.

    A floating input keeps its dtype; anything else computes in float64.
    """
    x = np.asarray(x)
    x = x.astype(x.dtype if x.dtype.kind == "f" else np.float64)
    return _sigmoid_(x, np.empty_like(x))


class PooledEncoder:
    """Decayed pooling: H = sum_j w_j e_j / sum_j w_j, w_j = rho^(L-j).

    The most recent item always has weight 1; rho = sigmoid(theta) lives
    in (0, 1), so rho -> 0 collapses onto the last item and rho -> 1 onto
    the plain mean.  Each id's weight is ``rho`` to the power of its
    distance from its row's end, and every sum runs over the row's own
    ids (``np.add.reduceat``), so nothing is padded.
    """

    def init_params(self, dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {"pool_theta": np.zeros(1, dtype=np.float64)}

    def encode_batch(self, params, ids, lengths, history):
        emb = params["item_embeddings"][ids]
        starts = np.cumsum(lengths) - lengths
        # distance of each id from its row's last id, which has distance 0
        exponents = (np.repeat(starts + lengths - 1, lengths)
                     - np.arange(len(ids))).astype(emb.dtype)
        rho = float(sigmoid(params["pool_theta"])[0])
        w = rho ** exponents
        wsum = np.add.reduceat(w, starts)[:, np.newaxis]
        h = np.add.reduceat(np.multiply(emb, w[:, np.newaxis], out=emb), starts, axis=0)
        h /= wsum
        if not history:
            return h, None
        cache = {"ids": ids, "lengths": lengths, "w": w, "wsum": wsum, "h": h, "rho": rho,
                 "exponents": exponents}
        return h, cache

    def backward_batch(self, params, cache, dh):
        """Gradients of ``pool_theta``, and one embedding-gradient row per id.

        The encode weighted its gathered rows in place, so they are gathered
        again from the same table.
        """
        w, wsum, h, rho = cache["w"], cache["wsum"], cache["h"], cache["rho"]
        emb, lengths = params["item_embeddings"][cache["ids"]], cache["lengths"]
        ds = dh / wsum                       # d/d(weighted sum), per row
        dwsum = -np.sum(dh * h, axis=1) / wsum[:, 0]
        demb = np.repeat(ds, lengths, axis=0)
        # dL/dw per id, via both the sum and the normalizer
        dw = np.einsum("nd,nd->n", emb, demb) + np.repeat(dwsum, lengths)
        demb *= w[:, np.newaxis]
        exps = cache["exponents"]
        # d(rho^e)/d(rho); the e=0 term is identically zero (avoid rho^-1)
        dw_drho = np.where(exps == 0.0, 0.0, exps * rho ** np.maximum(exps - 1.0, 0.0))
        drho = float(np.sum(dw * dw_drho))
        dtheta = drho * rho * (1.0 - rho)
        return {"pool_theta": np.array([dtheta], dtype=emb.dtype)}, demb


def _gemm(a, b, out):
    """``a @ b`` into ``out`` as a matrix-matrix product even when ``a`` has one row.

    numpy sends a one-row product down a matrix-vector path that rounds
    differently; going through the matrix path keeps a row's result
    independent of how many rows share the product.
    """
    if len(a) > 1:
        return np.matmul(a, b, out=out)
    out[...] = (np.concatenate([a, a]) @ b)[:1]
    return out


class GRUEncoder:
    """Single-layer GRU; the sequence representation is the final state.

    This is the GRU4Rec encoder (Hidasi et al., ICLR 2016).  Rows are run
    longest first and aligned at their last item, so the rows active at a
    step are a leading slice.  Nothing is padded: the real positions are
    laid out step-major (step ``s`` owns rows ``offsets[s]:offsets[s + 1]``)
    in buffers allocated once per call, and every step op writes its
    contiguous slice in place.  A row's arithmetic is that of a masked step
    over the whole left-padded batch, so its encoding does not depend on
    the other rows.
    """

    _GATES = ("z", "r", "h")

    def init_params(self, dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        scale = 1.0 / np.sqrt(dim)
        params = {}
        for g in self._GATES:
            params[f"gru_W{g}"] = rng.uniform(-scale, scale, size=(dim, dim))
            params[f"gru_U{g}"] = rng.uniform(-scale, scale, size=(dim, dim))
            params[f"gru_b{g}"] = np.zeros(dim, dtype=np.float64)
        return params

    def encode_batch(self, params, ids, lengths, history):
        b, t, d = len(lengths), int(lengths.max()), len(params["gru_bz"])
        order = np.argsort(-lengths, kind="stable")
        # active rows per step: those whose sequence has started by then
        active = np.searchsorted(-lengths[order], np.arange(t) - t, side="right")
        offsets = np.concatenate([[0], np.cumsum(active)])
        n = offsets[-1]
        step_of = np.repeat(np.arange(t), active)
        # entry of ids at (step, sorted row): the row's end, moved back from the last step
        gather = np.cumsum(lengths)[order][np.arange(n) - offsets[step_of]] + step_of - t
        xs = params["item_embeddings"][ids[gather]]
        w_zr, u_zr = (params["gru_Wz"], params["gru_Wr"]), (params["gru_Uz"], params["gru_Ur"])
        w_h, u_h, b_h = params["gru_Wh"], params["gru_Uh"], params["gru_bh"]
        b_zr = np.stack([params["gru_bz"], params["gru_br"]])[:, np.newaxis]
        dt = xs.dtype
        if history:
            # states[offsets[s]:offsets[s + 1]] enter step s (a row starting there
            # enters with zeros), and the last step's states go to states[n:];
            # gates[2 * offsets[s]:2 * offsets[s + 1]] holds step s's z rows, then its r rows
            state_at, step_at, rows = offsets.tolist(), offsets.tolist(), n
        else:
            # two rolling state buffers: step s reads states[(s % 2) * b:] and writes
            # the other; gates and candidate hold one step.  A buffer's rows are only
            # written up to the active count, which never falls, so a row that starts
            # at a step finds zeros
            state_at, step_at, rows = [(s % 2) * b for s in range(t + 1)], [0] * t, b
        states = np.zeros((rows + b, d), dt)
        gates, cand = np.empty((2 * rows, d), dt), np.empty((rows, d), dt)
        rh, tmp = np.empty((b, d), dt), np.empty((2 * b, d), dt)
        for step in range(t):
            k, at, nxt, lo = active[step], state_at[step], state_at[step + 1], step_at[step]
            x, h, c = xs[offsets[step]:offsets[step + 1]], states[at:at + k], cand[lo:lo + k]
            zr = gates[2 * lo:2 * (lo + k)].reshape(2, k, d)
            z, r = zr
            for gate, w_g, u_g in zip(zr, w_zr, u_zr):
                _gemm(x, w_g, gate)
                gate += _gemm(h, u_g, rh[:k])
            zr += b_zr
            _sigmoid_(zr, tmp[:2 * k].reshape(2, k, d))
            _gemm(x, w_h, c)
            c += _gemm(np.multiply(r, h, out=rh[:k]), u_h, tmp[:k])
            c += b_h
            np.tanh(c, out=c)
            h_new = np.subtract(1.0, z, out=states[nxt:nxt + k])
            h_new *= h
            h_new += np.multiply(z, c, out=rh[:k])
        out = np.empty((b, d), dt)
        out[order] = states[state_at[t]:state_at[t] + b]
        if not history:
            return out, None
        cache = {"xs": xs, "states": states, "gates": gates, "cand": cand,
                 "offsets": offsets, "active": active, "order": order, "gather": gather}
        return out, cache

    def backward_batch(self, params, cache, dh):
        """Gradients of the parameters, and one embedding-gradient row per id.

        The cache is consumed: the input gradients overwrite its inputs, and
        the returned rows are its candidate buffer, reordered.
        """
        xs, states, gates, cand = cache["xs"], cache["states"], cache["gates"], cache["cand"]
        offsets, active = cache["offsets"], cache["active"]
        b, d = dh.shape
        dt = xs.dtype
        w = np.hstack([params["gru_Wz"], params["gru_Wr"], params["gru_Wh"]])
        u_zr = np.hstack([params["gru_Uz"], params["gru_Ur"]])
        u_h = params["gru_Uh"]
        dw, du_zr = np.zeros_like(w), np.zeros_like(u_zr)
        du_h, db = np.zeros_like(u_h), np.zeros(3 * d, dt)
        dh = dh[cache["order"]]
        # dpre: per row, the gradient of the [z | r | candidate] pre-activations
        dpre, dzr = np.empty((b, 3 * d), dt), np.empty((2 * b, d), dt)
        drh, t1, t2 = np.empty((b, d), dt), np.empty((b, d), dt), np.empty((b, d), dt)
        for step in range(len(active) - 1, -1, -1):
            lo, hi, k = offsets[step], offsets[step + 1], active[step]
            g = dh[:k]  # rows not started yet carry no gradient further back
            h_prev, c, p = states[lo:hi], cand[lo:hi], dpre[:k]
            zr = gates[2 * lo:2 * hi].reshape(2, k, d)
            z, r = zr
            np.subtract(1.0, np.multiply(c, c, out=t1[:k]), out=t1[:k])
            np.multiply(np.multiply(g, z, out=t2[:k]), t1[:k], out=p[:, 2 * d:])
            np.matmul(p[:, 2 * d:], u_h.T, out=drh[:k])
            s = dzr[:2 * k].reshape(2, k, d)
            np.multiply(zr, np.subtract(1.0, zr, out=s), out=s)
            np.multiply(np.multiply(g, np.subtract(c, h_prev, out=t1[:k]), out=t1[:k]), s[0],
                        out=p[:, :d])
            np.multiply(np.multiply(drh[:k], h_prev, out=t1[:k]), s[1], out=p[:, d:2 * d])
            dw += xs[lo:hi].T @ p  # read before the step's input gradients overwrite them
            du_zr += h_prev.T @ p[:, :2 * d]
            du_h += np.multiply(r, h_prev, out=t1[:k]).T @ p[:, 2 * d:]
            db += p.sum(axis=0)
            np.matmul(p, w.T, out=xs[lo:hi])
            g *= np.subtract(1.0, z, out=t1[:k])
            g += np.multiply(drh[:k], r, out=t1[:k])
            g += np.matmul(p[:, :2 * d], u_zr.T, out=t1[:k])
        demb = cand  # dead after the loop; back to the row-major order of ids
        demb[cache["gather"]] = xs
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
    params: dict[str, np.ndarray]

    @property
    def embeddings(self) -> np.ndarray:
        return self.params["item_embeddings"]

    @property
    def encoder(self):
        return get_encoder(self.encoder_name)


def init_model(n_items: int, dim: int, seed: int, encoder: str = "gru",
               dtype=np.float64) -> ModelState:
    """Embeddings ~ Normal(0, 1/sqrt(dim)); padding row zeroed; seeded.

    The draws do not depend on ``dtype``: they are made in float64 and cast.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = derive_rng(seed, INIT)
    emb = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_items + 1, dim))
    emb[0] = 0.0
    enc = get_encoder(encoder)
    params = {"item_embeddings": emb}
    params.update(enc.init_params(dim, rng))
    params = {k: v.astype(dtype, copy=False) for k, v in params.items()}
    return ModelState(n_items=n_items, dim=dim, encoder_name=encoder, params=params)


def lookup(model: ModelState, ids: np.ndarray) -> np.ndarray:
    return model.embeddings[_checked_ids(model, ids)]


def _checked_ids(model: ModelState, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() > model.n_items):
        bad = ids[(ids < 0) | (ids > model.n_items)][0]
        raise ValueError(f"item id {bad} outside [0, {model.n_items}]")
    return ids


def encode_ragged(model: ModelState, ids, lengths, history: bool = True):
    """Encode rows given back to back; returns (H, cache) for ``backward_batch``.

    Row ``i`` is the ``lengths[i]`` ids of ``ids`` after those of the rows
    before it.  Without ``history`` the encoders keep no per-step state for
    a backward and the cache is None; H is the same to the last bit.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if not lengths.all():
        raise ValueError("cannot encode an empty sequence")
    ids = _checked_ids(model, ids)
    if lengths.sum() != len(ids):
        raise ValueError(f"lengths add up to {lengths.sum()}, but there are {len(ids)} ids")
    h, enc_cache = model.encoder.encode_batch(model.params, ids, lengths, history)
    return h, ({"ids": ids, "enc": enc_cache} if history else None)


def encode_batch(model: ModelState, seqs: list[np.ndarray], history: bool = True):
    """:func:`encode_ragged` of a list of id sequences."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    return encode_ragged(model, np.concatenate(seqs), lengths, history)


def backward_batch(model: ModelState, cache, dh,
                   item_ids=None, d_items=None) -> dict[str, np.ndarray]:
    """Gradients of a batch encode; embedding grads are scatter-added and
    the padding row is zeroed.  Gradient rows ``d_items`` of embeddings used
    outside the encoder, one per entry of ``item_ids``, add after the encoded rows."""
    enc_grads, demb = model.encoder.backward_batch(model.params, cache["enc"], dh)
    ids, parts = cache["ids"], [demb]
    if item_ids is not None:
        ids, parts = np.concatenate([ids, item_ids]), [demb, d_items]
    rows, d = model.embeddings.shape
    # one column at a time, bincount adds each (id, column) cell's rows in order
    # from zero in float64, as np.add.at would, then casts to the table's dtype;
    # a (d, rows) buffer keeps each column's write contiguous
    by_column = np.empty((d, rows), model.embeddings.dtype)
    column = np.empty(len(ids))
    for j in range(d):
        np.concatenate([part[:, j] for part in parts], out=column)
        by_column[j] = np.bincount(ids, weights=column, minlength=rows)
    demb_table = np.ascontiguousarray(by_column.T)
    demb_table[0] = 0.0
    grads = {"item_embeddings": demb_table}
    grads.update(enc_grads)
    return grads
