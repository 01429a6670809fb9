import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailaug.encoders import (_gemm, _sigmoid_, backward_batch, encode_batch,
                              get_encoder, init_model, sigmoid)

from conftest import DTYPES, encode_one


def pad_batch(seqs):
    """Left-pad variable-length id sequences into (ids, mask) arrays."""
    t = max(len(s) for s in seqs)
    ids = np.zeros((len(seqs), t), dtype=np.int64)
    mask = np.zeros((len(seqs), t), dtype=np.float64)
    for i, s in enumerate(seqs):
        if len(s) > 0:
            ids[i, t - len(s):] = s
            mask[i, t - len(s):] = 1.0
    return ids, mask


def dense_reference_grads(model, seqs, dh):
    """The GRU gradients as a padded encode and a dense ``(b, t, d)`` backward give them.

    The forward runs the rows longest first over the left-padded batch;
    the backward fills a dense embedding gradient, and only its real
    positions are scatter-added into the table.
    """
    p, d = model.params, model.dim
    gemm = lambda a, b: _gemm(a, b, np.empty((len(a), b.shape[1])))
    ids, mask = pad_batch([np.asarray(s) for s in seqs])
    b, t = ids.shape
    lengths = np.count_nonzero(mask, axis=1)
    order = np.argsort(-lengths, kind="stable")
    active = np.searchsorted(-lengths[order], np.arange(t) - t, side="right")
    xs = np.take(model.embeddings[ids].transpose(1, 0, 2), order, axis=1)
    w = np.hstack([p["gru_Wz"], p["gru_Wr"], p["gru_Wh"]])
    u_zr = np.hstack([p["gru_Uz"], p["gru_Ur"]])
    b_zr = np.concatenate([p["gru_bz"], p["gru_br"]])
    u_h, b_h = p["gru_Uh"], p["gru_bh"]
    h, steps = np.zeros((0, d)), []
    for step in range(t):
        k = active[step]
        if k > len(h):
            h = np.concatenate([h, np.zeros((k - len(h), d))])
        x = xs[step, :k]
        a = gemm(x, w)
        zr = sigmoid(a[:, :2 * d] + gemm(h, u_zr) + b_zr)
        z, r = zr[:, :d], zr[:, d:]
        c = np.tanh(a[:, 2 * d:] + gemm(r * h, u_h) + b_h)
        steps.append((x, h, zr, c))
        h = (1.0 - z) * h + z * c
    dw, du_zr = np.zeros_like(w), np.zeros_like(u_zr)
    du_h, db = np.zeros_like(u_h), np.zeros(3 * d)
    demb = np.zeros((b, t, d))
    dh = dh[order]
    for step in range(t - 1, -1, -1):
        x, h_prev, zr, c = steps[step]
        k = len(x)
        dh = dh[:k]
        z, r = zr[:, :d], zr[:, d:]
        dpre = np.empty((k, 3 * d))
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
    real = mask > 0
    table = np.zeros_like(model.embeddings)
    np.add.at(table, ids[real], demb[real])
    table[0] = 0.0
    grads = {"item_embeddings": table, "gru_Uz": du_zr[:, :d], "gru_Ur": du_zr[:, d:],
             "gru_Uh": du_h}
    for i, g in enumerate(("z", "r", "h")):
        grads[f"gru_W{g}"] = dw[:, i * d:(i + 1) * d]
        grads[f"gru_b{g}"] = db[i * d:(i + 1) * d]
    return grads


def finite_difference_check(model, seqs, grads, w, loss_fn, rng, n_checks=20,
                            tol=1e-4):
    """Central-difference check on randomly chosen parameter coordinates."""
    names = list(model.params)
    worst = 0.0
    checked = 0
    while checked < n_checks:
        name = names[rng.integers(len(names))]
        arr = model.params[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        if name == "item_embeddings" and idx[0] == 0:
            continue  # padding row is pinned at zero
        eps = 1e-6
        old = arr[idx]
        arr[idx] = old + eps
        f1 = loss_fn()
        arr[idx] = old - eps
        f2 = loss_fn()
        arr[idx] = old
        numeric = (f1 - f2) / (2 * eps)
        analytic = grads[name][idx]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)
        checked += 1
    assert worst <= tol, f"worst relative gradient error {worst:.2e}"


class TestInitModel:
    def test_deterministic_per_seed(self):
        a = init_model(20, 8, seed=5)
        b = init_model(20, 8, seed=5)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        a = init_model(20, 8, seed=5)
        b = init_model(20, 8, seed=6)
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_entry_variance_near_inverse_dim(self):
        model = init_model(1600, 64, seed=0)
        entries = model.embeddings[1:].ravel()
        assert entries.size >= 100_000
        assert np.var(entries) == pytest.approx(1.0 / 64, rel=0.1)

    def test_padding_row_zero(self):
        model = init_model(50, 16, seed=1)
        np.testing.assert_array_equal(model.embeddings[0], np.zeros(16))

    def test_default_dim_matches_convention(self):
        # 64 is the stock embedding size used throughout the experiments
        model = init_model(10, 64, seed=0)
        assert model.dim == 64

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            init_model(10, 0, seed=0)


class TestPooledEncoder:
    def test_decay_zero_collapses_to_last_item(self):
        model = init_model(10, 4, seed=2, encoder="pooled")
        model.params["pool_theta"][0] = -40.0  # rho -> 0
        h = encode_one(model, [3, 7, 5])
        np.testing.assert_allclose(h, model.embeddings[5], atol=1e-12)

    def test_decay_one_is_mean(self):
        model = init_model(10, 4, seed=2, encoder="pooled")
        model.params["pool_theta"][0] = 40.0  # rho -> 1
        h = encode_one(model, [3, 7, 5])
        np.testing.assert_allclose(h, model.embeddings[[3, 7, 5]].mean(axis=0),
                                   atol=1e-10)

    def test_geometric_weights_hand_computed(self):
        model = init_model(10, 4, seed=2, encoder="pooled")
        model.params["pool_theta"][0] = 0.0  # rho = 0.5
        h = encode_one(model, [1, 2])
        e1, e2 = model.embeddings[1], model.embeddings[2]
        np.testing.assert_allclose(h, (0.5 * e1 + e2) / 1.5, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        model = init_model(9, 5, seed=3, encoder="pooled")
        seqs = [np.array([1, 4, 2]), np.array([3]), np.array([5, 5, 6, 7, 1])]
        w = rng.normal(size=(3, 5))
        h, cache = encode_batch(model, seqs)
        grads = backward_batch(model, cache, w)
        finite_difference_check(model, seqs, grads, w,
                                lambda: float(np.sum(w * encode_batch(model, seqs)[0])),
                                rng)


class TestGRUEncoder:
    def test_hand_computed_recurrence(self):
        model = init_model(3, 2, seed=0, encoder="gru")
        p = model.params
        # tiny hand-set weights so the recurrence is checkable by hand
        for g, scale in (("z", 0.1), ("r", 0.2), ("h", 0.3)):
            p[f"gru_W{g}"] = np.full((2, 2), scale)
            p[f"gru_U{g}"] = np.eye(2) * scale
            p[f"gru_b{g}"] = np.zeros(2)
        p["item_embeddings"] = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        h = np.zeros(2)
        for v in (1, 2, 3):
            x = p["item_embeddings"][v]
            z = sig(x @ p["gru_Wz"] + h * 0.1)
            r = sig(x @ p["gru_Wr"] + h * 0.2)
            c = np.tanh(x @ p["gru_Wh"] + (r * h) * 0.3)
            h = (1 - z) * h + z * c
        np.testing.assert_allclose(encode_one(model, [1, 2, 3]), h, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        model = init_model(9, 5, seed=4, encoder="gru")
        seqs = [np.array([1, 4, 2]), np.array([3]), np.array([5, 5, 6, 7, 1])]
        w = rng.normal(size=(3, 5))
        h, cache = encode_batch(model, seqs)
        grads = backward_batch(model, cache, w)
        finite_difference_check(model, seqs, grads, w,
                                lambda: float(np.sum(w * encode_batch(model, seqs)[0])),
                                rng)

    # out of length order, with tied lengths and length-1 rows
    RAGGED = [[4, 2], [7], [1, 5, 8, 3, 6], [2, 2, 9], [3], [6, 1], [8, 4, 4, 1, 2],
              [5, 9, 7], [9]]

    @staticmethod
    def _masked_reference(model, seqs):
        """The plain GRU step over the whole left-padded batch, padded rows masked.

        A one-row batch is run as two copies of its row: the encoder takes
        one-row products through the matrix path too.
        """
        if len(seqs) == 1:
            return TestGRUEncoder._masked_reference(model, list(seqs) * 2)[:1]
        p = model.params
        ids, mask = pad_batch([np.asarray(s) for s in seqs])
        emb = model.embeddings[ids]
        mask = mask.astype(emb.dtype)
        h = np.zeros((len(seqs), model.dim), emb.dtype)
        for step in range(ids.shape[1]):
            x, m = emb[:, step, :], mask[:, step][:, np.newaxis]
            z = sigmoid(x @ p["gru_Wz"] + h @ p["gru_Uz"] + p["gru_bz"])
            r = sigmoid(x @ p["gru_Wr"] + h @ p["gru_Ur"] + p["gru_br"])
            c = np.tanh(x @ p["gru_Wh"] + (r * h) @ p["gru_Uh"] + p["gru_bh"])
            h = m * ((1.0 - z) * h + z * c) + (1.0 - m) * h
        return h

    def test_ragged_batch_rows_are_exact(self):
        seqs = [np.array(s) for s in self.RAGGED]
        by_length = {}
        for i, s in enumerate(seqs):
            by_length.setdefault(len(s), []).append(i)
        for dtype in DTYPES:
            model = init_model(9, 6, seed=8, encoder="gru", dtype=dtype)
            batched, _ = encode_batch(model, seqs)
            assert batched.dtype == dtype
            np.testing.assert_array_equal(batched, self._masked_reference(model, seqs))
            for rows in by_length.values():  # equal lengths: no padding at all
                unpadded, _ = encode_batch(model, [seqs[i] for i in rows])
                np.testing.assert_array_equal(batched[rows], unpadded)
            for i, s in enumerate(seqs):
                np.testing.assert_array_equal(batched[i], encode_one(model, s))

    def test_ragged_batch_gradients(self):
        rng = np.random.default_rng(2)
        model = init_model(9, 6, seed=8, encoder="gru")
        seqs = [np.array(s) for s in self.RAGGED]
        w = rng.normal(size=(len(seqs), 6))
        h, cache = encode_batch(model, seqs)
        grads = backward_batch(model, cache, w)
        finite_difference_check(model, seqs, grads, w,
                                lambda: float(np.sum(w * encode_batch(model, seqs)[0])),
                                rng)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ragged_batches_match_the_references_bit_for_bit(self, data):
        dim = data.draw(st.integers(1, 8), label="dim")
        rows = data.draw(st.integers(1, 40), label="rows")
        if data.draw(st.booleans(), label="equal lengths"):
            lengths = [data.draw(st.integers(1, 12), label="length")] * rows
        else:
            lengths = data.draw(st.lists(st.integers(1, 12), min_size=rows, max_size=rows),
                                label="lengths")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        rng = np.random.default_rng(seed)
        model = init_model(15, dim, seed=seed, encoder="gru")
        seqs = [rng.integers(1, 16, size=n) for n in lengths]
        h, cache = encode_batch(model, seqs)
        np.testing.assert_array_equal(h, self._masked_reference(model, seqs))
        for i, s in enumerate(seqs):
            np.testing.assert_array_equal(h[i], encode_one(model, s))
        dh = rng.normal(size=h.shape)
        grads = backward_batch(model, cache, dh)
        reference = dense_reference_grads(model, seqs, dh)
        assert set(grads) == set(reference)
        for name, g in grads.items():
            assert g.tobytes() == reference[name].tobytes(), name

    def test_left_padding_is_inert(self):
        # the same sequence must encode identically regardless of batch width;
        # alone, it takes the one-row product path
        for dtype in DTYPES:
            model = init_model(9, 4, seed=5, encoder="gru", dtype=dtype)
            alone, _ = encode_batch(model, [np.array([2, 3])])
            padded, _ = encode_batch(model, [np.array([2, 3]),
                                             np.array([1, 4, 5, 6, 7])])
            assert alone.dtype == dtype
            np.testing.assert_array_equal(alone[0], padded[0])


class TestContract:
    def test_single_matches_batched(self):
        # BLAS blocking may differ across batch shapes; allow ~1 ulp
        for name in ("pooled", "gru"):
            model = init_model(9, 4, seed=6, encoder=name)
            seqs = [np.array([1, 2, 3]), np.array([4, 5])]
            batched, _ = encode_batch(model, seqs)
            for i, s in enumerate(seqs):
                np.testing.assert_allclose(encode_one(model, s), batched[i],
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["pooled", "gru"])
    def test_item_rows_add_after_the_encoded_rows(self, name):
        # byte for byte what the encoded rows' table, then one np.add.at per id array, give
        rng = np.random.default_rng(4)
        model = init_model(9, 5, seed=2, encoder=name)
        seqs = [rng.integers(1, 10, size=n) for n in (3, 1, 5, 2)]
        h, cache = encode_batch(model, seqs)
        dh = rng.normal(size=h.shape)
        targets, negatives = rng.integers(0, 10, size=(2, 12))
        dpos, dneg = rng.normal(size=(2, 12, 5))
        want = backward_batch(model, cache, dh)
        np.add.at(want["item_embeddings"], targets, dpos)
        np.add.at(want["item_embeddings"], negatives, dneg)
        want["item_embeddings"][0] = 0.0
        got = backward_batch(model, cache, dh, np.concatenate([targets, negatives]),
                             np.concatenate([dpos, dneg]))
        assert set(got) == set(want)
        for key, g in got.items():
            assert g.tobytes() == want[key].tobytes(), key

    def test_out_of_range_item(self):
        model = init_model(5, 4, seed=7)
        with pytest.raises(ValueError, match="outside"):
            encode_one(model, [1, 6])

    def test_empty_sequence_rejected(self):
        model = init_model(5, 4, seed=7)
        with pytest.raises(ValueError):
            encode_batch(model, [np.array([], dtype=np.int64)])

    def test_unknown_encoder(self):
        with pytest.raises(ValueError, match="unknown encoder"):
            get_encoder("transformer")

    def test_pad_batch_layout(self):
        ids, mask = pad_batch([np.array([7]), np.array([1, 2, 3])])
        np.testing.assert_array_equal(ids, [[0, 0, 7], [1, 2, 3]])
        np.testing.assert_array_equal(mask, [[0, 0, 1], [1, 1, 1]])

    def test_sigmoid_stability(self):
        s = sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert s[0] >= 0.0 and s[2] <= 1.0 and s[1] == 0.5

    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 745.0, -745.0, 800.0, -800.0,
             np.inf, -np.inf, np.nan, -np.nan],
            np.linspace(-50.0, 50.0, 2001),
            np.random.default_rng(3).normal(scale=20.0, size=5000),
        ])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        out = sigmoid(x)
        assert out.tobytes() == ref.tobytes()
        in_place = x.copy()
        _sigmoid_(in_place, np.empty_like(x))
        assert in_place.tobytes() == out.tobytes()
