import numpy as np
import pytest

from tailaug.encoders import (backward_batch, encode, encode_batch,
                              get_encoder, init_model, pad_batch, sigmoid)


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
        h = encode(model, [3, 7, 5])
        np.testing.assert_allclose(h, model.embeddings[5], atol=1e-12)

    def test_decay_one_is_mean(self):
        model = init_model(10, 4, seed=2, encoder="pooled")
        model.params["pool_theta"][0] = 40.0  # rho -> 1
        h = encode(model, [3, 7, 5])
        np.testing.assert_allclose(h, model.embeddings[[3, 7, 5]].mean(axis=0),
                                   atol=1e-10)

    def test_geometric_weights_hand_computed(self):
        model = init_model(10, 4, seed=2, encoder="pooled")
        model.params["pool_theta"][0] = 0.0  # rho = 0.5
        h = encode(model, [1, 2])
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
        np.testing.assert_allclose(encode(model, [1, 2, 3]), h, atol=1e-12)

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
        """The plain GRU step over the whole left-padded batch, padded rows masked."""
        p = model.params
        ids, mask = pad_batch([np.asarray(s) for s in seqs])
        emb = model.embeddings[ids]
        h = np.zeros((len(seqs), model.dim))
        for step in range(ids.shape[1]):
            x, m = emb[:, step, :], mask[:, step][:, np.newaxis]
            z = sigmoid(x @ p["gru_Wz"] + h @ p["gru_Uz"] + p["gru_bz"])
            r = sigmoid(x @ p["gru_Wr"] + h @ p["gru_Ur"] + p["gru_br"])
            c = np.tanh(x @ p["gru_Wh"] + (r * h) @ p["gru_Uh"] + p["gru_bh"])
            h = m * ((1.0 - z) * h + z * c) + (1.0 - m) * h
        return h

    def test_ragged_batch_rows_are_exact(self):
        model = init_model(9, 6, seed=8, encoder="gru")
        seqs = [np.array(s) for s in self.RAGGED]
        batched, _ = encode_batch(model, seqs)
        np.testing.assert_array_equal(batched, self._masked_reference(model, seqs))
        by_length = {}
        for i, s in enumerate(seqs):
            by_length.setdefault(len(s), []).append(i)
        for rows in by_length.values():  # equal lengths: no padding at all
            unpadded, _ = encode_batch(model, [seqs[i] for i in rows])
            np.testing.assert_array_equal(batched[rows], unpadded)
        for i, s in enumerate(seqs):
            np.testing.assert_array_equal(batched[i], encode(model, s))

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

    def test_left_padding_is_inert(self):
        # the same sequence must encode identically regardless of batch width
        model = init_model(9, 4, seed=5, encoder="gru")
        alone, _ = encode_batch(model, [np.array([2, 3])])
        padded, _ = encode_batch(model, [np.array([2, 3]),
                                         np.array([1, 4, 5, 6, 7])])
        np.testing.assert_array_equal(alone[0], padded[0])


class TestContract:
    def test_single_matches_batched(self):
        # BLAS blocking may differ across batch shapes; allow ~1 ulp
        for name in ("pooled", "gru"):
            model = init_model(9, 4, seed=6, encoder=name)
            seqs = [np.array([1, 2, 3]), np.array([4, 5])]
            batched, _ = encode_batch(model, seqs)
            for i, s in enumerate(seqs):
                np.testing.assert_allclose(encode(model, s), batched[i],
                                           rtol=0, atol=1e-12)

    def test_out_of_range_item(self):
        model = init_model(5, 4, seed=7)
        with pytest.raises(ValueError, match="outside"):
            encode(model, [1, 6])

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
             np.inf, -np.inf],
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
