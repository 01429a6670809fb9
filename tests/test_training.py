import io
from dataclasses import replace

import numpy as np
import pytest

from tailaug import serialize, training
from tailaug.augment import (INSERT, SUBSTITUTE, AugmentedBatch, AugmentedSample,
                             OperatorConfig, apply_cross_mixup, augment_batch,
                             augment_sequence, plan_cross_batch, t_substitute)
from tailaug.config import DEFAULTS, train_config
from tailaug.corpus import classify_sequence, preference_classes
from tailaug.encoders import (ModelState, backward_batch, encode_batch, encode_ragged,
                              init_model, lookup)
from tailaug.errors import DataError, NumericError
from tailaug.rand import AUGMENT, CROSS, NEGATIVE, PREFIX, derive_rng
from tailaug.training import (Batch, TrainConfig, adam_step,
                              batch_loss, bce_loss_batch, init_adam,
                              load_checkpoint, save_checkpoint,
                              train_stage1, train_stage2)

from conftest import DTYPES, identity_plan, store_from_sequences, users_with_train_len


def _cfg(**fields) -> TrainConfig:
    """The CLI's default TrainConfig (seed 0) with ``fields`` set."""
    return replace(train_config(DEFAULTS, 0), **fields)


class TestBCE:
    # single rows go through the batched loss with a leading axis of one
    def test_zero_logits(self):
        losses, *_ = bce_loss_batch(np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 4)))
        assert losses[0] == pytest.approx(2 * np.log(2))

    def test_saturation_drives_loss_to_zero(self):
        h = np.array([[100.0]])
        losses, *_ = bce_loss_batch(h, np.array([[1.0]]), np.array([[-1.0]]))
        assert losses[0] == pytest.approx(0.0, abs=1e-8)

    def test_extreme_logits_stay_finite(self):
        h = np.array([[1e4]])
        losses, dh, dp, dn = bce_loss_batch(h, np.array([[-1.0]]), np.array([[1.0]]))
        assert np.isfinite(losses[0]) and np.all(np.isfinite(dh[0]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        h, ep, en = rng.normal(size=(3, 1, 8))
        losses, dh, dp, dn = bce_loss_batch(h, ep, en)
        eps = 1e-6
        for vec, grad in ((h, dh), (ep, dp), (en, dn)):
            for j in range(8):
                old = vec[0, j]
                vec[0, j] = old + eps
                f1 = bce_loss_batch(h, ep, en)[0][0]
                vec[0, j] = old - eps
                f2 = bce_loss_batch(h, ep, en)[0][0]
                vec[0, j] = old
                num = (f1 - f2) / (2 * eps)
                assert num == pytest.approx(grad[0, j], rel=1e-5, abs=1e-9)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(NumericError):
            bce_loss_batch(np.array([[np.nan]]), np.array([[1.0]]), np.array([[1.0]]))

    def test_mixup_linearity_through_loss_input(self):
        rng = np.random.default_rng(1)
        h1, h2, ep, en = rng.normal(size=(4, 1, 6))
        l0 = bce_loss_batch(h2, ep, en)[0][0]
        l1 = bce_loss_batch(h1, ep, en)[0][0]
        lams = np.linspace(0, 1, 11)
        vals = [bce_loss_batch(lam * h1 + (1 - lam) * h2, ep, en)[0][0] for lam in lams]
        assert vals[0] == pytest.approx(l0) and vals[-1] == pytest.approx(l1)
        assert np.all(np.abs(np.diff(vals)) < 1.0)  # continuous, no jumps


def flat_prefixes(trains):
    """Training prefixes back to back as int64, and their lengths."""
    lengths = np.array([len(t) for t in trains], dtype=np.int64)
    return np.concatenate([np.zeros(0, np.int64), *map(np.asarray, trains)]), lengths


def batch_prefixes(batch):
    """A batch's prefixes, one array per user, cut out of its columns."""
    return np.split(batch.ids, np.cumsum(batch.lengths)[:-1])


def epoch_negatives(trains, n_items, seed=0, epoch=0):
    """Each eligible user's negative in one epoch of ``_epoch_batches``, by user id."""
    ids, lengths = flat_prefixes(trains)
    eligible = np.flatnonzero(lengths >= 2)
    batches = training._epoch_batches(ids, lengths, eligible, n_items, seed, epoch, len(trains))
    return {u: v for b, _ in batches for u, v in zip(b.users.tolist(), b.negatives.tolist())}


class TestSampleNegative:
    """The negatives ``_epoch_batches`` draws: one unowned item per user and epoch."""

    def test_two_item_universe(self):
        draws = [epoch_negatives([[1, 1]], 2, epoch=e)[0] for e in range(200)]
        assert set(draws) == {2}

    def test_uniform_over_eligible(self, monkeypatch):
        # 10,000 users own items 1..10 of 100; with a one-proposal block a
        # tenth of them take the fallback pick
        monkeypatch.setattr(training, "NEGATIVE_BLOCK", 1)
        draws = np.array(list(epoch_negatives([list(range(1, 11))] * 10_000, 100,
                                              seed=1).values()))
        counts = np.bincount(draws, minlength=101)
        assert counts[:11].sum() == 0
        expected = 10_000 / 90
        chi2 = np.sum((counts[11:] - expected) ** 2 / expected)
        # chi-square with 89 dof: 99.9th percentile ~ 135
        assert chi2 < 135

    def test_padding_never_sampled(self):
        draws = epoch_negatives([[1, 1]] * 200, 3, seed=2).values()
        assert set(draws) == {2, 3}

    def test_no_eligible_negative(self):
        with pytest.raises(DataError, match="every item"):
            epoch_negatives([[1, 2], [1, 2, 3]], 3, seed=3)


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_adam(params)
        adam_step(params, {"w": np.zeros(2)}, state, _cfg())
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_hand_recurrence_two_steps(self):
        cfg = _cfg(learning_rate=0.001)
        params = {"w": np.array([0.5])}
        state = init_adam(params)
        w, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            w -= 0.001 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            adam_step(params, {"w": np.ones(1)}, state, cfg)
            assert params["w"][0] == pytest.approx(w, abs=1e-15)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("lr", [0.0, 0.003])
    def test_matches_the_textbook_update_byte_for_byte(self, dtype, lr):
        rng = np.random.default_rng(8)
        params = {"w": rng.normal(size=(5, 3)).astype(dtype),
                  "b": rng.normal(size=2).astype(dtype)}
        start = {k: p.copy() for k, p in params.items()}
        want = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        state = init_adam(params)
        for t in range(1, 201):
            grads = {k: rng.normal(size=p.shape).astype(dtype) for k, p in params.items()}
            grads["b"][t % 2] = 0.0
            adam_step(params, grads, state, _cfg(learning_rate=lr))
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                want[k] = want[k] - lr * (m[k] / (1 - 0.9 ** t)) / (
                    np.sqrt(v[k] / (1 - 0.999 ** t)) + 1e-8)
                for got, ref in ((params, want), (state.m, m), (state.v, v)):
                    assert got[k].dtype == dtype and got[k].tobytes() == ref[k].tobytes(), k
        assert state.step == 200
        if lr == 0:
            assert all(params[k].tobytes() == start[k].tobytes() for k in params)

    def test_a_step_allocates_no_parameter_sized_array(self):
        import tracemalloc
        params = {"w": np.ones((2000, 32))}
        grads = {"w": np.full((2000, 32), 0.5)}
        state = init_adam(params)
        adam_step(params, grads, state, _cfg())
        tracemalloc.start()
        try:
            adam_step(params, grads, state, _cfg())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params["w"].nbytes // 4

    def test_default_learning_rate(self):
        assert _cfg().learning_rate == pytest.approx(0.001)
        assert training.ADAM_BETA1 == 0.9 and training.ADAM_BETA2 == 0.999

    def test_learning_rate_is_zero_or_finite_positive(self):
        assert _cfg(learning_rate=0.0).learning_rate == 0.0
        for lr in (-0.001, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                _cfg(learning_rate=lr)


def _toy_setup(small_corpus, encoder="pooled", dim=8, seed=0, dtype=np.float64):
    store, seg, cands, _ = small_corpus
    model = init_model(store.n_items, dim, seed=seed, encoder=encoder, dtype=dtype)
    return store, seg, cands, model


class TestStage1:
    def test_zero_learning_rate_freezes_params(self, small_corpus):
        store, seg, cands, model = _toy_setup(small_corpus)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = _cfg(batch_size=16, learning_rate=0.0, seed=1, stage1_epochs=1, patience=None)
        train_stage1(store, model, cfg)
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    def test_loss_mostly_decreases(self, medium_store):
        # seed-averaged training-curve oracle
        store = medium_store
        fracs = []
        for seed in (0, 1, 2):
            model = init_model(store.n_items, 8, seed=seed, encoder="gru")
            cfg = _cfg(batch_size=64, learning_rate=0.01, seed=seed, stage1_epochs=20,
                       patience=None)
            history = train_stage1(store, model, cfg)
            losses = [h["loss_main"] for h in history]
            decreases = sum(b < a for a, b in zip(losses, losses[1:]))
            fracs.append(decreases / (len(losses) - 1))
        assert np.mean(fracs) >= 0.8

    def test_fixed_seed_bit_identical(self, small_corpus):
        store, seg, cands, _ = small_corpus
        for dtype in DTYPES:
            finals = []
            for _ in range(2):
                model = init_model(store.n_items, 8, seed=3, encoder="gru", dtype=dtype)
                cfg = _cfg(batch_size=16, seed=3, stage1_epochs=3, patience=None)
                history = train_stage1(store, model, cfg)
                finals.append((history[-1]["loss_main"], model.embeddings.copy()))
            assert finals[0][1].dtype == dtype
            assert finals[0][0] == finals[1][0]
            np.testing.assert_array_equal(finals[0][1], finals[1][1])

    def test_divergence_raises_numeric_error(self, small_corpus):
        store, seg, cands, model = _toy_setup(small_corpus)
        model.embeddings[1, 0] = np.nan
        cfg = _cfg(batch_size=16, seed=0, stage1_epochs=1, patience=None)
        with pytest.raises(NumericError):
            train_stage1(store, model, cfg)

    def test_padding_row_stays_zero(self, small_corpus):
        store, seg, cands, model = _toy_setup(small_corpus, encoder="gru")
        cfg = _cfg(batch_size=16, seed=0, stage1_epochs=2, patience=None)
        train_stage1(store, model, cfg)
        np.testing.assert_array_equal(model.embeddings[0], np.zeros(model.dim))


class TestStage2:
    def test_degenerate_mixing_triples_stage1_loss(self, small_corpus):
        from conftest import users_with_train_len
        store, seg, cands, model = _toy_setup(small_corpus, encoder="gru")
        users = users_with_train_len(store, 2, 10)
        prefixes = [store.train_prefix(u)[:-1] for u in users]
        targets = np.array([int(store.train_prefix(u)[-1]) for u in users])
        negs = np.array([(int(t) % store.n_items) + 1 for t in targets])
        batch = Batch(users=np.array(users), prefixes=prefixes, targets=targets,
                      negatives=negs)
        samples = [t_substitute(p, seg, cands, OperatorConfig(), derive_rng(0, 50, u))
                   for u, p in zip(users, prefixes)]
        classes = [classify_sequence(store.train_prefix(u), seg) for u in users]
        plan = identity_plan(classes + classes, lam=1.0)
        comp2, _ = batch_loss(model, batch, samples=samples,
                              op_lams=[1.0] * len(users), plan=plan)
        comp1, _ = batch_loss(model, batch)
        assert comp2["total"] == pytest.approx(3 * comp1["main"], abs=1e-6)

    def test_disabled_aug_losses_match_stage1_bit_exactly(self, small_corpus):
        store, seg, cands, _ = small_corpus
        cfg_a = _cfg(batch_size=16, seed=4, stage1_epochs=2, stage2_epochs=3,
                     enable_operator_loss=False, enable_cross_loss=False,
                     patience=None)
        for dtype in DTYPES:
            model_a = init_model(store.n_items, 8, seed=4, encoder="pooled", dtype=dtype)
            adam_a = init_adam(model_a.params)
            h1 = train_stage1(store, model_a, cfg_a, adam=adam_a)
            h2 = train_stage2(store, model_a, cands, seg, cfg_a, OperatorConfig(),
                              adam=adam_a)

            model_b = init_model(store.n_items, 8, seed=4, encoder="pooled", dtype=dtype)
            hb = train_stage1(store, model_b, replace(cfg_a, stage1_epochs=5))
            assert model_a.embeddings.dtype == dtype
            for k in model_a.params:
                np.testing.assert_array_equal(model_a.params[k], model_b.params[k])
            assert [h["loss_main"] for h in h1 + h2] == [h["loss_main"] for h in hb]

    def test_composite_gradient_finite_differences(self, small_corpus):
        model, batch, samples, lams, classes = _stage2_inputs(small_corpus)
        plan = plan_cross_batch(classes + classes, 0.3, derive_rng(0, CROSS, 0, 0))
        _fd_check(model, lambda: batch_loss(model, batch, samples=samples,
                                            op_lams=lams, plan=plan))

    @pytest.mark.parametrize("term", ["operator", "cross"])
    def test_single_term_gradient_finite_differences(self, small_corpus, term):
        model, batch, samples, lams, classes = _stage2_inputs(small_corpus)
        if term == "operator":
            kwargs, other = {"samples": samples, "op_lams": lams}, "cross"
        else:
            plan = plan_cross_batch(classes, 0.3, derive_rng(0, CROSS, 0, 0))
            kwargs, other = {"plan": plan}, "operator"
        comp, _ = batch_loss(model, batch, **kwargs)
        assert comp[term] > 0 and comp[other] == 0
        _fd_check(model, lambda: batch_loss(model, batch, **kwargs))

    def test_one_encode_and_one_backward_per_step(self, small_corpus, monkeypatch):
        model, batch, samples, lams, classes = _stage2_inputs(small_corpus)
        plan = plan_cross_batch(classes + classes, 0.3, derive_rng(0, CROSS, 0, 0))
        calls = {"encode_ragged": 0, "backward_batch": 0}
        for name in calls:
            def counted(*args, _real=getattr(training, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(training, name, counted)
        comp, _ = batch_loss(model, batch, samples=samples, op_lams=lams, plan=plan)
        assert comp["operator"] > 0 and comp["cross"] > 0
        assert calls == {"encode_ragged": 1, "backward_batch": 1}

    def test_stage2_trains_and_records_components(self, small_corpus):
        store, seg, cands, model = _toy_setup(small_corpus, encoder="pooled")
        cfg = _cfg(batch_size=16, seed=6, stage1_epochs=1, stage2_epochs=2,
                   patience=None)
        adam = init_adam(model.params)
        train_stage1(store, model, cfg, adam=adam)
        assert adam.step > 0  # stage 1 advanced the caller's optimizer in place
        history = train_stage2(store, model, cands, seg, cfg, OperatorConfig(),
                               adam=adam)
        assert len(history) == 2
        for rec in history:
            assert rec["loss_operator"] > 0 and rec["loss_cross"] > 0
            assert rec["loss_total"] == pytest.approx(
                rec["loss_main"] + rec["loss_operator"] + rec["loss_cross"])

    def test_trace_emitter_writes_jsonl(self, small_corpus, tmp_path):
        import json
        store, seg, cands, model = _toy_setup(small_corpus, encoder="pooled")
        cfg = _cfg(batch_size=16, seed=7, stage1_epochs=0, stage2_epochs=1,
                   patience=None)
        trace_path = tmp_path / "trace.jsonl"
        with open(trace_path, "w") as fh:
            train_stage2(store, model, cands, seg, cfg, OperatorConfig(),
                         adam=init_adam(model.params), trace=fh)
        lines = trace_path.read_text().strip().splitlines()
        assert len(lines) > 0
        rec = json.loads(lines[0])
        assert {"operator", "indices", "rate", "chosen", "mix_weight"} <= set(rec)

    def test_trace_replays_from_one_stream_per_epoch(self, small_corpus, tmp_path,
                                                     monkeypatch):
        # every traced sample, rebuilt from the documented epoch draws
        import json
        store, seg, cands, model = _toy_setup(small_corpus, encoder="pooled")
        op_cfg = OperatorConfig()
        tags = []

        def spy(seed, *t):
            tags.append(t)
            return derive_rng(seed, *t)

        monkeypatch.setattr(training, "derive_rng", spy)
        cfg = _cfg(batch_size=16, seed=7, stage1_epochs=5, stage2_epochs=2,
                   patience=None)
        trace_path = tmp_path / "trace.jsonl"
        with open(trace_path, "w") as fh:
            train_stage2(store, model, cands, seg, cfg, op_cfg, adam=init_adam(model.params),
                         trace=fh)
        assert [t for t in tags if t[0] == AUGMENT] == [(AUGMENT, 5), (AUGMENT, 6)]
        assert max(map(len, tags)) == 3  # (CROSS, epoch, step); nothing per user

        trains = [store.train_prefix(u) for u in range(store.n_users)]
        lengths = np.array([len(t) for t in trains])
        starts = np.cumsum(lengths) - lengths
        lines = trace_path.read_text().splitlines()
        eligible = int(np.sum(lengths >= 2))
        assert len(lines) == 2 * eligible
        for e, epoch_lines in ((5, lines[:eligible]), (6, lines[eligible:])):
            ends = derive_rng(7, PREFIX, e).integers(1, np.maximum(lengths, 2))
            rng = derive_rng(7, AUGMENT, e)
            op = rng.random(store.n_users)
            rates = rng.uniform(op_cfg.a, op_cfg.b, store.n_users)
            select, pick = rng.random(lengths.sum()), rng.random(lengths.sum())
            lams = rng.beta(op_cfg.alpha, op_cfg.alpha, store.n_users)
            for line in epoch_lines:
                u = json.loads(line)["user"]
                at = slice(starts[u], starts[u] + ends[u])
                want = augment_batch(
                    trains[u][:ends[u]], [ends[u]], seg, cands, store.max_len,
                    insert=[op[u] < 1 - ends[u] / store.max_len], rates=rates[u:u + 1],
                    select=select[at], pick=pick[at])[0]
                assert line == want.trace_line(user=u, mix_weight=lams[u])


def _stage2_inputs(small_corpus):
    """A GRU model, a batch, its augmented samples, mixup weights and classes."""
    store, seg, cands, model = _toy_setup(small_corpus, encoder="gru", dim=6)
    op_cfg = OperatorConfig()
    users = users_with_train_len(store, 2, 6)
    prefixes = [store.train_prefix(u)[:-1] for u in users]
    targets = np.array([int(store.train_prefix(u)[-1]) for u in users])
    negs = np.array([(int(t) % store.n_items) + 1 for t in targets])
    batch = Batch(users=np.array(users), prefixes=prefixes, targets=targets,
                  negatives=negs)
    samples, lams = [], []
    for u, p in zip(users, prefixes):
        rng = derive_rng(0, AUGMENT, 0, u)
        samples.append(augment_sequence(p, seg, cands, op_cfg, store.max_len, rng))
        lams.append(float(rng.beta(0.3, 0.3)))
    classes = [classify_sequence(store.train_prefix(u), seg) for u in users]
    return model, batch, samples, lams, classes


def _fd_check(model, loss):
    """20 random parameters: central differences of the total vs the analytic grads."""
    _, grads = loss()
    rng = np.random.default_rng(5)
    names = list(model.params)
    checked = 0
    while checked < 20:
        name = names[rng.integers(len(names))]
        arr = model.params[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        if name == "item_embeddings" and idx[0] == 0:
            continue
        eps = 1e-6
        old = arr[idx]
        arr[idx] = old + eps
        f1 = loss()[0]["total"]
        arr[idx] = old - eps
        f2 = loss()[0]["total"]
        arr[idx] = old
        num = (f1 - f2) / (2 * eps)
        ana = grads[name][idx]
        assert abs(num - ana) <= 1e-4 * max(abs(num), abs(ana), 1e-7)
        checked += 1


class TestOperatorMixup:
    """The operator term scores lam * h_ext + (1 - lam) * h_prime per row."""

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_operator_loss_is_bce_of_the_blend(self, small_corpus, lam):
        model, batch, samples, _, _ = _stage2_inputs(small_corpus)
        comp, _ = batch_loss(model, batch, samples=samples, op_lams=[lam] * len(samples))
        h_ext, _ = encode_batch(model, [s.s_ext for s in samples])
        h_pr, _ = encode_batch(model, [s.s_prime for s in samples])
        losses, *_ = bce_loss_batch(lam * h_ext + (1 - lam) * h_pr,
                                    lookup(model, batch.targets),
                                    lookup(model, batch.negatives))
        assert comp["operator"] == pytest.approx(np.mean(losses), rel=1e-12)

    @staticmethod
    def _blend(monkeypatch, h_ext, h_pr, lams):
        """The operator term's input for fixed extended/augmented encodings."""
        n, dim = h_ext.shape
        model = init_model(3, dim, seed=0, encoder="pooled")
        batch = Batch(users=np.arange(n), prefixes=[np.array([1])] * n,
                      targets=np.full(n, 2), negatives=np.full(n, 3))
        h_all = np.vstack([np.zeros((n, dim)), h_ext, h_pr])
        monkeypatch.setattr(training, "encode_ragged", lambda model, ids, lengths: (h_all, None))
        monkeypatch.setattr(training, "backward_batch", lambda model, cache, dh, *items: {
            "item_embeddings": np.zeros_like(model.embeddings)})
        seen = []

        def record(h, e_pos, e_neg):
            seen.append(np.array(h))
            return bce_loss_batch(h, e_pos, e_neg)

        monkeypatch.setattr(training, "bce_loss_batch", record)
        # an insertion with one edit: prefixes, s_ext and s_prime are all rows of h_all
        sample = AugmentedSample(INSERT, s_prime=np.array([1]), s_ext=np.array([1]),
                                 indices=np.array([0]), chosen=np.array([1]), rate=0.5)
        batch_loss(model, batch, samples=[sample] * n, op_lams=lams)
        return seen[0][n:]  # the operator rows follow the originals

    def test_endpoints(self, monkeypatch):
        h1, h2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        assert self._blend(monkeypatch, h1, h2, [1.0]).tolist() == [[1.0, 0.0]]
        assert self._blend(monkeypatch, h1, h2, [0.0]).tolist() == [[0.0, 1.0]]

    def test_hand_arithmetic(self, monkeypatch):
        mixed = self._blend(monkeypatch, np.array([[1.0, 0.0]]),
                            np.array([[0.0, 1.0]]), [0.3])
        np.testing.assert_allclose(mixed, [[0.3, 0.7]])

    def test_affine_between_inputs(self, monkeypatch):
        rng = derive_rng(11, 0)
        h1, h2 = rng.normal(size=(30, 5)), rng.normal(size=(30, 5))
        lams = rng.beta(0.4, 0.4, size=30)
        mixed = self._blend(monkeypatch, h1, h2, lams)
        assert np.all((0.0 <= lams) & (lams <= 1.0))
        lo, hi = np.minimum(h1, h2), np.maximum(h1, h2)
        assert np.all(mixed >= lo - 1e-12) and np.all(mixed <= hi + 1e-12)


def _three_row_batch_loss(model, batch, *, samples=None, op_lams=None, plan=None):
    """``batch_loss`` as it was: three encoded rows per user and ``np.add.at`` scatters."""
    n = len(batch)
    seqs = batch_prefixes(batch)
    if samples is not None:
        seqs += [s.s_ext for s in samples] + [s.s_prime for s in samples]
    h_all, cache = encode_batch(model, seqs)
    pool = h_all[:n]
    if samples is not None:
        lam_op = np.asarray(op_lams, dtype=np.float64)[:, np.newaxis]
        h_ao = lam_op * h_all[n:2 * n] + (1.0 - lam_op) * h_all[2 * n:]
        pool = np.concatenate([pool, h_ao])
    copies = len(pool) // n
    targets = np.tile(batch.targets, copies)
    negatives = np.tile(batch.negatives, copies)
    rows = np.hstack([pool, lookup(model, targets), lookup(model, negatives)])
    losses, *d_rows = bce_loss_batch(*np.split(rows, 3, axis=1))
    d_rows = np.hstack(d_rows) / n
    components = {"main": float(np.mean(losses[:n])),
                  "operator": float(np.mean(losses[n:])) if copies > 1 else 0.0,
                  "cross": 0.0}
    if plan is not None:
        mixed = apply_cross_mixup(plan, rows)
        cr_losses, *d_mixed = bce_loss_batch(*np.split(mixed, 3, axis=1))
        components["cross"] = float(np.mean(cr_losses))
        d_mixed = np.hstack(d_mixed) / len(rows)
        lam = plan.lams[:, np.newaxis]
        d_rows += lam * d_mixed
        np.add.at(d_rows, plan.pairing, (1.0 - lam) * d_mixed)
    components["total"] = components["main"] + components["operator"] + components["cross"]
    dh, dpos, dneg = np.split(d_rows, 3, axis=1)
    if samples is not None:
        dh = np.concatenate([dh[:n], lam_op * dh[n:], (1.0 - lam_op) * dh[n:]])
    grads = backward_batch(model, cache, dh)
    np.add.at(grads["item_embeddings"], targets, dpos)
    np.add.at(grads["item_embeddings"], negatives, dneg)
    grads["item_embeddings"][0] = 0.0
    return components, grads


def _three_kind_inputs(small_corpus, encoder, dtype=np.float64):
    """A batch of unedited, substituted and inserted rows, one insertion truncated.

    Returns the model, batch, samples, mix weights and a cross plan over the pool.
    """
    store, seg, cands, model = _toy_setup(small_corpus, encoder=encoder, dim=6, dtype=dtype)
    users = users_with_train_len(store, 8, 12)
    prefixes = [store.train_prefix(u)[:-1] for u in users]
    targets = np.array([int(store.train_prefix(u)[-1]) for u in users])
    negs = np.array([(int(t) % store.n_items) + 1 for t in targets])
    batch = Batch(users=np.array(users), prefixes=prefixes, targets=targets,
                  negatives=negs)
    lengths = np.array([len(p) for p in prefixes])
    kind = np.arange(len(users)) % 3  # unedited, substitution, insertion
    rng = np.random.default_rng(3)
    # an unedited row selects nothing; the others select every eligible position
    samples = augment_batch(
        np.concatenate(prefixes), lengths, seg, cands, int(lengths.max()),
        insert=(kind == 2) | ((kind == 0) & (np.arange(len(users)) % 2 == 0)),
        rates=np.full(len(users), 0.5), select=np.repeat(np.where(kind == 0, 1.0, 0.0), lengths),
        pick=rng.random(lengths.sum()))
    lams = rng.beta(0.3, 0.3, len(users))
    classes = [classify_sequence(store.train_prefix(u), seg) for u in users]
    plan = plan_cross_batch(classes + classes, 0.3, rng)
    return model, batch, samples, lams, plan


class TestDistinctEncodes:
    """Stage 2 encodes each distinct sequence once and scatters without ``np.add.at``."""

    @staticmethod
    def _kinds(samples):
        edited = np.array([len(s.indices) > 0 for s in samples])
        grown = edited & np.array([s.operator == INSERT for s in samples])
        return edited, grown

    def test_batch_has_all_three_kinds(self, small_corpus):
        _, batch, samples, _, _ = _three_kind_inputs(small_corpus, "gru")
        edited, grown = self._kinds(samples)
        assert (~edited).any() and (edited & ~grown).any() and grown.any()
        assert {s.operator for s, e in zip(samples, edited) if not e} == {SUBSTITUTE, INSERT}
        assert any(len(s.s_ext) < len(p) + len(s.indices)  # an insertion lost its oldest
                   for s, p, g in zip(samples, batch_prefixes(batch), grown) if g)

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    def test_matches_the_three_row_reference(self, small_corpus, monkeypatch, encoder):
        model, batch, samples, lams, plan = _three_kind_inputs(small_corpus, encoder)
        want_comp, want_grads = _three_row_batch_loss(model, batch, samples=samples,
                                                      op_lams=lams, plan=plan)
        rows = []

        def spy(model, ids, lengths):
            rows.append(len(lengths))
            return encode_ragged(model, ids, lengths)

        monkeypatch.setattr(training, "encode_ragged", spy)
        comp, grads = batch_loss(model, batch, samples=samples, op_lams=lams, plan=plan)
        edited, grown = self._kinds(samples)
        assert rows == [len(batch) + grown.sum() + edited.sum()]
        assert rows[0] < 3 * len(batch)
        assert {k: np.float64(v).tobytes() for k, v in comp.items()} == {
            k: np.float64(v).tobytes() for k, v in want_comp.items()}
        assert set(grads) == set(want_grads)
        for name, g in grads.items():
            np.testing.assert_allclose(g, want_grads[name], rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    @pytest.mark.parametrize("cross", [False, True])
    def test_without_samples_everything_is_byte_identical(self, small_corpus, encoder,
                                                          cross):
        # with no operator term nothing is deduplicated: the scatters alone must keep every byte
        model, batch, _, _, _ = _three_kind_inputs(small_corpus, encoder)
        classes = [classify_sequence(p, small_corpus[1]) for p in batch_prefixes(batch)]
        plan = plan_cross_batch(classes, 0.3, derive_rng(0, CROSS, 0, 0)) if cross else None
        want_comp, want_grads = _three_row_batch_loss(model, batch, plan=plan)
        comp, grads = batch_loss(model, batch, plan=plan)
        assert comp == want_comp
        assert set(grads) == set(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    def test_composite_gru_gradient_finite_differences(self, small_corpus):
        model, batch, samples, lams, plan = _three_kind_inputs(small_corpus, "gru")
        _fd_check(model, lambda: batch_loss(model, batch, samples=samples,
                                            op_lams=lams, plan=plan))


class TestColumns:
    """Stage 2 reads ``augment_batch``'s columns; a list of samples is stacked once."""

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    def test_a_batch_and_its_list_give_the_same_bytes(self, small_corpus, encoder):
        model, batch, samples, lams, plan = _three_kind_inputs(small_corpus, encoder)
        assert isinstance(samples, AugmentedBatch)
        comp, grads = batch_loss(model, batch, samples=samples, op_lams=lams, plan=plan)
        want_comp, want_grads = batch_loss(model, batch, samples=list(samples), op_lams=lams,
                                           plan=plan)
        assert {k: np.float64(v).tobytes() for k, v in comp.items()} == {
            k: np.float64(v).tobytes() for k, v in want_comp.items()}
        assert set(grads) == set(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    @pytest.mark.parametrize("terms", [(), ("operator",), ("cross",), ("operator", "cross")],
                             ids=["main", "operator", "cross", "all"])
    def test_an_epoch_batch_and_its_prefix_list_give_the_same_bytes(self, small_corpus, encoder,
                                                                    terms):
        store, seg, cands, model = _toy_setup(small_corpus, encoder=encoder, dim=6)
        ids, lengths = store.train_prefixes()
        batch, at = next(training._epoch_batches(ids, lengths, np.flatnonzero(lengths >= 2),
                                                 store.n_items, 3, 0, 16))
        prefixes = [store.train_prefix(u)[:n]
                    for u, n in zip(batch.users.tolist(), batch.lengths.tolist())]
        listed = Batch(users=batch.users, prefixes=prefixes, targets=batch.targets,
                       negatives=batch.negatives)
        assert listed.ids.tobytes() == batch.ids.tobytes() == ids[at].tobytes()
        assert listed.lengths.tobytes() == batch.lengths.tobytes()
        rng = np.random.default_rng(4)
        kwargs = {}
        if "operator" in terms:
            kwargs["samples"] = augment_batch(
                batch.ids, batch.lengths, seg, cands, store.max_len,
                insert=rng.random(len(batch)) < 0.5, rates=np.full(len(batch), 0.5),
                select=rng.random(len(at)), pick=rng.random(len(at)))
            kwargs["op_lams"] = rng.beta(0.3, 0.3, len(batch))
        if "cross" in terms:
            classes = preference_classes(batch.ids, batch.lengths, seg)
            kwargs["plan"] = plan_cross_batch(np.tile(classes, 1 + ("operator" in terms)),
                                              0.3, rng)
        comp, grads = batch_loss(model, batch, **kwargs)
        want_comp, want_grads = batch_loss(model, listed, **kwargs)
        assert all(comp[t] > 0 for t in ("main", *terms))
        assert {k: np.float64(v).tobytes() for k, v in comp.items()} == {
            k: np.float64(v).tobytes() for k, v in want_comp.items()}
        assert set(grads) == set(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    def test_an_epoch_stacks_no_prefix_list(self, small_corpus, monkeypatch):
        stacked, real = [], Batch.__post_init__

        def counted(self, prefixes):
            if prefixes is not None:
                stacked.append(self)
            real(self, prefixes)

        monkeypatch.setattr(Batch, "__post_init__", counted)
        store, seg, cands, model = _toy_setup(small_corpus, encoder="pooled")
        cfg = _cfg(batch_size=16, seed=7, stage1_epochs=1, stage2_epochs=1,
                   patience=None)
        adam = init_adam(model.params)
        first = train_stage1(store, model, cfg, adam=adam)
        second = train_stage2(store, model, cands, seg, cfg, OperatorConfig(), adam=adam)
        assert first[0]["loss_main"] > 0 and second[0]["loss_operator"] > 0 and stacked == []
        Batch(users=np.arange(1), prefixes=[np.array([1])], targets=np.array([2]),
              negatives=np.array([3]))
        assert len(stacked) == 1  # the spy sees the list path

    def test_a_stage2_epoch_builds_no_sample_unless_traced(self, small_corpus, monkeypatch):
        built, real = [], AugmentedSample.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(AugmentedSample, "__init__", counted)
        store, seg, cands, model = _toy_setup(small_corpus, encoder="pooled")
        cfg = _cfg(batch_size=16, seed=7, stage1_epochs=0, stage2_epochs=1,
                   patience=None)
        history = train_stage2(store, model, cands, seg, cfg, OperatorConfig(),
                               adam=init_adam(model.params))
        assert history[0]["loss_operator"] > 0 and built == []
        trace = io.StringIO()
        train_stage2(store, model, cands, seg, cfg, OperatorConfig(),
                     adam=init_adam(model.params), trace=trace)
        assert len(built) == len(trace.getvalue().splitlines()) > 0


class TestFloat32Step:
    """A float32 model trains in float32 from the encode to the Adam update."""

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    def test_step_keeps_float32_and_matches_float64(self, small_corpus, monkeypatch,
                                                     encoder):
        model, batch, samples, lams, plan = _three_kind_inputs(small_corpus, encoder,
                                                               np.float32)
        double = ModelState(model.n_items, model.dim, encoder,
                            {k: v.astype(np.float64) for k, v in model.params.items()})
        want_comp, want_grads = batch_loss(double, batch, samples=samples, op_lams=lams,
                                           plan=plan)
        # the dtype of every float array into or out of the encode, losses and backward
        seen = set()
        for name in ("encode_ragged", "bce_loss_batch", "backward_batch"):
            def spy(*args, _real=getattr(training, name), _name=name):
                out = _real(*args)
                seen.update((_name, a.dtype) for a in (*args, *out)
                            if isinstance(a, np.ndarray) and a.dtype.kind == "f")
                return out
            monkeypatch.setattr(training, name, spy)
        comp, grads = batch_loss(model, batch, samples=samples, op_lams=lams, plan=plan)
        adam = init_adam(model.params)
        adam_step(model.params, grads, adam, _cfg())
        assert seen == {(name, np.dtype(np.float32))
                        for name in ("encode_ragged", "bce_loss_batch", "backward_batch")}
        single = {k: np.dtype(np.float32) for k in model.params}
        for group in (grads, adam.m, adam.v, model.params):
            assert {k: v.dtype for k, v in group.items()} == single
        for name, g in grads.items():
            want = want_grads[name]
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-5 * np.abs(want).max(),
                                       err_msg=name)
        for term, value in comp.items():
            assert value == pytest.approx(want_comp[term], rel=1e-5), term


def _epoch_draws(small_corpus, monkeypatch, batch_size, stage2=False, dtype=np.float64):
    """Per-user draws of one epoch, read off every batch that ``batch_loss`` gets.

    Each user maps to its (prefix, target, negative) and, in stage 2, its
    augmented sample and mix weight.  The loss itself is not computed.
    """
    store, seg, cands, model = _toy_setup(small_corpus, dtype=dtype)
    draws = {}

    def record(model, batch, *, samples=None, op_lams=None, plan=None):
        for i, (u, prefix) in enumerate(zip(batch.users.tolist(), batch_prefixes(batch))):
            assert u not in draws
            draws[u] = (prefix.tolist(), int(batch.targets[i]),
                        int(batch.negatives[i]))
            if samples is not None:
                draws[u] += (samples[i].trace_line(user=u, mix_weight=op_lams[i]),)
        zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
        return {"main": 0.0, "operator": 0.0, "cross": 0.0, "total": 0.0}, zeros

    monkeypatch.setattr(training, "batch_loss", record)
    cfg = _cfg(batch_size=batch_size, seed=9, stage1_epochs=0, stage2_epochs=1,
               patience=None)
    if stage2:  # either way, one epoch: epoch 0
        train_stage2(store, model, cands, seg, cfg, OperatorConfig(),
                     adam=init_adam(model.params))
    else:
        train_stage1(store, model, replace(cfg, stage1_epochs=1))
    return draws


class TestScheduleIndependence:
    """Per-user draws are keyed on (seed, purpose, epoch, user), not on the batch."""

    @pytest.mark.parametrize("stage2", [False, True], ids=["stage1", "stage2"])
    def test_draws_do_not_depend_on_batch_size(self, small_corpus, monkeypatch, stage2):
        store = small_corpus[0]
        runs = [_epoch_draws(small_corpus, monkeypatch, bs, stage2, dtype)
                for dtype in DTYPES for bs in (7, 16, 256)]
        eligible = [u for u in range(store.n_users) if len(store.train_prefix(u)) >= 2]
        assert sorted(runs[0]) == eligible
        assert all(run == runs[0] for run in runs[1:])
        for u, (prefix, target, negative, *_) in runs[0].items():
            train = store.train_prefix(u)
            assert 1 <= len(prefix) < len(train) and target == train[len(prefix)]
            assert 1 <= negative <= store.n_items and negative not in set(train.tolist())

    def test_owned_block_falls_back_in_user_id_order(self, monkeypatch):
        # every user owns 6 of the 8 items, so a one-proposal block is mostly owned
        store = store_from_sequences({u: [(u + j) % 8 + 1 for j in range(8)]
                                      for u in range(40)})
        monkeypatch.setattr(training, "NEGATIVE_BLOCK", 1)
        negative_tags = []

        def spy(seed, *tags):
            if tags[0] == NEGATIVE:
                negative_tags.append(tags)
            return derive_rng(seed, *tags)

        monkeypatch.setattr(training, "derive_rng", spy)
        draws = _epoch_draws((store, None, None, None), monkeypatch, 16)
        assert negative_tags == [(NEGATIVE, 0)]  # no per-user stream
        # hand replay: the block, then one pick per owning user, by user id
        rng = derive_rng(9, NEGATIVE, 0)
        proposals = rng.integers(1, 9, size=(store.n_users, 1))[:, 0]
        fallbacks = 0
        for u in sorted(draws):
            train = store.train_prefix(u).tolist()
            expected = int(proposals[u])
            if expected in train:
                unowned = sorted(set(range(1, 9)) - set(train))
                expected = unowned[rng.integers(len(unowned))]
                fallbacks += 1
            assert draws[u][2] == expected
        assert 1 < fallbacks < store.n_users

    @pytest.mark.parametrize("block", [1, 8])
    def test_negatives_are_uniform_over_unowned_items(self, monkeypatch, block):
        # user 0 owns items 1..10 of 30; with a one-proposal block a third are fallbacks
        store = store_from_sequences({0: list(range(1, 13)), 1: list(range(11, 31))})
        ids, lengths = flat_prefixes([store.train_prefix(u) for u in range(2)])
        monkeypatch.setattr(training, "NEGATIVE_BLOCK", block)
        draws = [int(next(training._epoch_batches(ids, lengths, np.array([0]), 30, 1, e, 1))[0]
                     .negatives[0]) for e in range(4000)]
        counts = np.bincount(draws, minlength=31)
        assert counts[:11].sum() == 0
        chi2 = np.sum((counts[11:] - 200) ** 2 / 200)
        assert chi2 < 43.8  # 99.9th percentile of chi-square with 19 dof


class TestEarlyStopping:
    def test_stops_and_restores_best(self, small_corpus):
        store, seg, cands, _ = small_corpus
        model = init_model(store.n_items, 8, seed=8, encoder="pooled")
        scores = iter([0.5, 0.4, 0.3, 0.2, 0.1, 0.05])

        cfg = _cfg(batch_size=16, seed=8, stage1_epochs=6, patience=2)
        history = train_stage1(store, model, cfg, validator=lambda m: next(scores))
        # best at epoch 0, patience 2 -> stop after epoch 3
        assert len(history) == 4
        assert history[0]["valid_score"] == 0.5
        assert [h.get("restored") for h in history] == [True, None, None, None]

    def test_without_a_validator_the_last_epoch_is_marked(self, small_corpus):
        store, seg, cands, model = _toy_setup(small_corpus)
        cfg = _cfg(batch_size=16, seed=8, stage1_epochs=3, patience=None)
        history = train_stage1(store, model, cfg)
        assert [h.get("restored") for h in history] == [None, None, True]

    def test_stage2_early_stop_marks_its_restored_epoch(self, small_corpus):
        # the model returns holding stage 2's best epoch, not its last
        store, seg, cands, model = _toy_setup(small_corpus)
        scores = iter([0.1, 0.3, 0.2, 0.1, 0.05])
        seen = []

        def validator(m):
            seen.append({k: v.copy() for k, v in m.params.items()})
            return next(scores)

        cfg = _cfg(batch_size=16, seed=8, stage1_epochs=2, stage2_epochs=5,
                   patience=1)
        history = train_stage2(store, model, cands, seg, cfg, OperatorConfig(),
                               adam=init_adam(model.params), validator=validator)
        assert [h["epoch"] for h in history] == [2, 3, 4, 5]
        assert [h.get("restored") for h in history] == [None, True, None, None]
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, seen[1][k])

    def test_first_of_tied_best_epochs_wins(self, small_corpus):
        store, seg, cands, _ = small_corpus
        model = init_model(store.n_items, 8, seed=8, encoder="pooled")
        scores = iter([0.5, 0.5, 0.4, 0.4, 0.4])
        seen = []

        def validator(m):
            seen.append({k: v.copy() for k, v in m.params.items()})
            return next(scores)

        cfg = _cfg(batch_size=16, seed=8, stage1_epochs=5, patience=1)
        history = train_stage1(store, model, cfg, validator=validator)
        # the tie at epoch 1 is not an improvement, so epoch 2 is the second bad one
        assert len(history) == 3
        assert [h.get("restored") for h in history] == [True, None, None]
        assert any(not np.array_equal(seen[0][k], seen[1][k]) for k in seen[0])
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, seen[0][k])


class TestCheckpoint:
    def test_roundtrip_bytes_identical(self, small_corpus, tmp_path):
        store, seg, cands, model = _toy_setup(small_corpus, encoder="gru")
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, model, epoch=7, config_meta={"dim": 8},
                        metrics={"loss_total": 1.5}, lineage={"prepare": "p-1"})
        model2, lineage, meta = load_checkpoint(p1)
        assert lineage == {"prepare": "p-1"}
        save_checkpoint(p2, model2, epoch=meta["epoch"], config_meta=meta["config"],
                        metrics=meta["metrics"], lineage=lineage)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reload_restores_float32_values(self, small_corpus, tmp_path):
        store, seg, cands, model = _toy_setup(small_corpus, encoder="gru")
        path = tmp_path / "c.bin"
        save_checkpoint(path, model, epoch=1, config_meta={}, metrics={}, lineage={})
        model2, lineage, meta = load_checkpoint(path)
        assert lineage == {}
        assert meta["epoch"] == 1 and model2.encoder_name == "gru"
        for k in model.params:
            np.testing.assert_array_equal(model2.params[k],
                                          model.params[k].astype(np.float32))

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    def test_sections_are_exactly_the_parameters(self, small_corpus, tmp_path, encoder):
        store, seg, cands, model = _toy_setup(small_corpus, encoder=encoder)
        path = tmp_path / "d.bin"
        save_checkpoint(path, model, epoch=0, config_meta={}, metrics={}, lineage={})
        sections, meta = serialize.read_blob(path)
        assert list(sections) == sorted(model.params)
        assert meta["schema"] == "tailaug.checkpoint.v2" and "adam_step" not in meta
