import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailaug.augment import (INSERT, SUBSTITUTE, AugmentedBatch, CrossPlan, OperatorConfig,
                             apply_cross_mixup, augment_batch, augment_sequence,
                             draw_uniforms, insert_rows, plan_cross_batch, t_insert,
                             t_substitute)
from tailaug.corpus import PreferenceClass
from tailaug.rand import derive_rng

from conftest import (candidate_sets, identity_plan, segmentation_with_heads,
                      store_from_sequences)

H = PreferenceClass.HEAD_PREFERRING
T = PreferenceClass.TAIL_PREFERRING


class ForcedRng:
    """Stand-in generator: every uniform is ``random``, every rate ``uniform``.

    ``random=0.0`` selects every eligible position and picks the first
    candidate of each.
    """

    def __init__(self, uniform=0.5, random=0.0, beta=1.0):
        self._uniform, self._random, self._beta = uniform, random, beta

    def uniform(self, a, b, size=None):
        value = self._uniform if self._uniform is not None else a
        return value if size is None else np.full(size, value)

    def random(self, size=None):
        return self._random if size is None else np.full(size, self._random)

    def beta(self, a, b, size=None):
        if size is None:
            return self._beta
        return np.full(size, self._beta)

    def permutation(self, n):
        return np.arange(n)


class ScriptedRng:
    """Stand-in generator that returns the scripted draws in order, one per call."""

    def __init__(self, *draws):
        self._draws = [np.asarray(d, dtype=np.float64) for d in draws]

    def _next(self, size):
        draw = self._draws.pop(0)
        assert draw.shape == (() if size is None else (size,))
        return draw

    def random(self, size=None):
        return self._next(size)

    def uniform(self, a, b, size=None):
        draw = self._next(size)
        assert np.all((a <= draw) & (draw < b))
        return draw


def _fixture(head_items, n_items=6, cands=None):
    store = store_from_sequences({"u": [f"i{j}" for j in range(n_items)]})
    seg = segmentation_with_heads(store, head_items=head_items)
    cands = candidate_sets(store.n_items, cands or {})
    return store, seg, cands


class TestSampleRate:
    """The per-row rates of ``draw_uniforms``."""

    def test_draws_inside_interval(self):
        rates, select, pick = draw_uniforms(derive_rng(1, 0), 2000, 7,
                                            OperatorConfig(a=0.2, b=0.8))
        assert rates.shape == (2000,) and select.shape == pick.shape == (7,)
        assert np.all((0.2 <= rates) & (rates < 0.8))

    def test_degenerate_width(self):
        cfg = OperatorConfig(a=0.3, b=0.3 + 1e-9)
        rates = draw_uniforms(derive_rng(2, 0), 1, 0, cfg)[0]
        assert rates[0] == pytest.approx(0.3, abs=1e-8)

    def test_law_of_large_numbers_mean(self):
        rates = draw_uniforms(derive_rng(3, 0), 10_000, 0, OperatorConfig(a=0.2, b=0.8))[0]
        assert np.mean(rates) == pytest.approx(0.5, abs=0.01)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OperatorConfig(a=0.5, b=0.5)
        for alpha in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                OperatorConfig(alpha=alpha)


class TestSelectOperator:
    """The length rule that picks each row's operator."""

    def test_full_length_always_substitutes(self):
        rng = derive_rng(4, 0)
        assert not insert_rows(50, 50, rng.random(200)).any()

    def test_short_sequences_mostly_insert(self):
        rng = derive_rng(5, 0)
        assert insert_rows(1, 1000, rng.random(500)).sum() >= 495

    def test_monte_carlo_half(self):
        rng = derive_rng(6, 0)
        picks = insert_rows(25, 50, rng.random(10_000))
        assert picks.sum() / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_length_bounds(self):
        store, seg, cands = _fixture(head_items=set())
        for length in (0, 51):
            with pytest.raises(ValueError):
                augment_sequence(np.ones(length, dtype=np.int64), seg, cands,
                                 OperatorConfig(), 50, derive_rng(0, 0))


class TestSubstitute:
    def test_all_tail_untouched(self):
        store, seg, cands = _fixture(head_items=set())
        sample = t_substitute([1, 2, 3], seg, cands, OperatorConfig(), derive_rng(7, 0))
        assert sample.s_prime.tolist() == [1, 2, 3]
        assert sample.indices.tolist() == []
        assert sample.s_ext.tolist() == [1, 2, 3]

    def test_forced_single_replacement(self):
        store, seg, cands = _fixture(head_items={1}, cands={1: [4]})
        sample = t_substitute([1], seg, cands, OperatorConfig(), ForcedRng())
        assert sample.s_prime.tolist() == [4]
        assert sample.indices.tolist() == [0]
        assert sample.chosen.tolist() == [4]
        assert sample.operator == SUBSTITUTE

    def test_empty_candidates_keep_original(self):
        store, seg, cands = _fixture(head_items={1, 2}, cands={1: [5]})
        sample = t_substitute([1, 2], seg, cands, OperatorConfig(), ForcedRng())
        assert sample.s_prime.tolist() == [5, 2]   # item 2 has no candidates
        assert sample.indices.tolist() == [0]

    def test_scripted_trace_matches_hand_simulation(self):
        # independent replay of the documented draws on a mixed sequence: the
        # rate, a selection uniform per position, then a pick uniform per position
        store, seg, cands = _fixture(
            head_items={1, 3, 5},
            cands={1: [2, 6], 3: [4], 5: [2, 4, 6], 2: [1], 4: [3]}, n_items=6)
        seq = [1, 2, 3, 4, 5, 6, 1, 3]
        cfg = OperatorConfig(a=0.3, b=0.7)
        sample = t_substitute(seq, seg, cands, cfg, derive_rng(42, 1, 2))

        twin = derive_rng(42, 1, 2)
        rate = twin.uniform(0.3, 0.7)
        select = [twin.random() for _ in seq]
        pick = [twin.random() for _ in seq]
        expected = list(seq)
        exp_idx, exp_chosen = [], []
        for i, v in enumerate(seq):
            pool = cands.candidates_for(v).tolist()
            if v in (1, 3, 5) and select[i] < rate and pool:
                expected[i] = pool[int(pick[i] * len(pool))]
                exp_idx.append(i)
                exp_chosen.append(expected[i])
        assert sample.rate == rate
        assert sample.s_prime.tolist() == expected
        assert sample.s_ext.tolist() == seq
        assert sample.indices.tolist() == exp_idx
        assert sample.chosen.tolist() == exp_chosen
        assert 0 < len(exp_idx) < 5

    def test_invariants_under_random_draws(self):
        store, seg, cands = _fixture(
            head_items={1, 2, 3}, cands={1: [4, 5], 2: [6], 3: [4], 4: [1], 5: [2]})
        seq = [1, 4, 2, 5, 3, 6]
        for trial in range(50):
            s = t_substitute(seq, seg, cands, OperatorConfig(), derive_rng(8, trial))
            assert len(s.s_prime) == len(seq)                       # length preserved
            assert s.s_ext.tolist() == list(seq)
            for i, v in enumerate(seq):
                if v in (4, 5, 6):                                   # tail never touched
                    assert s.s_prime[i] == v
            for i, pick in zip(s.indices, s.chosen):
                assert pick in cands.candidates_for(seq[i])          # membership


class TestInsert:
    def test_all_head_noop(self):
        store, seg, cands = _fixture(head_items={1, 2, 3})
        sample = t_insert([1, 2, 3], seg, cands, OperatorConfig(), 50, derive_rng(9, 0))
        assert sample.s_prime.tolist() == [1, 2, 3]
        assert sample.s_ext.tolist() == [1, 2, 3]
        assert sample.indices.tolist() == []

    def test_forced_minimal_case(self):
        store, seg, cands = _fixture(head_items=set(), cands={1: [4]})
        sample = t_insert([1], seg, cands, OperatorConfig(), 50, ForcedRng())
        assert sample.s_prime.tolist() == [4, 1]
        assert sample.s_ext.tolist() == [1, 1]
        assert sample.operator == INSERT

    def test_length_accounting_with_truncation(self):
        # 48 items, 5 forced selections, cap 50: both outputs drop 3 oldest
        store = store_from_sequences({"u": [f"i{j}" for j in range(48)]})
        seg = segmentation_with_heads(store, head_items=set(range(1, 49)) - {1, 2, 3, 4, 5})
        cands = candidate_sets(store.n_items, {v: [48] for v in (1, 2, 3, 4, 5)})
        seq = list(range(1, 49))
        sample = t_insert(seq, seg, cands, OperatorConfig(), 50, ForcedRng())
        assert len(sample.indices) == 5
        assert len(sample.s_prime) == 50 and len(sample.s_ext) == 50
        # identical truncation offset: suffixes beyond insertions still align
        assert sample.s_prime.tolist()[-42:] == sample.s_ext.tolist()[-42:]

    def test_pair_length_equal_and_membership(self):
        store, seg, cands = _fixture(
            head_items={5, 6}, cands={1: [5], 2: [6, 5], 3: [4], 4: [3]})
        seq = [5, 1, 2, 6, 3, 4]
        for trial in range(50):
            s = t_insert(seq, seg, cands, OperatorConfig(), 50, derive_rng(10, trial))
            assert len(s.s_prime) == len(s.s_ext) == len(seq) + len(s.indices)
            for i, pick in zip(s.indices, s.chosen):
                assert pick in cands.candidates_for(seq[i])
            # relative order of original items preserved in both outputs
            assert _is_subsequence(seq, s.s_prime.tolist())
            assert _is_subsequence(seq, s.s_ext.tolist())

    def test_selected_with_empty_candidates_skipped(self):
        store, seg, cands = _fixture(head_items=set(), cands={})
        sample = t_insert([1, 2], seg, cands, OperatorConfig(), 50, ForcedRng())
        assert sample.s_prime.tolist() == [1, 2]
        assert sample.indices.tolist() == []


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


class TestAugmentBatch:
    """The batch kernel, replayed by hand from scripted uniforms."""

    @staticmethod
    def _fixture():
        # items 1..8; 1, 2 and 3 are head; item 3 and item 6 have no candidates
        return _fixture(head_items={1, 2, 3}, n_items=8, cands={
            1: [5, 6], 2: [7], 4: [1, 2, 3], 5: [2], 7: [8], 8: [1]})

    def test_scripted_batch_matches_hand_replay(self):
        store, seg, cands = self._fixture()
        rows = [[1, 4, 2, 3, 1], [4, 1, 7, 6, 8], [5], [4]]
        out = augment_batch(
            np.concatenate(rows), [5, 5, 1, 1], seg, cands, 6,
            insert=[False, True, True, True], rates=[0.5, 0.3, 0.2, 0.9],
            select=[0.1, 0.1, 0.6, 0.2, 0.4] + [0.0, 0.0, 0.29, 0.1, 0.3] + [0.9]
            + [0.0],
            pick=[0.9, 0.0, 0.0, 0.5, 0.3] + [0.5, 0.0, 0.99, 0.0, 0.0] + [0.1]
            + [np.nextafter(1.0, 0.0)])
        # row 0, substitution: position 0 (item 1, select 0.1 < 0.5) takes
        # c_1[floor(0.9 * 2)] = 6; position 1 is tail; position 2 misses its
        # rate; position 3 (item 3) has no candidates; position 4 takes c_1[0] = 5.
        # row 1, insertion: position 0 (item 4) gets c_4[floor(0.5 * 3)] = 2 in
        # front; position 1 is head; position 2 (item 7) gets c_7[0] = 8;
        # item 6 has no candidates and 0.3 is not below the rate 0.3.  Seven
        # entries exceed max_len 6, so both outputs lose their oldest one.
        # row 2 selects nothing; row 3's largest pick below 1 takes the last candidate.
        assert [s.operator for s in out] == [SUBSTITUTE, INSERT, INSERT, INSERT]
        assert [s.rate for s in out] == [0.5, 0.3, 0.2, 0.9]
        assert [s.s_prime.tolist() for s in out] == [[6, 4, 2, 3, 5], [4, 1, 8, 7, 6, 8],
                                                     [5], [3, 4]]
        assert [s.s_ext.tolist() for s in out] == [[1, 4, 2, 3, 1], [4, 1, 7, 7, 6, 8],
                                                   [5], [4, 4]]
        assert [s.indices.tolist() for s in out] == [[0, 4], [0, 2], [], [0]]
        assert [s.chosen.tolist() for s in out] == [[6, 5], [2, 8], [], [3]]
        assert all(s.indices.dtype == s.chosen.dtype == np.int64 for s in out)

    def test_rows_match_the_one_row_case(self, small_corpus):
        store, seg, cands, _ = small_corpus
        cfg = OperatorConfig()
        rows = [store.train_prefix(u) for u in range(store.n_users)]
        lengths = np.array([len(r) for r in rows])
        rng = derive_rng(23, 0)
        op = rng.random(len(rows))
        rates, select, pick = draw_uniforms(rng, len(rows), lengths.sum(), cfg)
        out = augment_batch(np.concatenate(rows), lengths, seg, cands, store.max_len,
                            insert=insert_rows(lengths, store.max_len, op), rates=rates,
                            select=select, pick=pick)
        starts = np.cumsum(lengths) - lengths
        operators = set()
        for i, (row, got) in enumerate(zip(rows, out)):
            at = slice(starts[i], starts[i] + lengths[i])
            rng = ScriptedRng(op[i], rates[i:i + 1], select[at], pick[at])
            want = augment_sequence(row, seg, cands, cfg, store.max_len, rng)
            assert got.trace_line(user=i) == want.trace_line(user=i)
            operators.add(got.operator)
        assert operators == {SUBSTITUTE, INSERT}

    def test_stacked_rows_give_the_columns_back(self):
        store, seg, cands = self._fixture()
        rows = [[1, 4, 2, 3, 1], [4, 1, 7, 6, 8], [5], [4]]
        out = augment_batch(np.concatenate(rows), [5, 5, 1, 1], seg, cands, 6,
                            insert=[False, True, True, True], rates=[0.5, 0.3, 0.2, 0.9],
                            select=np.linspace(0.0, 0.9, 12), pick=np.linspace(0.9, 0.0, 12))
        assert isinstance(out, AugmentedBatch) and len(out) == 4
        assert out[-1].trace_line(user=0) == list(out)[3].trace_line(user=0)
        with pytest.raises(IndexError):
            out[4]
        stacked = AugmentedBatch.stack(list(out))
        for name in ("insert", "rates", "s_prime", "s_ext", "lengths", "indices", "chosen",
                     "edits"):
            assert getattr(stacked, name).tobytes() == getattr(out, name).tobytes(), name

    def test_empty_row_rejected(self):
        store, seg, cands = self._fixture()
        with pytest.raises(ValueError):
            augment_batch([1], [1, 0], seg, cands, 6, insert=[False, False],
                          rates=[0.5, 0.5], select=[0.0], pick=[0.0])

    @staticmethod
    def _draw_batch(data):
        """Random catalog, candidate sets, rows of at most ``max_len`` and uniforms.

        Returns the head items, the candidate lists, the rows, the draws and
        the kernel's samples.
        """
        n_items = data.draw(st.integers(3, 9), label="items")
        ids = st.integers(1, n_items)
        head = data.draw(st.sets(ids), label="head items")
        members = {v: data.draw(st.lists(ids.filter(lambda w, v=v: w != v), unique=True,
                                         max_size=4), label=f"c_{v}")
                   for v in range(1, n_items + 1)}
        _, seg, cands = _fixture(head_items=head, n_items=n_items, cands=members)
        max_len = data.draw(st.integers(1, 8), label="max_len")
        rows = data.draw(st.lists(st.lists(ids, min_size=1, max_size=max_len),
                                  min_size=1, max_size=6), label="rows")
        lengths = np.array([len(r) for r in rows])
        unit = st.floats(0.0, 1.0, exclude_max=True)
        total = int(lengths.sum())
        uniforms = data.draw(st.lists(st.tuples(unit, unit), min_size=total, max_size=total),
                             label="(select, pick)")
        select, pick = np.array(uniforms, dtype=np.float64).reshape(-1, 2).T
        insert = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                    max_size=len(rows)), label="insert")
        rates = data.draw(st.lists(unit, min_size=len(rows), max_size=len(rows)),
                          label="rates")
        out = augment_batch(np.concatenate(rows), lengths, seg, cands, max_len,
                            insert=insert, rates=rates, select=select, pick=pick)
        return head, members, rows, max_len, insert, rates, select, pick, out

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_operator_invariants(self, data):
        head, members, rows, max_len, insert, rates, select, pick, out = self._draw_batch(data)
        lengths = np.array([len(r) for r in rows])
        starts = np.cumsum(lengths) - lengths
        for i, (row, s) in enumerate(zip(rows, out)):
            row = np.array(row)
            at = slice(starts[i], starts[i] + len(row))
            eligible = np.array([(v in head) != insert[i] and len(members[v]) > 0
                                 for v in row.tolist()], dtype=bool)
            assert s.indices.tolist() == np.flatnonzero(
                eligible & (select[at] < rates[i])).tolist()
            for j, pick_id in zip(s.indices.tolist(), s.chosen.tolist()):
                assert pick_id in members[row[j]]
            assert len(s.s_prime) == len(s.s_ext)             # equal lengths
            if insert[i]:
                full = len(row) + len(s.indices)
                assert len(s.s_ext) == min(full, max_len)
                ext = np.repeat(row, 1 + np.isin(np.arange(len(row)), s.indices))
                assert s.s_ext.tolist() == ext[full - len(s.s_ext):].tolist()
                changed = s.s_prime != s.s_ext
                assert np.all(np.isin(s.s_prime[changed], s.chosen))
            else:
                assert s.s_ext.tolist() == row.tolist()
                assert s.s_prime[s.indices].tolist() == s.chosen.tolist()
                kept = np.setdiff1d(np.arange(len(row)), s.indices)
                assert s.s_prime[kept].tolist() == row[kept].tolist()
                assert all(v in head for v in row[s.indices].tolist())  # head only

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rows_that_repeat_their_input(self, data):
        # batch_loss encodes these outputs once, as the input row, from operator and indices
        *_, rows, _, _, _, _, _, out = self._draw_batch(data)
        for row, s in zip(rows, out):
            if s.operator == SUBSTITUTE:
                assert s.s_ext.tolist() == row
            if len(s.indices) == 0:
                assert s.s_prime.tolist() == s.s_ext.tolist() == row


class TestCrossPlan:
    def test_grouping_never_crosses_classes(self):
        classes = [T, T, H, H]
        plan = plan_cross_batch(classes, 0.3, derive_rng(12, 0))
        assert sorted(plan.pairing[[0, 1]].tolist()) in ([0, 1],)
        assert sorted(plan.pairing[[2, 3]].tolist()) in ([2, 3],)

    def test_bijection_per_class(self):
        rng = derive_rng(13, 0)
        classes = [H, T, T, H, T, H, T, T]
        for _ in range(20):
            plan = plan_cross_batch(classes, 0.3, rng)
            heads = [i for i, c in enumerate(classes) if c is H]
            tails = [i for i, c in enumerate(classes) if c is T]
            assert sorted(plan.pairing[heads].tolist()) == heads
            assert sorted(plan.pairing[tails].tolist()) == tails

    def test_singleton_pairs_with_itself(self):
        plan = plan_cross_batch([T, H, H], 0.3, derive_rng(14, 0))
        assert plan.pairing[0] == 0

    def test_weight_count_matches_batch(self):
        plan = plan_cross_batch([T, H, T], 0.3, derive_rng(15, 0))
        assert plan.lams.shape == (3,)
        assert np.all((plan.lams >= 0) & (plan.lams <= 1))

    def test_weights_follow_symmetric_beta(self):
        # the mixing weight is Beta(alpha, alpha): mean 1/2, variance
        # 1 / (4 (2 alpha + 1)), fourth central moment 3 var^2 (2 alpha + 1) / (2 alpha + 3)
        alpha, n = 0.3, 200_000
        lams = plan_cross_batch([H, T] * (n // 2), alpha, derive_rng(17, 0)).lams
        var = 1 / (4 * (2 * alpha + 1))
        mu4 = 3 * var ** 2 * (2 * alpha + 1) / (2 * alpha + 3)
        assert abs(lams.mean() - 0.5) < 6 * np.sqrt(var / n)
        assert abs(lams.var() - var) < 6 * np.sqrt((mu4 - var ** 2) / n)

    def test_seeded_replay(self):
        classes = [H, T, T, H, T, H, T, T]
        a = plan_cross_batch(classes, 0.3, derive_rng(16, 3, 7))
        b = plan_cross_batch(classes, 0.3, derive_rng(16, 3, 7))
        np.testing.assert_array_equal(a.pairing, b.pairing)
        np.testing.assert_array_equal(a.lams, b.lams)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            plan_cross_batch([], 0.3, derive_rng(0, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([H, T]), min_size=1, max_size=40), st.integers(0, 2 ** 16))
    def test_pairing_is_a_permutation(self, classes, seed):
        # so a fancy-index += onto the pairing adds exactly what np.add.at adds
        plan = plan_cross_batch(classes, 0.3, derive_rng(seed, 0))
        assert sorted(plan.pairing.tolist()) == list(range(len(classes)))
        base, extra = np.random.default_rng(seed).normal(size=(2, len(classes), 3))
        want, got = base.copy(), base.copy()
        np.add.at(want, plan.pairing, extra)
        got[plan.pairing] += extra
        assert got.tobytes() == want.tobytes()


def _cross_mixup(plan, h, ep, en):
    """Mix stacked [h | e_pos | e_neg] rows and split them back."""
    return np.split(apply_cross_mixup(plan, np.hstack([h, ep, en])), 3, axis=1)


class TestApplyCrossMixup:
    def test_identity_plan_is_noop(self):
        rng = derive_rng(17, 0)
        h, ep, en = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        plan = identity_plan([H, T, H, T], lam=1.0)
        out = _cross_mixup(plan, h, ep, en)
        for got, want in zip(out, (h, ep, en)):
            np.testing.assert_array_equal(got, want)

    def test_lam_one_noop_even_with_shuffle(self):
        rng = derive_rng(18, 0)
        h, ep, en = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        plan = CrossPlan(pairing=np.array([1, 0, 3, 2]), lams=np.ones(4))
        out = _cross_mixup(plan, h, ep, en)
        for got, want in zip(out, (h, ep, en)):
            np.testing.assert_array_equal(got, want)

    def test_swap_half_averages(self):
        h = np.array([[2.0, 0.0], [0.0, 4.0]])
        plan = CrossPlan(pairing=np.array([1, 0]), lams=np.array([0.5, 0.5]))
        mixed, _, _ = _cross_mixup(plan, h, h, h)
        np.testing.assert_allclose(mixed, [[1.0, 2.0], [1.0, 2.0]])

    def test_matches_rowwise_formula(self):
        rng = derive_rng(19, 0)
        h, ep, en = rng.normal(size=(4, 5)), rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        plan = plan_cross_batch([H, T, H, T], 0.3, rng)
        h_ac, ep_ac, en_ac = _cross_mixup(plan, h, ep, en)
        for i in range(4):
            lam, j = plan.lams[i], plan.pairing[i]
            np.testing.assert_allclose(h_ac[i], lam * h[i] + (1 - lam) * h[j])
            np.testing.assert_allclose(ep_ac[i], lam * ep[i] + (1 - lam) * ep[j])
            np.testing.assert_allclose(en_ac[i], lam * en[i] + (1 - lam) * en[j])

    def test_shape_mismatch(self):
        plan = identity_plan([H, T])
        with pytest.raises(ValueError):
            apply_cross_mixup(plan, np.zeros((3, 6)))


class TestDeterminism:
    def test_augment_sequence_replays_bit_identically(self, small_corpus):
        store, seg, cands, _ = small_corpus
        cfg = OperatorConfig()
        for u in range(min(20, store.n_users)):
            seq = store.train_prefix(u)
            a = augment_sequence(seq, seg, cands, cfg, store.max_len, derive_rng(20, 5, u))
            b = augment_sequence(seq, seg, cands, cfg, store.max_len, derive_rng(20, 5, u))
            assert a.operator == b.operator and a.rate == b.rate
            np.testing.assert_array_equal(a.s_prime, b.s_prime)
            np.testing.assert_array_equal(a.s_ext, b.s_ext)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_trace_line_roundtrip(self, small_corpus):
        import json
        store, seg, cands, _ = small_corpus
        sample = augment_sequence(store.train_prefix(0), seg, cands,
                                  OperatorConfig(), store.max_len, derive_rng(21, 0))
        rec = json.loads(sample.trace_line(user=0, mix_weight=0.5))
        assert rec["operator"] in (SUBSTITUTE, INSERT)
        assert rec["user"] == 0 and rec["mix_weight"] == 0.5
        assert rec["s_prime"] == sample.s_prime.tolist()
