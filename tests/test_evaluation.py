import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailaug import evaluation, simcand
from tailaug.encoders import encode_batch, init_model
from tailaug.errors import DataError, NumericError
from tailaug.evaluation import (RankingResult, evaluate_model, format_table, hit_at_k,
                                mean_report, ndcg_at_k, rank_of_target, segmented_report,
                                validation_score)
from tailaug.simcand import smallest_k

from tailaug.corpus import segment

from conftest import (bruteforce_tail_coverage, decoded_store, encode_one, ragged_rows,
                      segmentation_with_heads, store_from_rows, store_from_sequences)


def rank_all(model, store, phase, filter_seen=False):
    """Every user's (user, target, rank) row, read off the scoring blocks in user order."""
    blocks = list(evaluation._score_blocks(model, store, phase, filter_seen))
    targets = np.concatenate([t for t, _, _ in blocks]).tolist()
    ranks = np.concatenate([r for _, r, _ in blocks]).tolist()
    return list(zip(range(len(ranks)), targets, ranks))


class TestRankOfTarget:
    def test_strict_max_ranks_first(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert rank_of_target(scores, 2) == 1

    def test_all_equal_ranks_last(self):
        scores = np.zeros(7)
        assert rank_of_target(scores, 4) == 7

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=20)
            target = int(rng.integers(1, 21))
            # oracle: pessimistic rank via a full sort with target last on ties
            order = sorted(range(20), key=lambda j: (-scores[j], j == target - 1))
            expected = order.index(target - 1) + 1
            assert rank_of_target(scores, target) == expected

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=12),
           st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, raw, shift):
        scores = np.asarray(raw, dtype=float)
        target = 1
        assert rank_of_target(scores, target) == rank_of_target(scores + shift, target)


def _stable_top(scores, take):
    """Reference top lists: a full stable sort of every row, by score descending."""
    return np.argsort(-scores, axis=-1, kind="stable")[:, :take]


class TestSmallestK:
    """The shared top-K kernel equals a full stable sort, cut at ``take``."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 301])
    def test_random_scores_every_take(self, n):
        rng = np.random.default_rng(n)
        scores = rng.normal(size=(23, n))
        for take in sorted({1, min(2, n), n // 2 or 1, n - 1 or 1, n}):
            assert np.array_equal(smallest_k(-scores, take), _stable_top(scores, take))

    @pytest.mark.parametrize("levels", [1, 2, 3, 5])
    def test_heavy_ties(self, levels):
        rng = np.random.default_rng(levels)
        scores = rng.integers(0, levels, size=(64, 50)).astype(float)
        for take in (1, 3, 10, 25, 49, 50):
            assert np.array_equal(smallest_k(-scores, take), _stable_top(scores, take))

    def test_seen_filtered_entries(self):
        # -inf scores (seen-filtered items) rank last, by ascending index
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 4, size=(64, 30)).astype(float)
        scores[rng.random(scores.shape) < 0.6] = -np.inf
        scores[0] = -np.inf
        for take in (1, 5, 12, 29, 30):
            assert np.array_equal(smallest_k(-scores, take), _stable_top(scores, take))

    def test_ties_straddling_kth_position(self):
        # the third-best key 5 occurs at 0, 2, 3 and 5: index 0 must win
        keys = np.array([[5.0, 1.0, 5.0, 5.0, 0.0, 5.0],
                         [5.0, 5.0, 5.0, 5.0, 5.0, 5.0]])
        assert smallest_k(keys, 3).tolist() == [[4, 1, 0], [0, 1, 2]]
        assert smallest_k(keys, 4).tolist() == [[4, 1, 0, 2], [0, 1, 2, 3]]

    def test_single_column(self):
        assert smallest_k(np.array([[3.0], [-np.inf], [np.inf]]), 1).tolist() == \
            [[0], [0], [0]]

    def test_tie_just_past_the_cut(self):
        # take = 3: the two keys past the cut tie with each other, not with the slice
        keys = np.array([[4.0, 2.0, 4.0, 0.0, 1.0, 9.0],
                         [4.0, 2.0, 4.0, 0.0, 2.0, 9.0]])
        assert smallest_k(keys, 3).tolist() == [[3, 4, 1], [3, 1, 4]]
        # take = 2: the second-smallest key 2 straddles the cut, its lower column wins
        assert smallest_k(keys, 2).tolist() == [[3, 4], [3, 1]]

    def test_rows_entirely_filtered(self):
        # a seen-filtered row is all +inf keys: columns in ascending order
        keys = np.full((3, 6), np.inf)
        keys[1, 4] = 0.5
        for take in (1, 3, 5, 6):
            assert np.array_equal(smallest_k(keys, take), _stable_top(-keys, take))
        assert smallest_k(keys, 3).tolist() == [[0, 1, 2], [4, 0, 1], [0, 1, 2]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_row_and_one_short(self, dtype):
        rng = np.random.default_rng(11)
        scores = rng.integers(0, 3, size=(40, 9)).astype(dtype)
        scores[rng.random(scores.shape) < 0.2] = -np.inf
        for take in (8, 9):
            top = smallest_k(-scores, take)
            assert top.shape == (40, take)
            assert np.array_equal(top, _stable_top(scores, take))

    def test_any_order_the_partition_allows(self, monkeypatch):
        # argpartition leaves each side of its kth position in an undefined
        # order; the kernel must be right for every such order, not numpy's
        real, rng = np.argpartition, np.random.default_rng(5)

        def shuffled(a, kth, axis):
            part = real(a, kth, axis=axis)
            for row in part:
                rng.shuffle(row[:kth])
                rng.shuffle(row[kth + 1:])
            return part

        monkeypatch.setattr(np, "argpartition", shuffled)
        for levels in (2, 4, 8, 16):
            scores = rng.integers(0, levels, size=(32, 30)).astype(float)
            for take in range(1, 31):
                assert np.array_equal(smallest_k(-scores, take), _stable_top(scores, take))

    @given(st.integers(1, 30), st.integers(1, 12), st.data(),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, n, rows, data, dtype):
        # few distinct keys, infinities included: ties straddle the cut often
        levels = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf])
        keys = np.array(data.draw(st.lists(st.lists(levels, min_size=n, max_size=n),
                                           min_size=rows, max_size=rows)), dtype=dtype)
        take = data.draw(st.integers(1, n))
        assert np.array_equal(smallest_k(keys, take),
                              np.argsort(keys, axis=1, kind="stable")[:, :take])


class TestFullRank:
    def test_against_sort_oracle_on_toy_model(self):
        store = store_from_sequences(
            {f"u{i}": [f"i{j:02d}" for j in np.random.default_rng(i).integers(0, 20, 6)]
             for i in range(8)})
        model = init_model(store.n_items, 8, seed=1)
        for u, (user, target, rank) in enumerate(rank_all(model, store, "test")):
            assert user == u
            seq = np.concatenate([store.train_prefix(u), [store.valid_item(u)]])
            scores = model.embeddings[1:] @ encode_one(model, seq)
            expected = 1 + sum(1 for j in range(store.n_items)
                               if j + 1 != target and scores[j] >= scores[target - 1])
            assert rank == expected

    def test_non_finite_scores_raise_not_rank(self):
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        model = init_model(store.n_items, 4, seed=2)
        model.embeddings[2, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            rank_all(model, store, "test")

    def test_valid_phase_uses_prefix_only(self):
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        model = init_model(store.n_items, 4, seed=2)
        _, target, _ = rank_all(model, store, "valid")[0]
        assert target == store.valid_item(0)

    def test_blocks_encode_without_history(self, small_corpus, monkeypatch):
        # a backward's per-step history would be most of a block's memory, and
        # scoring never reads it: every block asks for none and gets no cache
        store = small_corpus[0]
        model = init_model(store.n_items, 8, seed=1)
        monkeypatch.setattr(evaluation, "_EVAL_BATCH", 16)
        caches = []

        def spy(model, seqs, history=True):
            assert history is False
            h, cache = encode_batch(model, seqs, history)
            caches.append(cache)
            return h, cache

        monkeypatch.setattr(evaluation, "encode_batch", spy)
        assert len(rank_all(model, store, "test")) == store.n_users
        assert caches == [None] * -(-store.n_users // 16) and len(caches) > 1

    def test_a_long_sequence_block_peaks_below_its_cached_history(self):
        # a backward's history of one block (entering states, z/r gates and
        # candidates: 4 n + b rows of d) never exists while scoring
        rng = np.random.default_rng(7)
        n_items, dim = 60, 16
        rows = [rng.integers(1, n_items + 1, size=n).tolist()
                for n in rng.integers(30, 51, size=64)]
        store = store_from_rows(rows, max_len=50, user_ids=[f"u{i}" for i in range(64)],
                                item_ids=[f"i{j}" for j in range(n_items)], split=True)
        model = init_model(n_items, dim, seed=4, encoder="gru")
        assert evaluation._EVAL_BATCH >= store.n_users  # one block
        n = sum(len(r) - 1 for r in rows)  # the test phase's inputs
        history = (4 * n + store.n_users) * dim * model.embeddings.itemsize
        tracemalloc.start()
        try:
            next(evaluation._score_blocks(model, store, "test", False, depth=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < history

    def test_filter_seen_improves_or_keeps_rank(self, small_corpus):
        store, seg, _, _ = small_corpus
        model = init_model(store.n_items, 8, seed=3)
        plain = rank_all(model, store, "test")
        filtered = rank_all(model, store, "test", filter_seen=True)
        for (_, _, a), (_, _, b) in zip(plain, filtered):
            assert b <= a

    @pytest.mark.parametrize("phase", ["valid", "test"])
    def test_filter_seen_keeps_a_reoccurring_target(self, phase, monkeypatch):
        # every target also occurs earlier in its user's input; blocks of 2 users
        store = store_from_sequences({"u0": ["a", "b", "a", "c", "a", "a"],
                                      "u1": ["c", "b", "d", "b", "d", "b"],
                                      "u2": ["e", "f", "g", "h", "e", "f"],
                                      "u3": ["d", "a", "d", "c", "c", "d"],
                                      "u4": ["f", "f", "g", "f", "g", "g"]})
        model = init_model(store.n_items, 4, seed=7)
        monkeypatch.setattr(evaluation, "_EVAL_BATCH", 2)
        rows = rank_all(model, store, phase, filter_seen=True)
        for u, (_, target, rank) in enumerate(rows):
            seq = store.train_prefix(u) if phase == "valid" else \
                np.concatenate([store.train_prefix(u), [store.valid_item(u)]])
            assert target in seq
            scores = model.embeddings[1:] @ encode_one(model, seq)
            others = set(seq.tolist()) - {target}
            scores[[v - 1 for v in others]] = -np.inf
            assert rank == rank_of_target(scores, target) <= store.n_items - len(others)


class TestScoreChunks:
    """Each encode block is scored in chunks of ``simcand.block_rows(n_items)``
    users through one buffer; no chunk size may change a result."""

    @pytest.mark.parametrize("encoder", ["pooled", "gru"])
    @pytest.mark.parametrize("filter_seen", [False, True])
    def test_chunking_does_not_change_results(self, small_corpus, monkeypatch, encoder,
                                              filter_seen):
        store, seg, _, _ = small_corpus
        model = init_model(store.n_items, 8, seed=5, encoder=encoder)

        def run():
            report = evaluate_model(model, store, seg, ks=(1, 5, 20), filter_seen=filter_seen)
            return report.to_fields(), validation_score(model, store)

        default = run()
        monkeypatch.setattr(evaluation, "_EVAL_BATCH", 5)
        for rows in (1, 3):  # a one-row chunk, and blocks of 5 split 3 + 2
            monkeypatch.setattr(simcand, "BLOCK_ENTRIES", rows * store.n_items)
            chunks = [len(t) for t, _, _ in
                      evaluation._score_blocks(model, store, "test", filter_seen)]
            assert max(chunks) == rows and sum(chunks) == store.n_users
            assert run() == default

    def test_a_pass_peaks_below_one_unchunked_block(self):
        # unchunked, a 512-user block held its float64 scores and the int64
        # partition indices of the same shape at once
        rng = np.random.default_rng(8)
        n_users, n_items = 1000, 1500
        rows = [rng.integers(1, n_items + 1, size=n).tolist()
                for n in rng.integers(3, 21, size=n_users)]
        store = store_from_rows(rows, max_len=50, user_ids=[f"u{i}" for i in range(n_users)],
                                item_ids=[f"i{j}" for j in range(n_items)], split=True)
        model = init_model(n_items, 8, seed=4, encoder="pooled")
        assert model.embeddings.dtype == np.float64
        tracemalloc.start()
        try:
            for _ in evaluation._score_blocks(model, store, "test", True, depth=20):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * evaluation._EVAL_BATCH * n_items * 8


class TestHitNdcg:
    def test_rank_one_contributions(self):
        res = [RankingResult(0, 1, 1)]
        assert hit_at_k(res, 10) == 1.0
        assert ndcg_at_k(res, 10) == pytest.approx(1.0)

    def test_rank_three_hand_value(self):
        res = [RankingResult(0, 1, 3)]
        assert ndcg_at_k(res, 10) == pytest.approx(0.5)  # 1/log2(4)

    def test_rank_past_cutoff(self):
        res = [RankingResult(0, 1, 11)]
        assert hit_at_k(res, 10) == 0.0 and ndcg_at_k(res, 10) == 0.0

    def test_empty_results_error(self):
        with pytest.raises(DataError):
            hit_at_k([], 10)
        with pytest.raises(DataError):
            ndcg_at_k([], 10)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=30),
           st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_ndcg_never_exceeds_hit(self, ranks, k):
        res = [RankingResult(i, 1, r) for i, r in enumerate(ranks)]
        assert ndcg_at_k(res, k) <= hit_at_k(res, k) + 1e-12


def _toy_columns():
    # 6 hand-built cases: users 0..5, targets alternate head(1)/tail(2)
    users = np.arange(6)
    targets = np.array([1, 2, 1, 2, 1, 2])
    ranks = np.array([1, 3, 12, 2, 5, 40])
    return users, targets, ranks


def _toy_seg():
    store = store_from_sequences({f"u{i}": ["a", "b", "c"] for i in range(6)})
    return segmentation_with_heads(store, head_items={1}, head_users={0, 1})


class TestSegmentedReport:
    def test_hand_computed_segments(self):
        report = segmented_report(*_toy_columns(), _toy_seg(), ks=[5, 10], tcov={}, phase="test")
        seg = report.segments
        # head_item = users 0,2,4 with ranks 1,12,5 ; tail_item = 3,2,40
        assert seg["head_item"]["count"] == 3 and seg["tail_item"]["count"] == 3
        assert seg["head_item"]["hit@5"] == pytest.approx(2 / 3)
        assert seg["tail_item"]["hit@5"] == pytest.approx(2 / 3)
        assert seg["head_item"]["ndcg@10"] == pytest.approx(
            (1.0 + 0.0 + 1 / np.log2(6)) / 3)
        assert seg["overall"]["hit@10"] == pytest.approx(4 / 6)
        assert seg["head_user"]["count"] == 2 and seg["tail_user"]["count"] == 4

    def test_absent_segment_when_empty(self):
        users, targets, ranks = _toy_columns()
        head = targets == 1
        report = segmented_report(users[head], targets[head], ranks[head], _toy_seg(), ks=[5],
                                  tcov={}, phase="test")
        assert "tail_item" not in report.segments
        assert "head_item" in report.segments

    def test_user_segments_partition_overall(self):
        report = segmented_report(*_toy_columns(), _toy_seg(), ks=[5], tcov={}, phase="test")
        seg = report.segments
        assert seg["head_user"]["count"] + seg["tail_user"]["count"] == \
            seg["overall"]["count"]
        assert seg["head_item"]["count"] + seg["tail_item"]["count"] == \
            seg["overall"]["count"]

    def test_overall_is_weighted_average_of_item_segments(self):
        report = segmented_report(*_toy_columns(), _toy_seg(), ks=[10], tcov={}, phase="test")
        seg = report.segments
        weighted = (seg["head_item"]["hit@10"] * seg["head_item"]["count"]
                    + seg["tail_item"]["hit@10"] * seg["tail_item"]["count"])
        assert seg["overall"]["hit@10"] == pytest.approx(
            weighted / seg["overall"]["count"])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_rowwise_reference(self, data):
        n_users, n_items = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 12))
        size = data.draw(st.integers(1, 40))
        column = lambda lo, hi: np.array(data.draw(
            st.lists(st.integers(lo, hi), min_size=size, max_size=size)))
        users, targets, ranks = column(0, n_users - 1), column(1, n_items), column(1, n_items)
        seg = segmentation_with_heads(
            SimpleNamespace(n_users=n_users, n_items=n_items),
            head_items=data.draw(st.sets(st.integers(1, n_items))),
            head_users=data.draw(st.sets(st.integers(0, n_users - 1))))
        # the last cutoff lies above every rank
        ks = data.draw(st.lists(st.integers(1, n_items), max_size=3, unique=True)) + [n_items + 1]
        results = [RankingResult(u, t, r) for u, t, r in
                   zip(users.tolist(), targets.tolist(), ranks.tolist())]
        assert segmented_report(users, targets, ranks, seg, ks, {}, "test").segments == \
            _rowwise_segments(results, seg, ks)

    def test_empty_user_and_item_segments(self):
        # every item and no user is head: the tail-item and head-user segments are empty
        seg = segmentation_with_heads(SimpleNamespace(n_users=3, n_items=4),
                                      head_items=range(1, 5))
        users, targets = np.array([0, 1, 2, 2]), np.array([1, 4, 2, 3])
        ranks = targets.copy()
        report = segmented_report(users, targets, ranks, seg, ks=[2, 5], tcov={}, phase="test")
        assert list(report.segments) == ["overall", "head_item", "tail_user"]
        results = [RankingResult(*row) for row in zip(users, targets, ranks)]
        assert report.segments == _rowwise_segments(results, seg, [2, 5])
        assert report.segments["overall"]["hit@5"] == 1.0


def _rowwise_segments(results, seg, ks):
    """The per-result reference: members by set membership, metrics written out
    term by term, and ``hit_at_k``/``ndcg_at_k`` equal to them."""
    members = {"overall": results,
               "head_item": [r for r in results if r.target in seg.head_items],
               "tail_item": [r for r in results if r.target in seg.tail_items],
               "head_user": [r for r in results if r.user in seg.head_users],
               "tail_user": [r for r in results if r.user in seg.tail_users]}
    segments = {}
    for name, rows in members.items():
        if not rows:
            continue
        segments[name] = {"count": len(rows)}
        for k in ks:
            hit = sum(r.rank <= k for r in rows) / len(rows)
            ndcg = math.fsum(1.0 / math.log2(r.rank + 1) if r.rank <= k else 0.0
                             for r in rows) / len(rows)
            assert hit_at_k(rows, k) == hit and ndcg_at_k(rows, k) == ndcg
            segments[name][f"hit@{k}"], segments[name][f"ndcg@{k}"] = hit, ndcg
    return segments


def _tcov(model, store, seg, k, filter_seen=False):
    return evaluate_model(model, store, seg, ks=(k,), filter_seen=filter_seen).tcov[k]


class TestTailCoverage:
    def _setup(self, head_items):
        store = store_from_sequences(
            {f"u{i}": [f"i{j:02d}" for j in
                       np.random.default_rng(100 + i).integers(0, 15, 7)]
             for i in range(10)})
        seg = segmentation_with_heads(store, head_items=head_items)
        model = init_model(store.n_items, 6, seed=4)
        return store, seg, model

    def test_matches_bruteforce_union(self):
        store, seg, model = self._setup(head_items={1, 2, 3})
        for k in (1, 4, store.n_items):
            assert _tcov(model, store, seg, k) == \
                bruteforce_tail_coverage(model, store, seg, k)

    def test_zero_when_no_tail_recommended(self):
        store, seg, model = self._setup(head_items={1, 2, 3})
        # identical embeddings -> all scores tie -> lists are the 3 lowest ids,
        # which are exactly the head items
        model.embeddings[1:] = 1.0
        assert _tcov(model, store, seg, 3) == 0.0

    def test_one_when_every_tail_item_listed(self):
        store, seg, model = self._setup(head_items=set())
        # K = |V| puts every item in every list
        assert _tcov(model, store, seg, store.n_items) == 1.0

    def test_monotone_in_k(self):
        store, seg, model = self._setup(head_items={1, 2})
        ks = (1, 3, 5, 8, store.n_items)
        tcov = evaluate_model(model, store, seg, ks=ks).tcov
        vals = [tcov[k] for k in ks]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_cutoff_beyond_catalog(self):
        # a cutoff above |V| lists every item: the selection is clamped to |V|
        store, seg, model = self._setup(head_items={1, 2, 3})
        k = store.n_items + 3
        report = evaluate_model(model, store, seg, ks=(k,))
        assert report.tcov[k] == bruteforce_tail_coverage(model, store, seg, k) == 1.0
        assert report.segments["overall"][f"hit@{k}"] == 1.0

    def test_filter_seen_drops_seen_items_from_lists(self, monkeypatch):
        # "top" is seen by every user and never a target; "head" is only
        # user 0's test target, so it is in no scored input
        store = store_from_sequences(
            {f"u{i}": ["top", f"a{i}", f"b{i}", "head" if i == 0 else f"c{i}"]
             for i in range(4)})
        top = store.item_ids.index("top") + 1
        head = store.item_ids.index("head") + 1
        seg = segmentation_with_heads(store, head_items={head})
        model = init_model(store.n_items, 3, seed=0)
        model.embeddings[1:] = 0.0
        model.embeddings[top] = 2.0
        model.embeddings[head] = 1.0
        monkeypatch.setattr(evaluation, "encode_batch", lambda model, seqs, history: (
            np.ones((len(seqs), model.dim)), None))
        assert _tcov(model, store, seg, 1) == 1 / len(seg.tail_items)
        assert _tcov(model, store, seg, 1, filter_seen=True) == 0.0


class TestReportPlumbing:
    def test_format_table_has_all_columns(self):
        report = segmented_report(*_toy_columns(), _toy_seg(), ks=[5],
                                  tcov={5: 0.5}, phase="test")
        table = format_table(report)
        for label in ("Overall", "Head Item", "Tail Item", "Head User", "Tail User"):
            assert label in table
        assert "tcov@5" in table

    def test_mean_report_averages(self):
        r1 = segmented_report(*_toy_columns(), _toy_seg(), ks=[5], tcov={5: 0.2},
                              phase="test")
        users, targets, ranks = _toy_columns()
        r2 = segmented_report(users, targets, ranks + 1, _toy_seg(), ks=[5], tcov={5: 0.4},
                              phase="test")
        mean = mean_report([r1, r2])
        assert mean.tcov[5] == pytest.approx(0.3)
        assert mean.segments["overall"]["hit@5"] == pytest.approx(
            (r1.segments["overall"]["hit@5"] + r2.segments["overall"]["hit@5"]) / 2)


class TestEvaluateModel:
    def test_end_to_end_report(self, small_corpus):
        store, seg, _, _ = small_corpus
        model = init_model(store.n_items, 8, seed=5)
        report = evaluate_model(model, store, seg, ks=(5, 10))
        assert set(report.tcov) == {5, 10}
        assert report.segments["overall"]["count"] == store.n_users
        for seg_row in report.segments.values():
            for key, val in seg_row.items():
                if key != "count":
                    assert 0.0 <= val <= 1.0

    def test_fresh_model_near_chance(self, small_corpus):
        # untrained scores are arbitrary w.r.t. targets: HR@K ~ K/|V|
        store, seg, _, _ = small_corpus
        hits = []
        for seed in range(5):
            model = init_model(store.n_items, 8, seed=seed)
            report = evaluate_model(model, store, seg, ks=(10,))
            hits.append(report.segments["overall"]["hit@10"])
        chance = 10 / store.n_items
        assert np.mean(hits) == pytest.approx(chance, abs=3 * chance)

    def test_validation_score_uses_valid_phase(self, small_corpus):
        store, _, _, _ = small_corpus
        model = init_model(store.n_items, 8, seed=6)
        results = [RankingResult(*row) for row in rank_all(model, store, "valid")]
        assert validation_score(model, store) == pytest.approx(
            ndcg_at_k(results, 10))


class TestSlicedInputsMatchRowwise:
    """Evaluation slices its inputs out of the flat store; the reference builds
    them row by row, as ``bruteforce_tail_coverage`` does."""

    @given(ragged_rows(min_users=1, min_items=2), st.sampled_from(["pooled", "gru"]))
    @example(([[1, 2, 1, 2, 1], [2, 1, 2]], 2, 5), "gru")  # one row of exactly max_len
    @settings(max_examples=60, deadline=None)
    def test_evaluate_model(self, case, encoder):
        store = decoded_store(*case)
        seg = segment(store)
        model = init_model(store.n_items, 4, seed=3, encoder=encoder)
        ks = (1, 3)
        seqs = [np.concatenate([store.train_prefix(u), [store.valid_item(u)]])[-store.max_len:]
                for u in range(store.n_users)]
        targets = [store.test_item(u) for u in range(store.n_users)]
        ranks = rank_of_target(encode_batch(model, seqs)[0] @ model.embeddings[1:].T, targets)
        tcov = {k: bruteforce_tail_coverage(model, store, seg, k) for k in ks}
        assert evaluate_model(model, store, seg, ks=ks).to_fields() == segmented_report(
            np.arange(store.n_users), np.array(targets), ranks, seg, ks, tcov=tcov,
            phase="test").to_fields()

    @given(ragged_rows(min_users=1), st.sampled_from(["pooled", "gru"]))
    @example(([[1, 2, 1, 2, 1], [2, 1, 2]], 2, 5), "pooled")
    @settings(max_examples=60, deadline=None)
    def test_validation_score(self, case, encoder):
        store = decoded_store(*case)
        model = init_model(store.n_items, 4, seed=3, encoder=encoder)
        seqs = [store.train_prefix(u)[-store.max_len:] for u in range(store.n_users)]
        targets = [store.valid_item(u) for u in range(store.n_users)]
        ranks = rank_of_target(encode_batch(model, seqs)[0] @ model.embeddings[1:].T, targets)
        results = [RankingResult(user=u, target=t, rank=int(r))
                   for u, (t, r) in enumerate(zip(targets, ranks))]
        assert validation_score(model, store) == ndcg_at_k(results, 10)
