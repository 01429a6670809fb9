import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailaug import evaluation
from tailaug.encoders import encode_batch, init_model
from tailaug.errors import DataError, NumericError
from tailaug.evaluation import (RankingResult, evaluate_model, format_table, hit_at_k,
                                mean_report, ndcg_at_k, rank_of_target, segmented_report,
                                validation_score)
from tailaug.simcand import smallest_k

from tailaug.corpus import segment

from conftest import (bruteforce_tail_coverage, decoded_store, encode_one, ragged_rows,
                      segmentation_with_heads, store_from_sequences)


def rank_all(model, store, phase, filter_seen=False):
    """Every user's ranking result, read off the scoring blocks."""
    return [r for block, _ in evaluation._score_blocks(model, store, phase, filter_seen)
            for r in block]


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


class TestFullRank:
    def test_against_sort_oracle_on_toy_model(self):
        store = store_from_sequences(
            {f"u{i}": [f"i{j:02d}" for j in np.random.default_rng(i).integers(0, 20, 6)]
             for i in range(8)})
        model = init_model(store.n_items, 8, seed=1)
        for u, res in enumerate(rank_all(model, store, "test")):
            assert res.user == u
            seq = np.concatenate([store.train_prefix(u), [store.valid_item(u)]])
            scores = model.embeddings[1:] @ encode_one(model, seq)
            expected = 1 + sum(1 for j in range(store.n_items)
                               if j + 1 != res.target and scores[j] >= scores[res.target - 1])
            assert res.rank == expected

    def test_non_finite_scores_raise_not_rank(self):
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        model = init_model(store.n_items, 4, seed=2)
        model.embeddings[2, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            rank_all(model, store, "test")

    def test_valid_phase_uses_prefix_only(self):
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        model = init_model(store.n_items, 4, seed=2)
        res = rank_all(model, store, "valid")[0]
        assert res.target == store.valid_item(0)

    def test_a_block_frees_its_encode_cache_before_the_next(self, small_corpus, monkeypatch):
        # the backward cache is most of a block's memory, and scoring never uses it
        store = small_corpus[0]
        model = init_model(store.n_items, 8, seed=1)
        monkeypatch.setattr(evaluation, "_EVAL_BATCH", 16)
        caches = []

        def spy(model, seqs):
            assert all(ref() is None for ref in caches)
            h, cache = encode_batch(model, seqs)
            caches.append(weakref.ref(cache["enc"]["states"]))
            return h, cache

        monkeypatch.setattr(evaluation, "encode_batch", spy)
        assert len(rank_all(model, store, "test")) == store.n_users
        assert len(caches) == -(-store.n_users // 16) > 1

    def test_filter_seen_improves_or_keeps_rank(self, small_corpus):
        store, seg, _, _ = small_corpus
        model = init_model(store.n_items, 8, seed=3)
        plain = rank_all(model, store, "test")
        filtered = rank_all(model, store, "test", filter_seen=True)
        for a, b in zip(plain, filtered):
            assert b.rank <= a.rank


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


def _toy_results():
    # 6 hand-built cases: users 0..5, targets alternate head(1)/tail(2)
    return [
        RankingResult(user=0, target=1, rank=1),
        RankingResult(user=1, target=2, rank=3),
        RankingResult(user=2, target=1, rank=12),
        RankingResult(user=3, target=2, rank=2),
        RankingResult(user=4, target=1, rank=5),
        RankingResult(user=5, target=2, rank=40),
    ]


def _toy_seg():
    store = store_from_sequences({f"u{i}": ["a", "b", "c"] for i in range(6)})
    return segmentation_with_heads(store, head_items={1}, head_users={0, 1})


class TestSegmentedReport:
    def test_hand_computed_segments(self):
        report = segmented_report(_toy_results(), _toy_seg(), ks=[5, 10])
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
        results = [r for r in _toy_results() if r.target == 1]
        report = segmented_report(results, _toy_seg(), ks=[5])
        assert "tail_item" not in report.segments
        assert "head_item" in report.segments

    def test_user_segments_partition_overall(self):
        report = segmented_report(_toy_results(), _toy_seg(), ks=[5])
        seg = report.segments
        assert seg["head_user"]["count"] + seg["tail_user"]["count"] == \
            seg["overall"]["count"]
        assert seg["head_item"]["count"] + seg["tail_item"]["count"] == \
            seg["overall"]["count"]

    def test_overall_is_weighted_average_of_item_segments(self):
        report = segmented_report(_toy_results(), _toy_seg(), ks=[10])
        seg = report.segments
        weighted = (seg["head_item"]["hit@10"] * seg["head_item"]["count"]
                    + seg["tail_item"]["hit@10"] * seg["tail_item"]["count"])
        assert seg["overall"]["hit@10"] == pytest.approx(
            weighted / seg["overall"]["count"])


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
        monkeypatch.setattr(evaluation, "encode_batch", lambda model, seqs: (
            np.ones((len(seqs), model.dim)), None))
        assert _tcov(model, store, seg, 1) == 1 / len(seg.tail_items)
        assert _tcov(model, store, seg, 1, filter_seen=True) == 0.0


class TestReportPlumbing:
    def test_format_table_has_all_columns(self):
        report = segmented_report(_toy_results(), _toy_seg(), ks=[5],
                                  tcov={5: 0.5})
        table = format_table(report)
        for label in ("Overall", "Head Item", "Tail Item", "Head User", "Tail User"):
            assert label in table
        assert "tcov@5" in table

    def test_mean_report_averages(self):
        r1 = segmented_report(_toy_results(), _toy_seg(), ks=[5], tcov={5: 0.2})
        shifted = [RankingResult(r.user, r.target, r.rank + 1) for r in _toy_results()]
        r2 = segmented_report(shifted, _toy_seg(), ks=[5], tcov={5: 0.4})
        mean = mean_report([r1, r2])
        assert mean.tcov[5] == pytest.approx(0.3)
        assert mean.segments["overall"]["hit@5"] == pytest.approx(
            (r1.segments["overall"]["hit@5"] + r2.segments["overall"]["hit@5"]) / 2)

    def test_mean_report_rejects_mismatched(self):
        r1 = segmented_report(_toy_results(), _toy_seg(), ks=[5])
        r2 = segmented_report(_toy_results(), _toy_seg(), ks=[10])
        with pytest.raises(DataError):
            mean_report([r1, r2])


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
        results = rank_all(model, store, "valid")
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
        results = [RankingResult(user=u, target=t, rank=int(r))
                   for u, (t, r) in enumerate(zip(targets, ranks))]
        tcov = {k: bruteforce_tail_coverage(model, store, seg, k) for k in ks}
        assert evaluate_model(model, store, seg, ks=ks).to_fields() == \
            segmented_report(results, seg, ks, tcov=tcov).to_fields()

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
