import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from tailaug import corpus, serialize, simcand, synth
from tailaug.errors import DataError, NumericError
from tailaug.simcand import (CANDIDATES_SCHEMA, CandidateSets,
                             SimilarityMatrix, SolverConfig, build_candidates,
                             build_cooccurrence, build_interaction_matrix,
                             solve_similarity, top_k_correlation,
                             union_candidates)

from conftest import (ragged_pair, segmentation_with_heads, store_from_rows,
                      store_from_sequences)


def dense(rows, n_users, n_items):
    X = np.zeros((n_users, n_items))
    for u, v in rows:
        X[u, v] = 1.0
    return X


def as_matrix(X):
    return scipy.sparse.csr_matrix(np.asarray(X, dtype=float))


def ridge_objective(X, B, lam):
    return (np.linalg.norm(X - X @ B, "fro") ** 2
            + lam * np.linalg.norm(B, "fro") ** 2)


def projected_gradient_minimizer(X, lam, cap, iters=20000):
    """Independent numerical solver for the diag-capped ridge problem."""
    n = X.shape[1]
    gram = X.T @ X + lam * np.eye(n)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(gram)[-1])
    B = np.zeros((n, n))
    xtx = X.T @ X
    for _ in range(iters):
        B = B - step * 2.0 * (gram @ B - xtx)
        d = np.minimum(np.diag(B), cap)
        np.fill_diagonal(B, d)
    return B


def reference_interaction_matrix(store):
    X = np.zeros((store.n_users, store.n_items))
    for u in range(store.n_users):
        X[u, store.train_prefix(u) - 1] = 1.0
    return X


def reference_top_k(values, k):
    """One full lexsort per item of its column: by descending score, then ascending id."""
    scores = values.T
    n = len(values)
    ids = np.arange(1, n + 1)
    out = []
    for j in range(n):
        s = scores[j].copy()
        s[j] = -np.inf
        out.append(ids[np.lexsort((ids, -s))[:min(k, n - 1)]])
    return out


def reference_cooccurrence(store, seg):
    head = seg.item_head_mask
    sets = [set() for _ in range(store.n_items)]
    for u in range(store.n_users):
        p = store.train_prefix(u).tolist()
        for i, v in enumerate(p):
            if head[v]:
                for j in (i - 1, i + 1):
                    if 0 <= j < len(p) and not head[p[j]]:
                        sets[v - 1].add(p[j])
            elif i > 0:
                sets[v - 1].add(p[i - 1])
    return [sorted(s) for s in sets]


def reference_union(cr, cc):
    union = []
    for j, (a, b) in enumerate(zip(cr, cc)):
        merged = []
        for v in list(a) + sorted(set(b.tolist()) - set(a.tolist())):
            if v != j + 1 and v not in merged:
                merged.append(int(v))
        union.append(merged)
    return union


def random_store(rng, n_users=80, n_items=12):
    """Split store whose sequences of 2 to 9 items give empty, one-item and
    longer training prefixes, with repeated (often adjacent) items."""
    seqs = [rng.integers(1, n_items + 1, size=int(rng.integers(2, 10)))
            for _ in range(n_users)]
    return store_from_rows(seqs, max_len=10, user_ids=[f"u{u}" for u in range(n_users)],
                           item_ids=[f"i{v}" for v in range(n_items)], split=True)


class TestInteractionMatrix:
    def test_repeats_collapse_to_one(self):
        store = store_from_sequences({"u": ["a", "a", "b", "c", "d"]})
        mat = build_interaction_matrix(store).toarray()
        # training prefix is [a, a, b]
        expected = np.zeros((1, 4))
        expected[0, store.item_ids.index("a")] = 1
        expected[0, store.item_ids.index("b")] = 1
        np.testing.assert_array_equal(mat, expected)

    def test_empty_prefix_gives_zero_row(self):
        store = store_from_rows([[1, 2]], max_len=10, user_ids=["u"], item_ids=["a", "b"],
                                split=True)
        mat = build_interaction_matrix(store).toarray()
        np.testing.assert_array_equal(mat, np.zeros((1, 2)))

    def test_hand_built_table(self):
        store = store_from_sequences({
            "u1": ["a", "b", "x", "y"],      # train: a, b
            "u2": ["b", "c", "x", "y"],      # train: b, c
            "u3": ["a", "c", "d", "x", "y"],  # train: a, c, d
        })
        mat = build_interaction_matrix(store).toarray()
        idx = {raw: store.item_ids.index(raw) for raw in store.item_ids}
        expected = np.zeros((3, store.n_items))
        for u, items in enumerate((["a", "b"], ["b", "c"], ["a", "c", "d"])):
            for it in items:
                expected[u, idx[it]] = 1
        np.testing.assert_array_equal(mat, expected)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            store = random_store(rng)
            X = build_interaction_matrix(store)
            assert X.has_canonical_format and set(X.data.tolist()) <= {1.0}
            np.testing.assert_array_equal(X.toarray(), reference_interaction_matrix(store))


class TestSolver:
    def test_single_item_any_penalty_zero_cap(self):
        for lam in (1.0, 10.0, 100.0):
            X = np.ones((4, 1))
            sim = solve_similarity(as_matrix(X), SolverConfig(lam, 0.0))
            assert sim.values[0, 0] <= 0.0 + 1e-12
            assert abs(sim.values[0, 0]) < 1e-12

    def test_gamma_branch_rule(self):
        rng = np.random.default_rng(0)
        X = (rng.random((12, 6)) < 0.4).astype(float)
        cfg = SolverConfig(ridge_penalty=10.0, diag_cap=0.2)
        sim = solve_similarity(as_matrix(X), cfg)
        P = np.linalg.inv(X.T @ X + cfg.ridge_penalty * np.eye(6))
        for j in range(6):
            if 1.0 - cfg.ridge_penalty * P[j, j] <= cfg.diag_cap:
                assert sim.gamma[j] == pytest.approx(cfg.ridge_penalty)
                assert not sim.capped[j]
            else:
                assert sim.gamma[j] == pytest.approx((1 - cfg.diag_cap) / P[j, j])
                assert sim.capped[j]
                assert sim.values[j, j] == pytest.approx(cfg.diag_cap)

    def test_objective_beats_random_feasible_perturbations(self):
        rng = np.random.default_rng(1)
        X = (rng.random((5, 8)) < 0.35).astype(float)
        lam, cap = 10.0, 0.2
        sim = solve_similarity(as_matrix(X), SolverConfig(lam, cap))
        f_star = ridge_objective(X, sim.values, lam)
        for _ in range(1000):
            B = sim.values + rng.normal(0, 0.05, size=sim.values.shape)
            np.fill_diagonal(B, np.minimum(np.diag(B), cap))
            assert ridge_objective(X, B, lam) >= f_star - 1e-9

    def test_matches_projected_gradient(self):
        rng = np.random.default_rng(2)
        X = (rng.random((5, 8)) < 0.35).astype(float)
        lam, cap = 10.0, 0.2
        sim = solve_similarity(as_matrix(X), SolverConfig(lam, cap))
        B = projected_gradient_minimizer(X, lam, cap)
        f_cf = ridge_objective(X, sim.values, lam)
        f_pg = ridge_objective(X, B, lam)
        assert abs(f_cf - f_pg) <= 1e-5 * max(abs(f_pg), 1e-12)

    def test_zero_cap_zeroes_diagonal(self):
        rng = np.random.default_rng(3)
        X = (rng.random((10, 7)) < 0.4).astype(float)
        sim = solve_similarity(as_matrix(X), SolverConfig(5.0, 0.0))
        assert np.max(np.abs(np.diag(sim.values))) < 1e-8

    def test_diag_constraint_always_satisfied(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = (rng.random((rng.integers(3, 20), rng.integers(2, 9))) < 0.4).astype(float)
            cap = float(rng.choice([0.0, 0.2, 0.5]))
            sim = solve_similarity(as_matrix(X), SolverConfig(1.0, cap))
            assert np.max(np.diag(sim.values)) <= cap + 1e-8

    def test_item_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = (rng.random((12, 6)) < 0.4).astype(float)
        cfg = SolverConfig(8.0, 0.3)
        base = solve_similarity(as_matrix(X), cfg).values
        perm = rng.permutation(6)
        permuted = solve_similarity(as_matrix(X[:, perm]), cfg).values
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-12)

    def test_config_validation(self):
        for ridge in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SolverConfig(ridge_penalty=ridge, diag_cap=0.2)
        with pytest.raises(ValueError):
            SolverConfig(ridge_penalty=10.0, diag_cap=1.0)

    def test_no_items_is_data_error(self):
        with pytest.raises(DataError):
            solve_similarity(as_matrix(np.zeros((3, 0))),
                             SolverConfig(ridge_penalty=10.0, diag_cap=0.2))

    def test_matches_explicit_inverse(self):
        # 300 items: the in-place mirror of the inverse spans two blocks
        rng = np.random.default_rng(6)
        X = (rng.random((40, 300)) < 0.1).astype(float)
        cfg = SolverConfig(ridge_penalty=2.0, diag_cap=0.2)
        sim = solve_similarity(as_matrix(X), cfg)
        P = np.linalg.inv(X.T @ X + cfg.ridge_penalty * np.eye(300))
        expected = np.eye(300) - P * sim.gamma
        assert sim.values.flags.c_contiguous
        np.testing.assert_allclose(sim.values, expected, rtol=0, atol=1e-12)

    def test_peak_memory_about_two_dense_arrays(self):
        n = 800
        rng = np.random.default_rng(9)
        X = as_matrix(rng.random((1500, n)) < 0.0125)  # ~10 items per user
        for dtype in (np.float64, np.float32):
            tracemalloc.start()
            try:
                sim = solve_similarity(X, SolverConfig(ridge_penalty=10.0, diag_cap=0.2), dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sim.values.dtype == dtype
            # a hidden float64 copy of the Gram or of P would exceed this in float32
            assert peak <= 2.5 * np.dtype(dtype).itemsize * n * n

    @pytest.mark.parametrize("routine", ["dpotrf", "dpotri", "spotrf", "spotri"])
    def test_lapack_failure_is_numeric_error(self, routine, monkeypatch):
        dtype = {"d": np.float64, "s": np.float32}[routine[0]]
        monkeypatch.setattr(f"scipy.linalg.lapack.{routine}", lambda a, **kwargs: (a, 3))
        rng = np.random.default_rng(10)
        X = as_matrix(rng.random((12, 6)) < 0.4)
        with pytest.raises(NumericError, match=f"{routine} info 3") as err:
            solve_similarity(X, SolverConfig(ridge_penalty=10.0, diag_cap=0.2), dtype)
        if routine.endswith("potrf"):  # the range of the intact Gram matrix, not the buffer
            eigs = np.linalg.eigvalsh(X.T @ X + 10.0 * np.eye(6))
            assert f"eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]" in str(err.value)

    @pytest.mark.parametrize("routine", ["dpotri", "spotri"])
    def test_non_finite_in_the_last_row_block_is_numeric_error(self, routine, monkeypatch):
        # the check runs one row block at a time: with 1-row blocks, a NaN on
        # the inverse's last diagonal entry is the only non-finite one of S
        dtype = {"d": np.float64, "s": np.float32}[routine[0]]
        potri = getattr(scipy.linalg.lapack, routine)

        def nan_in_last_row(c, **kwargs):
            inverse, info = potri(c, **kwargs)
            inverse[-1, -1] = np.nan
            return inverse, info

        monkeypatch.setattr(f"scipy.linalg.lapack.{routine}", nan_in_last_row)
        monkeypatch.setattr(simcand, "BLOCK_ENTRIES", 1)
        rng = np.random.default_rng(10)
        X = as_matrix(rng.random((12, 6)) < 0.4)
        with pytest.raises(NumericError, match="non-finite"):
            solve_similarity(X, SolverConfig(ridge_penalty=10.0, diag_cap=0.2), dtype)


def synth_store():
    log = synth.generate_interactions(n_users=1500, n_items=600, n_topics=6, seed=5)
    return corpus.leave_one_out_split(corpus.build_sequences(corpus.k_core_filter(log, 3), 20))


def gershgorin_bound(X, ridge):
    """``(max row sum + ridge) / ridge`` of the dense ``X^T X + ridge * I``."""
    X = X.toarray()
    return (np.max(np.abs(X.T @ X).sum(axis=1)) + ridge) / ridge


class TestSinglePrecision:
    def test_float32_solve_agrees_with_float64(self):
        X = build_interaction_matrix(synth_store())
        cfg = SolverConfig(ridge_penalty=10.0, diag_cap=0.2)
        s64 = solve_similarity(X, cfg)
        s32 = solve_similarity(X, cfg, np.float32)
        assert s32.values.dtype == np.float32 and s32.gamma.dtype == np.float64
        np.testing.assert_array_equal(s32.capped, s64.capped)
        np.testing.assert_allclose(s32.gamma, s64.gamma, rtol=1e-5)
        np.testing.assert_allclose(s32.values, s64.values, rtol=0,
                                   atol=1e-5 * np.max(np.abs(s64.values)))
        # items with identical training columns tie up to rounding, so their
        # order may differ between precisions; nothing else may
        columns = X.toarray().T
        for a, b in zip(corpus.id_rows(*top_k_correlation(s32, 10)),
                        corpus.id_rows(*top_k_correlation(s64, 10))):
            assert len(a) == len(b)
            for i in np.flatnonzero(a != b):
                np.testing.assert_array_equal(columns[a[i] - 1], columns[b[i] - 1])

    def test_guard_picks_precision_by_conditioning_bound(self, monkeypatch):
        store = synth_store()
        seg = corpus.segment(store, beta=0.5)
        cfg = SolverConfig(ridge_penalty=10.0, diag_cap=0.2)
        bound = gershgorin_bound(build_interaction_matrix(store), cfg.ridge_penalty)
        for constant, dtype in ((bound * (1 + 1e-9), np.float32),
                                (bound * (1 - 1e-9), np.float64)):
            monkeypatch.setattr(simcand, "F32_COND_BOUND", constant)
            assert build_candidates(store, seg, cfg, 10)[1].values.dtype == dtype

    def test_ill_conditioned_ridge_solves_in_float64(self):
        store = synth_store()
        seg = corpus.segment(store, beta=0.5)
        cfg = SolverConfig(ridge_penalty=1e-3, diag_cap=0.2)
        X = build_interaction_matrix(store)
        assert gershgorin_bound(X, cfg.ridge_penalty) > simcand.F32_COND_BOUND
        cands, sim = build_candidates(store, seg, cfg, 10)
        assert sim.values.dtype == np.float64
        expected = corpus.id_rows(*top_k_correlation(solve_similarity(X, cfg), 10))
        assert [a.tolist() for a in corpus.id_rows(*cands.cr)] == \
            [a.tolist() for a in expected]
        cfg = SolverConfig(ridge_penalty=10.0, diag_cap=0.2)
        assert build_candidates(store, seg, cfg, 10)[1].values.dtype == np.float32


class TestTopK:
    def test_two_items(self):
        rng = np.random.default_rng(0)
        X = (rng.random((6, 2)) < 0.5).astype(float)
        sim = solve_similarity(as_matrix(X), SolverConfig(ridge_penalty=10.0, diag_cap=0.2))
        cr = corpus.id_rows(*top_k_correlation(sim, 5))
        assert cr[0].tolist() == [2] and cr[1].tolist() == [1]

    def test_all_equal_scores_take_low_ids(self):
        sim = SimilarityMatrix(values=np.zeros((5, 5)), gamma=np.zeros(5),
                               capped=np.zeros(5, bool))
        cr = corpus.id_rows(*top_k_correlation(sim, 2))
        assert cr[0].tolist() == [2, 3]
        assert cr[4].tolist() == [1, 2]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(6, 6))
        sim = SimilarityMatrix(values=values, gamma=np.zeros(6),
                               capped=np.zeros(6, bool))
        cr = corpus.id_rows(*top_k_correlation(sim, 3))
        for v in range(1, 7):
            col = values[:, v - 1]
            order = sorted((j for j in range(1, 7) if j != v),
                           key=lambda j: (-col[j - 1], j))
            assert cr[v - 1].tolist() == order[:3]

    def test_fewer_than_k(self):
        sim = SimilarityMatrix(values=np.zeros((2, 2)), gamma=np.zeros(2),
                               capped=np.zeros(2, bool))
        assert [len(c) for c in corpus.id_rows(*top_k_correlation(sim, 10))] == [1, 1]

    # each matrix is also read transposed: its rows tie in other patterns
    @pytest.mark.parametrize("orient", ["column", "row"])
    @pytest.mark.parametrize("n", [1, 2, 5, 11, 12, 40, 300])
    def test_matches_lexsort_reference_with_ties(self, n, orient):
        k = 10
        rng = np.random.default_rng(n)
        # few levels, all <= 0.5, so most rows tie across the k-th score;
        # -0.0 and 0.0 must tie as well
        values = rng.integers(-4, 2, size=(n, n)) * 0.5
        values[(values == 0) & (rng.random((n, n)) < 0.5)] = -0.0
        if orient == "row":
            values = values.T
        sim = SimilarityMatrix(values=values, gamma=np.zeros(n),
                               capped=np.zeros(n, bool))
        got = corpus.id_rows(*top_k_correlation(sim, k))
        expected = reference_top_k(values, k)
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]
        assert all(a.dtype == np.int64 for a in got)
        if n > k + 1:  # the boundary ties the fallback exists for do occur
            scores = values.T
            kth = [scores[j][expected[j][-1] - 1] for j in range(n)]
            assert any(np.count_nonzero(np.delete(scores[j], j) == kth[j]) > 1
                       for j in range(n))

    def test_row_budget_does_not_change_lists(self, monkeypatch):
        rng = np.random.default_rng(14)
        n = 40
        values = rng.integers(-3, 2, size=(n, n)) * 0.5  # few levels: many ties
        sim = SimilarityMatrix(values=values, gamma=np.zeros(n), capped=np.zeros(n, bool))
        default = top_k_correlation(sim, 10)
        for rows in (1, 7):
            monkeypatch.setattr(simcand, "BLOCK_ENTRIES", rows * n)
            assert simcand.block_rows(n) == rows
            ids, offsets = top_k_correlation(sim, 10)
            assert np.array_equal(ids, default[0]) and np.array_equal(offsets, default[1])

    @pytest.mark.parametrize("orient", ["column", "row"])
    def test_matches_lexsort_reference_negative_scores(self, orient):
        rng = np.random.default_rng(13)
        values = rng.normal(-5.0, 1.0, size=(270, 270))
        if orient == "row":
            values = values.T
        sim = SimilarityMatrix(values=values, gamma=np.zeros(270),
                               capped=np.zeros(270, bool))
        for k in (1, 7, 269, 400):
            got = corpus.id_rows(*top_k_correlation(sim, k))
            assert [a.tolist() for a in got] == \
                [a.tolist() for a in reference_top_k(values, k)]


class TestCooccurrence:
    def test_head_tail_adjacency(self):
        store = store_from_sequences({"u": ["h", "t", "x", "y"]})
        h, t = store.item_ids.index("h") + 1, store.item_ids.index("t") + 1
        seg = segmentation_with_heads(store, head_items={h})
        cc = corpus.id_rows(*build_cooccurrence(store, seg))
        assert t in cc[h - 1]
        assert h in cc[t - 1]

    def test_two_heads_contribute_nothing(self):
        store = store_from_sequences({"u": ["h1", "h2", "x", "y"]})
        h1, h2 = (store.item_ids.index(n) + 1 for n in ("h1", "h2"))
        seg = segmentation_with_heads(store, head_items={h1, h2})
        cc = corpus.id_rows(*build_cooccurrence(store, seg))
        assert len(cc[h1 - 1]) == 0 and h1 not in cc[h2 - 1].tolist()

    def test_matches_bruteforce_scan(self):
        seqs = {"u1": ["a", "b", "c", "d", "x", "y"],
                "u2": ["b", "a", "d", "x", "y"],
                "u3": ["c", "c", "a", "x", "y"],
                "u4": ["d", "b", "x", "y"]}
        store = store_from_sequences(seqs)
        heads = {store.item_ids.index("a") + 1, store.item_ids.index("x") + 1}
        seg = segmentation_with_heads(store, head_items=heads)
        cc = corpus.id_rows(*build_cooccurrence(store, seg))

        expect = [set() for _ in range(store.n_items)]
        for u in range(store.n_users):
            p = store.train_prefix(u).tolist()
            for i, v in enumerate(p):
                if v in heads:
                    for j in (i - 1, i + 1):
                        if 0 <= j < len(p) and p[j] not in heads:
                            expect[v - 1].add(p[j])
                elif i > 0:
                    expect[v - 1].add(p[i - 1])
        assert [set(a.tolist()) for a in cc] == expect

    def test_matches_loop_reference_on_ragged_prefixes(self):
        rng = np.random.default_rng(14)
        self_listed = 0
        for _ in range(10):
            store = random_store(rng)
            heads = set(rng.choice(np.arange(1, 13), size=int(rng.integers(0, 13)),
                                   replace=False).tolist())
            seg = segmentation_with_heads(store, head_items=heads)
            cc = corpus.id_rows(*build_cooccurrence(store, seg))
            assert [a.tolist() for a in cc] == reference_cooccurrence(store, seg)
            assert all(a.dtype == np.int64 for a in cc)
            self_listed += sum(v in cc[v - 1] for v in range(1, 13))
        # a tail item repeated back to back lists itself
        assert self_listed > 0

    def test_tail_cc_members_precede_somewhere(self, small_corpus):
        store, seg, cands, _ = small_corpus
        cc = corpus.id_rows(*build_cooccurrence(store, seg))
        preceding = [set() for _ in range(store.n_items)]
        for u in range(store.n_users):
            p = store.train_prefix(u).tolist()
            for i in range(1, len(p)):
                preceding[p[i] - 1].add(p[i - 1])
        for v in range(1, store.n_items + 1):
            if v in seg.tail_items:
                assert set(cc[v - 1].tolist()) <= preceding[v - 1]


class TestUnion:
    def test_order_and_dedup(self):
        a = np.array([1, 2], dtype=np.int64)   # cr for item 5: [a, b]
        b = np.array([2, 3], dtype=np.int64)
        cr = [np.array([], dtype=np.int64)] * 5
        cc = [np.array([], dtype=np.int64)] * 5
        cr[4], cc[4] = a, b
        sets = union_candidates(ragged_pair(cr), ragged_pair(cc), k=2)
        assert sets.candidates_for(5).tolist() == [1, 2, 3]

    def test_both_empty(self):
        empty = ragged_pair([np.array([], dtype=np.int64)])
        sets = union_candidates(empty, empty, k=1)
        assert sets.candidates_for(1).tolist() == []

    def test_self_removed(self):
        cr = [np.array([1, 2], dtype=np.int64), np.array([], dtype=np.int64)]
        cc = [np.array([], dtype=np.int64)] * 2
        sets = union_candidates(ragged_pair(cr), ragged_pair(cc), k=2)
        assert sets.candidates_for(1).tolist() == [2]

    def test_matches_loop_reference_with_self_and_duplicates(self):
        rng = np.random.default_rng(15)
        n = 15
        draw = lambda: [rng.integers(1, n + 1, size=int(rng.integers(0, 7)))
                        for _ in range(n)]
        for _ in range(20):
            cr, cc = draw(), draw()
            sets = union_candidates(ragged_pair(cr), ragged_pair(cc), k=3)
            assert [a.tolist() for a in corpus.id_rows(*sets.c)] == reference_union(cr, cc)
            assert all(np.array_equal(x, y) for x, y in zip(corpus.id_rows(*sets.cr), cr))
            assert all(np.array_equal(x, y) for x, y in zip(corpus.id_rows(*sets.cc), cc))

    def test_ids_outside_the_universe_rejected(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError):
            union_candidates(ragged_pair([np.array([3])] * 2), ragged_pair([empty] * 2), k=1)
        with pytest.raises(ValueError):
            union_candidates(ragged_pair([empty] * 2), ragged_pair([np.array([0])] * 2), k=1)

    def test_cardinality_bound_end_to_end(self, small_corpus):
        store, seg, cands, _ = small_corpus
        c, cr, cc = (corpus.id_rows(*pair) for pair in (cands.c, cands.cr, cands.cc))
        for v in range(1, store.n_items + 1):
            assert len(c[v - 1]) <= len(cr[v - 1]) + len(cc[v - 1])
            assert v not in c[v - 1]
            assert len(set(c[v - 1].tolist())) == len(c[v - 1])

    def test_json_roundtrip(self, small_corpus, tmp_path):
        _, _, cands, _ = small_corpus
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        serialize.save(p1, CANDIDATES_SCHEMA, cands.to_fields(), {})
        back, _ = serialize.load(p1, CANDIDATES_SCHEMA, CandidateSets.from_fields)
        serialize.save(p2, CANDIDATES_SCHEMA, back.to_fields(), {})
        assert p1.read_bytes() == p2.read_bytes()
        assert all(np.array_equal(x, y) for x, y in zip(back.c, cands.c))
