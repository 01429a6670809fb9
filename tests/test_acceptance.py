"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  The end-to-end criterion (7/8) trains on a synthetic
long-tail corpus by default; drop a real interaction export at the path
named by the TAILAUG_ACCEPTANCE_CSV environment variable to run the same
protocol on real data instead.
"""

import itertools
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tailaug import corpus, synth
from tailaug.augment import (OperatorConfig, augment_sequence,
                             plan_cross_batch, t_substitute)
from tailaug.corpus import classify_sequence
from tailaug.encoders import backward_batch, encode_batch, init_model
from tailaug.evaluation import (RankingResult, evaluate_model, hit_at_k, ndcg_at_k,
                                rank_of_target)
from tailaug.rand import derive_rng
from tailaug.simcand import SolverConfig, solve_similarity
from tailaug.training import Batch, batch_loss, bce_loss_batch

import scipy.sparse

from conftest import (Interaction, identity_plan, log_from_rows, log_rows,
                      users_with_train_len)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num}] FAIL - {desc}")
        raise
    print(f"\n[criterion {num}] PASS - {desc}")


# ------------------------------------------------------------------ 1 & 2

def _ridge_objective(X, B, lam):
    return (np.linalg.norm(X - X @ B, "fro") ** 2
            + lam * np.linalg.norm(B, "fro") ** 2)


def _projected_gradient(X, lam, cap, iters=20_000):
    n = X.shape[1]
    gram = X.T @ X + lam * np.eye(n)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(gram)[-1])
    B = np.zeros((n, n))
    xtx = X.T @ X
    for _ in range(iters):
        B -= step * 2.0 * (gram @ B - xtx)
        np.fill_diagonal(B, np.minimum(np.diag(B), cap))
    return B


def _solver_instances(n=50):
    rng = np.random.default_rng(1234)
    grid = list(itertools.product((1.0, 10.0, 100.0), (0.0, 0.2, 0.5)))
    for i in range(n):
        lam, cap = grid[i % len(grid)]
        n_users = int(rng.integers(3, 41))
        n_items = int(rng.integers(2, 11))
        X = (rng.random((n_users, n_items)) < 0.35).astype(float)
        yield X, lam, cap


def test_criterion_1_solver_optimality():
    with criterion(1, "closed-form solve matches projected-gradient oracle "
                      "(50 instances, 1e-5 relative) with diag <= cap + 1e-8"):
        t0 = time.perf_counter()
        for X, lam, cap in _solver_instances():
            sim = solve_similarity(scipy.sparse.csr_matrix(X), SolverConfig(lam, cap))
            f_cf = _ridge_objective(X, sim.values, lam)
            f_pg = _ridge_objective(X, _projected_gradient(X, lam, cap), lam)
            assert abs(f_cf - f_pg) <= 1e-5 * max(abs(f_pg), 1e-12), (lam, cap)
            assert np.max(np.diag(sim.values)) <= cap + 1e-8
        assert time.perf_counter() - t0 < 60


def test_criterion_2_zero_cap_zero_diagonal():
    with criterion(2, "cap=0 solutions have exactly zero diagonal within 1e-8"):
        for X, lam, cap in _solver_instances():
            if cap != 0.0:
                continue
            sim = solve_similarity(scipy.sparse.csr_matrix(X), SolverConfig(lam, 0.0))
            assert np.max(np.abs(np.diag(sim.values))) <= 1e-8


# ---------------------------------------------------------------------- 3

def _fd_check(model, loss_and_grads, rng, n_checks=20, tol=1e-4):
    loss_fn, grads = loss_and_grads
    names = list(model.params)
    checked = 0
    while checked < n_checks:
        name = names[rng.integers(len(names))]
        arr = model.params[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        if name == "item_embeddings" and idx[0] == 0:
            continue
        eps = 1e-6
        old = arr[idx]
        arr[idx] = old + eps
        f1 = loss_fn()
        arr[idx] = old - eps
        f2 = loss_fn()
        arr[idx] = old
        numeric = (f1 - f2) / (2 * eps)
        analytic = grads[name][idx]
        assert abs(numeric - analytic) <= tol * max(abs(numeric), abs(analytic), 1e-7), \
            (name, idx, numeric, analytic)
        checked += 1


def _encoder_case(encoder, seed):
    rng = np.random.default_rng(seed)
    model = init_model(9, 5, seed=seed, encoder=encoder)
    seqs = [np.array([1, 4, 2]), np.array([3]), np.array([5, 5, 6, 7, 1])]
    w = rng.normal(size=(3, 5))

    def loss_fn():
        h, _ = encode_batch(model, seqs)
        return float(np.sum(w * h))

    h, cache = encode_batch(model, seqs)
    grads = backward_batch(model, cache, w)
    return model, (loss_fn, grads), rng


def _stage2_case(small_corpus, seed):
    from tailaug.rand import AUGMENT, CROSS

    store, seg, cands, _ = small_corpus
    model = init_model(store.n_items, 6, seed=seed, encoder="gru")
    op_cfg = OperatorConfig()
    users = users_with_train_len(store, 2, 6)
    prefixes = [store.train_prefix(u)[:-1] for u in users]
    targets = np.array([int(store.train_prefix(u)[-1]) for u in users])
    negs = np.array([(int(t) % store.n_items) + 1 for t in targets])
    batch = Batch(users=np.array(users), prefixes=prefixes, targets=targets,
                  negatives=negs)
    samples, lams = [], []
    for u, p in zip(users, prefixes):
        rng = derive_rng(seed, AUGMENT, 0, u)
        samples.append(augment_sequence(p, seg, cands, op_cfg, store.max_len, rng))
        lams.append(float(rng.beta(0.3, 0.3)))
    classes = [classify_sequence(store.train_prefix(u), seg) for u in users]
    plan = plan_cross_batch(classes + classes, 0.3, derive_rng(seed, CROSS, 0, 0))

    def loss_fn():
        comp, _ = batch_loss(model, batch, samples=samples, op_lams=lams,
                             plan=plan)
        return comp["total"]

    _, grads = batch_loss(model, batch, samples=samples, op_lams=lams,
                          plan=plan)
    return model, (loss_fn, grads), np.random.default_rng(seed + 7)


def test_criterion_3_gradient_suite(small_corpus):
    with criterion(3, "both encoders, BCE, and the stage-2 composite loss match "
                      "finite differences within 1e-4 on 20 parameters each"):
        t0 = time.perf_counter()
        for encoder in ("pooled", "gru"):
            model, case, rng = _encoder_case(encoder, seed=11)
            _fd_check(model, case, rng)

        # BCE loss on 20 random coordinates of random 8-dim inputs
        rng = np.random.default_rng(3)
        h, ep, en = rng.normal(size=(3, 1, 8))  # one row through the batched loss
        _, dh, dp, dn = (a[0] for a in bce_loss_batch(h, ep, en))
        vecs = {"h": (h, dh), "ep": (ep, dp), "en": (en, dn)}
        for _ in range(20):
            name = ("h", "ep", "en")[rng.integers(3)]
            vec, grad = vecs[name]
            j = int(rng.integers(8))
            eps = 1e-6
            old = vec[0, j]
            vec[0, j] = old + eps
            f1 = bce_loss_batch(h, ep, en)[0][0]
            vec[0, j] = old - eps
            f2 = bce_loss_batch(h, ep, en)[0][0]
            vec[0, j] = old
            numeric = (f1 - f2) / (2 * eps)
            assert abs(numeric - grad[j]) <= 1e-4 * max(abs(numeric), abs(grad[j]), 1e-7)

        model, case, rng = _stage2_case(small_corpus, seed=5)
        _fd_check(model, case, rng)
        assert time.perf_counter() - t0 < 60


# ---------------------------------------------------------------------- 4

def test_criterion_4_metric_oracle_equivalence():
    with criterion(4, "HR/NDCG/TCov on 200 synthetic ranking cases equal "
                      "brute-force computation exactly"):
        rng = np.random.default_rng(99)
        n_items = 30
        results, oracle_ranks = [], []
        for case in range(200):
            scores = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=n_items)
            target = int(rng.integers(1, n_items + 1))
            # brute force: explicit pessimistic comparison loop
            rank = 1
            for j in range(1, n_items + 1):
                if j != target and scores[j - 1] >= scores[target - 1]:
                    rank += 1
            oracle_ranks.append(rank)
            results.append(RankingResult(user=case, target=target,
                                         rank=rank_of_target(scores, target)))
        assert [r.rank for r in results] == oracle_ranks
        import math
        for k in (1, 5, 10, 20):
            oracle_hit = sum(r <= k for r in oracle_ranks) / len(oracle_ranks)
            # fsum gives the correctly rounded sum, so exact equality is
            # well defined independent of accumulation order
            oracle_ndcg = math.fsum(
                1.0 / math.log2(r + 1) if r <= k else 0.0
                for r in oracle_ranks) / len(oracle_ranks)
            assert hit_at_k(results, k) == oracle_hit
            assert ndcg_at_k(results, k) == oracle_ndcg

        # tail coverage against an independent brute force on a 15-item toy
        # model: one encode of every user, a pure-Python sort per score row
        from conftest import (bruteforce_tail_coverage, segmentation_with_heads,
                              store_from_sequences)
        store = store_from_sequences(
            {f"u{i}": [f"i{j:02d}" for j in
                       np.random.default_rng(i).integers(0, 15, 6)]
             for i in range(12)})
        seg = segmentation_with_heads(store, head_items={1, 2, 3})
        model = init_model(store.n_items, 5, seed=2)
        ties = init_model(store.n_items, 5, seed=2)
        ties.embeddings[1:] = 1.0  # every score in a row ties
        for m in (model, ties):
            for k in (1, 3, 5, 10, store.n_items):
                assert evaluate_model(m, store, seg, ks=(k,)).tcov[k] == \
                    bruteforce_tail_coverage(m, store, seg, k)


# ---------------------------------------------------------------------- 5

def test_criterion_5_operator_trace_fidelity(small_corpus):
    with criterion(5, "1,000 seeded operator invocations replay bit-identically "
                      "and satisfy the augmentation invariants"):
        store, seg, cands, _ = small_corpus
        cfg = OperatorConfig()
        eligible = [u for u in range(store.n_users)
                    if len(store.train_prefix(u)) >= 1]
        count = 0
        for trial in range(1000):
            u = eligible[trial % len(eligible)]
            seq = store.train_prefix(u)
            a = augment_sequence(seq, seg, cands, cfg, store.max_len,
                                 derive_rng(77, trial, u))
            b = augment_sequence(seq, seg, cands, cfg, store.max_len,
                                 derive_rng(77, trial, u))
            assert a.operator == b.operator and a.rate == b.rate
            np.testing.assert_array_equal(a.s_prime, b.s_prime)
            np.testing.assert_array_equal(a.s_ext, b.s_ext)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.chosen, b.chosen)

            head = seg.item_head_mask
            if a.operator == "substitute":
                assert len(a.s_prime) == len(seq)
                np.testing.assert_array_equal(a.s_ext, seq)
                changed = np.flatnonzero(a.s_prime != seq)
                assert set(changed.tolist()) <= set(a.indices.tolist())
                for i in a.indices:
                    assert head[seq[i]]                      # only head replaced
                for i, pick in zip(a.indices, a.chosen):
                    assert pick in cands.candidates_for(int(seq[i]))
                tail_pos = [i for i, v in enumerate(seq) if not head[v]]
                np.testing.assert_array_equal(a.s_prime[tail_pos], seq[tail_pos])
            else:
                full = len(seq) + len(a.indices)
                assert len(a.s_prime) == len(a.s_ext) == min(full, store.max_len)
                for i, pick in zip(a.indices, a.chosen):
                    assert not head[seq[i]]                  # only before tail
                    assert pick in cands.candidates_for(int(seq[i]))
            count += 1
        assert count == 1000


# ---------------------------------------------------------------------- 6

def test_criterion_6_degenerate_mixing(small_corpus):
    with criterion(6, "lambda=1 draws + identity cross permutations make the "
                      "stage-2 batch loss 3x the stage-1 loss within 1e-6"):
        store, seg, cands, _ = small_corpus
        model = init_model(store.n_items, 8, seed=3, encoder="gru")
        users = users_with_train_len(store, 2, 12)
        prefixes = [store.train_prefix(u)[:-1] for u in users]
        targets = np.array([int(store.train_prefix(u)[-1]) for u in users])
        negs = np.array([(int(t) % store.n_items) + 1 for t in targets])
        batch = Batch(users=np.array(users), prefixes=prefixes, targets=targets,
                      negatives=negs)
        # full-length inputs take the substitution path with probability one,
        # so the batch is substitute-only by construction
        samples = [t_substitute(p, seg, cands, OperatorConfig(),
                                derive_rng(5, 1, u))
                   for u, p in zip(users, prefixes)]
        classes = [classify_sequence(store.train_prefix(u), seg) for u in users]
        plan = identity_plan(classes + classes, lam=1.0)
        comp2, _ = batch_loss(model, batch, samples=samples,
                              op_lams=[1.0] * len(users), plan=plan)
        comp1, _ = batch_loss(model, batch)
        assert abs(comp2["total"] - 3.0 * comp1["main"]) <= 1e-6


# ------------------------------------------------------------------ 7 & 8

DESK_SEEDS = "101,102,103,104,105"
DESK_TRAIN = ["--dim", "32", "--encoder", "gru", "--batch-size", "256",
              "--stage1-epochs", "40", "--stage2-epochs", "40",
              "--learning-rate", "0.003", "--patience", "-1"]


@pytest.fixture(scope="module")
def desk_scale_runs(tmp_path_factory):
    """Five-seed baseline vs augmented training on a ~3k-user corpus.

    Uses a real interaction export when TAILAUG_ACCEPTANCE_CSV points at
    one (user,item,timestamp CSV); otherwise generates the synthetic
    long-tail stand-in.  Either way the corpus is sub-sampled to 3,000
    users with the 5-core re-applied, and both arms train for the same
    total number of epochs with encoder B (the recurrent one).
    """
    from tailaug.cli import main

    out = tmp_path_factory.mktemp("desk")
    csv = os.environ.get("TAILAUG_ACCEPTANCE_CSV")
    if not csv:
        csv = str(out / "synthetic.csv")
        synth.write_csv(csv, synth.generate_interactions(
            n_users=3500, n_items=1200, n_topics=12, seed=7))
    t0 = time.perf_counter()
    assert main(["prepare", "--input", csv, "--out-dir", str(out),
                 "--k-core", "5", "--max-len", "50",
                 "--sample-users", "3000", "--seed", "7"]) == 0
    assert main(["candidates", "--out-dir", str(out), "--k", "10"]) == 0
    for mode in ("baseline", "augmented"):
        assert main(["train", "--out-dir", str(out), "--mode", mode,
                     "--seeds", DESK_SEEDS, *DESK_TRAIN]) == 0
        assert main(["evaluate", "--out-dir", str(out), "--mode", mode,
                     "--seeds", DESK_SEEDS]) == 0
    elapsed = time.perf_counter() - t0
    reports = {
        mode: json.loads((out / f"report_{mode}_mean_test.json").read_text())
        for mode in ("baseline", "augmented")
    }
    return reports, elapsed


def test_criterion_7_tail_gain_without_overall_loss(desk_scale_runs):
    with criterion(7, "five-seed desk-scale run: tail-item H@10 up >= 5% "
                      "relative, overall H@10 down < 2% relative, < 30 min"):
        reports, elapsed = desk_scale_runs
        base = reports["baseline"]["segments"]
        tada = reports["augmented"]["segments"]
        tail_base = base["tail_item"]["hit@10"]
        tail_tada = tada["tail_item"]["hit@10"]
        overall_base = base["overall"]["hit@10"]
        overall_tada = tada["overall"]["hit@10"]
        print(f"\n  tail-item H@10: baseline {tail_base:.4f} -> augmented "
              f"{tail_tada:.4f} ({(tail_tada - tail_base) / tail_base:+.1%})")
        print(f"  overall   H@10: baseline {overall_base:.4f} -> augmented "
              f"{overall_tada:.4f} ({(overall_tada - overall_base) / overall_base:+.1%})")
        print(f"  wall time: {elapsed / 60:.1f} min")
        assert tail_tada >= 1.05 * tail_base
        assert overall_tada >= 0.98 * overall_base
        assert elapsed < 30 * 60


def test_criterion_8_tail_coverage_direction(desk_scale_runs):
    with criterion(8, "five-seed desk-scale run: TCov@5 of the augmented arm "
                      "is at least the baseline's"):
        reports, _ = desk_scale_runs
        tcov_base = reports["baseline"]["tcov"]["5"]
        tcov_tada = reports["augmented"]["tcov"]["5"]
        print(f"\n  TCov@5: baseline {tcov_base:.4f} -> augmented {tcov_tada:.4f}")
        assert tcov_tada >= tcov_base


# ---------------------------------------------------------------------- 9

def test_criterion_9_corpus_invariants():
    with criterion(9, "k-core fixed point, leave-one-out correctness, and "
                      "segmentation partition hold on all fixtures"):
        fixtures = []
        rng = np.random.default_rng(7)
        for fid in range(6):
            rows = [Interaction(f"u{rng.integers(25)}", f"i{rng.integers(15)}",
                                int(rng.integers(100)))
                    for _ in range(rng.integers(40, 220))]
            fixtures.append(log_from_rows(rows))
        fixtures.append(synth.generate_interactions(150, 60, 6, seed=8))

        for rows in fixtures:
            for k in (1, 2, 3, 5):
                core = corpus.k_core_filter(rows, k)
                assert log_rows(corpus.k_core_filter(core, k)) == log_rows(core)  # fixed point
                from collections import Counter
                uc = Counter(r.user_id for r in log_rows(core))
                ic = Counter(r.item_id for r in log_rows(core))
                assert all(c >= k for c in uc.values())
                assert all(c >= k for c in ic.values())

            core = corpus.k_core_filter(rows, 3)
            if not core:
                continue
            store = corpus.build_sequences(core, 50)
            if any(len(s) < 3 for s in store.sequences):
                continue
            store = corpus.leave_one_out_split(store)
            for u in range(store.n_users):
                full = store.sequences[u]
                assert store.test_item(u) == full[-1]
                assert store.valid_item(u) == full[-2]
                assert len(store.train_prefix(u)) == len(full) - 2

            seg = corpus.segment(store)
            assert seg.head_users | seg.tail_users == frozenset(range(store.n_users))
            assert not seg.head_users & seg.tail_users
            assert seg.head_items | seg.tail_items == \
                frozenset(range(1, store.n_items + 1))
            assert not seg.head_items & seg.tail_items
            assert len(seg.head_items) == int(np.ceil(0.2 * store.n_items))
            assert len(seg.head_users) == int(np.ceil(0.2 * store.n_users))
