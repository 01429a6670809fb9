"""End-to-end training comparison at demo scale.

Trains the recurrent encoder twice on the same corpus and seed: once
with the plain objective only (baseline), once with the two-stage
schedule whose second stage adds the operator and cross-augmentation
losses.  Both arms get the same total number of epochs; the segmented
report shows where the augmentation helps.

Takes a couple of minutes on one CPU core.  For the full five-seed
protocol use the CLI (see README).
"""

from dataclasses import replace

import numpy as np

from tailaug import corpus, evaluation, simcand, synth
from tailaug.augment import OperatorConfig
from tailaug.encoders import encode_batch, init_model
from tailaug.training import TrainConfig, init_adam, train_stage1, train_stage2

log = synth.generate_interactions(n_users=2000, n_items=800, n_topics=10, seed=9)
store = corpus.leave_one_out_split(
    corpus.build_sequences(corpus.k_core_filter(log, 5), max_len=50))
seg = corpus.segment(store)
cands, _ = simcand.build_candidates(store, seg, simcand.SolverConfig(10.0, 0.2), k=10)
stats = corpus.dataset_stats(store)
print(f"corpus: {stats.n_users} users, {stats.n_items} items, "
      f"avg length {stats.avg_length:.1f}")

SEED = 0
cfg = TrainConfig(batch_size=256, learning_rate=0.003, seed=SEED,
                  stage1_epochs=25, stage2_epochs=25, patience=None)
op_cfg = OperatorConfig(a=0.2, b=0.8, alpha=0.3)


def evaluate(model, label):
    report = evaluation.evaluate_model(model, store, seg, ks=(5, 10, 20))
    print(f"\n=== {label} ===")
    print(evaluation.format_table(report))
    return report


def tail_item_results(model):
    """One RankingResult per test case whose target is a tail item."""
    users = [u for u in range(store.n_users) if store.test_item(u) in seg.tail_items]
    seqs = [np.concatenate([store.train_prefix(u), [store.valid_item(u)]]) for u in users]
    targets = [store.test_item(u) for u in users]
    ranks = evaluation.rank_of_target(encode_batch(model, seqs)[0] @ model.embeddings[1:].T,
                                      targets)
    return [evaluation.RankingResult(u, t, int(r)) for u, t, r in zip(users, targets, ranks)]


# ---------------------------------------------------------------------
# Baseline: the plain objective for the full epoch budget, as one stage 1
# given both stages' epochs.
model = init_model(store.n_items, dim=32, seed=SEED, encoder="gru")
train_stage1(store, model, replace(cfg, stage1_epochs=cfg.stage1_epochs + cfg.stage2_epochs))
base = evaluate(model, "baseline (plain objective, 50 epochs)")
base_tail = tail_item_results(model)

# ---------------------------------------------------------------------
# Two-stage: plain objective first so embeddings settle, then the
# augmentation losses join with unit weights.  Both stages update one Adam
# state in place, so stage 2 continues stage 1's optimizer.
model = init_model(store.n_items, dim=32, seed=SEED, encoder="gru")
adam = init_adam(model.params)
train_stage1(store, model, cfg, adam=adam)
train_stage2(store, model, cands, seg, cfg, op_cfg, adam=adam)
aug = evaluate(model, "augmented (25 plain + 25 augmented epochs)")
aug_tail = tail_item_results(model)

# ---------------------------------------------------------------------
b, a = base.segments, aug.segments
for name in ("overall", "head_item", "tail_item", "head_user", "tail_user"):
    if name in b and name in a:
        x, y = b[name]["hit@10"], a[name]["hit@10"]
        rel = (y - x) / x if x else float("inf")
        print(f"H@10 {name:10s}: {x:.4f} -> {y:.4f}  ({rel:+.1%})")
print(f"TCov@5          : {base.tcov[5]:.4f} -> {aug.tcov[5]:.4f}")

# ---------------------------------------------------------------------
# The tail-item column per user: the same H@10 and NDCG@10 from one
# RankingResult per test case, and how many targets each arm ranks higher.
print(f"\ntail-item cases : {len(aug_tail)}; H@10 {evaluation.hit_at_k(base_tail, 10):.4f} -> "
      f"{evaluation.hit_at_k(aug_tail, 10):.4f}, NDCG@10 "
      f"{evaluation.ndcg_at_k(base_tail, 10):.4f} -> {evaluation.ndcg_at_k(aug_tail, 10):.4f}")
better = sum(a.rank < b.rank for a, b in zip(aug_tail, base_tail))
worse = sum(a.rank > b.rank for a, b in zip(aug_tail, base_tail))
print(f"target ranked higher by the augmented arm for {better} cases, lower for {worse}")
