"""Augmentation operator walkthrough.

Applies the two tail-aware operators to real sequences, prints their
trace lines, and demonstrates representation mixup plus the batch-level
cross plan.
"""

import numpy as np

from tailaug import corpus, simcand, synth
from tailaug.augment import (OperatorConfig, apply_cross_mixup, insert_rows,
                             plan_cross_batch, t_insert, t_substitute)
from tailaug.rand import derive_rng

log = synth.generate_interactions(n_users=800, n_items=300, n_topics=8, seed=3)
store = corpus.leave_one_out_split(
    corpus.build_sequences(corpus.k_core_filter(log, 5), max_len=50))
seg = corpus.segment(store)
cands, _ = simcand.build_candidates(store, seg, simcand.SolverConfig(10.0, 0.2), k=10)

config = OperatorConfig(a=0.2, b=0.8, alpha=0.3)

# ---------------------------------------------------------------------
# Operator choice depends on length: short sequences lean toward
# insertion (they need more interactions), full-length ones substitute.
rng = derive_rng(0, 1)
for length in (5, 25, 50):
    picks = insert_rows(length, 50, rng.random(1000))
    print(f"len={length:2d}: insert chosen {picks.sum() / 10:.1f}% of the time")

# ---------------------------------------------------------------------
# Substitution replaces head items with candidate items (often tail);
# the original sequence is left as the mixing partner.
u = next(u for u in range(store.n_users)
         if np.any(seg.item_head_mask[store.train_prefix(u)]))
seq = store.train_prefix(u)
sample = t_substitute(seq, seg, cands, config, derive_rng(0, 2, u))
print(f"\nsubstitute on user {store.user_ids[u]} (rate={sample.rate:.2f})")
print(f"  before: {seq.tolist()}")
print(f"  after : {sample.s_prime.tolist()}")
print(f"  trace : {sample.trace_line(user=u)}")

# ---------------------------------------------------------------------
# Insertion places a candidate before each selected tail item and
# duplicates that tail item in the extended original, so both outputs
# share one length and can be mixed position-free at the output level.
sample = t_insert(seq, seg, cands, config, store.max_len, derive_rng(0, 3, u))
print(f"\ninsert on the same sequence (rate={sample.rate:.2f})")
print(f"  augmented: {sample.s_prime.tolist()}")
print(f"  extended : {sample.s_ext.tolist()}")
assert len(sample.s_prime) == len(sample.s_ext)

# ---------------------------------------------------------------------
# Mixup blends the extended-original and augmented representations as
# lam * h_ext + (1 - lam) * h_aug with lam ~ Beta(alpha, alpha).
# Small alpha pushes weights toward the endpoints {0, 1}.
for alpha in (0.1, 0.3, 5.0):
    lams = [derive_rng(1, i).beta(alpha, alpha) for i in range(2000)]
    near_edge = np.mean([(l < 0.1) or (l > 0.9) for l in lams])
    print(f"alpha={alpha}: {near_edge:.0%} of mixup weights near an endpoint")

# ---------------------------------------------------------------------
# Cross augmentation pairs sequences only within the same preference
# class (head-preferring with head-preferring, tail with tail).
classes = [corpus.classify_sequence(store.train_prefix(v), seg)
           for v in range(8)]
plan = plan_cross_batch(classes, config.alpha, derive_rng(2, 0))
print(f"\nclasses: {[c.value for c in classes]}")
print(f"pairing: {plan.pairing.tolist()}")
print(f"weights: {np.round(plan.lams, 2).tolist()}")

# training stacks [h | e_pos | e_neg] per row, so one weight and pairing mix all three
h = np.arange(8, dtype=float)[:, None] * np.ones((8, 3))
mixed = apply_cross_mixup(plan, h)
print(f"mixed first coordinates: {np.round(mixed[:, 0], 2).tolist()}")
