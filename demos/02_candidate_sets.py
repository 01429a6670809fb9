"""Candidate-set construction walkthrough.

Shows the closed-form item-item similarity solve with its diagonal cap,
then the two candidate sources (correlation top-K and first-order
co-occurrence) and their union.
"""

import numpy as np

from tailaug import corpus, simcand, synth

log = synth.generate_interactions(n_users=800, n_items=300, n_topics=8, seed=3)
store = corpus.leave_one_out_split(
    corpus.build_sequences(corpus.k_core_filter(log, 5), max_len=50))
seg = corpus.segment(store)

# ---------------------------------------------------------------------
# The similarity model solves, in closed form,
#     min ||X - X S||_F^2 + ridge ||S||_F^2   s.t.  diag(S) <= cap
# over the binary training matrix X.  One SPD solve gives
# P = (X^T X + ridge I)^-1; a per-item scalar then either keeps the
# unconstrained ridge optimum or pins the diagonal exactly at the cap.
config = simcand.SolverConfig(ridge_penalty=10.0, diag_cap=0.2)
matrix = simcand.build_interaction_matrix(store)
sim = simcand.solve_similarity(matrix, config)
print(f"similarity matrix: {sim.values.shape}, "
      f"max diagonal = {np.max(np.diag(sim.values)):.6f} (cap {config.diag_cap})")
print(f"constraint active on {sim.branch_counts['capped']} items, "
      f"slack on {sim.branch_counts['uncapped']}")

# ---------------------------------------------------------------------
# Correlation candidates: the K most similar items per item, reading
# column scores (how strongly other items predict this one).  Each
# candidate family is one ragged id array: item v's list is
# ids[offsets[v - 1]:offsets[v]].
cr = simcand.top_k_correlation(sim, k=10)

# Co-occurrence candidates: for a head item, adjacent tail items; for a
# tail item, everything that immediately precedes it in training data.
cc = simcand.build_cooccurrence(store, seg)

cands = simcand.union_candidates(cr, cc, k=10)

head_example = sorted(seg.head_items)[0]
tail_example = sorted(seg.tail_items)[0]
(cr_ids, cr_offsets), (cc_ids, cc_offsets) = cands.cr, cands.cc
for v, kind in ((head_example, "head"), (tail_example, "tail")):
    print(f"\nitem {v} ({kind}):")
    print(f"  correlation: {cr_ids[cr_offsets[v - 1]:cr_offsets[v]].tolist()}")
    print(f"  co-occur   : {cc_ids[cc_offsets[v - 1]:cc_offsets[v]].tolist()[:12]}")
    print(f"  union      : {cands.candidates_for(v).tolist()[:12]}")

sizes = np.diff(cands.c[1])
print(f"\ncandidate set sizes: mean={np.mean(sizes):.1f} "
      f"min={sizes.min()} max={sizes.max()}")

# Tail items dominate the candidate pools of head items, which is what
# lets substitution route training signal toward the tail:
head_pools = np.concatenate([cands.candidates_for(v) for v in seg.head_items])
tail_share = np.mean([v in seg.tail_items for v in head_pools])
print(f"tail share inside head items' candidate pools: {tail_share:.1%}")
