"""Corpus preparation walkthrough.

Generates a synthetic long-tail interaction log, then runs the standard
preparation pipeline: k-core filtering, chronological sequence building,
leave-one-out splitting, and head/tail segmentation.
"""

import numpy as np

from tailaug import corpus, synth

# ---------------------------------------------------------------------
# A synthetic log with realistic long-tail shape: a few very popular
# items, many rarely-seen ones, short per-user histories.
log = synth.generate_interactions(n_users=800, n_items=300, n_topics=8, seed=3)
print(f"raw log: {len(log)} interactions "
      f"({len(log.user_ids)} users, {len(log.item_ids)} items)")

# ---------------------------------------------------------------------
# 5-core filtering: iteratively drop users/items with fewer than five
# interactions until the remainder is self-consistent.
filtered = corpus.k_core_filter(log, 5)
print(f"after 5-core: {len(filtered)} interactions")

# ---------------------------------------------------------------------
# Chronological sequences (ties broken by item id), capped at the most
# recent 50 events, then the leave-one-out split: last item is the test
# target, second-to-last the validation target.
store = corpus.leave_one_out_split(corpus.build_sequences(filtered, max_len=50))
stats = corpus.dataset_stats(store)
print(f"users={stats.n_users} items={stats.n_items} "
      f"interactions={stats.n_interactions} avg_length={stats.avg_length:.2f} "
      f"sparsity={stats.sparsity:.4%}")

u = 0
print(f"\nuser {store.user_ids[u]}: train={store.train_prefix(u).tolist()} "
      f"valid={store.valid_item(u)} test={store.test_item(u)}")

# ---------------------------------------------------------------------
# Head/tail segmentation: the top 20% of users by training length and
# items by training popularity form the head; everything else is tail.
seg = corpus.segment(store, beta=0.5)
print(f"\nhead users: {len(seg.head_users)} / {store.n_users}")
print(f"head items: {len(seg.head_items)} / {store.n_items}")

# Training interactions concentrate heavily on the head items:
counts = np.zeros(store.n_items + 1, dtype=int)
for v in range(store.n_users):
    np.add.at(counts, store.train_prefix(v), 1)
head_share = counts[list(seg.head_items)].sum() / counts.sum()
print(f"share of training interactions on head items: {head_share:.1%}")

# Sequences are classified by their tail-item ratio (strictly above the
# beta threshold means tail-preferring); this drives cross augmentation.
classes = [corpus.classify_sequence(store.train_prefix(v), seg)
           for v in range(store.n_users)]
n_tail_pref = sum(c is corpus.PreferenceClass.TAIL_PREFERRING for c in classes)
print(f"tail-preferring sequences: {n_tail_pref} / {store.n_users}")
