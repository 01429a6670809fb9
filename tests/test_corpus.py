import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailaug import corpus, serialize
from tailaug.corpus import (PreferenceClass, build_sequences, classify_sequence,
                            dataset_stats, k_core_filter, leave_one_out_split,
                            load_interactions, segment)
from tailaug.errors import DataError

from conftest import (Interaction, decoded_store, log_from_rows, log_rows, ragged_rows,
                      segmentation_with_heads, store_from_rows, store_from_sequences)


class TestLoadInteractions:
    def test_well_formed_rows(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("u1,i1,10\nu2,i2,20\nu1,i3,30\n")
        rows = log_rows(load_interactions(p))
        assert rows == [Interaction("u1", "i1", 10), Interaction("u2", "i2", 20),
                        Interaction("u1", "i3", 30)]

    def test_missing_timestamp_reports_line(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("u1,i1,10\nu2,i2\n")
        with pytest.raises(DataError, match=":2"):
            load_interactions(p)

    def test_bad_timestamp_reports_line(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("u1,i1,notatime\n")
        with pytest.raises(DataError, match=":1"):
            load_interactions(p)

    def test_duplicates_retained(self, tmp_path):
        # round-trip count oracle: rows in == rows out, duplicates included
        p = tmp_path / "log.csv"
        p.write_text("u1,i1,10\nu1,i1,10\nu1,i1,10\n")
        rows = log_rows(load_interactions(p))
        assert len(rows) == 3
        assert Counter(rows) == Counter({Interaction("u1", "i1", 10): 3})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_interactions(tmp_path / "missing.csv")

    def test_header_and_delimiter(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("user\titem\tts\nu1\ti1\t5\n")
        rows = log_rows(load_interactions(p, delimiter="\t", header=True))
        assert rows == [Interaction("u1", "i1", 5)]

    def test_byte_order_mark_dropped(self, tmp_path):
        # some spreadsheet exports start the file with a UTF-8 BOM
        p = tmp_path / "log.csv"
        p.write_bytes(b"\xef\xbb\xbfu1,i1,1\nu1,i2,2\nu1,i3,3\n")
        log = load_interactions(p)
        assert log.user_ids == ["u1"]
        assert log_rows(log) == [Interaction("u1", f"i{t}", t) for t in (1, 2, 3)]

    def test_byte_order_mark_before_header(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_bytes(b"\xef\xbb\xbfuser,item,ts\nu1,i1,5\n")
        rows = log_rows(load_interactions(p, header=True))
        assert rows == [Interaction("u1", "i1", 5)]


def _kcore_ok(rows, k):
    uc = Counter(r.user_id for r in rows)
    ic = Counter(r.item_id for r in rows)
    return all(c >= k for c in uc.values()) and all(c >= k for c in ic.values())


def _kcore_bruteforce(rows, k):
    """Largest feasible subset by exhaustive enumeration (tiny logs only)."""
    best = []
    for r in range(len(rows), -1, -1):
        for subset in itertools.combinations(range(len(rows)), r):
            cand = [rows[i] for i in subset]
            if _kcore_ok(cand, k):
                return cand
    return best


class TestKCore:
    def test_k1_keeps_everything(self):
        rows = [Interaction("u1", "i1", 0), Interaction("u2", "i1", 1)]
        assert log_rows(k_core_filter(log_from_rows(rows), 1)) == rows

    def test_single_interaction_user_removed(self):
        rows = [Interaction(u, "x", t) for t, u in enumerate(["a", "a", "b", "b", "c", "c"])]
        rows.append(Interaction("d", "x", 9))  # d has only one interaction
        out = log_rows(k_core_filter(log_from_rows(rows), 2))
        assert {r.user_id for r in out} == {"a", "b", "c"}
        assert _kcore_ok(out, 2)

    def test_cascading_removal_matches_bruteforce(self):
        # removing item "q" (only 1 hit) cascades into removing user "w"
        rows = [
            Interaction("u", "a", 0), Interaction("u", "b", 1),
            Interaction("v", "a", 0), Interaction("v", "b", 1),
            Interaction("w", "q", 0), Interaction("w", "a", 1),
        ]
        out = log_rows(k_core_filter(log_from_rows(rows), 2))
        assert Counter(out) == Counter(_kcore_bruteforce(rows, 2))
        assert {r.user_id for r in out} == {"u", "v"}

    def test_empty_result_allowed(self):
        rows = [Interaction("u", "i", 0)]
        assert log_rows(k_core_filter(log_from_rows(rows), 5)) == []

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_and_feasibility(self, pairs, k):
        rows = [Interaction(f"u{u}", f"i{i}", t) for t, (u, i) in enumerate(pairs)]
        once = k_core_filter(log_from_rows(rows), k)
        assert _kcore_ok(log_rows(once), k)
        assert log_rows(k_core_filter(once, k)) == log_rows(once)


class TestBuildSequences:
    def test_chronological_ordering(self):
        rows = [Interaction("u", "c", 30), Interaction("u", "a", 10),
                Interaction("u", "b", 20)]
        store = build_sequences(log_from_rows(rows), 50)
        raw = [store.item_ids[v - 1] for v in store.sequences[0]]
        assert raw == ["a", "b", "c"]

    def test_truncation_keeps_most_recent(self):
        items = [f"i{j:03d}" for j in range(60)]
        rows = [Interaction("u", it, t) for t, it in enumerate(items)]
        store = leave_one_out_split(build_sequences(log_from_rows(rows), 50))
        assert len(store.sequences[0]) == 50
        # train prefix = most recent 48 of the first 58; valid/test are the last two
        assert len(store.train_prefix(0)) == 48
        prefix_raw = [store.item_ids[v - 1] for v in store.train_prefix(0)]
        assert prefix_raw == items[10:58]
        assert store.item_ids[store.valid_item(0) - 1] == "i058"
        assert store.item_ids[store.test_item(0) - 1] == "i059"

    def test_timestamp_ties_break_by_item_id(self):
        rows = [Interaction("u", "zz", 5), Interaction("u", "aa", 5)]
        store = build_sequences(log_from_rows(rows), 50)
        raw = [store.item_ids[v - 1] for v in store.sequences[0]]
        assert raw == ["aa", "zz"]

    def test_numeric_ids_order_numerically(self):
        rows = [Interaction("u", "10", 5), Interaction("u", "9", 5)]
        store = build_sequences(log_from_rows(rows), 50)
        raw = [store.item_ids[v - 1] for v in store.sequences[0]]
        assert raw == ["9", "10"]


class TestLeaveOneOut:
    def test_definition(self):
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        raw = lambda v: store.item_ids[v - 1]
        assert [raw(v) for v in store.train_prefix(0)] == ["a", "b", "c"]
        assert raw(store.valid_item(0)) == "d"
        assert raw(store.test_item(0)) == "e"

    def test_short_sequence_errors_with_user(self):
        store = store_from_sequences({"shorty": ["a", "b"]}, split=False)
        with pytest.raises(DataError, match="shorty"):
            leave_one_out_split(store)

    def test_five_core_never_errors(self):
        # scan oracle: after a 5-core every sequence admits the split
        rng = np.random.default_rng(3)
        rows = [Interaction(f"u{rng.integers(12)}", f"i{rng.integers(8)}", t)
                for t in range(400)]
        filtered = corpus.k_core_filter(log_from_rows(rows), 5)
        store = build_sequences(filtered, 50)
        assert all(len(s) >= 5 for s in store.sequences)
        leave_one_out_split(store)  # must not raise


class TestSegment:
    def test_ten_users_two_head(self):
        store = store_from_sequences(
            {f"u{i}": [f"i{j}" for j in range(3 + i)] for i in range(10)})
        seg = segment(store)
        assert len(seg.head_users) == 2
        assert seg.head_users | seg.tail_users == frozenset(range(10))
        assert not seg.head_users & seg.tail_users

    def test_equal_popularity_ties_go_to_low_ids(self):
        store = store_from_sequences(
            {f"u{i}": ["a", "b", "c", "d", "e"] for i in range(4)})
        seg = segment(store)
        # all items appear equally often in training; quota = ceil(0.2*5) = 1
        assert seg.head_items == frozenset({1})

    def test_crafted_popularity_ranking(self):
        # training counts: a=9, b=7, c=7, d=3, e=1 -> head quota 1 -> {a}
        users = {}
        counts = {"a": 9, "b": 7, "c": 7, "d": 3, "e": 1}
        pool = [it for it, n in counts.items() for _ in range(n)]
        for i in range(9):
            users[f"u{i}"] = pool[i::9] + ["b", "a"]  # pad tail so len >= 3
        store = store_from_sequences(users)
        seg = segment(store)
        ranked = sorted(
            range(1, store.n_items + 1),
            key=lambda v: (-sum(np.count_nonzero(store.train_prefix(u) == v)
                                for u in range(store.n_users)), v))
        assert seg.head_items == frozenset(ranked[:1])

    def test_popularity_counts_training_only(self):
        # item "z" appears only as valid/test targets; never counted
        store = store_from_sequences({"u0": ["a", "a", "a", "z", "z"],
                                      "u1": ["b", "b", "b", "b", "c"]})
        seg = segment(store)
        z = store.item_ids.index("z") + 1
        assert z not in seg.head_items

    def test_monotone_membership(self):
        # more interactions never demote an item when other counts are fixed
        base = {"u0": ["a", "b", "c", "x", "x"], "u1": ["a", "b", "c", "x", "x"],
                "u2": ["b", "c", "d", "x", "x"]}
        grown = {k: list(v) for k, v in base.items()}
        grown["u2"] = ["b", "d", "d", "x", "x"]  # extra training hit for d
        seg_before = segment(store_from_sequences(base))
        seg_after = segment(store_from_sequences(grown))
        d = store_from_sequences(base).item_ids.index("d") + 1
        if d in seg_before.head_items:
            assert d in seg_after.head_items


class TestClassifySequence:
    def _seg(self, store, head_items, beta=0.5):
        return segmentation_with_heads(store, head_items, beta=beta)

    def test_all_tail_is_tail_preferring(self):
        store = store_from_sequences({"u": ["a", "b", "c"]})
        seg = self._seg(store, head_items=set())
        assert classify_sequence([1, 2, 3], seg) is PreferenceClass.TAIL_PREFERRING

    def test_all_head_is_head_preferring(self):
        store = store_from_sequences({"u": ["a", "b", "c"]})
        seg = self._seg(store, head_items={1, 2, 3})
        assert classify_sequence([1, 2, 3], seg) is PreferenceClass.HEAD_PREFERRING

    def test_boundary_is_strict(self):
        # 2 tail of 5 with beta=0.4: 0.4 is not > 0.4 -> head-preferring
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        seg = self._seg(store, head_items={1, 2, 3}, beta=0.4)
        assert classify_sequence([1, 2, 3, 4, 5], seg) is PreferenceClass.HEAD_PREFERRING

    def test_empty_prefix_errors(self):
        store = store_from_sequences({"u": ["a", "b", "c"]})
        seg = self._seg(store, head_items={1})
        with pytest.raises(DataError):
            classify_sequence([], seg)

    @given(st.permutations(list(range(1, 8))))
    @settings(max_examples=30, deadline=None)
    def test_order_invariance(self, perm):
        store = store_from_sequences({"u": [f"i{j}" for j in range(7)]})
        seg = self._seg(store, head_items={1, 2, 3})
        assert classify_sequence(list(perm), seg) == \
            classify_sequence(sorted(perm), seg)


class TestDatasetStats:
    def test_hand_counted(self):
        rows = [Interaction("u1", "a", 0), Interaction("u1", "b", 1),
                Interaction("u2", "a", 0)]
        stats = dataset_stats(build_sequences(log_from_rows(rows), 50))
        assert (stats.n_users, stats.n_items, stats.n_interactions) == (2, 2, 3)
        assert stats.avg_length == pytest.approx(1.5)
        assert stats.sparsity == pytest.approx(0.25)

    def test_empty_store_is_zeros(self):
        stats = dataset_stats(build_sequences(log_from_rows([]), 50))
        assert (stats.n_users, stats.n_items, stats.n_interactions) == (0, 0, 0)
        assert stats.avg_length == 0.0 and stats.sparsity == 0.0

    def test_stats_use_full_sequences(self):
        store = store_from_sequences({"u": ["a", "b", "c", "d", "e"]})
        assert dataset_stats(store).n_interactions == 5  # valid/test included


class TestPersistence:
    def test_store_roundtrip_bit_exact(self, tmp_path):
        store = store_from_sequences({"u1": ["a", "b", "c", "d"], "u2": ["b", "c", "a"]})
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        serialize.save(p1, corpus.STORE_SCHEMA, store.to_fields())
        reloaded, _ = serialize.load(p1, corpus.STORE_SCHEMA, corpus.SequenceStore.from_fields)
        serialize.save(p2, corpus.STORE_SCHEMA, reloaded.to_fields())
        assert p1.read_bytes() == p2.read_bytes()
        assert reloaded.max_len == store.max_len
        assert all(np.array_equal(a, b)
                   for a, b in zip(reloaded.sequences, store.sequences))

    def test_identical_inputs_identical_bytes(self, tmp_path):
        text = "u2,i9,3\nu1,i2,1\nu1,i3,2\nu2,i2,5\nu1,i9,9\nu2,i3,7\n" * 2
        for name in ("a", "b"):
            (tmp_path / f"{name}.csv").write_text(text)
        outs = []
        for name in ("a", "b"):
            rows = load_interactions(tmp_path / f"{name}.csv")
            store = leave_one_out_split(build_sequences(rows, 50))
            out = tmp_path / f"{name}_store.json"
            serialize.save(out, corpus.STORE_SCHEMA, store.to_fields())
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# ----------------------------------------------------- row-wise references
#
# The row-wise k-core, sequence building and segmentation that the columnar
# code replaced, kept as references.  ``_ref_id_key`` breaks ties between
# numerically equal ids (``7``, ``07``) by the raw string.

def _ref_id_key(ids):
    ids = list(ids)
    try:
        numeric = {i: (int(i), i) for i in ids}
    except ValueError:
        return lambda i: i
    return lambda i: numeric[i]


def _ref_k_core(rows, k):
    rows = list(rows)
    while True:
        user_counts = Counter(r.user_id for r in rows)
        item_counts = Counter(r.item_id for r in rows)
        keep = [r for r in rows
                if user_counts[r.user_id] >= k and item_counts[r.item_id] >= k]
        if len(keep) == len(rows):
            return keep
        rows = keep


def _ref_build_sequences(rows, max_len):
    item_key = _ref_id_key({r.item_id for r in rows})
    user_key = _ref_id_key({r.user_id for r in rows})
    per_user = {}
    for pos, r in enumerate(rows):
        per_user.setdefault(r.user_id, []).append(
            (r.timestamp, item_key(r.item_id), pos, r.item_id))
    user_ids = sorted(per_user, key=user_key)
    item_ids = sorted({r.item_id for r in rows}, key=item_key)
    item_index = {raw: i + 1 for i, raw in enumerate(item_ids)}
    sequences = [np.asarray([item_index[raw] for *_, raw in sorted(per_user[u])][-max_len:],
                            dtype=np.int64) for u in user_ids]
    return store_from_rows(sequences, max_len=max_len, user_ids=user_ids, item_ids=item_ids,
                           split=False)


def _ref_segment(store, beta=0.5):
    user_len = [len(store.train_prefix(u)) for u in range(store.n_users)]
    item_count = np.zeros(store.n_items + 1, dtype=np.int64)
    for u in range(store.n_users):
        np.add.at(item_count, store.train_prefix(u), 1)
    users = sorted(range(store.n_users), key=lambda u: (-user_len[u], u))
    items = sorted(range(1, store.n_items + 1), key=lambda v: (-item_count[v], v))
    head_users = frozenset(users[:int(np.ceil(corpus.HEAD_FRACTION * store.n_users))])
    head_items = frozenset(items[:int(np.ceil(corpus.HEAD_FRACTION * store.n_items))])
    return corpus.Segmentation(
        head_users=head_users, tail_users=frozenset(range(store.n_users)) - head_users,
        head_items=head_items,
        tail_items=frozenset(range(1, store.n_items + 1)) - head_items,
        beta=beta, n_users=store.n_users, n_items=store.n_items)


# id pools: all numeric (with numerically equal ids), or mixed with ids that
# differ only by a trailing NUL or by case
NUMERIC_IDS = ["7", "07", "007", "9", "10", "-3", "0", "+5", "5"]
MIXED_IDS = ["a", "a\x00", "A", "b", "ä", "10", "9", "07"]

rows_strategy = st.sampled_from([NUMERIC_IDS, MIXED_IDS]).flatmap(
    lambda pool: st.lists(st.builds(Interaction, st.sampled_from(pool),
                                    st.sampled_from(pool), st.integers(-2, 3)),
                          max_size=60))


class TestColumnarMatchesRowwise:
    @given(rows_strategy, st.integers(1, 3), st.integers(3, 6))
    @settings(max_examples=150, deadline=None)
    def test_prepare_steps_match(self, rows, k, max_len):
        core = k_core_filter(log_from_rows(rows), k)
        ref_core = _ref_k_core(rows, k)
        assert log_rows(core) == ref_core

        store = build_sequences(core, max_len)
        ref = _ref_build_sequences(ref_core, max_len)
        assert store.to_fields() == ref.to_fields()
        if all(len(seq) >= 3 for seq in ref.sequences):
            assert segment(leave_one_out_split(store)) == \
                _ref_segment(leave_one_out_split(ref))

    @given(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=9),
                    min_size=1, max_size=12),
           st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_segment_matches(self, seqs, beta):
        store = store_from_sequences({f"u{u}": [f"i{v}" for v in seq]
                                      for u, seq in enumerate(seqs)})
        assert segment(store, beta) == _ref_segment(store, beta)

    def test_cascade_and_truncation(self):
        # the k-core drops "q", which drops "w"; "u" keeps its last 4 of 6
        rows = [Interaction("u", it, t) for t, it in enumerate("abcabc")]
        rows += [Interaction("v", it, t) for t, it in enumerate("abcab")]
        rows += [Interaction("w", "q", 0), Interaction("w", "a", 1)]
        core = k_core_filter(log_from_rows(rows), 2)
        assert log_rows(core) == _ref_k_core(rows, 2)
        assert build_sequences(core, 4).to_fields() == \
            _ref_build_sequences(_ref_k_core(rows, 2), 4).to_fields()

    def test_emptylog_from_rows(self):
        assert log_rows(k_core_filter(log_from_rows([]), 3)) == []
        assert build_sequences(log_from_rows([]), 5).to_fields() == \
            _ref_build_sequences([], 5).to_fields()


class TestFlatStoreMatchesRowwise:
    """The columnar store read back row by row, against the rows it was built from."""

    @given(ragged_rows())
    @example(([], 1, 3))
    @example(([[1, 2, 3], [3, 1, 2, 2, 3]], 3, 5))
    @settings(max_examples=150, deadline=None)
    def test_accessors(self, case):
        rows, n_items, max_len = case
        store = decoded_store(rows, n_items, max_len)
        assert store.items.dtype == store.offsets.dtype == np.int64
        assert [s.tolist() for s in store.sequences] == rows
        assert not any(s.flags.writeable for s in store.sequences)
        for u, row in enumerate(rows):
            assert store.train_prefix(u).tolist() == row[:-2]
            assert (store.valid_item(u), store.test_item(u)) == (row[-2], row[-1])
        ids, lengths = store.train_prefixes()
        assert ids.tolist() == [v for row in rows for v in row[:-2]]
        assert lengths.tolist() == [len(row) - 2 for row in rows]
        assert store.to_fields()["sequences"] == rows
        n = sum(map(len, rows))
        n_u = len(rows)
        assert dataset_stats(store) == (corpus.DatasetStats(
            n_u, n_items, n, n / n_u, 1.0 - n / (n_u * n_items)) if n_u else
            corpus.DatasetStats(0, n_items, 0, 0.0, 0.0))
        helper = store_from_rows(rows, max_len=max_len, user_ids=store.user_ids,
                                 item_ids=store.item_ids, split=True)
        assert helper.to_fields() == store.to_fields()

    @given(ragged_rows())
    @example(([], 1, 3))
    @settings(max_examples=100, deadline=None)
    def test_fields_roundtrip(self, case):
        store = decoded_store(*case)
        back = corpus.SequenceStore.from_fields(store.to_fields())
        assert back.to_fields() == store.to_fields()
        np.testing.assert_array_equal(back.items, store.items)
        np.testing.assert_array_equal(back.offsets, store.offsets)
        assert (back.max_len, back.split) == (store.max_len, store.split)

    @given(st.lists(st.lists(st.integers(1, 4), max_size=5), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_split_names_the_first_short_user(self, rows):
        store = store_from_rows(rows, max_len=5, user_ids=[f"u{u}" for u in range(len(rows))],
                                item_ids=["a", "b", "c", "d"], split=False)
        short = [u for u, row in enumerate(rows) if len(row) < 3]
        if not short:
            assert leave_one_out_split(store).split
            return
        with pytest.raises(DataError, match=f"user 'u{short[0]}' has only "
                                            f"{len(rows[short[0]])} interactions"):
            leave_one_out_split(store)


class TestRawIds:
    def test_numerically_equal_ids_order_by_raw_string(self):
        rows = [Interaction("1", "7", 5), Interaction("1", "007", 5),
                Interaction("01", "07", 1), Interaction("1", "07", 5)]
        store = build_sequences(log_from_rows(rows), 50)
        assert store.user_ids == ["01", "1"]
        assert store.item_ids == ["007", "07", "7"]
        assert [store.item_ids[v - 1] for v in store.sequences[1]] == ["007", "07", "7"]

    def test_ids_differing_by_nul_stay_distinct(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("a,i1,1\na\x00,i1,2\na,i2,3\n", encoding="utf-8")
        store = build_sequences(load_interactions(p), 50)
        assert store.user_ids == ["a", "a\x00"]
        assert [len(s) for s in store.sequences] == [2, 1]

    def test_int64_timestamps_bounds(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text(f"u,i,{2 ** 63 - 1}\nu,j,{-2 ** 63}\n")
        assert load_interactions(p).timestamps.tolist() == [2 ** 63 - 1, -2 ** 63]
        p.write_text(f"u,i,1\nu,j,{2 ** 63}\n")
        with pytest.raises(DataError, match=r"log\.csv:2: .*int64"):
            load_interactions(p)

    def test_non_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_bytes(b"u1,i1,1\nu2,i1,2\nu3,\xff\xfe,3\n")
        with pytest.raises(DataError, match=r"log\.csv.*utf-8"):
            load_interactions(p)
