"""DynamicKdTree equivalence + unit suite.

The contract under test: on every frame, the incremental overlay's query
results are **bit-identical** to rebuilding a frozen-reference tree from
scratch over the alive slots (:func:`repro.kdtree.dynamic_reference
.scratch_dynamic_query`).  The degenerate-mutation tests walk the index
through the sequences most likely to break an incremental structure —
empty/singleton boundaries, duplicate coordinates, full-churn frames,
interleaved bursts — with the parity pin asserted after every step.
"""

import numpy as np
import pytest

import repro.kdtree.dynamic as dynamic_mod
import repro.runtime.batched as batched_mod
from repro.kdtree import DynamicKdTree, DynamicStats, scratch_dynamic_query
from repro.kdtree.dynamic_reference import pair_d2
from repro.runtime import BatchedBallQuery, vectorized_build_kdtree


def assert_parity(dyn, queries, radius, k):
    """Pin dyn.query against the rebuild-from-scratch reference."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    got_idx, got_cnt = dyn.query(queries, radius, k)
    coords, alive = dyn.state()
    m = len(queries)
    want_idx, want_cnt = scratch_dynamic_query(
        coords, alive, queries, np.full(m, radius), np.full(m, k)
    )
    np.testing.assert_array_equal(got_idx, want_idx)
    np.testing.assert_array_equal(got_cnt, want_cnt)


def grid_queries(rng, lo=-2.0, hi=2.0, m=12):
    return rng.uniform(lo, hi, size=(m, 3))


# ----------------------------------------------------------------------
# Degenerate mutation sequences (satellite: the breakage-prone shapes)
# ----------------------------------------------------------------------

class TestDegenerateSequences:
    def test_query_on_empty_tree(self):
        dyn = DynamicKdTree()
        idx, cnt = dyn.query(np.zeros((2, 3)), 1.0, 4)
        np.testing.assert_array_equal(idx, np.full((2, 4), -1))
        np.testing.assert_array_equal(cnt, np.zeros(2, dtype=np.int64))
        assert_parity(dyn, np.zeros((2, 3)), 1.0, 4)

    def test_insert_into_empty_tree(self):
        dyn = DynamicKdTree()
        slots = dyn.insert(np.array([[0.1, 0.2, 0.3]]))
        np.testing.assert_array_equal(slots, [0])
        assert len(dyn) == 1
        assert_parity(dyn, np.zeros((3, 3)), 1.0, 4)

    def test_insert_into_singleton_tree(self):
        dyn = DynamicKdTree(np.array([[0.0, 0.0, 0.0]]))
        dyn.insert(np.array([[0.05, 0.0, 0.0], [3.0, 3.0, 3.0]]))
        assert_parity(dyn, np.zeros((4, 3)), 0.5, 4)

    def test_remove_down_to_empty_and_refill(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(9, 3))
        dyn = DynamicKdTree(pts)
        queries = grid_queries(rng)
        # Peel off points one at a time; parity must hold at every size
        # including the empty cloud.
        for slot in range(9):
            dyn.remove([slot])
            assert_parity(dyn, queries, 1.5, 4)
        assert len(dyn) == 0
        idx, cnt = dyn.query(queries, 1.5, 4)
        assert (cnt == 0).all() and (idx == -1).all()
        # Refilling an emptied index must behave like a fresh one.
        dyn.insert(rng.normal(size=(5, 3)))
        assert_parity(dyn, queries, 1.5, 4)

    def test_duplicate_coordinate_inserts_tie_route_by_slot(self):
        """Coincident points: ties in d2 must break by ascending slot id."""
        dyn = DynamicKdTree(np.zeros((1, 3)))
        dyn.insert(np.zeros((4, 3)))  # four more copies of the same point
        dyn.refresh(flush=True)
        idx, cnt = dyn.query(np.zeros((1, 3)), 0.5, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]])
        np.testing.assert_array_equal(cnt, [3])
        assert_parity(dyn, np.zeros((2, 3)), 0.5, 3)
        # Removing the middle copy shifts the tie order deterministically.
        dyn.remove([1])
        idx, cnt = dyn.query(np.zeros((1, 3)), 0.5, 3)
        np.testing.assert_array_equal(idx, [[0, 2, 3]])
        assert_parity(dyn, np.zeros((2, 3)), 0.5, 3)

    def test_full_churn_frame(self):
        """Remove every point and insert a full replacement in one frame."""
        rng = np.random.default_rng(1)
        dyn = DynamicKdTree(rng.normal(size=(40, 3)))
        queries = grid_queries(rng)
        for _ in range(4):
            dyn.remove(dyn.alive_slots())
            dyn.insert(rng.normal(size=(40, 3)))
            assert_parity(dyn, queries, 1.0, 8)

    def test_interleaved_insert_remove_bursts(self):
        rng = np.random.default_rng(2)
        dyn = DynamicKdTree(rng.normal(size=(30, 3)), buffer_cap=8, max_segments=3)
        queries = grid_queries(rng)
        for frame in range(12):
            burst = rng.integers(1, 6)
            for _ in range(burst):
                if rng.random() < 0.5 and len(dyn) > 2:
                    alive = dyn.alive_slots()
                    take = rng.choice(alive, size=min(3, len(alive)), replace=False)
                    dyn.remove(take)
                else:
                    dyn.insert(rng.normal(size=(rng.integers(1, 5), 3)))
            assert_parity(dyn, queries, 1.2, 6)

    def test_randomized_churn_parity(self):
        """30 frames of mixed churn with tight maintenance knobs, so the
        suite exercises spills, threshold rebuilds, and merges."""
        rng = np.random.default_rng(3)
        dyn = DynamicKdTree(
            rng.normal(size=(120, 3)),
            buffer_cap=16,
            max_segments=3,
            rebuild_fraction=0.2,
        )
        for frame in range(30):
            alive = dyn.alive_slots()
            k = max(1, int(0.1 * len(alive)))
            dyn.remove(rng.choice(alive, size=k, replace=False))
            dyn.insert(rng.normal(size=(k, 3)))
            assert_parity(dyn, grid_queries(rng), 1.0, 8)


# ----------------------------------------------------------------------
# Merged (serving-kernel) queries
# ----------------------------------------------------------------------

class TestMergedQueries:
    def test_merged_matches_per_request_query(self):
        rng = np.random.default_rng(4)
        dyn = DynamicKdTree(rng.normal(size=(80, 3)), buffer_cap=8)
        dyn.remove(rng.choice(80, size=10, replace=False))
        dyn.insert(rng.normal(size=(15, 3)))
        batches = [grid_queries(rng, m=m) for m in (3, 5, 2)]
        radii_req = [0.8, 1.2, 1.5]
        ks = [4, 8, 2]
        merged_q = np.concatenate(batches)
        radii = np.concatenate(
            [np.full(len(b), r) for b, r in zip(batches, radii_req)]
        )
        ids = np.concatenate(
            [np.full(len(b), i, dtype=np.int64) for i, b in enumerate(batches)]
        )
        merged = dyn.query_merged(merged_q, radii, ids, ks)
        assert len(merged) == 3
        for (mi, mc), batch, r, k in zip(merged, batches, radii_req, ks):
            si, sc = dyn.query(batch, r, k)
            np.testing.assert_array_equal(mi, si[:, :k])
            np.testing.assert_array_equal(mc, sc)

    def test_one_sweep_per_query_merged(self, call_rows):
        # Every live segment is one tree of a forest: a merged query sweeps
        # all its admitted (query, segment) rows at once, whatever the
        # segment count, buffer, tombstones or boxes.
        rng = np.random.default_rng(8)
        dyn = DynamicKdTree(rng.normal(size=(200, 3)), buffer_cap=16, max_segments=8)
        for shift in (2.0, -2.0, 4.0):
            dyn.insert(rng.normal(size=(20, 3)) + shift)
            dyn.refresh()  # each spill is a segment of its own
        dyn.remove(rng.choice(200, size=12, replace=False))
        dyn.insert(rng.normal(size=(5, 3)))
        inside = grid_queries(rng, lo=-3.0, hi=5.0, m=10)
        outside = rng.normal(size=(4, 3)) + 100.0  # beyond every box
        sweeps = call_rows(batched_mod, "frontier_sweep", "queries")
        for queries in (np.concatenate([inside, outside]), outside):
            sweeps.clear()
            m = len(queries)
            radii = np.where(np.arange(m) % 2, 0.9, 1.6)
            ids = (np.arange(m) >= m // 2).astype(np.int64)
            merged = dyn.query_merged(queries, radii, ids, [6, 3])
            assert len(sweeps) == 1
            coords, alive = dyn.state()
            want_idx, want_cnt = scratch_dynamic_query(
                coords, alive, queries, radii, np.where(ids == 0, 6, 3)
            )
            for (idx, cnt), k, rows in zip(merged, (6, 3), (ids == 0, ids == 1)):
                np.testing.assert_array_equal(idx, want_idx[rows, :k])
                np.testing.assert_array_equal(cnt, want_cnt[rows])
        assert dyn.num_segments >= 3 and dyn.buffered > 0
        assert len(dyn) < dyn.num_slots  # some slots are tombstoned

    def test_pair_d2_keys_buffer_hits_only(self, call_rows):
        # Tree hits keep the d2 their sweep level computed; only buffer
        # hits reach pair_d2, and none when the buffer is empty.
        rng = np.random.default_rng(10)
        dyn = DynamicKdTree(rng.normal(size=(150, 3)), buffer_cap=32, max_segments=8)
        dyn.insert(rng.normal(size=(20, 3)) + 1.0)
        dyn.refresh(flush=True)  # a second segment
        buffered = dyn.insert(rng.normal(size=(12, 3)))  # stays in the buffer
        dyn.remove(np.concatenate([rng.choice(150, size=9, replace=False), buffered[:2]]))
        queries = grid_queries(rng, lo=-2.0, hi=3.0, m=14)
        radii = np.where(np.arange(14) % 2, 0.7, 1.3)
        ids = (np.arange(14) >= 5).astype(np.int64)
        d2_rows = call_rows(dynamic_mod, "pair_d2", "hit_q")
        for flush in (False, True):
            d2_rows.clear()
            if flush:
                dyn.refresh(flush=True)  # the buffer spills into a segment
            coords, alive = dyn.state()
            live = buffered[alive[buffered]] if dyn.buffered else buffered[:0]
            delta = queries[:, None, :] - coords[live][None, :, :]
            d2 = np.einsum("mkj,mkj->mk", delta, delta)
            buffer_hits = int((d2 <= (radii * radii)[:, None]).sum())
            merged = dyn.query_merged(queries, radii, ids, [5, 7])
            assert sum(d2_rows) == buffer_hits
            assert buffer_hits > 0 or flush
            want_idx, want_cnt = scratch_dynamic_query(
                coords, alive, queries, radii, np.where(ids == 0, 5, 7)
            )
            for (idx, cnt), k, rows in zip(merged, (5, 7), (ids == 0, ids == 1)):
                np.testing.assert_array_equal(idx, want_idx[rows, :k])
                np.testing.assert_array_equal(cnt, want_cnt[rows])
        assert dyn.buffered == 0 and dyn.num_segments >= 2

    def test_fused_key_order_is_lexsort_order(self, call_rows):
        # Hits sort by (query, d2, slot); the fused int64 key must give
        # exactly the three-key lexsort order on ties of every kind.
        rng = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        offsets = np.array([
            [0.5, 0, 0], [-0.5, 0, 0], [0, 0.5, 0], [0, -0.5, 0], [0, 0, 0.5],
            [0.25, 0, 0], [0, -0.25, 0], [0, 0, 0],
        ])  # mirrored about each center: equal d2 for different slots
        coords = np.concatenate([c + offsets for c in centers] + [rng.normal(size=(20, 3))])
        queries = np.concatenate([centers, centers[:1]])  # equal d2 across queries
        hq, hs = map(np.ravel, np.meshgrid(np.arange(4), np.arange(len(coords)), indexing="ij"))
        shuffle = rng.permutation(len(hq))
        hq, hs = hq[shuffle], hs[shuffle]
        d2 = pair_d2(coords, queries, hq, hs)
        per_query = np.unique(np.stack([hq, d2.view(np.int64)]), axis=1).shape[1]
        assert len(np.unique(d2)) < per_query < len(d2)  # both kinds of tie
        cases = [(hq, d2, hs), (hq[:0], d2[:0], hs[:0]), (hq[:1], d2[:1], hs[:1])]
        wants = [np.lexsort((slot, dist, q)) for q, dist, slot in cases]
        lexsorts = call_rows(np, "lexsort", "keys")
        for (q, dist, slot), want in zip(cases, wants):
            lexsorts.clear()
            got = dynamic_mod._canonical_order(q, dist, slot, 4, len(coords))
            assert lexsorts == []  # one int64 argsort, no lexsort
            np.testing.assert_array_equal(got, want)
            # A slot space too large for the fused key falls back to lexsort.
            got = dynamic_mod._canonical_order(q, dist, slot, 4, 1 << 62)
            assert lexsorts == [3]
            np.testing.assert_array_equal(got, want)

    def test_zero_row_request_is_zero_by_k(self):
        # A request without rows comes back (0, K) like a static request,
        # alone or next to other requests.
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(60, 3))
        dyn = DynamicKdTree(pts)
        static = BatchedBallQuery(vectorized_build_kdtree(pts))
        none = np.zeros((0, 3))
        for engine in (dyn, static):
            idx, cnt = engine.query(none, 0.5, 4)
            assert idx.shape == (0, 4) and cnt.shape == (0,)
        queries = np.concatenate([none, rng.normal(size=(3, 3))])
        ids = np.array([1, 1, 1])
        got = dyn.query_merged(queries, 0.8, ids, [4, 6])
        want = static.query_merged(queries, 0.8, ids, [4, 6])
        shapes = [i.shape for i, _ in got]
        assert shapes == [i.shape for i, _ in want] == [(0, 4), (3, 6)]
        assert [c.shape for _, c in got] == [c.shape for _, c in want]

    def test_merged_validation(self):
        dyn = DynamicKdTree(np.zeros((1, 3)))
        q = np.zeros((2, 3))
        with pytest.raises(ValueError, match="positive"):
            dyn.query_merged(q, np.array([0.5, -1.0]), np.array([0, 1]), [4, 4])
        with pytest.raises(ValueError, match="grouped"):
            dyn.query_merged(q, np.array([0.5, 0.5]), np.array([1, 0]), [4, 4])
        with pytest.raises(ValueError, match="one radius per query"):
            dyn.query_merged(q, np.array([0.5]), np.array([0, 0]), [4])


# ----------------------------------------------------------------------
# Content digest
# ----------------------------------------------------------------------

class TestDigest:
    def test_digest_is_pure_function_of_state(self):
        """Segmentation, maintenance mode, and history must not leak in."""
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 3))
        a = DynamicKdTree(pts, buffer_cap=4, max_segments=2)
        b = DynamicKdTree(pts, maintenance="rebuild")
        c = DynamicKdTree(pts, maintenance="state")
        assert a.digest == b.digest == c.digest
        extra = rng.normal(size=(3, 3))
        for dyn in (a, b, c):
            dyn.remove([1, 7])
            dyn.insert(extra)
            dyn.refresh(flush=True)
        assert a.digest == b.digest == c.digest
        # And a replica rebuilt from the snapshot agrees too.
        replica = DynamicKdTree.from_state(*a.state())
        assert replica.digest == a.digest

    def test_mutations_change_the_digest(self):
        dyn = DynamicKdTree(np.arange(30.0).reshape(10, 3))
        d0 = dyn.digest
        dyn.remove([4])
        d1 = dyn.digest
        assert d1 != d0
        dyn.insert(np.array([[9.0, 9.0, 9.0]]))
        assert dyn.digest != d1

    def test_digest_distinguishes_alive_bits(self):
        """Same coordinates, different tombstones -> different digest."""
        pts = np.arange(12.0).reshape(4, 3)
        a = DynamicKdTree(pts)
        b = DynamicKdTree(pts)
        b.remove([2])
        assert a.digest != b.digest


# ----------------------------------------------------------------------
# Replicas (the worker-recovery path)
# ----------------------------------------------------------------------

class TestFromState:
    def test_replica_is_indistinguishable(self):
        rng = np.random.default_rng(7)
        dyn = DynamicKdTree(rng.normal(size=(60, 3)), buffer_cap=8)
        dyn.remove(rng.choice(60, size=8, replace=False))
        dyn.insert(rng.normal(size=(10, 3)))
        replica = DynamicKdTree.from_state(*dyn.state())
        assert replica.digest == dyn.digest
        assert replica.num_slots == dyn.num_slots
        queries = grid_queries(rng)
        np.testing.assert_array_equal(
            dyn.query(queries, 1.0, 6)[0], replica.query(queries, 1.0, 6)[0]
        )
        # Further identical mutations keep slot ids aligned.
        a = dyn.insert(np.ones((2, 3)))
        b = replica.insert(np.ones((2, 3)))
        np.testing.assert_array_equal(a, b)
        assert dyn.digest == replica.digest

    def test_from_state_shape_mismatch(self):
        with pytest.raises(ValueError, match="same slots"):
            DynamicKdTree.from_state(np.zeros((3, 3)), np.ones(2, dtype=bool))


# ----------------------------------------------------------------------
# Error handling and stats
# ----------------------------------------------------------------------

class TestErrorsAndStats:
    def test_remove_rejects_bad_slots(self):
        dyn = DynamicKdTree(np.arange(9.0).reshape(3, 3))
        with pytest.raises(ValueError, match="out of range"):
            dyn.remove([5])
        with pytest.raises(ValueError, match="duplicate"):
            dyn.remove([1, 1])
        dyn.remove([1])
        with pytest.raises(ValueError, match="already removed"):
            dyn.remove([1])

    def test_insert_rejects_bad_points(self):
        dyn = DynamicKdTree()
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            dyn.insert(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            dyn.insert(np.array([[np.nan, 0.0, 0.0]]))

    def test_state_mode_rejects_queries(self):
        dyn = DynamicKdTree(np.zeros((2, 3)), maintenance="state")
        with pytest.raises(RuntimeError, match="state-only"):
            dyn.query(np.zeros((1, 3)), 1.0, 4)
        assert dyn.num_segments == 0  # no index is ever built

    def test_query_settings_validation(self):
        dyn = DynamicKdTree(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            dyn.query(np.zeros((1, 3)), -1.0, 4)
        with pytest.raises(ValueError):
            dyn.query(np.zeros((1, 3)), 1.0, 0)
        with pytest.raises(ValueError, match="finite"):
            dyn.query(np.array([[np.inf, 0.0, 0.0]]), 1.0, 4)
        for k in (2.5, np.nan, np.inf):  # K must be an integer >= 1
            with pytest.raises(ValueError, match="max_neighbors"):
                dyn.query(np.zeros((1, 3)), 1.0, k)
            with pytest.raises(ValueError, match="max_neighbors"):
                dyn.query_merged(np.zeros((2, 3)), 1.0, [0, 1], [4, k])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DynamicKdTree(maintenance="magic")
        with pytest.raises(ValueError):
            DynamicKdTree(buffer_cap=0)
        with pytest.raises(ValueError):
            DynamicKdTree(rebuild_fraction=0.0)

    def test_incremental_does_less_build_work_than_rebuild(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(300, 3))
        inc = DynamicKdTree(pts, buffer_cap=64)
        reb = DynamicKdTree(pts, maintenance="rebuild")
        queries = grid_queries(rng, m=4)
        for _ in range(10):
            alive = inc.alive_slots()
            take = rng.choice(alive, size=5, replace=False)
            new = rng.normal(size=(5, 3))
            for dyn in (inc, reb):
                dyn.remove(take)
                dyn.insert(new)
                dyn.query(queries, 1.0, 4)
        assert isinstance(inc.stats, DynamicStats)
        assert inc.stats.points_indexed < reb.stats.points_indexed
