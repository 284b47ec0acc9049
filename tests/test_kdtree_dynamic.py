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

from repro.kdtree import (
    DirtyRegionDigest,
    DynamicKdTree,
    DynamicStats,
    scratch_dynamic_query,
)


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
# Dirty-region digest
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

    def test_dirty_region_rehash_is_local(self):
        """A one-chunk mutation on a many-chunk cloud re-hashes one chunk."""
        rng = np.random.default_rng(6)
        dyn = DynamicKdTree(rng.normal(size=(4096, 3)), digest_chunk=256)
        dyn.digest  # settle: every chunk hashed once
        before = dyn.digest_chunks_hashed
        assert before == 16
        dyn.remove([100])  # slot 100 lives in chunk 0 only
        dyn.digest
        assert dyn.digest_chunks_hashed == before + 1

    def test_digest_distinguishes_alive_bits(self):
        """Same coordinates, different tombstones -> different digest."""
        pts = np.arange(12.0).reshape(4, 3)
        a = DynamicKdTree(pts)
        b = DynamicKdTree(pts)
        b.remove([2])
        assert a.digest != b.digest

    def test_digest_chunk_validation(self):
        with pytest.raises(ValueError):
            DirtyRegionDigest(0)


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
