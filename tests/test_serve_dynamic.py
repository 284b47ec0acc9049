"""Dynamic (mutating-cloud) serving parity: service, session, shards.

The acceptance pin for PR 10: a ≥50-frame drifting-scene trace served
through ``QueryService`` with incremental index maintenance is
**bit-identical per frame** to rebuild-from-scratch maintenance — and to
the multi-process ``ShardedQueryService``, where ``update_handle``
messages route to the owning shard and apply between flushes.  Around
that sit the session's dynamic registry, handle aliasing rules, and
dynamic-handle worker recovery.
"""

import numpy as np
import pytest

import repro.runtime.session as session_module
from repro.kdtree import DynamicKdTree
from repro.runtime.session import SearchSession, dynamic_handle
from repro.serve import (
    QueryService,
    ShardedQueryService,
    drift_trace,
    replay_drift_trace,
)


# ----------------------------------------------------------------------
# The acceptance criterion: the 50-frame drifting-scene trace
# ----------------------------------------------------------------------

class TestDriftTraceParity:
    def test_fifty_frame_trace_incremental_rebuild_and_sharded(self):
        report = replay_drift_trace(
            num_frames=50,
            requests_per_frame=1,
            queries_per_request=12,
            num_points=400,
            churn=0.03,
            seed=7,
            num_workers=2,
        )
        assert list(report.times) == ["rebuild", "incremental", "sharded"]
        assert report.requests == 50
        # rebuild == incremental == multi-process tier, per frame
        assert report.results_identical
        # The incremental path must have done strictly less index-build
        # work than rebuilding every frame (the point of the PR).
        incremental, rebuild = report.stats["incremental"], report.stats["rebuild"]
        assert incremental.points_indexed < rebuild.points_indexed
        assert len(report.waits["incremental"]) == 50

    def test_trace_generator_is_deterministic(self):
        initial_a, frames_a = drift_trace(num_frames=5, num_points=100, seed=3)
        initial_b, frames_b = drift_trace(num_frames=5, num_points=100, seed=3)
        np.testing.assert_array_equal(initial_a, initial_b)
        for fa, fb in zip(frames_a, frames_b):
            np.testing.assert_array_equal(fa.inserts, fb.inserts)
            np.testing.assert_array_equal(fa.removes, fb.removes)
            for (qa, ra, ka), (qb, rb, kb) in zip(fa.requests, fb.requests):
                np.testing.assert_array_equal(qa, qb)
                assert ra == rb and ka == kb

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"num_points": 0}, "trace dimensions must be positive"),
            ({"num_points": -5}, "trace dimensions must be positive"),
            ({"num_frames": 0}, "trace dimensions must be positive"),
            ({"requests_per_frame": 0}, "trace dimensions must be positive"),
            ({"queries_per_request": 0}, "queries_per_request must be positive"),
            ({"queries_per_request": -1}, "queries_per_request must be positive"),
        ],
    )
    def test_trace_generator_rejects_non_positive_dimensions(self, kwargs, message):
        # The messages synthetic_trace gives for the same inputs.
        with pytest.raises(ValueError, match=message):
            drift_trace(**{"num_frames": 2, "num_points": 50, **kwargs})


# ----------------------------------------------------------------------
# QueryService dynamic handles
# ----------------------------------------------------------------------

class TestServiceDynamic:
    def test_submit_dynamic_matches_direct_engine(self, rng):
        pts = rng.normal(size=(120, 3))
        service = QueryService()
        handle = service.register_dynamic(pts)
        mirror = DynamicKdTree(pts)
        for _ in range(5):
            removes = rng.choice(mirror.alive_slots(), size=6, replace=False)
            inserts = rng.normal(size=(6, 3))
            service.update(handle, inserts=inserts, removes=removes)
            mirror.remove(removes)
            mirror.insert(inserts)
            queries = rng.normal(size=(8, 3))
            ticket = service.submit_dynamic(handle, queries, 1.0, 6)
            service.flush()
            want_idx, want_cnt = mirror.query(queries, 1.0, 6)
            got_idx, got_cnt = ticket.result()
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_cnt, want_cnt)

    def test_update_hashes_nothing(self, rng, call_rows):
        # A frame's mutations make no geometry_digest call; the digest is
        # computed on demand and equals a replica's.
        service = QueryService()
        handle = service.register_dynamic(rng.normal(size=(3000, 3)))
        dyn = service.session.dynamic(handle)
        digests = call_rows(session_module, "geometry_digest", "arrays")
        for _ in range(3):
            removes = rng.choice(dyn.alive_slots(), size=40, replace=False)
            inserts = rng.normal(size=(40, 3))
            assert service.update(handle, inserts=inserts, removes=removes) is None
        assert digests == []
        assert dyn.digest == DynamicKdTree.from_state(*dyn.state()).digest
        assert digests == [2, 2]  # one per read, over (coords, alive)

    def test_static_and_dynamic_requests_share_a_flush(self, rng):
        static_pts = rng.normal(size=(60, 3))
        dyn_pts = rng.normal(size=(60, 3))
        service = QueryService()
        handle = service.register_dynamic(dyn_pts)
        t_static = service.submit(static_pts, static_pts[:4], 0.5, 4)
        t_dyn = service.submit_dynamic(handle, dyn_pts[:4], 0.5, 4)
        assert service.pending == 2
        service.flush()
        assert t_static.error is None and t_dyn.error is None
        # The dynamic rows answer in slot space: every counted neighbor of
        # a query drawn from the cloud itself includes the query's own slot.
        idx, cnt = t_dyn.result()
        assert (cnt >= 1).all()
        for qi in range(4):
            assert qi in idx[qi]

    def test_unknown_handle_rejected_at_submit(self):
        service = QueryService()
        with pytest.raises(KeyError, match="unknown dynamic handle"):
            service.submit_dynamic("no-such-handle", np.zeros((1, 3)), 0.5, 4)
        with pytest.raises(KeyError, match="unknown dynamic handle"):
            service.update("no-such-handle", inserts=np.zeros((1, 3)))
        assert service.pending == 0

    def test_identical_initial_clouds_do_not_alias(self, rng):
        """Two registrations of the same points drift independently."""
        pts = rng.normal(size=(40, 3))
        service = QueryService()
        h1 = service.register_dynamic(pts)
        h2 = service.register_dynamic(pts.copy())
        assert h1 != h2
        service.update(h1, removes=np.array([0]))
        assert len(service.session.dynamic(h1)) == 39
        assert len(service.session.dynamic(h2)) == 40

    def test_update_validates_before_mutating(self, rng):
        service = QueryService()
        handle = service.register_dynamic(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="finite"):
            service.update(handle, inserts=np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="out of range"):
            service.update(handle, removes=np.array([99]))
        assert len(service.session.dynamic(handle)) == 10


# ----------------------------------------------------------------------
# Session: dynamic registrations bypass the caches
# ----------------------------------------------------------------------

class TestSessionInvalidation:
    def test_updates_leave_no_cache_entry_to_invalidate(self, rng):
        # A dynamic cloud is served through its own index: registering,
        # mutating and querying it files nothing in the tree, split-tree
        # or result caches, so no entry can go stale under an old digest
        # (test_submit_dynamic_matches_direct_engine pins the results).
        service = QueryService()
        handle = service.register_dynamic(rng.normal(size=(80, 3)))
        for frame in range(3):
            service.update(handle, inserts=rng.normal(size=(4, 3)), removes=[frame])
            ticket = service.submit_dynamic(handle, rng.normal(size=(6, 3)), 0.8, 4)
            service.flush()
            assert ticket.error is None
        session = service.session
        assert len(session.trees) == len(session.split_trees) == len(session.results) == 0

    def test_dynamic_handle_is_sequence_salted(self):
        assert dynamic_handle("abc", 0) != dynamic_handle("abc", 1)
        int(dynamic_handle("abc", 0)[:16], 16)  # hex: shard-routable

    def test_session_clear_keeps_dynamic_registrations(self, rng):
        session = SearchSession()
        handle = session.register_dynamic(rng.normal(size=(20, 3)))
        session.clear()
        assert len(session.dynamic(handle)) == 20


# ----------------------------------------------------------------------
# Sharded tier: routed updates and worker recovery
# ----------------------------------------------------------------------

class TestShardedDynamic:
    def test_updates_route_to_owning_shard_with_parity(self, rng):
        pts = rng.normal(size=(150, 3))
        single = QueryService()
        s_handle = single.register_dynamic(pts)
        with ShardedQueryService(num_workers=2) as tier:
            t_handle = tier.register_dynamic(pts)
            for _ in range(6):
                removes = rng.choice(
                    single.session.dynamic(s_handle).alive_slots(),
                    size=8,
                    replace=False,
                )
                inserts = rng.normal(size=(8, 3))
                single.update(s_handle, inserts=inserts, removes=removes)
                tier.update(t_handle, inserts=inserts, removes=removes)
                queries = rng.normal(size=(6, 3))
                st = single.submit_dynamic(s_handle, queries, 1.0, 5)
                tt = tier.submit_dynamic(t_handle, queries, 1.0, 5)
                single.flush()
                tier.flush()
                np.testing.assert_array_equal(st.result()[0], tt.result()[0])
                np.testing.assert_array_equal(st.result()[1], tt.result()[1])

    def test_respawn_reships_mutated_dynamic_state(self, rng):
        pts = rng.normal(size=(100, 3))
        single = QueryService()
        s_handle = single.register_dynamic(pts)
        with ShardedQueryService(num_workers=2) as tier:
            t_handle = tier.register_dynamic(pts)
            # Mutate PAST registration, so recovery must re-ship current
            # state, not the registration-time snapshot.
            removes = np.arange(10)
            inserts = rng.normal(size=(10, 3))
            single.update(s_handle, inserts=inserts, removes=removes)
            tier.update(t_handle, inserts=inserts, removes=removes)
            queries = rng.normal(size=(5, 3))
            st = single.submit_dynamic(s_handle, queries, 1.0, 4)
            tt = tier.submit_dynamic(t_handle, queries, 1.0, 4)
            single.flush()
            tier.flush()
            np.testing.assert_array_equal(st.result()[0], tt.result()[0])
            # Kill the shard that owns the handle, between flushes.
            owner = tier._slot_for(t_handle)
            tier._workers[owner].kill()
            st2 = single.submit_dynamic(s_handle, queries, 1.2, 6)
            tt2 = tier.submit_dynamic(t_handle, queries, 1.2, 6)
            single.flush()
            tier.flush()  # dispatch-time liveness check respawns + re-ships
            assert tier.stats.respawns == 1
            np.testing.assert_array_equal(st2.result()[0], tt2.result()[0])
            np.testing.assert_array_equal(st2.result()[1], tt2.result()[1])

    def test_unknown_handle_rejected_at_dispatch(self):
        with ShardedQueryService(num_workers=2) as tier:
            with pytest.raises(KeyError, match="dynamic"):
                tier.submit_dynamic("missing", np.zeros((1, 3)), 0.5, 4)
            with pytest.raises(KeyError, match="dynamic"):
                tier.update("missing", inserts=np.zeros((1, 3)))
            assert tier.pending == 0

    def test_unknown_maintenance_rejected_before_shipping(self, rng):
        pts = rng.normal(size=(20, 3))
        with pytest.raises(ValueError) as single:
            QueryService().register_dynamic(pts, maintenance="bogus")
        with ShardedQueryService(num_workers=1) as tier:
            with pytest.raises(ValueError) as sharded:
                tier.register_dynamic(pts, maintenance="bogus")
            assert str(sharded.value) == str(single.value)
            # Nothing shipped, so the one shard is alive and still serves.
            handle = tier.register_dynamic(pts)
            ticket = tier.submit_dynamic(handle, pts[:2], 0.5, 4)
            tier.flush()
            assert ticket.error is None
            assert tier.stats.respawns == 0

    @pytest.mark.parametrize("sharded", [False, True])
    def test_state_maintenance_rejected_at_register(self, rng, sharded):
        # A state-only index can never serve: both tiers used to accept the
        # registration, then fail every request against it at flush.
        service = ShardedQueryService(num_workers=1) if sharded else QueryService()
        try:
            with pytest.raises(ValueError, match="'incremental' or 'rebuild', got 'state'"):
                service.register_dynamic(rng.normal(size=(20, 3)), maintenance="state")
            assert service.pending == 0 and service.stats.failed_requests == 0
        finally:
            if sharded:
                service.close()

    def test_malformed_update_fails_at_dispatch_not_on_worker(self, rng):
        with ShardedQueryService(num_workers=2) as tier:
            handle = tier.register_dynamic(rng.normal(size=(20, 3)))
            with pytest.raises(ValueError, match="out of range"):
                tier.update(handle, removes=np.array([500]))
            # The tier still serves: the bad frame never left the
            # dispatcher (its shadow rejected it).
            ticket = tier.submit_dynamic(handle, np.zeros((2, 3)), 0.5, 4)
            tier.flush()
            assert ticket.error is None
