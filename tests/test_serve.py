"""Serving-layer parity and behavior suite.

The coalescing service exists purely to batch *other callers'* requests,
so its one hard contract is bit-identity: every result a merged sweep
demuxes must equal the result of serving that request alone through
:meth:`repro.runtime.BatchedBallQuery.query`.  The randomized suite here
pins that across mixed radii, mixed K, duplicate clouds, and interleaved
distinct clouds, plus the new runtime pieces underneath (the merged
sweep's validation, the vectorized nearest-node pass, the relocated
DFS-rank depth guard) and the asyncio front-end's batching behavior
(micro-batch window, max-batch cut-off, backpressure, graceful drain).
"""

import asyncio

import numpy as np
import pytest

from repro.kdtree import build_kdtree
from repro.kdtree.build import KdTree
from repro.kdtree.exact import ball_query, knn_search
from repro.runtime import BatchedBallQuery, batched_nearest_node, frontier_sweep
from repro.serve import AsyncQueryFrontend, QueryService, replay_trace, synthetic_trace

RADII = (0.1, 0.2, 0.35, 0.6)
KS = (1, 4, 8, 16)


def random_requests(rng, clouds, n_requests, max_queries=40, far_fraction=0.15):
    """Draw ``(points, queries, radius, K)`` requests over ``clouds``."""
    requests = []
    for _ in range(n_requests):
        cloud = clouds[int(rng.integers(len(clouds)))]
        m = int(rng.integers(1, max_queries))
        queries = cloud[rng.integers(0, len(cloud), size=m)] + rng.normal(
            scale=0.05, size=(m, 3)
        )
        if rng.random() < far_fraction:
            queries = queries + 50.0  # empty neighborhoods
        requests.append(
            (cloud, queries, float(rng.choice(RADII)), int(rng.choice(KS)))
        )
    return requests


def assert_request_parity(requests, results):
    """Every served result equals the request served alone."""
    for (points, queries, radius, k), (got_idx, got_cnt) in zip(requests, results):
        engine = BatchedBallQuery(build_kdtree(points))
        want_idx, want_cnt = engine.query(queries, radius, k)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_cnt, want_cnt)


def linear_chain_tree(n):
    """A malformed degenerate tree: one right-spine chain of ``n`` nodes."""
    pts = np.stack(
        [np.arange(n, dtype=float), np.zeros(n), np.zeros(n)], axis=1
    )
    return KdTree(
        points=pts,
        point_id=np.arange(n, dtype=np.int64),
        split_dim=np.zeros(n, dtype=np.int8),
        left=np.full(n, -1, dtype=np.int64),
        right=np.concatenate([np.arange(1, n), [-1]]).astype(np.int64),
        depth=np.arange(n, dtype=np.int32),
        subtree_size=(n - np.arange(n)).astype(np.int64),
    )


class TestMergedSweep:
    def test_mixed_radius_and_k_same_cloud(self, rng):
        pts = rng.normal(size=(400, 3))
        engine = BatchedBallQuery(build_kdtree(pts))
        requests = [
            (pts[rng.integers(0, 400, size=int(rng.integers(1, 30)))], r, k)
            for r, k in [(0.1, 4), (0.35, 16), (0.2, 1), (0.6, 8), (0.1, 16)]
        ]
        queries = np.concatenate([q for q, _, _ in requests])
        radii = np.concatenate(
            [np.full(len(q), r) for q, r, _ in requests]
        )
        rid = np.repeat(np.arange(len(requests)), [len(q) for q, _, _ in requests])
        ks = [k for _, _, k in requests]
        merged = engine.query_merged(queries, radii, rid, ks)
        for (q, r, k), (got_idx, got_cnt) in zip(requests, merged):
            want_idx, want_cnt = engine.query(q, r, k)
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_cnt, want_cnt)

    def test_many_seeds(self, test_seed):
        # Independent randomized draws so one lucky geometry can't hide
        # a demux bug.
        for offset in range(8):
            rng = np.random.default_rng(test_seed + offset)
            pts = rng.normal(size=(int(rng.integers(2, 400)), 3))
            engine = BatchedBallQuery(build_kdtree(pts))
            n_req = int(rng.integers(1, 9))
            qs, radii, ks = [], [], []
            for _ in range(n_req):
                m = int(rng.integers(0, 40))  # zero-query requests included
                q = rng.normal(size=(m, 3)) * rng.uniform(0.3, 1.5)
                if rng.random() < 0.2:
                    q = q + 50.0
                qs.append(q)
                radii.append(float(rng.uniform(0.05, 0.8)))
                ks.append(int(rng.integers(1, 24)))
            queries = (
                np.concatenate(qs) if sum(len(q) for q in qs) else np.empty((0, 3))
            )
            per_row_radii = np.concatenate(
                [np.full(len(q), r) for q, r in zip(qs, radii)]
            )
            rid = np.repeat(np.arange(n_req), [len(q) for q in qs])
            merged = engine.query_merged(queries, per_row_radii, rid, ks)
            assert len(merged) == n_req
            for q, r, k, (got_idx, got_cnt) in zip(qs, radii, ks, merged):
                want_idx, want_cnt = engine.query(q, r, k)
                np.testing.assert_array_equal(got_idx, want_idx)
                np.testing.assert_array_equal(got_cnt, want_cnt)
                assert got_idx.shape == (len(q), k)

    def test_heterogeneous_radii_within_request(self, rng):
        # Per-query radii are row-independent: each row equals its own
        # single-query call.
        pts = rng.normal(size=(300, 3))
        engine = BatchedBallQuery(build_kdtree(pts))
        queries = pts[:20]
        radii = rng.uniform(0.05, 0.5, size=20)
        (got_idx, got_cnt), = engine.query_merged(
            queries, radii, np.zeros(20, dtype=int), [8]
        )
        for i in range(20):
            want_idx, want_cnt = engine.query(queries[i], float(radii[i]), 8)
            np.testing.assert_array_equal(got_idx[i : i + 1], want_idx)
            np.testing.assert_array_equal(got_cnt[i : i + 1], want_cnt)

    def test_dense_merged_sweep_stops_at_each_k_and_stays_identical(
        self, rng, sweep_level_sizes
    ):
        # Each request's rows stop at that request's K: no level holds
        # more than 2·K rows per query, and the results stay the frozen
        # search's.
        from repro.runtime import batched as batched_mod

        sizes = sweep_level_sizes(batched_mod)
        pts = rng.normal(size=(200, 3)) * 0.2  # dense cloud, huge radii
        engine = BatchedBallQuery(build_kdtree(pts))
        queries = np.concatenate([pts[:10], pts[10:25]])
        radii = np.concatenate([np.full(10, 1.5), np.full(15, 0.8)])
        rid = np.repeat([0, 1], [10, 15])
        merged = engine.query_merged(queries, radii, rid, [8, 4])
        for sl, r, k, (got_idx, got_cnt) in zip(
            (slice(0, 10), slice(10, 25)), (1.5, 0.8), (8, 4), [*merged]
        ):
            want_idx, want_cnt = ball_query(engine.tree, queries[sl], r, k)
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_cnt, want_cnt)
        assert sizes and max(sizes) <= 2 * (10 * 8 + 15 * 4)

    def test_scalar_radius_and_k_broadcast(self, rng):
        pts = rng.normal(size=(100, 3))
        engine = BatchedBallQuery(build_kdtree(pts))
        (got_idx, got_cnt), = engine.query_merged(
            pts[:7], 0.4, np.zeros(7, dtype=int), 5
        )
        want_idx, want_cnt = engine.query(pts[:7], 0.4, 5)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_cnt, want_cnt)

    def test_empty_request_list(self, rng):
        engine = BatchedBallQuery(build_kdtree(rng.normal(size=(10, 3))))
        assert engine.query_merged(np.empty((0, 3)), np.empty(0), np.empty(0), []) == []

    def test_validation(self, rng):
        engine = BatchedBallQuery(build_kdtree(rng.normal(size=(20, 3))))
        q = np.zeros((4, 3))
        with pytest.raises(ValueError):  # non-positive radius
            engine.query_merged(q, [0.1, -1.0, 0.1, 0.1], [0, 0, 1, 1], [4, 4])
        with pytest.raises(ValueError, match="radius must be positive"):  # NaN radius
            engine.query_merged(q, [0.1, 0.1, np.nan, 0.1], [0, 0, 1, 1], [4, 4])
        with pytest.raises(ValueError):  # non-positive K
            engine.query_merged(q, np.full(4, 0.1), [0, 0, 1, 1], [4, 0])
        for k in (2.5, np.nan, np.inf):  # K must be an integer >= 1
            with pytest.raises(ValueError, match="max_neighbors"):
                engine.query_merged(q, np.full(4, 0.1), [0, 0, 1, 1], [4, k])
        with pytest.raises(ValueError):  # radii shape mismatch
            engine.query_merged(q, np.full(3, 0.1), [0, 0, 1, 1], [4, 4])
        with pytest.raises(ValueError):  # request id out of range
            engine.query_merged(q, np.full(4, 0.1), [0, 0, 1, 2], [4, 4])
        with pytest.raises(ValueError):  # not grouped
            engine.query_merged(q, np.full(4, 0.1), [0, 1, 0, 1], [4, 4])


class TestNearestNodePass:
    def test_matches_knn_search(self, test_seed):
        for offset in range(6):
            rng = np.random.default_rng(test_seed + offset)
            n = int(rng.integers(1, 300))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.2, 2.0)
            if offset % 2:  # duplicate sites: maximal distance ties
                pts = np.repeat(pts[: max(1, n // 4)], 4, axis=0)
            tree = build_kdtree(pts)
            queries = np.concatenate(
                [rng.normal(size=(25, 3)), pts[: min(5, len(pts))]]
            )
            # All far outside the cloud: the greedy bound prunes from the
            # first level, and every node is a near-tie.
            far = rng.normal(size=(25, 3)) * 50.0 + rng.choice([-100.0, 100.0], size=3)
            for batch in (queries, far):
                want = np.array([knn_search(tree, q, 1)[0] for q in batch])
                np.testing.assert_array_equal(
                    batched_nearest_node(tree, batch), want
                )

    def test_all_empty_batch_parity(self, rng):
        # The zero-neighbor fallback path end to end: every row empty.
        pts = rng.normal(size=(128, 3))
        tree = build_kdtree(pts)
        queries = rng.normal(size=(30, 3)) + 50.0
        queries[10:20] = queries[:10]  # duplicates exercise the dedupe
        want_idx, want_cnt = ball_query(tree, queries, 0.2, 5)
        got_idx, got_cnt = BatchedBallQuery(tree).query(queries, 0.2, 5)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_cnt, want_cnt)
        assert (got_cnt == 0).all()


class TestDepthGuard:
    def test_frontier_sweep_rejects_deep_tree_eagerly(self):
        deep = linear_chain_tree(60)
        with pytest.raises(ValueError, match="DFS-rank depth limit"):
            frontier_sweep(deep, np.zeros((1, 3)), 0.5, 4)
        # The int64 DFS keys hold M * 2**height: at height 50, 2**13 rows.
        chain = linear_chain_tree(50)
        assert len(next(frontier_sweep(chain, np.zeros((2**13, 3)), 0.5, 4)).nodes) == 2**13
        with pytest.raises(ValueError, match="overflow the int64 DFS keys"):
            frontier_sweep(chain, np.zeros((2**13 + 1, 3)), 0.5, None)

    def test_query_paths_are_covered_by_the_moved_guard(self):
        from repro.runtime import TracedBallQuery

        deep = linear_chain_tree(60)
        with pytest.raises(ValueError, match="DFS-rank depth limit"):
            BatchedBallQuery(deep).query(np.zeros((1, 3)), 0.5, 4)
        with pytest.raises(ValueError, match="DFS-rank depth limit"):
            TracedBallQuery(deep).query(np.zeros((1, 3)), 0.5, 4)
        with pytest.raises(ValueError, match="DFS-rank depth limit"):
            batched_nearest_node(deep, np.zeros((1, 3)))

    def test_shallow_chain_still_works(self):
        # Below the limit the same malformed shape must keep working.
        chain = linear_chain_tree(20)
        idx, cnt = BatchedBallQuery(chain).query(np.zeros((1, 3)), 1.5, 4)
        want_idx, want_cnt = ball_query(chain, np.zeros((1, 3)), 1.5, 4)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(cnt, want_cnt)


class TestQueryService:
    def test_randomized_coalesced_parity(self, test_seed):
        # The acceptance criterion: coalesced results bit-identical to
        # independent per-request query calls — mixed radii, mixed K,
        # duplicate clouds, interleaved distinct clouds.
        for offset in range(4):
            rng = np.random.default_rng(test_seed + offset)
            clouds = [
                rng.normal(size=(int(rng.integers(50, 300)), 3))
                for _ in range(3)
            ]
            clouds.append(clouds[0].copy())  # duplicate content, new array
            requests = random_requests(rng, clouds, n_requests=16)
            service = QueryService()
            tickets = [service.submit(*request) for request in requests]
            service.flush()
            assert_request_parity(requests, [t.result() for t in tickets])

    def test_duplicate_clouds_share_one_sweep(self, rng):
        pts = rng.normal(size=(100, 3))
        service = QueryService()
        for i in range(6):
            # Same content through distinct array objects: one digest.
            service.submit(pts.copy(), pts[: 3 + i], 0.2 + 0.05 * i, 2 + i)
        assert service.pending == 6
        assert service.flush() == 1
        assert service.pending == 0
        assert service.stats.sweeps == 1
        assert service.stats.requests == 6
        assert service.stats.max_coalesced == 6
        assert service.stats.coalesce_factor == 6.0

    def test_interleaved_distinct_clouds_split_per_cloud(self, rng):
        a, b = rng.normal(size=(80, 3)), rng.normal(size=(80, 3))
        service = QueryService()
        requests = []
        for i in range(8):
            cloud = a if i % 2 == 0 else b
            requests.append((cloud, cloud[: 5 + i], 0.3, 6))
        tickets = [service.submit(*request) for request in requests]
        assert service.flush() == 2  # one merged sweep per distinct cloud
        assert service.stats.sweeps == 2
        assert service.stats.max_coalesced == 4
        assert_request_parity(requests, [t.result() for t in tickets])

    def test_request_is_served_against_its_cloud_at_flush(self, rng):
        # A caller writes to its cloud between submit and flush.  The
        # ticket is served against the content at flush, and that content
        # must not be filed under a digest of the content at submit: a
        # later request with the original content gets the frozen search.
        pts = rng.normal(size=(200, 3))
        original = pts.copy()
        queries = np.concatenate([original[:6], original[:6] + 5.0])
        service = QueryService()
        ticket = service.submit(pts, queries, 0.4, 8)
        pts += 5.0
        service.flush()
        want_idx, want_cnt = ball_query(build_kdtree(original + 5.0), queries, 0.4, 8)
        np.testing.assert_array_equal(ticket.result()[0], want_idx)
        np.testing.assert_array_equal(ticket.result()[1], want_cnt)
        got_idx, got_cnt = service.query(original, queries, 0.4, 8)
        want_idx, want_cnt = ball_query(build_kdtree(original), queries, 0.4, 8)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_cnt, want_cnt)

    def test_flush_digests_each_shared_cloud_once(self, rng, digest_calls):
        # A same-cloud flush hashes its cloud once, not once per request.
        pts = rng.normal(size=(300, 3))
        service = QueryService()
        tickets = [
            service.submit(pts, pts[i % 50 : i % 50 + 2], 0.3, 1 + i % 8)
            for i in range(256)
        ]
        assert digest_calls == []  # submit validates but does not hash
        assert service.flush() == 1
        assert digest_calls == [1]
        assert all(t.error is None for t in tickets)

    def test_ticket_result_before_flush_raises(self, rng):
        service = QueryService()
        ticket = service.submit(rng.normal(size=(20, 3)), np.zeros((1, 3)), 0.5, 4)
        assert not ticket.done
        with pytest.raises(RuntimeError):
            ticket.result()
        with pytest.raises(RuntimeError, match="not served"):
            ticket.wait
        service.flush()
        assert ticket.done and ticket.wait >= 0

    def test_submit_validation(self, rng):
        service = QueryService()
        pts = rng.normal(size=(20, 3))
        with pytest.raises(ValueError):
            service.submit(pts, pts[:2], -0.5, 4)
        with pytest.raises(ValueError):
            service.submit(pts, pts[:2], 0.5, 0)
        for k in (2.7, np.inf, np.nan):  # K must be an integer >= 1
            with pytest.raises(ValueError, match="max_neighbors"):
                service.submit(pts, pts[:2], 0.5, k)
        with pytest.raises(ValueError):  # query width mismatch
            service.submit(pts, np.zeros((3, 2)), 0.5, 4)
        with pytest.raises(ValueError):  # malformed cloud
            service.submit(np.zeros((0, 3)), pts[:2], 0.5, 4)
        with pytest.raises(ValueError):
            service.submit(np.zeros((4, 2)), pts[:2], 0.5, 4)
        assert service.pending == 0  # bad requests never enter the queue

    def test_submit_rejects_nonfinite_inputs(self, rng):
        # A NaN query row would error the whole merged sweep it joined,
        # settling every co-queued same-cloud ticket with its exception —
        # so non-finite values must fail their own caller at submit time.
        service = QueryService()
        pts = rng.normal(size=(20, 3))
        nan_pts = pts.copy()
        nan_pts[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            service.submit(nan_pts, pts[:2], 0.5, 4)
        inf_queries = pts[:4].copy()
        inf_queries[2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            service.submit(pts, inf_queries, 0.5, 4)
        with pytest.raises(ValueError, match="radius"):
            service.submit(pts, pts[:2], float("nan"), 4)
        with pytest.raises(ValueError, match="radius"):
            service.submit(pts, pts[:2], float("inf"), 4)
        assert service.pending == 0

    def test_failing_group_does_not_strand_other_groups(self, rng):
        # A request whose cloud cannot be served (here: a tree deeper than
        # the DFS-rank limit, injected past submit-time validation) must
        # settle its own ticket with the error while co-queued requests on
        # other clouds are still served.
        service = QueryService()
        pts = rng.normal(size=(50, 3))
        good = service.submit(pts, pts[:4], 0.3, 4)
        bad = service.submit(pts + 5.0, pts[:4], 0.3, 4)
        deep = linear_chain_tree(60)
        # Poison the bad request's tree-cache slot with the deep tree.
        from repro.runtime.session import geometry_digest

        service.session.trees.put(
            geometry_digest(np.asarray(pts + 5.0, dtype=np.float64)), deep
        )
        service.flush()
        assert good.done and good.error is None
        assert bad.done and bad.error is not None
        with pytest.raises(ValueError, match="DFS-rank depth limit"):
            bad.result()
        want_idx, want_cnt = ball_query(build_kdtree(pts), pts[:4], 0.3, 4)
        np.testing.assert_array_equal(good.result()[0], want_idx)
        np.testing.assert_array_equal(good.result()[1], want_cnt)
        assert service.stats.failed_requests == 1
        assert service.stats.requests == 1  # only the served request counts
        assert service.flush() == 0  # the failed ticket was settled, not requeued

    def test_all_failed_flush_reports_zero_sweeps(self, rng):
        # Every queued request fails (one poisoned cloud group): the flush
        # executed nothing, so it returns 0, counts no flush and no sweep,
        # and books every member under failed_requests — then the service
        # keeps serving later good requests as if nothing happened.
        from repro.runtime.session import geometry_digest

        service = QueryService()
        pts = rng.normal(size=(50, 3))
        tickets = [service.submit(pts, pts[: 2 + i], 0.3, 4) for i in range(3)]
        service.session.trees.put(
            geometry_digest(np.asarray(pts, dtype=np.float64)),
            linear_chain_tree(60),
        )
        assert service.flush() == 0
        assert service.stats.flushes == 0
        assert service.stats.sweeps == 0
        assert service.stats.requests == 0
        assert service.stats.failed_requests == 3
        for ticket in tickets:
            assert ticket.done and ticket.error is not None
        # The session cache still holds the poisoned tree for this digest,
        # so recover with a different cloud: the service itself is healthy.
        other = pts + 5.0
        good = service.submit(other, other[:4], 0.3, 4)
        assert service.flush() == 1
        assert service.stats.flushes == 1
        assert good.error is None
        want_idx, want_cnt = ball_query(build_kdtree(other), other[:4], 0.3, 4)
        np.testing.assert_array_equal(good.result()[0], want_idx)
        np.testing.assert_array_equal(good.result()[1], want_cnt)

    def test_flush_empty_queue_is_a_noop(self):
        service = QueryService()
        assert service.flush() == 0
        assert service.stats.flushes == 0
        assert service.stats.coalesce_factor == 0.0

    def test_stats_accumulate_and_clock_is_injectable(self, rng):
        ticks = iter(np.arange(0.0, 100.0, 0.5))
        service = QueryService(clock=lambda: float(next(ticks)))
        pts = rng.normal(size=(50, 3))
        service.submit(pts, pts[:4], 0.3, 4)
        service.submit(pts, pts[:7], 0.2, 8)
        service.flush()
        assert service.stats.queries == 11
        assert service.stats.mean_wait > 0
        assert service.stats.throughput > 0
        assert service.stats.serve_time > 0


def run(coro):
    return asyncio.run(coro)


class TestAsyncFrontend:
    def test_concurrent_submits_parity_and_coalescing(self, rng):
        clouds = [rng.normal(size=(120, 3)) for _ in range(2)]
        requests = random_requests(rng, clouds, n_requests=12)

        async def main():
            async with AsyncQueryFrontend(window=0.002, max_batch=32) as frontend:
                return await asyncio.gather(
                    *[frontend.submit(*request) for request in requests]
                ), frontend.service.stats

        results, stats = run(main())
        assert_request_parity(requests, results)
        # All 12 submits land inside one micro-batch window: at most one
        # merged sweep per distinct cloud.
        assert stats.sweeps <= 2
        assert stats.requests == 12
        assert stats.coalesce_factor >= 6.0

    def test_max_batch_cuts_the_window_short(self, rng):
        pts = rng.normal(size=(60, 3))

        async def main():
            # A window far longer than the test: only the max_batch cut
            # can flush, so the await below completing proves it did.
            async with AsyncQueryFrontend(window=30.0, max_batch=4) as frontend:
                results = await asyncio.gather(
                    *[frontend.submit(pts, pts[:3], 0.3, 4) for _ in range(4)]
                )
                return results, frontend.service.stats.flushes

        results, flushes = run(main())
        assert len(results) == 4 and flushes == 1

    def test_backpressure_bounds_pending(self, rng):
        pts = rng.normal(size=(60, 3))

        async def main():
            async with AsyncQueryFrontend(
                window=0.0, max_batch=2, max_pending=2
            ) as frontend:
                results = await asyncio.gather(
                    *[frontend.submit(pts, pts[:2], 0.3, 4) for _ in range(10)]
                )
                return results, frontend.service.stats

        results, stats = run(main())
        assert len(results) == 10
        # At most 2 requests may ever be in flight, so no merged batch can
        # exceed 2 and the 10 submits need at least 5 flushes.
        assert stats.max_coalesced <= 2
        assert stats.flushes >= 5

    def test_backpressure_never_overshoots_the_bound(self, rng):
        # The broadcast-Event wakeup this replaces released *every* parked
        # submitter on one flush, so a burst could overshoot max_pending.
        # Spy on the underlying service.submit to observe the queue depth
        # at every admission: it must never exceed the bound.
        pts = rng.normal(size=(60, 3))
        depths = []

        async def main():
            async with AsyncQueryFrontend(
                window=0.0, max_batch=4, max_pending=4
            ) as frontend:
                inner_submit = frontend.service.submit

                def spying_submit(*args, **kwargs):
                    depths.append(frontend.pending)
                    return inner_submit(*args, **kwargs)

                frontend.service.submit = spying_submit
                results = await asyncio.gather(
                    *[frontend.submit(pts, pts[:2], 0.3, 4) for _ in range(30)]
                )
                return results

        results = run(main())
        assert len(results) == 30 and len(depths) == 30
        # frontend.pending at admission time is the depth *before* this
        # request joins, so the bound is max_pending - 1.
        assert max(depths) <= 3

    def test_backpressured_submitters_all_complete_under_timeout(self, rng):
        # Regression for the lost-wakeup race: _space.clear() before
        # wait() could swallow a concurrent set(), parking the last
        # submitters forever.  With many more submitters than capacity,
        # every one must still complete promptly.
        pts = rng.normal(size=(40, 3))

        async def main():
            async with AsyncQueryFrontend(
                window=0.0, max_batch=2, max_pending=2
            ) as frontend:
                return await asyncio.wait_for(
                    asyncio.gather(
                        *[frontend.submit(pts, pts[:2], 0.3, 4) for _ in range(40)]
                    ),
                    timeout=60.0,
                )

        results = run(main())
        assert len(results) == 40
        for indices, counts in results:
            assert indices.shape == (2, 4)

    def test_drain_serves_queue_then_rejects(self, rng):
        pts = rng.normal(size=(60, 3))

        async def main():
            frontend = AsyncQueryFrontend(window=10.0, max_batch=64)
            await frontend.start()
            submits = [
                asyncio.ensure_future(frontend.submit(pts, pts[:2], 0.3, 4))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # let the submits queue up
            await frontend.drain()  # cuts the 10 s window short
            results = await asyncio.gather(*submits)
            with pytest.raises(RuntimeError, match="draining"):
                await frontend.submit(pts, pts[:2], 0.3, 4)
            return results

        results = run(main())
        assert len(results) == 3
        for indices, counts in results:
            assert indices.shape == (2, 4)

    def test_drain_fails_parked_submitters_fast(self, rng):
        # Submitters parked on backpressure when drain() lands must be
        # woken and failed immediately — not left awaiting space that a
        # draining frontend will never free for them.
        pts = rng.normal(size=(60, 3))

        async def main():
            frontend = AsyncQueryFrontend(
                window=30.0, max_batch=64, max_pending=64
            )
            await frontend.start()
            submits = [
                asyncio.ensure_future(frontend.submit(pts, pts[:2], 0.3, 4))
                for _ in range(70)  # 64 queue, 6 park on backpressure
            ]
            await asyncio.sleep(0)
            assert frontend.pending == 64
            await asyncio.wait_for(frontend.drain(), timeout=60.0)
            return await asyncio.gather(*submits, return_exceptions=True)

        outcomes = run(main())
        served = [o for o in outcomes if not isinstance(o, Exception)]
        failed = [o for o in outcomes if isinstance(o, Exception)]
        # The 64 queued requests are served by the drain flush; the 6
        # parked ones fail fast with the draining error.
        assert len(served) == 64 and len(failed) == 6
        for outcome in failed:
            assert isinstance(outcome, RuntimeError)
            assert "draining" in str(outcome)
        for indices, counts in served:
            assert indices.shape == (2, 4)

    def test_submit_before_start_raises(self, rng):
        pts = rng.normal(size=(20, 3))

        async def main():
            frontend = AsyncQueryFrontend()
            with pytest.raises(RuntimeError, match="not started"):
                await frontend.submit(pts, pts[:2], 0.3, 4)

        run(main())

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AsyncQueryFrontend(window=-1.0)
        with pytest.raises(ValueError):
            AsyncQueryFrontend(max_batch=0)
        with pytest.raises(ValueError):
            AsyncQueryFrontend(max_batch=8, max_pending=4)


class TestTraceReplay:
    def test_synthetic_trace_replay_is_identical(self):
        trace = synthetic_trace(
            num_requests=18, num_clouds=2, cloud_size=128,
            queries_per_request=8, seed=3,
        )
        report = replay_trace(trace, window=0.001, max_batch=16)
        assert report.results_identical
        assert report.requests == 18
        assert report.stats.requests == 18
        assert report.stats.coalesce_factor > 1.0

    def test_synthetic_trace_validation(self):
        with pytest.raises(ValueError):
            synthetic_trace(num_requests=0)
        with pytest.raises(ValueError):
            synthetic_trace(queries_per_request=0)
