"""Sharded multi-process serving tier: parity, recovery, and stats suite.

The sharded tier's one hard contract mirrors the single-process service:
every result a worker shard demuxes must be bit-identical to serving the
request alone (and therefore to the single-process ``QueryService``, whose
parity the serving suite already pins).  On top of that this suite
exercises what only the multi-process tier has: the ``register`` digest
handle fast path, the per-shard stats roll-up, and — RD-MCL style — a
worker killed mid-flush being detected, respawned, re-registered, and its
orphaned requests requeued, with the flush still settling every ticket.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.kdtree import build_kdtree
from repro.kdtree.exact import ball_query
from repro.runtime import BatchedBallQuery
from repro.runtime.session import geometry_digest
from repro.serve import (
    QueryService,
    ServiceStats,
    ShardedQueryService,
    replay_trace,
    synthetic_trace,
)
from repro.serve.sharded import WorkerProcess
from repro.serve.worker import _serve_batch


@pytest.fixture
def sent_jobs(monkeypatch):
    """The jobs of every batch message the dispatcher sends, in order."""
    jobs = []
    real = WorkerProcess.send

    def recording(self, message):
        if message[0] == "batch":
            jobs.extend(message[2])
        return real(self, message)

    monkeypatch.setattr(WorkerProcess, "send", recording)
    return jobs


def assert_totals_are_shard_sums(stats):
    """The tier totals are a ``ServiceStats`` summed over the shards."""
    assert isinstance(stats, ServiceStats)
    for name in ("requests", "queries", "sweeps", "flushes", "failed_requests"):
        assert getattr(stats, name) == sum(getattr(s, name) for s in stats.shards), name
    for name in ("serve_time", "wait_time"):
        want = sum(getattr(s, name) for s in stats.shards)
        assert getattr(stats, name) == pytest.approx(want), name
    assert stats.max_coalesced == max(s.max_coalesced for s in stats.shards)


def assert_ticket_parity(requests, tickets):
    """Every settled ticket equals its request served alone."""
    for (points, queries, radius, k), ticket in zip(requests, tickets):
        got_idx, got_cnt = ticket.result()
        engine = BatchedBallQuery(build_kdtree(points))
        want_idx, want_cnt = engine.query(queries, radius, k)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_cnt, want_cnt)


def draw_requests(rng, clouds, n_requests, max_queries=30):
    requests = []
    for _ in range(n_requests):
        cloud = clouds[int(rng.integers(len(clouds)))]
        m = int(rng.integers(1, max_queries))
        queries = cloud[rng.integers(0, len(cloud), size=m)] + rng.normal(
            scale=0.05, size=(m, 3)
        )
        requests.append(
            (cloud, queries, float(rng.uniform(0.1, 0.5)), int(rng.integers(1, 17)))
        )
    return requests


class TestShardedParity:
    def test_randomized_mixed_cloud_parity(self, test_seed):
        # The acceptance criterion: randomized mixed-cloud traces served
        # by the sharded tier are bit-identical to the single-process
        # service (same trace, same arrival order).
        for offset in range(2):
            rng = np.random.default_rng(test_seed + offset)
            clouds = [
                rng.normal(size=(int(rng.integers(50, 200)), 3)) for _ in range(4)
            ]
            clouds.append(clouds[0].copy())  # duplicate content, one digest
            requests = draw_requests(rng, clouds, n_requests=14)
            single = QueryService()
            single_tickets = [single.submit(*r) for r in requests]
            single.flush()
            with ShardedQueryService(num_workers=2) as sharded:
                tickets = [sharded.submit(*r) for r in requests]
                sharded.flush()
                for st, t in zip(single_tickets, tickets):
                    np.testing.assert_array_equal(st.result()[0], t.result()[0])
                    np.testing.assert_array_equal(st.result()[1], t.result()[1])
            assert_ticket_parity(requests, tickets)

    def test_same_cloud_requests_still_coalesce_on_their_shard(self, rng):
        pts = rng.normal(size=(100, 3))
        with ShardedQueryService(num_workers=3) as service:
            tickets = [
                service.submit(pts, pts[: 3 + i], 0.2 + 0.05 * i, 2 + i)
                for i in range(6)
            ]
            assert service.pending == 6
            assert service.flush() == 1  # one merged sweep, one shard
            assert service.pending == 0
        assert service.stats.sweeps == 1
        assert service.stats.requests == 6
        assert service.stats.max_coalesced == 6
        assert service.stats.coalesce_factor == 6.0
        # exactly one shard did all the work
        active = [s for s in service.stats.shards if s.requests]
        assert len(active) == 1 and active[0].flushes == 1
        assert_ticket_parity(
            [(pts, pts[: 3 + i], 0.2 + 0.05 * i, 2 + i) for i in range(6)], tickets
        )


class TestRegisterHandles:
    def test_register_returns_stable_digest_handle(self, rng):
        pts = rng.normal(size=(80, 3))
        with ShardedQueryService(num_workers=2) as service:
            handle = service.register(pts)
            assert service.register(pts.copy()) == handle  # content-keyed
            ticket = service.submit_handle(handle, pts[:5], 0.3, 4)
            service.flush()
            assert_ticket_parity([(pts, pts[:5], 0.3, 4)], [ticket])

    def test_submit_by_points_uses_registered_handle(self, rng, sent_jobs):
        # A submit whose points are a registered cloud at flush must ship
        # no geometry (the job payload carries None).
        pts = rng.normal(size=(80, 3))
        with ShardedQueryService(num_workers=2) as service:
            handle = service.register(pts)
            service.submit(pts, pts[:4], 0.3, 4)
            unregistered = pts + 3.0
            service.submit(unregistered, pts[:4], 0.3, 4)
            # A shard sweeps all its static clouds at once.
            digests = (handle, geometry_digest(unregistered))
            assert service.flush() == len({service._slot_for(d) for d in digests})
        assert [job[2] is None for job in sent_jobs] == [True, False]

    def test_unknown_handle_rejected_at_dispatch(self, rng):
        with ShardedQueryService(num_workers=2) as service:
            with pytest.raises(KeyError, match="register"):
                service.submit_handle("deadbeef" * 4, np.zeros((1, 3)), 0.3, 4)
            assert service.pending == 0

    def test_register_validates_like_submit(self, rng):
        with ShardedQueryService(num_workers=2) as service:
            with pytest.raises(ValueError):
                service.register(np.zeros((0, 3)))
            bad = np.ones((10, 3))
            bad[3, 1] = np.nan
            with pytest.raises(ValueError, match="finite"):
                service.register(bad)

    def test_dispatcher_validation_mirrors_single_process(self, rng):
        pts = rng.normal(size=(30, 3))
        nan_queries = np.zeros((2, 3))
        nan_queries[1, 0] = np.inf
        with ShardedQueryService(num_workers=2) as service:
            for args in [
                (pts, pts[:2], -0.5, 4),
                (pts, pts[:2], np.nan, 4),
                (pts, pts[:2], 0.5, 0),
                (pts, pts[:2], 0.5, 2.7),
                (pts, pts[:2], 0.5, np.inf),
                (pts, pts[:2], 0.5, np.nan),
                (pts, nan_queries, 0.5, 4),
            ]:
                with pytest.raises(ValueError):
                    service.submit(*args)
            assert service.pending == 0  # bad requests never enqueue


class TestDeadWorkerRecovery:
    def test_worker_killed_mid_flush_is_respawned_and_requeued(self, rng, sent_jobs):
        # The RD-MCL discipline end to end: park shard 0 in a long sleep
        # so its dispatched batch sits unanswered, SIGKILL it mid-flush,
        # and require the dispatcher to respawn the shard, re-register its
        # clouds, requeue the orphaned requests, and settle every ticket
        # with results bit-identical to serving each request alone.
        with ShardedQueryService(num_workers=2, poll_interval=0.02) as service:
            by_slot = {0: [], 1: []}
            while min(len(v) for v in by_slot.values()) < 2:
                cloud = rng.normal(size=(60, 3))
                by_slot[service._slot_for(service.register(cloud))].append(cloud)
            clouds = by_slot[0] + by_slot[1]
            requests = [(c, c[:5], 0.3, 4) for c in clouds for _ in range(2)]
            tickets = [service.submit(*r) for r in requests]
            service._workers[0].send(("sleep", 60.0))
            killer = threading.Timer(0.3, service._workers[0].kill)
            killer.start()
            try:
                service.flush()
            finally:
                killer.cancel()
            assert service.stats.respawns == 1
            assert service.stats.requeued_requests == 2 * len(by_slot[0])
            assert_totals_are_shard_sums(service.stats)
            assert all(t.done for t in tickets)
            assert_ticket_parity(requests, tickets)
            # The fresh incarnation owns its re-registered clouds: a
            # handle-only submit for a slot-0 cloud must serve cleanly.
            sent_jobs.clear()
            again = service.submit(clouds[0], clouds[0][:3], 0.25, 4)
            service.flush()
            assert [job[2] for job in sent_jobs] == [None]
            assert again.error is None
            assert_ticket_parity([(clouds[0], clouds[0][:3], 0.25, 4)], [again])
        assert service.stats.failed_requests == 0

    def test_worker_dead_between_flushes_is_respawned_on_dispatch(self, rng):
        pts = rng.normal(size=(50, 3))
        with ShardedQueryService(num_workers=1, poll_interval=0.02) as service:
            handle = service.register(pts)
            first = service.submit_handle(handle, pts[:4], 0.3, 4)
            service.flush()
            assert first.error is None
            service._workers[0].kill()
            second = service.submit_handle(handle, pts[:6], 0.2, 8)
            service.flush()  # dispatch-time liveness check respawns
            assert service.stats.respawns == 1
            assert service.stats.requeued_requests == 0  # nothing in flight
            assert_ticket_parity([(pts, pts[:6], 0.2, 8)], [second])

    def test_respawn_reships_the_registered_content(self, rng):
        # A respawned shard is re-sent every cloud registered on it.  It
        # must get the content that was registered, not what the caller's
        # array holds after a later write.
        pts = rng.normal(size=(50, 3))
        registered = pts.copy()
        queries = np.concatenate([registered[:4], registered[:4] + 5.0])
        with ShardedQueryService(num_workers=1, poll_interval=0.02) as service:
            handle = service.register(pts)
            pts += 5.0
            service._workers[0].kill()
            ticket = service.submit_handle(handle, queries, 0.3, 4)
            service.flush()
            assert service.stats.respawns == 1
            assert_ticket_parity([(registered, queries, 0.3, 4)], [ticket])


class TestWorkerBatchDigests:
    """A worker's batch validates each cloud it serves once, not once per
    job, and hashes none: every job carries the dispatcher's digest."""

    def test_each_batch_digests_its_cloud_once(self, rng, digest_calls, call_rows):
        import repro.serve.service as service_module

        checks = call_rows(service_module, "validate_points", "points")
        pts = rng.normal(size=(120, 3))
        digest = geometry_digest(pts)
        requests = [(pts, pts[i % 40 : i % 40 + 3], 0.3, 1 + i % 6) for i in range(64)]
        service = QueryService()
        # 64 jobs that ship one cloud, after the pickle round trip of the
        # inbox: every job holds the same unpickled array.
        shipped = pickle.loads(
            pickle.dumps([(i, digest, *request) for i, request in enumerate(requests)])
        )
        reply = _serve_batch(service, {}, 0, 0, shipped)
        assert (len(digest_calls), len(checks)) == (0, 1)
        # 64 handle-only jobs on one registered cloud, unpickled as the
        # register message delivers it: each job submits that one array.
        digest_calls.clear()
        checks.clear()
        handle_only = [(i, digest, None, *request[1:]) for i, request in enumerate(requests)]
        registered = {digest: pickle.loads(pickle.dumps(pts))}
        again = _serve_batch(service, registered, 0, 1, handle_only)
        assert (len(digest_calls), len(checks)) == (0, 1)
        engine = BatchedBallQuery(build_kdtree(pts))
        for *_, results, delta in (reply, again):
            assert delta["sweeps"] == 1
            got = [(idx, cnt) for _, idx, cnt, err in results if err is None]
            assert len(got) == len(requests)
            for (idx, cnt), (_, queries, radius, k) in zip(got, requests):
                want_idx, want_cnt = engine.query(queries, radius, k)
                np.testing.assert_array_equal(idx, want_idx)
                np.testing.assert_array_equal(cnt, want_cnt)


class TestDispatcherWindow:
    """The dispatcher queues through ``QueryService``'s request window:
    it checks and hashes a cloud once per flush, at flush."""

    def test_same_cloud_submits_check_and_hash_once_per_flush(self, rng, call_rows):
        import repro.serve.service as service_module
        import repro.serve.sharded as sharded_module

        pts = rng.normal(size=(4096, 3))
        requests = [(pts, pts[i % 50 : i % 50 + 2], 0.3, 1 + i % 8) for i in range(64)]
        with ShardedQueryService(num_workers=1) as service:
            # Counted after the worker forked: these are the dispatcher's.
            calls = {
                name: [call_rows(module, name, arg) for module in (service_module, sharded_module)]
                for name, arg in [("validate_points", "points"), ("geometry_digest", "arrays")]
            }
            tickets = [service.submit(*request) for request in requests]
            assert service.flush() == 1
        for name, (in_service, in_dispatcher) in calls.items():
            assert len(in_service) + len(in_dispatcher) == 1, name
        assert_ticket_parity(requests, tickets)

    def test_write_between_submit_and_flush_matches_single_process(self, rng):
        # A registered cloud's copy is submitted, then written before the
        # flush: both tiers serve the content at flush, not the snapshot
        # the registration pinned.
        pts = rng.normal(size=(200, 3))
        queries = pts[:4].copy()
        single = QueryService()
        results = []
        with ShardedQueryService(num_workers=1) as sharded:
            sharded.register(pts)
            for service in (single, sharded):
                arr = pts.copy()
                ticket = service.submit(arr, queries, 0.3, 4)
                arr += 5.0
                service.flush()
                results.append(ticket.result())
        want_idx, want_cnt = ball_query(build_kdtree(pts + 5.0), queries, 0.3, 4)
        for idx, cnt in results:
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(cnt, want_cnt)


class TestShardedLifecycleAndStats:
    def test_stats_rollup_across_shards(self, rng):
        clouds = [rng.normal(size=(60, 3)) for _ in range(5)]
        requests = [(c, c[:4], 0.3, 4) for c in clouds for _ in range(2)]
        with ShardedQueryService(num_workers=2) as service:
            tickets = [service.submit(*r) for r in requests]
            executed = service.flush()
            # One merged sweep per shard, over all of its clouds.
            per_shard = np.bincount(
                [service._slot_for(geometry_digest(c)) for c in clouds], minlength=2
            )
        stats = service.stats
        assert executed == np.count_nonzero(per_shard)
        assert stats.sweeps == executed
        assert stats.requests == 10
        assert stats.queries == 40
        assert stats.coalesce_factor == 10 / executed
        assert stats.max_coalesced == 2 * per_shard.max()
        assert stats.failed_requests == 0
        assert stats.mean_wait > 0 and stats.wait_time > 0
        assert stats.serve_time > 0 and stats.throughput > 0
        assert len(stats.shards) == 2
        assert_totals_are_shard_sums(stats)
        assert all(t.done for t in tickets)

    def test_flush_empty_is_noop_and_close_is_idempotent(self):
        service = ShardedQueryService(num_workers=1)
        assert service.flush() == 0
        service.close()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(np.zeros((4, 3)), np.zeros((1, 3)), 0.3, 4)
        with pytest.raises(RuntimeError, match="closed"):
            service.flush()

    def test_close_settles_undispatched_tickets(self, rng):
        pts = rng.normal(size=(30, 3))
        service = ShardedQueryService(num_workers=1)
        ticket = service.submit(pts, pts[:2], 0.3, 4)
        service.close()
        assert ticket.done and ticket.error is not None
        with pytest.raises(RuntimeError, match="closed before flush"):
            ticket.result()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedQueryService(num_workers=0)
        with pytest.raises(ValueError):
            ShardedQueryService(num_workers=1, heartbeat_timeout=0)
        with pytest.raises(ValueError):
            ShardedQueryService(num_workers=1, poll_interval=0)


class TestShardedTraceReplay:
    def test_sharded_replay_is_identical(self):
        trace = synthetic_trace(
            num_requests=16, num_clouds=3, cloud_size=128,
            queries_per_request=8, seed=5,
        )
        report = replay_trace(trace, num_workers=2)
        assert report.results_identical
        assert report.requests == 16
        stats = report.stats["sharded"]
        assert len(stats.shards) == 2
        assert stats.requests == 16
        assert stats.failed_requests == 0
        assert stats.coalesce_factor > 1.0
        assert report.speedup("sharded") > 0


def _echo_worker(inbox, outbox, heartbeat):
    """Module-level worker target for the WorkerProcess lifecycle test."""
    import queue as queue_mod
    import time as time_mod

    heartbeat.value = time_mod.monotonic()
    while True:
        try:
            message = inbox.get(timeout=0.05)
        except queue_mod.Empty:
            heartbeat.value = time_mod.monotonic()
            continue
        if message[0] == "stop":
            break
        outbox.put(("echo", message))
        heartbeat.value = time_mod.monotonic()


class TestWorkerProcess:
    def test_lifecycle_heartbeat_and_respawn(self):
        worker = WorkerProcess(_echo_worker, name="echo")
        assert not worker.is_alive()
        assert worker.heartbeat_age() == float("inf")
        worker.start()
        try:
            assert worker.is_alive()
            assert worker.generation == 1
            assert worker.heartbeat_age() < 10.0  # spawn counts as a beat
            worker.send(("ping", 1))
            assert worker.receive(timeout=10.0) == ("echo", ("ping", 1))
            with pytest.raises(RuntimeError, match="already running"):
                worker.start()
            worker.kill()
            assert not worker.is_alive()
            worker.respawn()
            assert worker.is_alive() and worker.generation == 2
            worker.send(("ping", 2))
            # The respawn must survive the nastiest kill timing: the old
            # incarnation died microseconds after a put, possibly holding
            # its outbox write lock — which is exactly why mailboxes are
            # per-incarnation and this receive cannot deadlock.
            assert worker.receive(timeout=10.0) == ("echo", ("ping", 2))
        finally:
            worker.stop()
        assert not worker.is_alive()
