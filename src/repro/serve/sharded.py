"""The sharded multi-process serving tier: dispatcher, shards, recovery.

:class:`QueryService` + :class:`~repro.serve.AsyncQueryFrontend` coalesce
brilliantly but live in one process behind one GIL: a flood of *distinct*
clouds is swept by one process.  :class:`ShardedQueryService` is the
horizontal promotion — a dispatcher in the caller's process routes every
request **by geometry digest** to one of N long-lived serving worker
processes (:mod:`repro.serve.worker`), each owning a shard of the
registered clouds and serving its batches through its own in-process
coalescing :class:`QueryService`.  Distinct clouds land on distinct
shards and flush genuinely in parallel; same-cloud requests still land on
the same shard and still coalesce, and each shard sweeps all the clouds
of a batch as one merged sweep, so the sharded tier's results are
bit-identical to the single-process service by construction (the sharded
parity suite pins this).

Both tiers queue through one request window (``_RequestWindow`` in
:mod:`repro.serve.service`): settings and queries are validated at
submit, a cloud array is checked once per window, and each cloud is
hashed at flush, once per distinct array, so a request is served against
its cloud's content at flush on either tier.  The dispatcher then routes
each group by its digest.

The ``register(points) -> handle`` API is the repeat-caller fast path: a
registered cloud is shipped to its shard once and pinned in the worker's
tree cache, after which requests for that cloud (by handle, or by points
whose content at flush matches) carry only the query batch — no geometry
re-ship, and no hash at all when the handle is used directly.

Failure recovery follows the master/worker discipline of RD-MCL's worker
suite: every worker carries a heartbeat (written by a side thread, so a
long sweep still reads alive); the dispatcher's flush loop age-checks the
heartbeat and process liveness of every shard it is waiting on, and a
dead worker is respawned in place — its shard's registered clouds are
re-shipped and its orphaned in-flight batches requeued onto the fresh
incarnation.  Each shard runs in a :class:`WorkerProcess`: one child
process with per-incarnation mailboxes (a reply that raced the kill dies
with the old outbox and the batch is simply served again — deterministic
serving makes the do-over bit-identical), so a crashed worker can never
poison a queue another shard depends on.  :class:`ShardedStats` is a
:class:`~repro.serve.ServiceStats` of tier totals that also keeps one
entry per shard and counts respawns and requeues.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..runtime.session import geometry_digest
from .service import QueryTicket, ServiceStats, _RequestWindow, validate_points
from .worker import serving_worker_main

__all__ = ["ShardedQueryService", "ShardedStats", "WorkerProcess"]


@dataclass
class ShardedStats(ServiceStats):
    """Tier totals under the :class:`ServiceStats` names, per-shard entries,
    and tier-level recovery counters.

    The dispatcher updates each total next to its shard's entry as batch
    replies settle, so both survive worker respawns and every total equals
    its sum over ``shards`` (``max_coalesced``: its maximum).
    ``serve_time`` sums *worker-side* serve time across shards (total
    serving CPU, not wall clock — shards serve in parallel); ``wait_time``
    is dispatcher-measured submit-to-settle latency, so it includes
    shipping and queueing.
    """

    shards: List[ServiceStats] = field(default_factory=list)
    respawns: int = 0  # dead workers replaced with a fresh process
    requeued_requests: int = 0  # orphaned in-flight requests re-dispatched


class WorkerProcess:
    """One long-lived, respawnable worker process with mailbox + heartbeat.

    Parameters
    ----------
    target:
        Module-level callable run in the child as ``target(inbox, outbox,
        heartbeat, *args)`` (module-level so spawn platforms can pickle
        it).  It should consume messages from ``inbox`` in a loop, reply
        on ``outbox``, and store ``time.monotonic()`` into
        ``heartbeat.value`` periodically — ideally from a side thread, so
        a long-running job does not read as a dead worker.
    args:
        Extra positional arguments appended after ``(inbox, outbox,
        heartbeat)``.  Only things that must *survive* a respawn belong
        here; the mailboxes and heartbeat are recreated fresh by every
        :meth:`start`.
    ctx:
        ``multiprocessing`` context (platform default when omitted: fork
        on Linux, spawn on macOS / Windows).
    clock:
        Monotonic time source for spawn timestamps and heartbeat aging
        (injectable so staleness logic can be tested without sleeping;
        the child process keeps writing real ``time.monotonic`` beats
        regardless, so only use a fake clock with workers that share it).

    Both mailboxes are private to one incarnation *by design*, not
    convenience: a queue is only as healthy as the processes that touch
    its locks, and a worker SIGKILL-ed mid-``put`` dies holding the
    queue's write lock — poisoning it for every other writer, forever.
    Sharing one result queue across workers would let a single crash hang
    the whole tier (on a loaded box the feeder thread reliably still
    holds the lock when a kill lands right after a reply).  Per-worker
    queues confine the damage: the poisoned pair is abandoned with the
    dead incarnation and the fresh one starts with clean locks.
    """

    def __init__(
        self,
        target: Callable[..., None],
        args: Tuple = (),
        name: Optional[str] = None,
        ctx=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._ctx = ctx if ctx is not None else multiprocessing.get_context()
        self._target = target
        self._args = tuple(args)
        self._clock = clock
        self.name = name
        self.generation = 0  # how many times this slot has been (re)spawned
        self.started_at = 0.0
        self.inbox = None
        self.outbox = None
        self.heartbeat = None
        self._process = None

    def start(self) -> "WorkerProcess":
        """Spawn the worker with fresh mailboxes and heartbeat."""
        if self.is_alive():
            raise RuntimeError(f"worker {self.name or ''} already running")
        self.inbox = self._ctx.Queue()
        self.outbox = self._ctx.Queue()
        self.heartbeat = self._ctx.Value("d", 0.0)
        self._process = self._ctx.Process(
            target=self._target,
            args=(self.inbox, self.outbox, self.heartbeat) + self._args,
            name=self.name,
            daemon=True,  # a crashed parent must not leave workers behind
        )
        self._process.start()
        self.generation += 1
        self.started_at = self._clock()
        return self

    def send(self, message) -> None:
        """Enqueue one (picklable) message on the worker's inbox."""
        if self.inbox is None:
            raise RuntimeError("worker not started")
        self.inbox.put(message)

    def receive(self, timeout: Optional[float] = None):
        """Pop one reply from this incarnation's outbox.

        Raises :class:`queue.Empty` on timeout (``timeout=None`` returns
        immediately if nothing is queued — a non-blocking poll).
        """
        if self.outbox is None:
            raise RuntimeError("worker not started")
        if timeout is None:
            return self.outbox.get_nowait()
        return self.outbox.get(timeout=timeout)

    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        """Seconds since the worker's last sign of life.

        The spawn instant counts as a beat, so a freshly (re)started
        worker that has not reached its loop yet is never mistaken for a
        stale one; ``inf`` before the first :meth:`start`.
        """
        beat = float(self.heartbeat.value) if self.heartbeat is not None else 0.0
        beat = max(beat, self.started_at)
        if beat <= 0.0:
            return float("inf")
        now = self._clock() if now is None else now
        return max(0.0, now - beat)

    def respawn(self) -> "WorkerProcess":
        """Replace a dead (or hung) incarnation in place.

        The old process is killed outright and both mailboxes are
        abandoned with it — messages queued to (or replies pending from)
        the dead incarnation are *lost*, and requeueing them onto the
        fresh one is deliberately the caller's job (only the caller knows
        which were already answered).
        """
        self.kill()
        return self.start()

    def stop(self, message=("stop",), timeout: float = 5.0) -> None:
        """Graceful shutdown: send ``message``, join, kill on overrun."""
        if self._process is None:
            return
        if self._process.is_alive():
            try:
                self.send(message)
            except (OSError, ValueError):  # inbox already torn down
                pass
            self._process.join(timeout)
        self.kill()

    def kill(self) -> None:
        """Hard-stop the worker (SIGKILL) and reap it."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
        if self._process is not None:
            self._process.join()
        for mailbox in (self.inbox, self.outbox):
            if mailbox is not None:
                # Drop the mailbox without joining its feeder thread: the
                # other end is gone, so unflushed messages never drain.
                mailbox.close()
                mailbox.cancel_join_thread()
        self.inbox = None
        self.outbox = None


class ShardedQueryService:
    """Digest-sharded multi-process serving tier (see module docs).

    Parameters
    ----------
    num_workers:
        Serving worker processes (= shards).  Routing is static:
        ``shard(digest) = int(digest[:16], 16) % num_workers``.
    heartbeat_timeout:
        Seconds without a heartbeat (or other sign of life) after which a
        worker the flush is waiting on is declared dead and respawned;
        ``None`` disables staleness checks and trusts process liveness
        alone.  A SIGKILL-ed worker is caught by liveness immediately
        either way.
    poll_interval:
        Result-queue poll timeout inside :meth:`flush`; also the cadence
        of dead-worker checks while waiting.
    clock:
        Monotonic time source for the dispatcher-side latency stats
        (injectable for tests, mirroring :class:`QueryService`).
    ctx:
        ``multiprocessing`` context override (platform default otherwise).
    """

    def __init__(
        self,
        num_workers: int = 2,
        heartbeat_timeout: Optional[float] = 10.0,
        poll_interval: float = 0.02,
        clock: Callable[[], float] = time.perf_counter,
        ctx=None,
    ):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.num_workers = int(num_workers)
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = float(poll_interval)
        self.stats = ShardedStats(
            shards=[ServiceStats() for _ in range(self.num_workers)]
        )
        self._clock = clock
        # One WorkerProcess per shard, each with its own per-incarnation
        # inbox/outbox pair (a shared result queue would hang the whole
        # tier if one worker died holding its write lock — see
        # WorkerProcess's docs).
        self._workers = [
            WorkerProcess(
                serving_worker_main,
                args=(slot,),
                name=f"serve-shard-{slot}",
                ctx=ctx,
            )
            for slot in range(self.num_workers)
        ]
        self._registered: Dict[str, np.ndarray] = {}
        # Dynamic clouds: handle -> (state-only shadow replica, worker
        # maintenance mode).  The shadow applies every update before it
        # ships — validating it — and is the state source for respawn.
        self._dynamic: Dict[str, Tuple[object, str]] = {}
        self._dynamic_seq = itertools.count()
        self._window = _RequestWindow(clock)
        self._batch_ids = itertools.count()
        self._closed = False
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self.flush()
        finally:
            self.close()

    @property
    def pending(self) -> int:
        """Requests queued but not yet dispatched/served."""
        return len(self._window.queue)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("sharded service is closed")

    def _slot_for(self, digest: str) -> int:
        return int(digest[:16], 16) % self.num_workers

    # ------------------------------------------------------------------
    def register(self, points: np.ndarray) -> str:
        """Pin a cloud on its shard; returns its digest handle.

        The cloud ships to the owning worker once (and its K-d tree is
        built there eagerly), so subsequent submits — by handle, or by
        points hashing to the same digest — carry only queries.
        Registering the same cloud again is a no-op returning the same
        handle.  The dispatcher keeps a private read-only copy of the
        registered content — the snapshot a respawned shard is re-sent —
        so a later write to the caller's array reaches no shard.
        """
        self._check_open()
        points = validate_points(points)
        digest = geometry_digest(points)
        if digest not in self._registered:
            points = points.copy()
            points.setflags(write=False)
            self._registered[digest] = points
            slot = self._slot_for(digest)
            self._ensure_alive(slot)
            self._workers[slot].send(("register", digest, points))
        return digest

    def register_dynamic(
        self,
        points: Optional[np.ndarray] = None,
        maintenance: str = "incremental",
    ) -> str:
        """Register a mutable cloud on its shard; returns its handle.

        The handle is stable across mutations (initial content digest
        folded with a registration sequence number), so routing is static
        — every update and submit for this cloud lands on the same shard.
        The dispatcher keeps a **state-only shadow replica** (coordinates,
        alive bits, digest — no index): it validates updates before they
        ship and is the snapshot a respawned worker is rebuilt from.
        ``maintenance`` is checked here too (only ``"incremental"`` and
        ``"rebuild"`` serve), since the shadow never uses it: a mode the
        worker rejects would kill its shard on every re-ship.
        """
        self._check_open()
        points = validate_points(points) if points is not None else None
        from ..kdtree.dynamic import DynamicKdTree, check_maintenance
        from ..runtime.session import dynamic_handle

        check_maintenance(maintenance)
        shadow = DynamicKdTree(points, maintenance="state")
        handle = dynamic_handle(shadow.digest, next(self._dynamic_seq))
        slot = self._slot_for(handle)
        self._ensure_alive(slot)
        coords, alive = shadow.state()
        self._workers[slot].send(
            ("register_dynamic", handle, coords, alive, maintenance)
        )
        self._dynamic[handle] = (shadow, maintenance)
        return handle

    def update(self, handle: str, inserts=None, removes=None) -> None:
        """Route one frame of mutations to the owning shard.

        Removes apply before inserts (the shared frame contract).  The
        mutations hit the dispatcher's shadow replica first — a malformed
        frame (unknown/dead slot, non-finite insert) raises *here*, in
        the caller, and never reaches the worker — then ship as an
        ``update_handle`` message, FIFO-ordered after the registration
        and before any later batch, i.e. applied between flushes.
        """
        self._check_open()
        if handle not in self._dynamic:
            raise KeyError(f"unknown dynamic handle {handle!r}")
        inserts = validate_points(inserts) if inserts is not None else None
        if removes is not None:
            removes = np.asarray(removes, dtype=np.int64)
        shadow, _ = self._dynamic[handle]
        if removes is not None:
            shadow.remove(removes)
        if inserts is not None:
            shadow.insert(inserts)
        slot = self._slot_for(handle)
        self._ensure_alive(slot)
        self._workers[slot].send(("update_handle", handle, inserts, removes))

    def submit_dynamic(
        self,
        handle: str,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
    ) -> QueryTicket:
        """Queue one request against a registered dynamic cloud.

        Served by the owning shard against the cloud state at its flush
        (every update shipped before this submit is applied first —
        inbox FIFO), with the canonical dynamic result contract.
        """
        self._check_open()
        if handle not in self._dynamic:
            raise KeyError(f"unknown dynamic handle {handle!r}")
        return self._window.add(("dyn", handle), None, queries, radius, max_neighbors)

    def submit(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
    ) -> QueryTicket:
        """Queue one request by cloud; returns its ticket.

        Queued through the same request window as
        :meth:`QueryService.submit`: a malformed or non-finite request
        fails its own caller here instead of travelling to a worker, a
        cloud array is checked once per flush window, and the cloud is
        hashed at :meth:`flush`, so the request is served against its
        content at flush — from the registered copy when that content is
        registered.
        """
        self._check_open()
        return self._window.add(None, points, queries, radius, max_neighbors)

    def submit_handle(
        self,
        handle: str,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
    ) -> QueryTicket:
        """Queue one request against a :meth:`register`-ed cloud handle.

        The repeat-caller fast path: no geometry accompanies the request
        and nothing is re-hashed.
        """
        self._check_open()
        if handle not in self._registered:
            raise KeyError(f"unknown cloud handle {handle!r}; register() it first")
        return self._window.add(handle, None, queries, radius, max_neighbors)

    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Serve everything queued; returns the merged sweeps executed.

        The request window closes as :class:`QueryService`'s does, and
        each cloud group is routed by its digest (a dynamic one by its
        handle): a registered cloud's requests ship no geometry, any other
        static group ships its cloud once.  Each shard gets one batch
        message; the shards serve their batches concurrently while this
        loop demuxes replies onto tickets as they arrive.  If a worker
        dies mid-flush its shard is respawned, re-registered, and its
        orphaned batches requeued — the flush still settles every ticket.
        """
        self._check_open()
        by_slot: Dict[int, Tuple[List[Tuple], list]] = {}
        for key, members in self._window.close().items():
            if isinstance(key, tuple):  # ("dyn", handle)
                route, points, kind = key[1], None, ("dynamic",)
            else:
                route, kind = key, ()
                points = None if key in self._registered else members[0].points
            jobs, pending = by_slot.setdefault(self._slot_for(route), ([], []))
            for p in members:
                t = p.ticket
                jobs.append(
                    (len(jobs), route, points, p.queries, t.radius, t.max_neighbors)
                    + kind
                )
                pending.append(p)
        outstanding: Dict[int, Tuple[int, List[Tuple], list]] = {}
        for slot, (jobs, pending) in by_slot.items():
            self._ensure_alive(slot)
            batch_id = next(self._batch_ids)
            outstanding[batch_id] = (slot, jobs, pending)
            self._workers[slot].send(("batch", batch_id, jobs))
        executed = 0
        while outstanding:
            # Round-robin the shards we are waiting on, splitting the
            # poll budget between their (per-incarnation) outboxes; a
            # full quiet round triggers the dead-worker sweep.
            waiting = sorted({entry[0] for entry in outstanding.values()})
            progressed = False
            for slot in waiting:
                try:
                    message = self._workers[slot].receive(
                        timeout=self.poll_interval / len(waiting)
                    )
                except queue.Empty:
                    continue
                except (OSError, ValueError, RuntimeError):
                    continue  # outbox torn down under us (racing kill)
                if not message or message[0] != "result":
                    continue
                _, _, batch_id, results, delta = message
                entry = outstanding.pop(batch_id, None)
                if entry is None:
                    continue  # stale reply for an already-settled batch
                progressed = True
                executed += self._settle(entry[0], entry[2], results, delta)
            if not progressed and outstanding:
                self._recover_dead(outstanding)
        return executed

    def _settle(self, slot, pending, results, delta) -> int:
        """Demux one batch reply onto tickets; fold it into the shard's
        stats and the tier totals."""
        now = self._clock()
        served = failed = queries = 0
        wait = 0.0
        for job_id, indices, counts, error in results:
            p = pending[job_id]
            if error is not None:
                p.ticket.error = error
                failed += 1
            else:
                p.ticket.indices = indices
                p.ticket.counts = counts
                p.ticket.served_at = now
                wait += now - p.ticket.submitted_at
                served += 1
                queries += len(p.queries)
        for stats in (self.stats.shards[slot], self.stats):
            stats.requests += served
            stats.failed_requests += failed
            stats.queries += queries
            stats.wait_time += wait
            stats.sweeps += delta["sweeps"]
            stats.serve_time += delta["serve_time"]
            stats.max_coalesced = max(stats.max_coalesced, delta["max_coalesced"])
            if served:
                stats.flushes += 1
        return int(delta["sweeps"])

    # ------------------------------------------------------------------
    def _worker_ok(self, slot: int) -> bool:
        worker = self._workers[slot]
        if not worker.is_alive():
            return False
        if self.heartbeat_timeout is not None:
            return worker.heartbeat_age() < self.heartbeat_timeout
        return True

    def _ensure_alive(self, slot: int) -> None:
        """Respawn a shard found dead *between* flushes (no requeue needed)."""
        if not self._worker_ok(slot):
            self._respawn(slot)

    def _respawn(self, slot: int) -> None:
        self.stats.respawns += 1
        self._workers[slot].respawn()
        # Rebuild the fresh incarnation's shard state: every registered
        # cloud this shard owns is re-shipped (inbox FIFO guarantees the
        # re-registrations land before any requeued batch).  Dynamic
        # clouds ship their *current* shadow snapshot — slot space and
        # digest are pure functions of it, so the replica the worker
        # rebuilds is indistinguishable from the lost one.
        for digest, points in self._registered.items():
            if self._slot_for(digest) == slot:
                self._workers[slot].send(("register", digest, points))
        for handle, (shadow, maintenance) in self._dynamic.items():
            if self._slot_for(handle) == slot:
                coords, alive = shadow.state()
                self._workers[slot].send(
                    ("register_dynamic", handle, coords, alive, maintenance)
                )

    def _recover_dead(self, outstanding: Dict[int, Tuple]) -> None:
        """Respawn dead shards we are waiting on; requeue their batches."""
        waiting_on = {entry[0] for entry in outstanding.values()}
        for slot in waiting_on:
            if self._worker_ok(slot):
                continue
            self._respawn(slot)
            for batch_id, (owner, jobs, _) in outstanding.items():
                if owner != slot:
                    continue
                self.stats.requeued_requests += len(jobs)
                self._workers[slot].send(("batch", batch_id, jobs))

    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (gracefully, then by force) and tear down.

        Pending unflushed requests are settled with an error so no caller
        blocks on a ticket that can never be served.
        """
        if self._closed:
            return
        self._closed = True
        for p in self._window.queue:
            p.ticket.error = RuntimeError("sharded service closed before flush")
        self._window.queue = []
        for worker in self._workers:
            worker.stop(timeout=timeout)
