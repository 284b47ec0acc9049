"""The serving-worker process loop behind the sharded tier.

Each worker is one long-lived process (spawned through
:class:`repro.serve.sharded.WorkerProcess`) that owns a digest-sharded
slice of the registered clouds.  Inside it lives exactly the single-process
serving stack — a :class:`~repro.serve.QueryService` over the process's
long-lived :func:`~repro.runtime.worker_session` — so every result the
sharded tier produces is, by construction, a result the single-process
service would have produced for the same requests (the sharded parity
suite pins this bit-for-bit).

Inbox protocol (tuples, first element is the kind):

``("register", digest, points)``
    Pin ``points`` in the worker's cloud registry and warm its K-d tree
    into the session, so later handle-only submits for ``digest`` ship no
    geometry.  The eager build runs through the session's vectorized
    cold path (:mod:`repro.runtime.treebuild`) — registration storms
    after a respawn re-register every pinned cloud, so this build is on
    the recovery critical path.  Fire-and-forget: the inbox is FIFO, so
    a batch enqueued after a register is always served after it.
``("register_dynamic", handle, coords, alive, maintenance)``
    Reconstruct a mutable cloud from its ``(coords, alive)`` slot-space
    snapshot (:meth:`~repro.kdtree.dynamic.DynamicKdTree.from_state` —
    slot ids and content digest are pure functions of the snapshot, so a
    respawned replica is indistinguishable from the original) and adopt
    it into the session under the dispatcher's stable ``handle``.
``("update_handle", handle, inserts, removes)``
    Apply one frame of mutations to a registered dynamic cloud (removes
    first, then inserts — the shared frame contract).  Fire-and-forget
    and FIFO-ordered like ``register``: an update enqueued before a
    batch is always applied before that batch is served, which is what
    "applied between flushes" means on a shard.  The dispatcher applies
    every update to its own shadow replica *before* shipping, so a
    malformed mutation fails the caller at dispatch and never reaches
    the worker.
``("batch", batch_id, jobs)``
    Serve ``jobs`` — each ``(job_id, digest, points_or_None, queries,
    radius, max_neighbors)``, with a 7th element ``"dynamic"`` marking
    requests against a dynamic handle — through the local coalescing
    service (one submit per job, keyed by the dispatcher's ``digest`` so
    the batch's one flush hashes no static cloud; a registered cloud's
    handle-only jobs share its pinned array) and reply with one atomic
    ``("result", slot, batch_id, results, delta)`` message on this
    worker's own outbox (per-incarnation by design — see
    :class:`~repro.serve.sharded.WorkerProcess` on why a shared result
    queue cannot survive a worker killed mid-``put``).  ``results`` is
    ``[(job_id, indices, counts, error), ...]`` in job order; ``delta``
    carries the sweeps/serve-time accounting for the dispatcher's
    per-shard stats roll-up.  Per-job failures (bad request, unknown
    handle, a failed cloud group) travel as the job's ``error`` — they
    never take down the batch, let alone the worker.
``("sleep", seconds)``
    Hold the loop busy.  A diagnostic/test hook: the dead-worker-recovery
    suite parks a worker here to kill it mid-flush deterministically.
``("stop",)``
    Exit the loop (graceful shutdown path of ``WorkerProcess.stop``).

Heartbeats are written by a side thread every :data:`BEAT_INTERVAL`
seconds, so a worker grinding through a long merged sweep still reads as
alive; only a dead (or truly wedged) process goes stale.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from .service import QueryService

__all__ = ["serving_worker_main"]

# How often a healthy worker proves it is alive (heartbeat writes and
# inbox poll timeout).  Dispatcher staleness thresholds should be a
# comfortable multiple of this.
BEAT_INTERVAL = 0.05


def _serve_batch(
    service: QueryService,
    registered: Dict[str, np.ndarray],
    slot: int,
    batch_id: int,
    jobs: List[Tuple],
) -> Tuple:
    """Serve one dispatched batch; build its atomic reply message."""
    stats = service.stats
    sweeps0, serve_time0 = stats.sweeps, stats.serve_time
    tickets, failures = {}, {}
    for job_id, digest, points, queries, radius, max_neighbors, *rest in jobs:
        dynamic = bool(rest) and rest[0] == "dynamic"
        if points is None and not dynamic:
            points = registered.get(digest)
            if points is None:
                # Can only happen if the registration was lost with a dead
                # incarnation; the dispatcher re-registers on respawn, so
                # surface it as this job's failure rather than crashing.
                failures[job_id] = RuntimeError(
                    f"cloud handle {digest!r} is not registered on this worker"
                )
                continue
        try:
            if dynamic:
                tickets[job_id] = service.submit_dynamic(
                    digest, queries, radius, max_neighbors
                )
            else:
                # Keyed by the dispatcher's digest of this content, as
                # ``register`` is: the flush hashes no cloud.
                tickets[job_id] = service._window.add(
                    digest, points, queries, radius, max_neighbors
                )
        except Exception as exc:  # repro: allow[broad-except] -- whatever submit raises must travel back as this one job's error; letting it escape would kill the worker and fail every co-batched caller
            failures[job_id] = exc
    service.flush()
    results = []
    for job in jobs:
        job_id = job[0]
        if job_id in failures:
            results.append((job_id, None, None, failures[job_id]))
        else:
            ticket = tickets[job_id]
            results.append((job_id, ticket.indices, ticket.counts, ticket.error))
    delta = {
        "sweeps": stats.sweeps - sweeps0,
        "serve_time": stats.serve_time - serve_time0,
        "max_coalesced": stats.max_coalesced,
    }
    return ("result", slot, batch_id, results, delta)


def serving_worker_main(
    inbox,
    outbox,
    heartbeat,
    slot: int,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Entry point of one serving worker process (see module docs).

    ``inbox``/``outbox``/``heartbeat`` are supplied per incarnation by
    :class:`~repro.serve.sharded.WorkerProcess`; ``slot`` is the shard
    index stamped on every reply.  ``clock`` is the beat source written into
    ``heartbeat.value`` — injectable (picklable, so a module-level fake
    works across spawn) for tests that exercise staleness handling; it
    must share a timebase with the dispatcher's ``heartbeat_age`` clock.
    """
    # Imported lazily so a fork-started worker reuses the parent's module,
    # and each process gets its own long-lived session (trees and layouts
    # pool across every batch this worker ever serves).
    from ..runtime.network import worker_session

    service = QueryService(session=worker_session())
    registered: Dict[str, np.ndarray] = {}
    stop_beating = threading.Event()

    def _beat_forever() -> None:
        while not stop_beating.wait(BEAT_INTERVAL):
            heartbeat.value = clock()

    beater = threading.Thread(target=_beat_forever, daemon=True)
    beater.start()
    heartbeat.value = clock()
    try:
        while True:
            try:
                message = inbox.get(timeout=BEAT_INTERVAL)
            except queue.Empty:
                continue
            kind = message[0]
            if kind == "stop":
                break
            if kind == "register":
                _, digest, points = message
                registered[digest] = points
                service.session.tree_for(points, digest=digest)
            elif kind == "register_dynamic":
                _, handle, coords, alive, maintenance = message
                # Imported lazily like worker_session: a fork-started
                # worker reuses the parent's loaded module.
                from ..kdtree.dynamic import DynamicKdTree

                service.session.adopt_dynamic(
                    handle,
                    DynamicKdTree.from_state(coords, alive, maintenance=maintenance),
                )
            elif kind == "update_handle":
                _, handle, inserts, removes = message
                # Validated dispatcher-side against the shadow replica
                # before shipping; FIFO ordering places this after the
                # handle's registration and before any later batch.
                service.session.update(handle, inserts=inserts, removes=removes)
            elif kind == "batch":
                _, batch_id, jobs = message
                reply = _serve_batch(service, registered, slot, batch_id, jobs)
                try:
                    outbox.put(reply)
                except Exception:  # repro: allow[broad-except] -- any pickling failure (arbitrary user exception types) must trigger the sanitized resend; a lost reply reads as a dead worker upstream
                    # An unpicklable per-job error must not strand the
                    # batch (a lost reply reads as a dead worker upstream):
                    # resend with errors flattened to their repr.
                    _, _, _, results, delta = reply
                    sanitized = [
                        (jid, idx, cnt, None if err is None else RuntimeError(repr(err)))
                        for jid, idx, cnt, err in results
                    ]
                    outbox.put(("result", slot, batch_id, sanitized, delta))
            elif kind == "sleep":
                time.sleep(message[1])
            # Unknown kinds are ignored (forward compatibility).
    finally:
        stop_beating.set()
