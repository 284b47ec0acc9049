"""The synchronous serving core: queue, coalesce, merge-sweep, demux.

:class:`QueryService` turns a stream of independent ball-query requests —
each a ``(points, queries, radius, K)`` tuple from some caller — into as
few merged frontier sweeps as the stream allows.  Requests accumulate in
an arrival-ordered queue; :meth:`QueryService.flush` groups the queue by
**geometry digest** (same cloud ⇒ same K-d tree, built or fetched once
through the shared :class:`~repro.runtime.session.SearchSession`),
concatenates each group's query batches with per-query radii and a
request-id vector, answers the whole group with one
:meth:`~repro.runtime.batched.BatchedBallQuery.query_merged` advance, and
demuxes the per-request results back onto the callers' tickets.

The digest is taken at flush, once per distinct array, from the bytes
about to be searched: a request is served against its cloud's content at
flush, and the session's tree cache keeps its own read-only copy of every
cloud it indexes, so no caller's later write reaches a cached tree.

Coalescing is a pure batching transform: row independence of the merged
sweep makes every served result bit-identical to running the request
alone (``tests/test_serve.py`` pins this).  What changes is the cost —
one Python-level frontier advance per *group* instead of per *request* —
which is where the ≥3x serving throughput over sequential submission
comes from (``benchmarks/test_serve_perf.py``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..runtime.batched import BatchedBallQuery, check_max_neighbors
from ..runtime.session import SearchSession, geometry_digest

__all__ = [
    "QueryService",
    "QueryTicket",
    "ServiceStats",
    "validate_points",
    "validate_queries",
    "validate_settings",
]


def validate_points(points: np.ndarray) -> np.ndarray:
    """Validate one request's cloud: float64, ``(N >= 1, 3)``, finite.

    Shared by :meth:`QueryService.submit` and the sharded dispatcher's
    ``register``/``submit`` so a cloud rejected by one tier is rejected
    identically by the other.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError(f"points must be (N, 3) with N >= 1, got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (no NaN/inf coordinates)")
    return points


def validate_queries(queries: np.ndarray) -> np.ndarray:
    """Validate one request's query batch: float64, ``(M, 3)``, finite."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError(f"queries must be (M, 3), got {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite (no NaN/inf coordinates)")
    return queries


def validate_settings(radius: float, max_neighbors: int) -> None:
    """Validate one request's ``(radius, K)`` setting.

    ``K`` follows the search engines' one rule
    (:func:`~repro.runtime.batched.check_max_neighbors`): an integer
    >= 1, so 2.7 is refused rather than served as K = 2.
    """
    if not np.isfinite(radius) or radius <= 0:
        raise ValueError("radius must be positive and finite")
    check_max_neighbors(max_neighbors)


@dataclass
class ServiceStats:
    """Serving counters, updated by every :meth:`QueryService.flush`."""

    requests: int = 0  # requests served
    queries: int = 0  # individual query points served
    sweeps: int = 0  # merged frontier sweeps executed
    flushes: int = 0  # flush() calls that served at least one request
    serve_time: float = 0.0  # wall-clock spent inside flush()
    wait_time: float = 0.0  # summed per-request submit-to-serve latency
    max_coalesced: int = 0  # most requests ever answered by one sweep
    failed_requests: int = 0  # requests settled with an error instead of a result

    @property
    def coalesce_factor(self) -> float:
        """Mean requests answered per merged sweep (1.0 = no coalescing)."""
        return self.requests / self.sweeps if self.sweeps else 0.0

    @property
    def mean_wait(self) -> float:
        """Mean submit-to-serve latency per request (seconds)."""
        return self.wait_time / self.requests if self.requests else 0.0

    @property
    def throughput(self) -> float:
        """Requests served per second of serve (flush) time."""
        return self.requests / self.serve_time if self.serve_time else 0.0


class QueryTicket:
    """Handle for one submitted request, filled in by the serving flush.

    The synchronous counterpart of a future: :attr:`done` flips once a
    flush has served the request, after which :meth:`result` returns the
    ``(indices, counts)`` pair with the ``ball_query`` contract.
    """

    __slots__ = (
        "radius",
        "max_neighbors",
        "submitted_at",
        "served_at",
        "indices",
        "counts",
        "error",
    )

    def __init__(self, radius: float, max_neighbors: int, submitted_at: float):
        self.radius = radius
        self.max_neighbors = max_neighbors
        self.submitted_at = submitted_at
        self.served_at: Optional[float] = None
        self.indices: Optional[np.ndarray] = None
        self.counts: Optional[np.ndarray] = None
        self.error: Optional[Exception] = None

    @property
    def done(self) -> bool:
        """Settled — served with a result or failed with an error."""
        return self.counts is not None or self.error is not None

    @property
    def wait(self) -> float:
        """Submit-to-serve latency (seconds); raises if not served yet."""
        if self.served_at is None:
            raise RuntimeError("request not served yet")
        return self.served_at - self.submitted_at

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.error is not None:
            raise self.error
        if not self.done:
            raise RuntimeError(
                "request not served yet; call QueryService.flush() first"
            )
        return self.indices, self.counts


class _Pending:
    __slots__ = ("key", "points", "queries", "ticket")

    def __init__(self, key, points, queries, ticket):
        # A dynamic request is grouped by its ``("dyn", handle)`` key; a
        # static one carries its ``points`` instead and is grouped by the
        # geometry digest the flush takes of them.
        self.key = key
        self.points = points
        self.queries = queries
        self.ticket = ticket


class QueryService:
    """Micro-batching ball-query service over a shared search session.

    Parameters
    ----------
    session:
        The :class:`SearchSession` that owns tree construction; distinct
        requests against the same cloud share one tree through it (and a
        cloud already warmed by training or sweep code is served without
        any build at all).
    clock:
        Monotonic time source for the latency/throughput stats (injectable
        so tests can pin timing-derived numbers).
    """

    def __init__(
        self,
        session: Optional[SearchSession] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.session = session if session is not None else SearchSession()
        self.stats = ServiceStats()
        self._clock = clock
        self._queue: List[_Pending] = []

    @property
    def pending(self) -> int:
        """Requests queued but not yet served."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def submit(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
    ) -> QueryTicket:
        """Queue one request; returns its ticket (served at next flush).

        Validation happens here — a bad request must fail its caller at
        submit time, not poison the merged sweep it would have joined.
        That includes non-finite coordinates and settings: a NaN query row
        would error the whole merged sweep and settle every co-queued
        same-cloud ticket with its exception.  The cloud is not hashed
        here but at :meth:`flush`, so the request is served against the
        cloud's content at flush.
        """
        validate_settings(radius, max_neighbors)
        points = validate_points(points)
        queries = validate_queries(queries)
        ticket = QueryTicket(float(radius), int(max_neighbors), self._clock())
        self._queue.append(_Pending(None, points, queries, ticket))
        return ticket

    def flush(self) -> int:
        """Serve everything queued; returns the merged sweeps *executed*.

        Requests are grouped in arrival order — static requests by
        geometry digest, dynamic requests by handle — and each group is
        answered by one merged advance over its concatenated queries
        (:meth:`~repro.runtime.batched.BatchedBallQuery.query_merged` for
        a frozen cloud, :meth:`~repro.kdtree.dynamic.DynamicKdTree
        .query_merged` for a mutating one), then demuxed back onto the
        tickets.  Pending updates to a dynamic cloud are applied by its
        lazy refresh here — between flushes, never mid-sweep.

        Each static request's cloud is digested here, from the bytes about
        to be searched, once per distinct array memory ``(data address,
        shape, strides)``: equal content in distinct arrays still merges
        into one sweep, and a same-cloud flush hashes its cloud once.  The
        key is the memory, not ``id()``: ``validate_points`` returns a
        fresh view of an unpickled float64 array, so a worker's batch on
        one shipped cloud arrives as distinct objects over one buffer.
        The batch holds every array until the flush ends, so no address
        can be reused mid-flush.

        A group whose sweep fails settles its tickets with the error and
        executes nothing, so it contributes neither to the return value
        nor to ``stats.sweeps`` — its requests are counted in
        ``stats.failed_requests`` instead.  ``stats.flushes`` only counts
        calls that served at least one request.
        """
        if not self._queue:
            return 0
        batch, self._queue = self._queue, []
        t0 = self._clock()
        executed = 0
        digests: Dict[tuple, str] = {}
        groups: "OrderedDict[object, List[_Pending]]" = OrderedDict()
        for p in batch:
            key = p.key
            if p.points is not None:
                memory = (
                    p.points.__array_interface__["data"][0],
                    p.points.shape,
                    p.points.strides,
                )
                key = digests.get(memory)
                if key is None:
                    key = digests[memory] = geometry_digest(p.points)
            groups.setdefault(key, []).append(p)
        for key, members in groups.items():
            try:
                sizes = [len(p.queries) for p in members]
                merged_queries = np.concatenate([p.queries for p in members])
                radii = np.concatenate(
                    [np.full(n, p.ticket.radius) for p, n in zip(members, sizes)]
                )
                request_ids = np.repeat(np.arange(len(members)), sizes)
                ks = np.asarray([p.ticket.max_neighbors for p in members])
                if isinstance(key, tuple) and key[0] == "dyn":
                    engine = self.session.dynamic(key[1])
                else:
                    # Digested above from these bytes; don't re-hash the
                    # cloud just to key the tree cache.
                    tree = self.session.tree_for(members[0].points, digest=key)
                    engine = BatchedBallQuery(tree)
                results = engine.query_merged(
                    merged_queries, radii, request_ids, ks
                )
            except Exception as exc:  # repro: allow[broad-except] -- error containment is the contract: one cloud group's failure settles its own tickets and must not take down the other groups in the flush
                # Contain the blast radius to this cloud group: its
                # tickets settle with the error (submit-time validation
                # makes this an internal failure, e.g. a malformed custom
                # tree), other groups still get served.
                for p in members:
                    p.ticket.error = exc
                self.stats.failed_requests += len(members)
                continue
            now = self._clock()
            for p, (indices, counts) in zip(members, results):
                p.ticket.indices = indices
                p.ticket.counts = counts
                p.ticket.served_at = now
                self.stats.wait_time += now - p.ticket.submitted_at
            self.stats.sweeps += 1
            self.stats.requests += len(members)
            self.stats.queries += int(sum(sizes))
            self.stats.max_coalesced = max(self.stats.max_coalesced, len(members))
            executed += 1
        if executed:
            self.stats.flushes += 1
        self.stats.serve_time += self._clock() - t0
        return executed

    def query(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Submit-and-serve convenience for sequential (uncoalesced) callers."""
        ticket = self.submit(points, queries, radius, max_neighbors)
        self.flush()
        return ticket.result()

    # -- dynamic clouds ------------------------------------------------
    def register_dynamic(
        self,
        points: Optional[np.ndarray] = None,
        maintenance: str = "incremental",
    ) -> str:
        """Register a mutable cloud; returns its stable serving handle.

        ``maintenance`` picks the index policy (``"incremental"`` — the
        default segment overlay with lazy dirty-region rebuilds — or
        ``"rebuild"``, the rebuild-from-scratch-per-frame baseline the
        parity suites pin results against; both serve bit-identical
        results by the canonical dynamic contract).
        """
        points = validate_points(points) if points is not None else None
        return self.session.register_dynamic(points, maintenance=maintenance)

    def update(self, handle: str, inserts=None, removes=None) -> str:
        """Apply one frame of mutations (removes first, then inserts);
        returns the cloud's new content digest.

        Mutations take effect at the next flush — in-flight tickets from
        a previous flush are already settled, queued tickets will observe
        the post-update cloud.
        """
        inserts = validate_points(inserts) if inserts is not None else None
        return self.session.update(handle, inserts=inserts, removes=removes)

    def submit_dynamic(
        self,
        handle: str,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
    ) -> QueryTicket:
        """Queue one request against a registered dynamic cloud.

        Results follow the canonical dynamic contract (hits ordered by
        ``(d2, slot id)``; see :mod:`repro.kdtree.dynamic_reference`),
        evaluated against the cloud state at flush time.
        """
        validate_settings(radius, max_neighbors)
        queries = validate_queries(queries)
        self.session.dynamic(handle)  # unknown handles fail their caller now
        ticket = QueryTicket(float(radius), int(max_neighbors), self._clock())
        self._queue.append(_Pending(("dyn", handle), None, queries, ticket))
        return ticket
