"""The synchronous serving core: queue, coalesce, merge-sweep, demux.

:class:`QueryService` turns a stream of independent ball-query requests —
each a ``(points, queries, radius, K)`` tuple from some caller — into as
few merged frontier sweeps as the stream allows.  Requests accumulate in
an arrival-ordered queue; :meth:`QueryService.flush` groups the queue by
**geometry digest** (same cloud ⇒ same K-d tree, built or fetched once
through the shared :class:`~repro.runtime.session.SearchSession`),
concatenates the query batches of every static group with per-query
radii, start roots and a request-id vector, answers them all with one
:meth:`~repro.runtime.batched.BatchedBallQuery.query_merged` advance over
a :class:`~repro.runtime.forest.Forest` of their trees, and demuxes the
per-request results back onto the callers' tickets.

Requests queue in ``_RequestWindow``, the one queue both serving tiers
use: it validates a request at submit, checks a cloud array once per
flush window, and digests each distinct array at flush, from the bytes
about to be searched, so a request is served against its cloud's content
at flush.  The session's tree cache keeps its own read-only copy of every
cloud it indexes, so no caller's later write reaches a cached tree.

Coalescing is a pure batching transform: row independence of the merged
sweep makes every served result bit-identical to running the request
alone (``tests/test_serve.py`` pins this).  What changes is the cost —
one Python-level frontier advance per *flush* (plus one per dynamic
cloud) instead of per *request* — which is where the ≥3x serving
throughput over sequential submission comes from
(``benchmarks/test_serve_perf.py``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..kdtree.build import KdTree
from ..runtime.batched import BatchedBallQuery, check_max_neighbors, sweep_room
from ..runtime.forest import Forest
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

    Shared by the request window both tiers submit through and by the
    sharded dispatcher's ``register``, so a cloud rejected by one tier is
    rejected identically by the other.
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
        # A static request carries its checked ``points`` and is grouped
        # by their digest: its ``key`` if given (a sharded worker passes
        # the dispatcher's), else taken when the window closes.  Any other
        # carries only its group ``key``: a registered cloud's digest
        # handle, or ``("dyn", handle)`` for a dynamic cloud.
        self.key = key
        self.points = points
        self.queries = queries
        self.ticket = ticket


class _RequestWindow:
    """The requests queued since the last flush, for both serving tiers.

    :meth:`add` validates a request's settings and queries at submit and
    checks its cloud array once per window.  :meth:`close` ends the window
    and groups its requests in arrival order: a static request by the
    geometry digest of its cloud's content at that moment, any other by
    its key.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self.queue: List[_Pending] = []
        # Clouds checked this window without a copy, by id: (input,
        # checked array).  Holding the input bars its id's reuse.
        self._checked: Dict[int, Tuple[object, np.ndarray]] = {}

    def add(self, key, points, queries, radius, max_neighbors) -> QueryTicket:
        """Queue one request.  ``points`` is None for a handle-keyed one; a
        static request given a ``key`` is grouped under it unhashed, the
        caller vouching that it is ``geometry_digest`` of the content."""
        validate_settings(radius, max_neighbors)
        if points is not None:
            points = self._checked_points(points)
        queries = validate_queries(queries)
        ticket = QueryTicket(float(radius), int(max_neighbors), self._clock())
        self.queue.append(_Pending(key, points, queries, ticket))
        return ticket

    def _checked_points(self, points) -> np.ndarray:
        """``validate_points``, once per window for an input it does not
        copy (a float64 array; an unpickled one comes back as a view).  A
        converted input (a list, float32) is checked on every add."""
        held = self._checked.get(id(points))
        if held is not None:
            return held[1]
        valid = validate_points(points)
        if valid is points or valid.base is points:
            self._checked[id(points)] = (points, valid)
        return valid

    def close(self) -> "OrderedDict[object, List[_Pending]]":
        """End the window; return its requests grouped by cloud.

        A static request that came without a key has its cloud digested
        here, once per distinct array memory ``(data address, shape,
        strides)``: equal content in distinct arrays still shares a group.
        The key is the memory, not ``id()``: ``validate_points`` returns a
        fresh view of an unpickled float64 array, so requests on one
        unpickled cloud arrive as distinct objects over one buffer.  The
        groups hold every array, so no address is reused while they live.
        """
        self._checked = {}
        batch, self.queue = self.queue, []
        digests: Dict[tuple, str] = {}
        groups: "OrderedDict[object, List[_Pending]]" = OrderedDict()
        for p in batch:
            key = p.key
            if key is None:
                memory = (
                    p.points.__array_interface__["data"][0],
                    p.points.shape,
                    p.points.strides,
                )
                key = digests.get(memory)
                if key is None:
                    key = digests[memory] = geometry_digest(p.points)
            groups.setdefault(key, []).append(p)
        return groups


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
        self._window = _RequestWindow(clock)

    @property
    def pending(self) -> int:
        """Requests queued but not yet served."""
        return len(self._window.queue)

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

        A later submit of the same float64 array before the next flush
        reuses its first check, so a cloud written non-finite after that
        check is accepted here and fails all its tickets at :meth:`flush`.
        """
        return self._window.add(None, points, queries, radius, max_neighbors)

    def flush(self) -> int:
        """Serve everything queued; returns the merged sweeps *executed*.

        Requests are grouped in arrival order — static requests by
        geometry digest, dynamic requests by handle.  Each static
        request's cloud is digested here, once per distinct array memory
        (see :meth:`_RequestWindow.close`), and checked for finiteness
        once per group: a cloud written non-finite after submit fails its
        group's tickets with ``validate_points``' ``ValueError`` and is
        never built.  The trees of every other static group come from one
        :meth:`~repro.runtime.session.SearchSession.trees_for` call (one
        forest build), and those groups share one
        :meth:`~repro.runtime.batched.BatchedBallQuery.query_merged`
        sweep over a :class:`~repro.runtime.forest.Forest` of their trees,
        each row starting at its own tree's root; one static group sweeps
        its tree directly.  Groups join that sweep in arrival order while
        its int64 DFS keys hold their rows
        (:func:`~repro.runtime.batched.sweep_room`), and a group that does
        not fit starts the next one, so a group that fits no sweep fails
        alone.  Each dynamic group runs its own
        :meth:`~repro.kdtree.dynamic.DynamicKdTree.query_merged`, whose
        lazy refresh applies pending updates — between flushes, never
        mid-sweep.

        Errors are contained per build and per sweep: if the shared build
        raises, every static group waiting on it settles with its error;
        if a sweep raises, every group in that sweep does, and the other
        sweeps, dynamic groups included, are still served.  A failed
        request counts in ``stats.failed_requests``, not in the return
        value or ``stats.sweeps``; ``stats.flushes`` counts only calls
        that served at least one request.
        """
        t0 = self._clock()
        groups = self._window.close()
        if not groups:
            return 0
        executed = 0
        for sweep in self._sweeps(groups):
            members = [p for _, group in sweep for p in group]
            try:
                results = self._run_sweep(sweep, members)
            except Exception as exc:  # repro: allow[broad-except] -- error containment is the contract: one sweep's failure settles the tickets of the groups it serves and must not take down the other sweeps of the flush
                # An internal failure such as a malformed custom tree:
                # this sweep's tickets settle with the error, the other
                # sweeps are still served.
                self._fail(members, exc)
                continue
            now = self._clock()
            for p, (indices, counts) in zip(members, results):
                p.ticket.indices = indices
                p.ticket.counts = counts
                p.ticket.served_at = now
                self.stats.wait_time += now - p.ticket.submitted_at
            self.stats.sweeps += 1
            self.stats.requests += len(members)
            self.stats.queries += sum(len(p.queries) for p in members)
            self.stats.max_coalesced = max(self.stats.max_coalesced, len(members))
            executed += 1
        if executed:
            self.stats.flushes += 1
        self.stats.serve_time += self._clock() - t0
        return executed

    def _sweeps(self, groups) -> List[List[Tuple[object, List[_Pending]]]]:
        """The flush's sweeps, each a list of ``(tree, requests)`` static
        groups or one ``(dynamic handle, requests)`` group (see
        :meth:`flush`)."""
        sweeps: List[List[Tuple[object, List[_Pending]]]] = []
        height = rows = 0
        for key, tree in self._static_trees(groups).items():
            members = groups[key]
            size = sum(len(p.queries) for p in members)
            joined = max(height, tree.height)
            if sweeps and rows + size <= sweep_room(joined):
                sweeps[-1].append((tree, members))
                height, rows = joined, rows + size
            else:
                sweeps.append([(tree, members)])
                height, rows = tree.height, size
        sweeps.extend(
            [(key[1], members)]
            for key, members in groups.items()
            if isinstance(key, tuple)
        )
        return sweeps

    def _run_sweep(
        self, sweep, members: List[_Pending]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One merged sweep: each of ``members``' ``(indices, counts)``."""
        sizes = [len(p.queries) for p in members]
        queries = np.concatenate([p.queries for p in members])
        radii = np.repeat([p.ticket.radius for p in members], sizes)
        request_ids = np.repeat(np.arange(len(members)), sizes)
        ks = np.asarray([p.ticket.max_neighbors for p in members])
        source = sweep[0][0]
        if not isinstance(source, KdTree):  # a dynamic handle
            engine = self.session.dynamic(source)
            return engine.query_merged(queries, radii, request_ids, ks)
        if len(sweep) == 1:
            return BatchedBallQuery(source).query_merged(queries, radii, request_ids, ks)
        forest = Forest.of([tree for tree, _ in sweep])
        request_roots = np.repeat(forest.roots, [len(group) for _, group in sweep])
        results = BatchedBallQuery(forest.tree).query_merged(
            queries, radii, request_ids, ks, np.repeat(request_roots, sizes)
        )
        return [(forest.point_id.take(indices), counts) for indices, counts in results]

    def _static_trees(self, groups) -> Dict[str, KdTree]:
        """Each static group's tree, all from one ``trees_for`` call; a
        group that gets none settles here (see :meth:`flush`).

        A group's key is the digest of the bytes about to be searched, so
        it keys the tree cache without a re-hash; equal bytes share
        finiteness, so one check covers the group.
        """
        clouds: Dict[str, np.ndarray] = {}
        for key, members in groups.items():
            if isinstance(key, tuple):
                continue
            points = members[0].points
            try:
                if not np.isfinite(points).all():
                    validate_points(points)  # written since submit: raises
            except ValueError as exc:
                self._fail(members, exc)
                continue
            clouds[key] = points
        try:
            built = self.session.trees_for(list(clouds.values()), list(clouds))
        except Exception as exc:  # repro: allow[broad-except] -- the shared build serves every static group of the flush: its failure settles those groups' tickets, and the dynamic groups must still be served
            for key in clouds:
                self._fail(groups[key], exc)
            return {}
        return dict(zip(clouds, built))

    def _fail(self, members: List[_Pending], exc: Exception) -> None:
        """Settle one group's tickets with ``exc``."""
        for p in members:
            p.ticket.error = exc
        self.stats.failed_requests += len(members)

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
        results by the canonical dynamic contract).  Any other mode,
        ``"state"`` included, raises ``ValueError`` here.
        """
        points = validate_points(points) if points is not None else None
        return self.session.register_dynamic(points, maintenance=maintenance)

    def update(self, handle: str, inserts=None, removes=None) -> None:
        """Apply one frame of mutations (removes first, then inserts).

        Mutations take effect at the next flush — in-flight tickets from
        a previous flush are already settled, queued tickets will observe
        the post-update cloud.  Nothing is hashed here (see
        :meth:`SearchSession.update`).
        """
        inserts = validate_points(inserts) if inserts is not None else None
        self.session.update(handle, inserts=inserts, removes=removes)

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
        self.session.dynamic(handle)  # unknown handles fail their caller now
        return self._window.add(("dyn", handle), None, queries, radius, max_neighbors)
