"""Request-coalescing serving layer over the batched query runtime.

The first piece of the codebase that serves *concurrent independent
callers* rather than replaying figure grids.  Three layers:

- :class:`QueryService` — the synchronous core: a request queue,
  same-cloud coalescing keyed by geometry digest, one **merged frontier
  sweep** per flush over a forest of its static clouds' trees
  (:meth:`repro.runtime.BatchedBallQuery.query_merged`; each dynamic
  cloud sweeps on its own), per-request result demux, and throughput /
  latency / coalesce-factor statistics.  Results are bit-identical to serving each
  request alone, which the serving parity suite pins down.
- :class:`AsyncQueryFrontend` — the asyncio front-end: ``await
  submit(...)`` parks a request and returns its result when the
  micro-batch flusher serves it; a submission window, a max-batch cut-off,
  and a bounded pending queue (backpressure) shape the batches; ``drain``
  serves everything queued and shuts down gracefully.
- :class:`ShardedQueryService` — the multi-process tier: a dispatcher
  queues requests through the same request window as ``QueryService``
  (checked at submit, hashed at flush) and routes each cloud group by
  geometry digest to N long-lived serving worker processes (each running
  its own coalescing ``QueryService`` over a long-lived session), with a
  ``register(points) -> handle`` API so repeat callers skip re-shipping
  and re-hashing geometry, worker heartbeats, dead-worker respawn, and
  orphaned-request requeue; results stay bit-identical to the
  single-process service.  :class:`ShardedStats` holds the tier totals
  under the ``ServiceStats`` names, plus per-shard entries.
- :func:`synthetic_trace` / :func:`replay_trace` — the request-trace
  workload generator and its replay behind ``python -m
  repro.analysis.cli serve``: sequential, coalesced and (optionally)
  sharded serving of one trace, timed without set-up and pinned
  bit-identical in one :class:`TraceReport`.
- :func:`drift_trace` / :func:`replay_drift_trace` — the mutating-cloud
  counterpart: a deterministic frame-drift stream served through
  dynamic handles (``register_dynamic`` → per-frame ``update`` →
  ``submit_dynamic``), with every frame's results pinned bit-identical
  between rebuild-from-scratch-per-frame, incremental maintenance, and
  (optionally) the sharded tier.

The asyncio front-end and the sharded tier load on first access, so a
caller of the synchronous service never imports asyncio or
multiprocessing.
"""

import importlib

from .service import (
    QueryService,
    QueryTicket,
    ServiceStats,
    validate_points,
    validate_queries,
    validate_settings,
)
from .trace import (
    DriftFrame,
    TraceReport,
    drift_trace,
    replay_drift_trace,
    replay_trace,
    synthetic_trace,
)

__all__ = [
    "AsyncQueryFrontend",
    "DriftFrame",
    "QueryService",
    "QueryTicket",
    "ServiceStats",
    "ShardedQueryService",
    "ShardedStats",
    "TraceReport",
    "drift_trace",
    "replay_drift_trace",
    "replay_trace",
    "synthetic_trace",
    "validate_points",
    "validate_queries",
    "validate_settings",
]

# The tiers that load on first access, by the submodule that defines them.
_LAZY = {
    "AsyncQueryFrontend": "frontend",
    "ShardedQueryService": "sharded",
    "ShardedStats": "sharded",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
