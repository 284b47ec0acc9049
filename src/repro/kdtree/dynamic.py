"""Incremental K-d index for dynamic (mutating) point clouds.

:class:`DynamicKdTree` is an overlay on the frozen :class:`~repro.kdtree
.build.KdTree` arrays for geometry that drifts frame to frame.  Instead
of rebuilding the whole tree on every insert/remove — the only option the
immutable stack offers — it maintains a small set of frozen **segments**
(each an ordinary ``KdTree`` over a subset of slots), an unindexed
**insert buffer**, and per-slot **tombstones**:

* ``insert`` appends coordinates to a stable, append-only slot space and
  parks the new slots in the buffer (answered by brute force until the
  buffer spills into a segment of its own);
* ``remove`` flips the slot's alive bit and bumps the owning segment's
  dead count — no tree surgery;
* :meth:`refresh` (called lazily before every query) rebuilds **only the
  dirty regions**: it spills an over-full buffer into a new segment,
  rebuilds segments whose dead fraction crossed the threshold (dropping
  their tombstones), and merges the smallest segments when the segment
  count grows past its cap.  Segments are built by
  :func:`repro.runtime.treebuild.vectorized_build_kdtree`; the per-node
  builder is the oracle of the rebuild-from-scratch reference only.

A query sweeps every (query, segment) pair its box test admits in
**one** :func:`~repro.runtime.batched.frontier_sweep` over the live
segments as one :class:`~repro.runtime.forest.Forest` (rebuilt only when
a segment is built or dropped), brute-forces the buffer, drops tombstoned
hits, and sorts and packs them once (:func:`~repro.runtime.batched
.pack_rows`) under the **canonical dynamic contract** of
:mod:`repro.kdtree.dynamic_reference` — hits sorted by ``(d2, slot)``; a
request without rows gets a ``(0, K)`` matrix, as a static one does.
Each hit's ``d2`` is computed once: a tree hit keeps the value its sweep
level compared for the in-ball test (``FrontierLevel.d2``, the same bits
as :func:`~repro.kdtree.dynamic_reference.pair_d2`), and ``pair_d2``
keys buffer hits only.  The sort is one int64 argsort of a key fused from
query, ``d2``'s dense rank and slot (a three-key ``lexsort`` only where
that key could overflow).
The contract is a pure function of the hit set, so results are
bit-identical to rebuild-from-scratch per frame no matter how the points
are segmented; the dynamic equivalence suites pin that on every layer up
through the sharded serving tier.

Digests
-------
:attr:`DynamicKdTree.digest` hashes ``(coords[:n], alive[:n])`` with
:func:`~repro.runtime.session.geometry_digest` on every read; mutations
hash nothing.  Serving reads it once per registration, to salt the
cloud's stable handle (:func:`~repro.runtime.session.dynamic_handle`).
It is a pure function of the slot space — independent of segmentation,
maintenance mode, or mutation history — so a rebuilt-from-state replica
(worker recovery) reports the same digest as the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .build import KdTree
from .dynamic_reference import pair_d2

__all__ = ["DynamicKdTree", "DynamicStats", "check_maintenance"]

# Relative slack on the segment bounding-box prune: the box distance is
# a rounded lower bound on member distances, so pruning exactly at r**2
# could drop a corner point whose own d2 rounds just inside the ball.
# Admitting a segment is always safe (members are re-tested per point).
_PRUNE_SLACK = 1.0 + 1e-9


def _canonical_order(
    hq: np.ndarray, d2: np.ndarray, hs: np.ndarray, num_queries: int, num_slots: int
) -> np.ndarray:
    """The canonical ``(query, d2, slot)`` order of hits, by one int64 argsort.

    ``d2`` enters as its dense rank (equal values, equal rank), so the
    fused key ``(query * U + rank) * num_slots + slot`` (``U`` distinct
    ``d2`` values) orders exactly as ``np.lexsort((hs, d2, hq))``; it is
    unique per hit, so the default sort needs no stability.  Where that
    key could overflow int64 (queries x distinct values x slots past
    ``2**63``, far beyond any served cloud), the three-key ``lexsort``
    runs instead.
    """
    by_d2 = np.argsort(d2)
    ranked = d2[by_d2]
    step = np.zeros(len(d2), dtype=np.int64)  # 1 where a new d2 value starts
    step[1:] = ranked[1:] != ranked[:-1]
    rank = np.empty_like(step)
    rank[by_d2] = np.cumsum(step)
    distinct = int(step.sum()) + 1
    if num_queries * distinct * num_slots > 2**63:  # keys reach the product - 1
        return np.lexsort((hs, d2, hq))
    return np.argsort((hq * distinct + rank) * num_slots + hs)


def check_maintenance(maintenance: str) -> None:
    """Reject a maintenance mode a served dynamic cloud cannot use.

    ``"state"`` keeps no index (the sharded dispatcher's shadow replica),
    so a cloud registered with it could never answer a request.
    """
    if maintenance not in ("incremental", "rebuild"):
        raise ValueError(
            f"a served dynamic cloud needs maintenance 'incremental' or "
            f"'rebuild', got {maintenance!r}"
        )


@dataclass
class DynamicStats:
    """Maintenance-work counters (the incremental-vs-rebuild evidence)."""

    inserts: int = 0
    removes: int = 0
    refreshes: int = 0
    segment_builds: int = 0
    points_indexed: int = 0  # total build work, in points


@dataclass
class _Segment:
    """One frozen sub-index: a KdTree over ``slots`` (some may be dead)."""

    tree: KdTree
    slots: np.ndarray  # (n,) int64 — tree point row i holds slot slots[i]
    lo: np.ndarray  # (3,) AABB over members at build time
    hi: np.ndarray
    dead: int = 0

    @property
    def alive_count(self) -> int:
        return len(self.slots) - self.dead


class DynamicKdTree:
    """Mutable point cloud with incremental index maintenance.

    Parameters
    ----------
    points:
        Optional initial ``(N, 3)`` coordinates (indexed immediately).
    maintenance:
        ``"incremental"`` (default) keeps segments + buffer with lazy
        dirty-region rebuilds; ``"rebuild"`` rebuilds one segment from
        scratch on every refresh after a mutation — the serving-grade
        rebuild-per-frame baseline the parity suites and the smoke bench
        compare against; ``"state"`` maintains only coordinates, alive
        bits, and the digest (no index, queries rejected) — the
        dispatcher-side shadow the sharded tier keeps for recovery.
    buffer_cap:
        Inserts buffered (brute-forced per query) before spilling into a
        segment of their own.
    rebuild_fraction:
        Dead fraction past which a segment is rebuilt without its
        tombstones.
    max_segments:
        Segment-count cap; beyond it the two smallest segments merge.
    """

    def __init__(
        self,
        points: Optional[np.ndarray] = None,
        *,
        maintenance: str = "incremental",
        buffer_cap: int = 512,
        rebuild_fraction: float = 0.25,
        max_segments: int = 4,
    ):
        if maintenance not in ("incremental", "rebuild", "state"):
            raise ValueError(f"unknown maintenance mode {maintenance!r}")
        if buffer_cap <= 0 or max_segments <= 0:
            raise ValueError("buffer_cap and max_segments must be positive")
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in (0, 1]")
        self.maintenance = maintenance
        self.buffer_cap = int(buffer_cap)
        self.rebuild_fraction = float(rebuild_fraction)
        self.max_segments = int(max_segments)
        self.stats = DynamicStats()
        self._coords = np.empty((0, 3), dtype=np.float64)
        self._alive = np.empty(0, dtype=bool)
        self._owner = np.empty(0, dtype=np.int64)  # segment id, -1 = buffer
        self._n = 0
        self._buffer: List[int] = []
        self._segments: Dict[int, _Segment] = {}
        self._forest = None  # (Forest, node slots, box lo, box hi) of the segments
        self._next_segment_id = 0
        self._stale = False
        if points is not None:
            pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
            if len(pts):
                self.insert(pts)
                self.refresh(flush=True)

    # -- state ---------------------------------------------------------
    def __len__(self) -> int:
        return int(self._alive[: self._n].sum())

    @property
    def num_slots(self) -> int:
        """Slots ever allocated (alive + tombstoned)."""
        return self._n

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    @property
    def digest(self) -> str:
        """Content digest of ``(coords, alive)``, hashed on each read."""
        # Imported lazily for the same load-order reason as _build_segment.
        from ..runtime.session import geometry_digest

        return geometry_digest(self._coords[: self._n], self._alive[: self._n])

    def state(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(coords, alive)`` snapshot over the full slot space.

        Everything a replica needs: :meth:`from_state` reconstructs an
        equivalent index with identical slot ids and digest.
        """
        return self._coords[: self._n].copy(), self._alive[: self._n].copy()

    @classmethod
    def from_state(
        cls, coords: np.ndarray, alive: np.ndarray, **kwargs
    ) -> "DynamicKdTree":
        """Rebuild from a :meth:`state` snapshot, preserving slot ids."""
        obj = cls(None, **kwargs)
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        alive = np.asarray(alive, dtype=bool)
        if coords.shape[0] != alive.shape[0]:
            raise ValueError("coords and alive must cover the same slots")
        n = coords.shape[0]
        obj._grow(n)
        obj._coords[:n] = coords
        obj._alive[:n] = alive
        obj._n = n
        alive_slots = np.nonzero(obj._alive[:n])[0]
        if obj.maintenance != "state" and len(alive_slots):
            obj._build_segment(alive_slots.astype(np.int64))
        return obj

    def alive_slots(self) -> np.ndarray:
        return np.nonzero(self._alive[: self._n])[0].astype(np.int64)

    # -- mutation ------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = len(self._alive)
        if need <= cap:
            return
        new_cap = max(need, 2 * cap, 64)
        coords = np.empty((new_cap, 3), dtype=np.float64)
        coords[: self._n] = self._coords[: self._n]
        alive = np.zeros(new_cap, dtype=bool)
        alive[: self._n] = self._alive[: self._n]
        owner = np.full(new_cap, -1, dtype=np.int64)
        owner[: self._n] = self._owner[: self._n]
        self._coords, self._alive, self._owner = coords, alive, owner

    def insert(self, points: np.ndarray) -> np.ndarray:
        """Append points; returns their (stable, sequential) slot ids.

        Slot allocation is deterministic — ``num_slots`` up — so two
        replicas applying the same mutation stream agree on every id.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        k = len(pts)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        self._grow(self._n + k)
        slots = np.arange(self._n, self._n + k, dtype=np.int64)
        self._coords[slots] = pts
        self._alive[slots] = True
        self._owner[slots] = -1
        self._n += k
        self._buffer.extend(slots.tolist())
        self.stats.inserts += k
        self._stale = True
        return slots

    def remove(self, slots: Union[Sequence[int], np.ndarray]) -> None:
        """Tombstone alive slots (rejects unknown, dead, or repeated ids)."""
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if slots.size == 0:
            return
        if np.any((slots < 0) | (slots >= self._n)):
            raise ValueError("slot id out of range")
        ordered = np.sort(slots)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate slot id in remove batch")
        if not self._alive[slots].all():
            raise ValueError("slot already removed")
        self._alive[slots] = False
        owners = self._owner[slots]
        for sid, count in zip(*np.unique(owners[owners >= 0], return_counts=True)):
            self._segments[int(sid)].dead += int(count)
        self.stats.removes += len(slots)
        self._stale = True

    # -- maintenance ---------------------------------------------------
    def _build_segment(self, slots: np.ndarray) -> int:
        # Imported lazily: treebuild imports repro.runtime which would
        # cycle back through repro.kdtree at module load.
        from ..runtime.treebuild import vectorized_build_kdtree

        pts = self._coords[slots]
        seg = _Segment(
            tree=vectorized_build_kdtree(pts),
            slots=slots,
            lo=pts.min(axis=0),
            hi=pts.max(axis=0),
        )
        sid = self._next_segment_id
        self._next_segment_id += 1
        self._segments[sid] = seg
        self._forest = None
        self._owner[slots] = sid
        self.stats.segment_builds += 1
        self.stats.points_indexed += len(slots)
        return sid

    def _drop_segment(self, sid: int) -> np.ndarray:
        """Remove a segment, returning its alive slots (ascending)."""
        seg = self._segments.pop(sid)
        self._forest = None
        alive = seg.slots[self._alive[seg.slots]]
        self._owner[alive] = -1
        return alive

    def refresh(self, flush: bool = False) -> None:
        """Bring the index up to date; rebuilds only dirty regions.

        ``flush`` forces the insert buffer into a segment even below
        ``buffer_cap`` (used at construction so registration indexes the
        initial cloud immediately).
        """
        if not self._stale and not (flush and self._buffer):
            return
        self._stale = False
        self.stats.refreshes += 1
        self._buffer = [s for s in self._buffer if self._alive[s]]
        if self.maintenance == "state":
            return
        if self.maintenance == "rebuild":
            for sid in list(self._segments):
                self._drop_segment(sid)
            self._buffer = []
            alive = self.alive_slots()
            if len(alive):
                self._build_segment(alive)
            return
        pending: List[np.ndarray] = []
        # Dirty segments: everything emptied or past the dead-fraction
        # threshold is rebuilt without its tombstones (dropping it when
        # nothing is left alive).
        for sid in sorted(self._segments):
            seg = self._segments[sid]
            if seg.alive_count == 0:
                self._drop_segment(sid)
            elif seg.dead > self.rebuild_fraction * len(seg.slots):
                pending.append(self._drop_segment(sid))
        if (flush and self._buffer) or len(self._buffer) > self.buffer_cap:
            pending.append(np.asarray(self._buffer, dtype=np.int64))
            self._buffer = []
        if pending:
            slots = np.sort(np.concatenate(pending))
            self._build_segment(slots)
        # Merge smallest segments while over the cap (deterministic:
        # order by (alive_count, segment id)).
        while len(self._segments) > self.max_segments:
            order = sorted(
                self._segments, key=lambda sid: (self._segments[sid].alive_count, sid)
            )
            merged = np.sort(
                np.concatenate(
                    [self._drop_segment(order[0]), self._drop_segment(order[1])]
                )
            )
            self._build_segment(merged)

    # -- queries -------------------------------------------------------
    def _collect(
        self, queries: np.ndarray, radii: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (query, alive slot) hit pairs with canonical ``d2`` keys.

        A tree hit keeps the ``d2`` its sweep level computed for the
        in-ball test; only buffer hits go through :func:`pair_d2`.
        """
        # Imported lazily for the same load-order reason as _build_segment.
        from ..runtime.batched import frontier_sweep
        from ..runtime.forest import Forest

        r2 = radii * radii
        empty = np.zeros(0, dtype=np.int64)
        hit_q: List[np.ndarray] = [empty]
        hit_s: List[np.ndarray] = [empty]
        hit_d2: List[np.ndarray] = [np.zeros(0)]
        if self._segments:
            if self._forest is None:  # a segment was built or dropped
                segs = [self._segments[sid] for sid in sorted(self._segments)]
                self._forest = (
                    Forest.of([seg.tree for seg in segs]),
                    np.concatenate([seg.slots[seg.tree.point_id] for seg in segs]),
                    np.array([seg.lo for seg in segs]),
                    np.array([seg.hi for seg in segs]),
                )
            forest, node_slot, lo, hi = self._forest
            # One row per (query, segment) pair whose box the ball reaches.
            delta = queries[:, None, :] - np.clip(queries[:, None, :], lo, hi)
            box_d2 = np.einsum("msj,msj->ms", delta, delta)
            pair_q, pair_s = np.nonzero(box_d2 <= (r2 * _PRUNE_SLACK)[:, None])
            rows, nodes, level_d2 = [empty], [empty], [np.zeros(0)]
            for level in frontier_sweep(
                forest.tree, queries[pair_q], radii[pair_q], None,
                roots=forest.roots[pair_s],
            ):
                hit = level.in_ball
                rows.append(level.query_ids[hit])
                nodes.append(level.nodes[hit])
                level_d2.append(level.d2[hit])
            # Slots and tombstones once, over every level's hits.
            slots = node_slot[np.concatenate(nodes)]
            alive = self._alive[slots]
            hit_q.append(pair_q[np.concatenate(rows)[alive]])
            hit_s.append(slots[alive])
            hit_d2.append(np.concatenate(level_d2)[alive])
        if self._buffer:
            bslots = np.asarray(self._buffer, dtype=np.int64)
            delta = queries[:, None, :] - self._coords[bslots][None, :, :]
            d2 = np.einsum("mkj,mkj->mk", delta, delta)
            mq, mk = np.nonzero(d2 <= r2[:, None])
            mq, bs = mq.astype(np.int64), bslots[mk]
            hit_q.append(mq)
            hit_s.append(bs)
            hit_d2.append(pair_d2(self._coords, queries, mq, bs))
        return np.concatenate(hit_q), np.concatenate(hit_s), np.concatenate(hit_d2)

    def query(
        self, queries: np.ndarray, radius: float, max_neighbors: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical ``(indices, counts)`` over the current alive set.

        ``indices`` (``(M, K)``, also for ``M = 0``) holds slot ids sorted
        by ``(d2, slot)`` per row, truncated at ``max_neighbors``,
        nearest-repeated padding; rows with no hit are ``-1``-filled with
        ``counts == 0``.  Bit-identical to
        :func:`~repro.kdtree.dynamic_reference.scratch_dynamic_query` for
        ``M >= 1``.  The one-request case of :meth:`query_merged`.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        request_ids = np.zeros(len(queries), dtype=np.int64)
        return self.query_merged(queries, radius, request_ids, max_neighbors)[0]

    def query_merged(
        self,
        queries: np.ndarray,
        radii: Union[float, np.ndarray],
        request_ids: np.ndarray,
        max_neighbors: Union[int, Sequence[int], np.ndarray],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Serve N concatenated requests in one pass (the serving kernel).

        Mirrors :meth:`repro.runtime.batched.BatchedBallQuery.query_merged`:
        per-row radii, grouped ``request_ids``, per-request ``K``; request
        ``r``'s pair is bit-identical to ``query(rows_r, radius_r, K_r)``
        because hits are row-independent and the pack is canonical.  One
        :func:`~repro.runtime.batched.frontier_sweep` serves them all, and
        one int64 argsort (:func:`_canonical_order`) puts every hit in the
        canonical ``(query, d2, slot)`` order.
        """
        # Imported lazily for the same load-order reason as _build_segment.
        from ..runtime.batched import check_max_neighbors, pack_rows, request_rows

        if self.maintenance == "state":
            raise RuntimeError("state-only DynamicKdTree cannot serve queries")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
        radii = np.asarray(radii, dtype=np.float64)
        ks = np.atleast_1d(check_max_neighbors(max_neighbors))
        if ((radii <= 0) | ~np.isfinite(radii)).any():
            raise ValueError("radius must be positive and finite")
        if radii.ndim == 0:
            radii = np.full(m, float(radii))
        if radii.shape != (m,):
            raise ValueError("radii must give one radius per query")
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite")
        group_rows = request_rows(request_ids, m, len(ks))
        if len(ks) == 0:
            return []
        self.refresh()
        hq, hs, d2 = self._collect(queries, radii)
        order = _canonical_order(hq, d2, hs, m, self._n)
        return pack_rows(
            hq[order], hs[order], group_rows, ks,
            lambda rows: np.full(len(rows), -1, dtype=np.int64),  # no hit: -1
        )
