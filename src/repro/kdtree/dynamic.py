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

Queries sweep each segment with the shared :func:`~repro.runtime.batched
.frontier_sweep` (skipping segments whose bounding box lies outside the
ball), brute-force the buffer, drop tombstoned hits, and pack results
with the **canonical dynamic contract** from
:mod:`repro.kdtree.dynamic_reference` — hits sorted by ``(d2, slot)``.
The contract is a pure function of the hit set, so results are
bit-identical to rebuild-from-scratch per frame no matter how the points
are segmented; the dynamic equivalence suites pin that on every layer up
through the sharded serving tier.

Dirty-region digests
--------------------
Serving keys caches by content digest, and re-hashing a whole cloud per
frame would put an O(N) hash on every mutation.  :class:`DirtyRegionDigest`
splits the slot space into fixed chunks, caches one blake2b per chunk,
and re-hashes only chunks a mutation touched; the top-level digest
combines the cached chunk digests.  It is a pure function of
``(coords[:n], alive[:n])`` — independent of segmentation, maintenance
mode, or mutation history — so a rebuilt-from-state replica (worker
recovery) reports the same digest as the original.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .build import KdTree
from .dynamic_reference import canonical_pack, pair_d2

__all__ = ["DirtyRegionDigest", "DynamicKdTree", "DynamicStats", "check_maintenance"]

# Relative slack on the segment bounding-box prune: the box distance is
# a rounded lower bound on member distances, so pruning exactly at r**2
# could drop a corner point whose own d2 rounds just inside the ball.
# Admitting a segment is always safe (members are re-tested per point).
_PRUNE_SLACK = 1.0 + 1e-9


def check_maintenance(maintenance: str) -> None:
    """Reject an unknown :class:`DynamicKdTree` maintenance mode."""
    if maintenance not in ("incremental", "rebuild", "state"):
        raise ValueError(f"unknown maintenance mode {maintenance!r}")


@dataclass
class DynamicStats:
    """Maintenance-work counters (the incremental-vs-rebuild evidence)."""

    inserts: int = 0
    removes: int = 0
    refreshes: int = 0
    segment_builds: int = 0
    points_indexed: int = 0  # total build work, in points


class DirtyRegionDigest:
    """Chunked content digest with dirty-region re-hash.

    Slots are hashed in fixed chunks of ``chunk_slots``; ``mark_*`` dirties
    the chunks a mutation touched and :meth:`value` re-hashes only those,
    combining cached chunk digests into the top-level hex digest.
    ``chunks_hashed`` counts chunk re-hashes, so tests can prove an update
    touching one chunk did not re-hash the cloud.
    """

    def __init__(self, chunk_slots: int = 1024):
        if chunk_slots <= 0:
            raise ValueError("chunk_slots must be positive")
        self.chunk_slots = int(chunk_slots)
        self.chunks_hashed = 0
        self.evaluations = 0
        self._hashes: List[Optional[bytes]] = []
        self._dirty: set = set()

    def mark_range(self, lo: int, hi: int) -> None:
        """Dirty every chunk overlapping slots ``[lo, hi)``."""
        if hi <= lo:
            return
        self._dirty.update(range(lo // self.chunk_slots, (hi - 1) // self.chunk_slots + 1))

    def mark_slots(self, slots: np.ndarray) -> None:
        if len(slots):
            self._dirty.update(np.unique(np.asarray(slots) // self.chunk_slots).tolist())

    def value(self, coords: np.ndarray, alive: np.ndarray, n: int) -> str:
        """Digest of ``(coords[:n], alive[:n])``, re-hashing dirty chunks only."""
        n_chunks = -(-n // self.chunk_slots)
        if len(self._hashes) < n_chunks:
            self._hashes.extend([None] * (n_chunks - len(self._hashes)))
        for c in sorted(self._dirty):
            if c < n_chunks:
                self._hashes[c] = None
        self._dirty.clear()
        for c in range(n_chunks):
            if self._hashes[c] is None:
                lo, hi = c * self.chunk_slots, min((c + 1) * self.chunk_slots, n)
                h = hashlib.blake2b(digest_size=16)
                h.update(np.ascontiguousarray(coords[lo:hi]).tobytes())
                h.update(np.ascontiguousarray(alive[lo:hi]).tobytes())
                self._hashes[c] = h.digest()
                self.chunks_hashed += 1
        top = hashlib.blake2b(digest_size=16)
        top.update(np.int64(n).tobytes())
        top.update(np.int64(self.chunk_slots).tobytes())
        for c in range(n_chunks):
            top.update(self._hashes[c])
        self.evaluations += 1
        return top.hexdigest()


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
    digest_chunk:
        Slots per :class:`DirtyRegionDigest` chunk.
    """

    def __init__(
        self,
        points: Optional[np.ndarray] = None,
        *,
        maintenance: str = "incremental",
        buffer_cap: int = 512,
        rebuild_fraction: float = 0.25,
        max_segments: int = 4,
        digest_chunk: int = 1024,
    ):
        check_maintenance(maintenance)
        if buffer_cap <= 0 or max_segments <= 0:
            raise ValueError("buffer_cap and max_segments must be positive")
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in (0, 1]")
        self.maintenance = maintenance
        self.buffer_cap = int(buffer_cap)
        self.rebuild_fraction = float(rebuild_fraction)
        self.max_segments = int(max_segments)
        self.stats = DynamicStats()
        self._digest = DirtyRegionDigest(digest_chunk)
        self._coords = np.empty((0, 3), dtype=np.float64)
        self._alive = np.empty(0, dtype=bool)
        self._owner = np.empty(0, dtype=np.int64)  # segment id, -1 = buffer
        self._n = 0
        self._buffer: List[int] = []
        self._segments: Dict[int, _Segment] = {}
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
        """Content digest of ``(coords, alive)`` via dirty-region re-hash."""
        return self._digest.value(self._coords, self._alive, self._n)

    @property
    def digest_chunks_hashed(self) -> int:
        return self._digest.chunks_hashed

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
        obj._digest.mark_range(0, n)
        alive_slots = np.nonzero(obj._alive[:n])[0]
        if obj.maintenance != "state" and len(alive_slots):
            obj._build_segment(alive_slots.astype(np.int64))
        return obj

    def alive_slots(self) -> np.ndarray:
        return np.nonzero(self._alive[: self._n])[0].astype(np.int64)

    def coordinates(self, slots: np.ndarray) -> np.ndarray:
        return self._coords[np.asarray(slots, dtype=np.int64)].copy()

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
        self._digest.mark_range(self._n - k, self._n)
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
        if len(np.unique(slots)) != len(slots):
            raise ValueError("duplicate slot id in remove batch")
        if not self._alive[slots].all():
            raise ValueError("slot already removed")
        self._alive[slots] = False
        owners = self._owner[slots]
        for sid, count in zip(*np.unique(owners[owners >= 0], return_counts=True)):
            self._segments[int(sid)].dead += int(count)
        self._digest.mark_slots(slots)
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
        self._owner[slots] = sid
        self.stats.segment_builds += 1
        self.stats.points_indexed += len(slots)
        return sid

    def _drop_segment(self, sid: int) -> np.ndarray:
        """Remove a segment, returning its alive slots (ascending)."""
        seg = self._segments.pop(sid)
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
        """All (query, alive slot) hit pairs with canonical ``d2`` keys."""
        # Imported lazily for the same load-order reason as _build_segment.
        from ..runtime.batched import frontier_sweep

        r2 = radii * radii
        hit_q: List[np.ndarray] = []
        hit_s: List[np.ndarray] = []
        for sid in sorted(self._segments):
            seg = self._segments[sid]
            if seg.alive_count == 0:
                continue
            clamped = np.clip(queries, seg.lo, seg.hi)
            delta = queries - clamped
            box_d2 = np.einsum("ij,ij->i", delta, delta)
            sub = np.nonzero(box_d2 <= r2 * _PRUNE_SLACK)[0]
            if not len(sub):
                continue
            for level in frontier_sweep(seg.tree, queries[sub], radii[sub], None):
                in_ball = level.in_ball
                if not in_ball.any():
                    continue
                slots = seg.slots[level.point_ids[in_ball]]
                alive = self._alive[slots]
                hit_q.append(sub[level.query_ids[in_ball][alive]])
                hit_s.append(slots[alive])
        if self._buffer:
            bslots = np.asarray(self._buffer, dtype=np.int64)
            delta = queries[:, None, :] - self._coords[bslots][None, :, :]
            d2 = np.einsum("mkj,mkj->mk", delta, delta)
            mq, mk = np.nonzero(d2 <= r2[:, None])
            hit_q.append(mq.astype(np.int64))
            hit_s.append(bslots[mk])
        if not hit_q:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        hq = np.concatenate(hit_q)
        hs = np.concatenate(hit_s)
        return hq, hs, pair_d2(self._coords, queries, hq, hs)

    def _check_queryable(self) -> None:
        if self.maintenance == "state":
            raise RuntimeError("state-only DynamicKdTree cannot serve queries")

    def query(
        self, queries: np.ndarray, radius: float, max_neighbors: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical ``(indices, counts)`` over the current alive set.

        ``indices`` holds slot ids sorted by ``(d2, slot)`` per row,
        truncated at ``max_neighbors``, nearest-repeated padding; rows
        with no hit are ``-1``-filled with ``counts == 0``.  Bit-identical
        to :func:`~repro.kdtree.dynamic_reference.scratch_dynamic_query`.
        The one-request case of :meth:`query_merged`.
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
        because hits are row-independent and the pack is canonical.
        """
        # Imported lazily for the same load-order reason as _build_segment.
        from ..runtime.batched import check_max_neighbors

        self._check_queryable()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
        radii = np.asarray(radii, dtype=np.float64)
        request_ids = np.asarray(request_ids, dtype=np.int64)
        ks = np.atleast_1d(check_max_neighbors(max_neighbors))
        n_req = len(ks)
        if ((radii <= 0) | ~np.isfinite(radii)).any():
            raise ValueError("radius must be positive and finite")
        if radii.ndim == 0:
            radii = np.full(m, float(radii))
        if radii.shape != (m,):
            raise ValueError("radii must give one radius per query")
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite")
        if request_ids.shape != (m,):
            raise ValueError("request_ids must give one request per query")
        if m and ((request_ids < 0) | (request_ids >= n_req)).any():
            raise ValueError(f"request_ids must lie in [0, {n_req})")
        if m and (np.diff(request_ids) < 0).any():
            raise ValueError("request_ids must be grouped (non-decreasing)")
        if n_req == 0:
            return []
        self.refresh()
        starts = np.searchsorted(request_ids, np.arange(n_req + 1))
        hq, hs, d2 = self._collect(queries, radii)
        indices, counts = canonical_pack(m, hq, hs, d2, ks[request_ids])
        return [
            (
                indices[starts[r] : starts[r + 1], : int(ks[r])].copy(),
                counts[starts[r] : starts[r + 1]].copy(),
            )
            for r in range(n_req)
        ]
