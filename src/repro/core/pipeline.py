"""The end-to-end approximation pipeline used inside network layers.

:class:`ApproximationPipeline` bundles everything between raw points and
the neighbor index matrix a network layer consumes:

1. K-d tree construction over the layer's points,
2. neighbor search — exact (through the batched runtime engine), or
   Crescent's approximate search under a setting ``h = <h_t, h_e>`` with
   tree-buffer conflict simulation (through the forest runtime engine,
   :func:`~repro.runtime.approximate_search`),
3. optional point-buffer conflict elision during aggregation (the
   replicating rewrite of the index matrix).

It is the object the approximation-aware training procedure (Sec. 5)
threads through the forward pass: sampling a new ``h`` per input is just
resolving that input's requests under a different setting.  One resolver,
:meth:`resolve`, serves every caller: a set-abstraction stage resolves its
rows in one call, epoch materialization resolves a whole epoch, and
:meth:`query` is the one-request case.  Since the index matrix
depends only on geometry (never on network weights), results are memoized
per ``(cache_key, setting)`` — the same economy the authors' artifact uses
to keep training affordable.  Memoization and tree construction live in a
:class:`~repro.runtime.SearchSession`: a bounded LRU whose keys fold in a
digest of the actual point/query coordinates, so reusing a ``cache_key``
with mutated geometry recomputes instead of returning a stale matrix (the
hazard the old ad-hoc dict cache had).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.approx import SearchJob, approximate_search
from ..runtime.batched import BatchedBallQuery
from ..runtime.epoch import QueryRequest
from ..runtime.session import SearchSession
from .bank_conflict import (
    PointBufferBanking,
    TreeBufferBanking,
    apply_aggregation_elision,
)
from .config import ApproxSetting

__all__ = ["ApproximationPipeline"]


class ApproximationPipeline:
    """Produces (effective) neighbor index matrices under approximation.

    Parameters
    ----------
    tree_banking / point_banking:
        Banking configurations simulated for search and aggregation
        conflicts.  Training with one banking and inferring with another is
        how the Fig. 21 sensitivity study is run.
    num_pes:
        Concurrent search PEs in the conflict simulation.
    agg_ports:
        Concurrent aggregation requests per cycle (paper: 16).
    elide_aggregation:
        Apply the point-buffer replication rewrite (BCE in aggregation).
    session:
        The :class:`~repro.runtime.SearchSession` holding the tree and
        result caches.  Pass a shared session to pool trees/results across
        pipelines (e.g. the networks of a comparison sweep all query the
        same clouds); by default each pipeline gets its own.
    """

    def __init__(
        self,
        tree_banking: TreeBufferBanking = TreeBufferBanking(),
        point_banking: PointBufferBanking = PointBufferBanking(),
        num_pes: int = 4,
        agg_ports: int = 16,
        elide_aggregation: bool = False,
        session: Optional[SearchSession] = None,
    ):
        self.tree_banking = tree_banking
        self.point_banking = point_banking
        self.num_pes = num_pes
        self.agg_ports = agg_ports
        self.elide_aggregation = elide_aggregation
        self.session = session if session is not None else SearchSession()

    # ------------------------------------------------------------------
    def query(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
        setting: ApproxSetting,
        cache_key: Optional[Hashable] = None,
    ) -> np.ndarray:
        """Return the effective ``(M, K)`` neighbor index matrix.

        See :meth:`query_with_counts` for the caching contract; this is
        the entry point for callers that only need the indices.
        """
        return self.query_with_counts(
            points, queries, radius, max_neighbors, setting, cache_key
        )[0]

    def query_with_counts(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
        setting: ApproxSetting,
        cache_key: Optional[Hashable] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, counts)`` — the index matrix plus true-hit counts.

        ``counts[m]`` is the number of real (pre-padding) neighbors of
        query ``m``, which accuracy studies need to separate genuine
        neighborhood loss from padding.  Both halves are memoized together,
        so a cache hit serves counts at no extra cost.

        ``cache_key`` should identify the *call site* (e.g. ``(sample_id,
        layer_name)``); the setting and banking parameters are folded into
        the memoization key automatically, and a digest of the actual
        coordinates guards against key reuse across mutated geometry.
        Pass ``None`` to disable caching (e.g. with augmentation
        transforms that change geometry every epoch).  This is the
        one-request case of :meth:`resolve`.
        """
        request = QueryRequest(points, queries, radius, max_neighbors, setting, cache_key)
        return self.resolve([request])[0]

    def resolve(
        self, requests: Sequence[QueryRequest]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(indices, counts)`` per request, in request order.

        Cached requests are deduped by memoization key (the call site,
        setting and banking, plus the geometry digest the request
        carries), and each distinct key is looked up once in the session;
        a hit refreshes its recency.  Every miss, and every uncached
        request, is computed in one :meth:`compute_many` call (one forest
        build, one forest search), and the cached misses are filed.

        The result cache grows to hold the call's distinct keys: epoch
        materialization resolves a whole epoch, and its working set must
        survive until the gradient loop reads it back.  That bound is sized
        by one epoch's schedule, the memory the caller asked to hold.
        """
        results = self.session.results
        missing = object()
        keys: List[Hashable] = []
        found: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}
        todo: Dict[Hashable, QueryRequest] = {}
        for req in requests:
            if req.cache_key is None:
                key = object()  # never filed, never shared
            else:
                site = self._site_key(req.setting, req.radius, req.max_neighbors, req.cache_key)
                key = self.session.memo_key(site, req.digest)
            keys.append(key)
            if key in found or key in todo:
                continue
            value = missing if req.cache_key is None else results.get(key, missing)
            if value is missing:
                todo[key] = req
            else:
                found[key] = value
        filed = len(found) + sum(req.cache_key is not None for req in todo.values())
        results.max_entries = max(results.max_entries, filed)
        for (key, req), value in zip(todo.items(), self.compute_many(list(todo.values()))):
            found[key] = value
            if req.cache_key is not None:
                results.put(key, value)
        return [found[key] for key in keys]

    def compute_many(
        self, requests: Sequence[QueryRequest]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Uncached ``(indices, counts)`` per request.

        Every request's tree comes from one ``session.trees_for`` call (one
        lookup per request under its carried cloud digest, one forest build
        over the missing clouds).  Every approximate request joins one
        forest search (:func:`~repro.runtime.approximate_search`); exact
        requests run the batched exact engine.
        """
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        jobs, slots = [], []
        trees = self.session.trees_for(
            [req.points for req in requests], [req.cloud_digest for req in requests]
        )
        for tree, req in zip(trees, requests):
            if req.setting.uses_split_tree or req.setting.uses_elision:
                slots.append(len(results))
                jobs.append(
                    SearchJob(tree, req.queries, req.radius, req.max_neighbors, req.setting)
                )
                results.append(None)
            else:
                results.append(
                    BatchedBallQuery(tree).query(req.queries, req.radius, req.max_neighbors)
                )
        searched = approximate_search(
            jobs, banking=self.tree_banking, num_pes=self.num_pes
        )
        for slot, (indices, counts, _) in zip(slots, searched):
            results[slot] = (indices, counts)
        if self.elide_aggregation:
            results = [
                (apply_aggregation_elision(idx, self.point_banking, self.agg_ports), cnt)
                for idx, cnt in results
            ]
        return results

    # ------------------------------------------------------------------
    def _site_key(
        self,
        setting: ApproxSetting,
        radius: float,
        max_neighbors: int,
        cache_key: Hashable,
    ) -> Hashable:
        """The geometry-free half of the memoization key for one call site."""
        return (
            cache_key,
            setting.top_height,
            setting.elision_height,
            self.tree_banking.num_banks,
            self.point_banking.num_banks,
            self.num_pes,
            self.agg_ports,
            self.elide_aggregation,
            radius,
            max_neighbors,
        )
