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
calling :meth:`query` with a different setting.  Since the index matrix
depends only on geometry (never on network weights), results are memoized
per ``(cache_key, setting)`` — the same economy the authors' artifact uses
to keep training affordable.  Memoization and tree construction live in a
:class:`~repro.runtime.SearchSession`: a bounded LRU whose keys fold in a
digest of the actual point/query coordinates, so reusing a ``cache_key``
with mutated geometry recomputes instead of returning a stale matrix (the
hazard the old ad-hoc dict cache had).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..runtime.epoch import MaterializeReport, MaterializeRequest

from ..runtime.approx import SearchJob, approximate_search
from ..runtime.batched import BatchedBallQuery
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

    def clear_cache(self) -> None:
        self.session.results.clear()

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
        the network-layer entry point, which only needs the indices.
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
        transforms that change geometry every epoch).
        """
        points = np.asarray(points, dtype=np.float64)
        queries_arr = np.atleast_2d(np.asarray(queries, dtype=np.float64))

        def compute() -> Tuple[np.ndarray, np.ndarray]:
            return self.compute_many(
                [(points, queries_arr, radius, max_neighbors, setting)]
            )[0]

        if cache_key is None:
            return compute()
        key = self._site_key(setting, radius, max_neighbors, cache_key)
        return self.session.memoize(key, (points, queries_arr), compute)

    def compute_many(
        self, items: Sequence[Tuple[np.ndarray, np.ndarray, float, int, ApproxSetting]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Uncached ``(indices, counts)`` per ``(points, queries, radius,
        max_neighbors, setting)`` item.

        Trees come from the session (one lookup per item, in order).  Every
        approximate item joins one forest search
        (:func:`~repro.runtime.approximate_search`); exact items run the
        batched exact engine.  :meth:`query_with_counts` is the one-item
        case; epoch materialization passes a whole epoch's misses.
        """
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        jobs, slots = [], []
        for points, queries, radius, max_neighbors, setting in items:
            tree = self.session.tree_for(np.asarray(points, dtype=np.float64))
            queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
            if setting.uses_split_tree or setting.uses_elision:
                slots.append(len(results))
                jobs.append(SearchJob(tree, queries, radius, max_neighbors, setting))
                results.append(None)
            else:
                results.append(BatchedBallQuery(tree).query(queries, radius, max_neighbors))
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

    def memo_key(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
        setting: ApproxSetting,
        cache_key: Hashable,
        digest: Optional[str] = None,
    ) -> Hashable:
        """The full session-cache key a :meth:`query_with_counts` call uses.

        Batch materializers (:func:`repro.runtime.epoch.materialize_requests`)
        dedupe scheduled work with this and file computed results under
        it, so the later forward-pass lookup is a guaranteed hit.
        ``digest`` short-circuits the geometry hashing when the caller has
        already digested this ``(points, queries)`` pair (a settings grid
        reuses each pair once per setting).
        """
        site = self._site_key(setting, radius, max_neighbors, cache_key)
        if digest is None:
            points = np.asarray(points, dtype=np.float64)
            queries_arr = np.atleast_2d(np.asarray(queries, dtype=np.float64))
            return self.session.memo_key(site, (points, queries_arr))
        return self.session.memo_key(site, digest=digest)

    def materialize(
        self, requests: Sequence["MaterializeRequest"]
    ) -> "MaterializeReport":
        """Batch-materialize neighbor matrices into the session cache.

        The epoch-batched counterpart of :meth:`query_with_counts`: dedupe
        the scheduled requests, skip what the session already holds, and
        compute the rest in one forest search.  See
        :func:`repro.runtime.epoch.materialize_requests`.
        """
        from ..runtime.epoch import materialize_requests

        return materialize_requests(self, requests)
