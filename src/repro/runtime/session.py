"""Search sessions: tree construction + memoization for repeated queries.

A :class:`SearchSession` owns the two caches the query runtime needs:

* a **tree cache** — K-d trees keyed by a digest of the point coordinates,
  so a sweep that queries the same cloud under many settings builds the
  tree once instead of once per call;
* a **result cache** — an LRU of query results keyed by ``(caller key,
  geometry digest)``.

Digesting the geometry (rather than trusting a caller-supplied
``cache_key`` alone, as the ad-hoc dict in earlier revisions of
:mod:`repro.core.pipeline` did) closes a stale-cache hazard: reusing a
``cache_key`` after mutating the underlying points used to silently return
the previous geometry's neighbor matrix.  With the digest folded into
every key, mutated points simply miss the cache and recompute.

Both caches are bounded LRUs, so long training runs cannot grow memory
without limit the way the unbounded dict could.

Cache misses are filled by the level-synchronous builders in
:mod:`repro.runtime.treebuild`; the per-node builders they are pinned
against are test oracles only.  A session also keeps the registry of
mutable clouds (:meth:`SearchSession.register_dynamic`), each served by
its own :class:`~repro.kdtree.dynamic.DynamicKdTree`.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..kdtree.build import KdTree

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..core.split_tree import SplitTree

__all__ = [
    "CacheStats",
    "LruCache",
    "SearchSession",
    "dynamic_handle",
    "geometry_digest",
    "tree_digest",
]

# Distinguishes "no entry" from a cached falsy value (None, 0, empty
# array wrapper, ...).  LruCache.get must never treat a legitimately
# cached None as a miss — callers compare against this marker (or their
# own default) instead of None.
_MISS = object()


def geometry_digest(*arrays: np.ndarray) -> str:
    """Content digest of one or more arrays (dtype- and shape-sensitive)."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dynamic_handle(digest: str, seq: int) -> str:
    """Stable handle for one dynamic-cloud registration.

    Hex (so the sharded tier's ``int(handle[:16], 16)`` routing applies
    unchanged) and unique per registration: the content digest alone
    would alias two independently drifting clouds that happened to start
    from identical coordinates.
    """
    return hashlib.blake2b(f"{digest}:{seq}".encode(), digest_size=16).hexdigest()


def tree_digest(tree: KdTree) -> str:
    """Structural digest of a built K-d tree.

    Folds in the node wiring (``point_id``, ``left``, ``right``,
    ``split_dim``) on top of the coordinates, so two trees over identical
    points built with different split rules never share cache entries.
    """
    return geometry_digest(
        tree.points,
        np.asarray(tree.point_id),
        np.asarray(tree.left),
        np.asarray(tree.right),
        np.asarray(tree.split_dim),
    )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LruCache:
    """A small least-recently-used mapping with hit/miss accounting."""

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default=None):
        """Return the cached value or ``default``, refreshing recency.

        ``None`` is a legal cached *value*: a miss returns ``default``
        (itself ``None`` unless overridden), never a sentinel confusable
        with stored data.  Callers that may cache falsy values pass their
        own unambiguous marker — as :meth:`memoize` does — so a cached
        ``None`` counts as the hit it is instead of being silently
        recomputed (and double-counted as a miss) forever.
        """
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def clear(self) -> None:
        """Empty the cache *and* reset its stats: a cleared cache that
        kept reporting the old hit rate (and eviction count) made every
        post-``SearchSession.clear()`` measurement lie."""
        self._data.clear()
        self.reset_stats()


class SearchSession:
    """Owns trees and memoized results for a stream of neighbor queries.

    One session is typically shared by every layer of a network (and every
    configuration of a sweep), the same economy the authors' artifact uses
    to keep approximation-aware training affordable.

    Parameters
    ----------
    max_results:
        Result-cache capacity (entries, LRU-evicted).
    max_trees:
        Tree-cache capacity.  Trees are keyed by point-coordinate digest,
        so in-place mutation of a cloud naturally re-keys.
    """

    def __init__(self, max_results: int = 512, max_trees: int = 64):
        self.results = LruCache(max_results)
        self.trees = LruCache(max_trees)
        self.split_trees = LruCache(max_trees)
        # Dynamic-cloud registry: handle -> DynamicKdTree.  State, not a
        # cache — entries live until the caller drops the handle, and
        # clear() leaves them alone.
        self._dynamic: "OrderedDict[str, object]" = OrderedDict()
        self._dynamic_seq = itertools.count()

    # ------------------------------------------------------------------
    def tree_for(self, points: np.ndarray, digest: Optional[str] = None) -> KdTree:
        """Build (or fetch) the K-d tree over ``points``: the one-item
        :meth:`trees_for`.

        ``digest`` lets callers that already computed
        ``geometry_digest(points)`` (the serving layer digests each
        cloud at flush, from the bytes it is about to search) skip
        re-hashing the cloud here; it must be the digest of the current
        content of ``points`` as float64.
        """
        return self.trees_for([points], [digest])[0]

    def trees_for(
        self,
        clouds: Sequence[np.ndarray],
        digests: Optional[Sequence[Optional[str]]] = None,
    ) -> List[KdTree]:
        """Build (or fetch) the K-d tree over every cloud, one forest pass.

        One digest (unless ``digests`` supplies it; ``None`` entries are
        hashed here) and one tree-cache lookup per item, then a single
        :func:`~repro.runtime.treebuild.vectorized_build_forest` call over
        the distinct misses.  The cache records what the one-at-a-time
        :meth:`tree_for` loop would: a miss per distinct missing cloud, and
        a hit for every later item on a cloud the batch has already missed.

        A miss builds from a private read-only copy of its cloud: the tree
        stays filed under this digest, so a later write to the caller's
        array must not reach it.  A hit copies nothing.

        Batch callers — epoch materialization, a Fig. 14 suite, each
        :meth:`~repro.serve.QueryService.flush` — resolve all their clouds
        in one call, so their cold clouds share one build.  If it raises,
        nothing is cached and the error reaches the caller.
        """
        clouds = [np.asarray(points, dtype=np.float64) for points in clouds]
        if digests is None:
            digests = [None] * len(clouds)
        elif len(digests) != len(clouds):
            raise ValueError(f"expected {len(clouds)} digests, got {len(digests)}")
        trees: List[Optional[KdTree]] = [None] * len(clouds)
        missed: Dict[str, List[int]] = {}  # digest -> positions, first-miss order
        for i, (points, digest) in enumerate(zip(clouds, digests)):
            key = geometry_digest(points) if digest is None else digest
            if key in missed:
                missed[key].append(i)
                continue
            tree = self.trees.get(key, _MISS)
            if tree is _MISS:
                missed[key] = [i]
            else:
                trees[i] = tree
        if missed:
            # Imported lazily: treebuild imports repro.core (for the
            # SplitTree base), which imports this module at load time.
            from .treebuild import vectorized_build_forest

            frozen = [clouds[positions[0]].copy() for positions in missed.values()]
            for points in frozen:
                points.setflags(write=False)
            built = vectorized_build_forest(frozen)
            for (key, positions), tree in zip(missed.items(), built):
                self.trees.put(key, tree)
                self.trees.stats.hits += len(positions) - 1
                for i in positions:
                    trees[i] = tree
        return trees

    def split_tree_for(self, tree: KdTree, top_height: int) -> "SplitTree":
        """Build (or fetch) the :class:`SplitTree` over ``tree``.

        Keyed by the tree's structural digest plus ``top_height``, so a
        network sweep that revisits the same cloud under many settings
        lays the split-tree memory image out once per ``h_t`` instead of
        once per layer call.
        """
        key = (tree_digest(tree), int(top_height))
        split = self.split_trees.get(key, _MISS)
        if split is _MISS:
            # Imported here: repro.core.pipeline imports this module at
            # load time, so a module-level import of repro.core (direct
            # or via treebuild) would be circular.
            from .treebuild import VectorizedSplitTree

            split = VectorizedSplitTree(tree, int(top_height))
            self.split_trees.put(key, split)
        return split

    @staticmethod
    def memo_key(key: Hashable, digest: str) -> Hashable:
        """The full result-cache key of call site ``key`` over geometry
        whose :func:`geometry_digest` is ``digest``.

        The single place the key tuple is composed: :meth:`memoize` files
        under it, and :meth:`~repro.core.pipeline.ApproximationPipeline.resolve`
        looks planned requests up under it with the digest they carry.
        """
        return (key, digest)

    def memoize(
        self,
        key: Hashable,
        geometry: Tuple[np.ndarray, ...],
        compute: Callable[[], object],
    ):
        """Return ``compute()``, cached under ``(key, digest(geometry))``.

        The digest makes the memoization safe against callers that reuse
        ``key`` with mutated arrays: the stale entry is simply never hit
        again (and eventually ages out of the LRU).  Misses are detected
        with a sentinel, so a computation that legitimately returns
        ``None`` (or any falsy value) is cached like any other result
        instead of being recomputed on every call.
        """
        full_key = self.memo_key(key, geometry_digest(*geometry))
        cached = self.results.get(full_key, _MISS)
        if cached is _MISS:
            cached = compute()
            self.results.put(full_key, cached)
        return cached

    # -- dynamic clouds ------------------------------------------------
    def register_dynamic(
        self, points: Optional[np.ndarray] = None, maintenance: str = "incremental"
    ) -> str:
        """Register a mutable cloud; returns its **stable** handle.

        The handle folds the cloud's registration-time content digest
        with a per-session sequence number (two clouds that *start*
        identical drift independently, so they must not alias) and never
        changes — it is the identity callers (and the sharded tier's
        static digest routing) hold onto across mutations.  The *current*
        content digest moves with every :meth:`update`.  ``maintenance``
        must be one that serves queries (``"incremental"`` or
        ``"rebuild"``).
        """
        # Imported lazily: repro.kdtree.dynamic pulls treebuild back in
        # through the segment builders at query time.
        from ..kdtree.dynamic import DynamicKdTree, check_maintenance

        check_maintenance(maintenance)
        dyn = DynamicKdTree(points, maintenance=maintenance)
        handle = dynamic_handle(dyn.digest, next(self._dynamic_seq))
        self._dynamic[handle] = dyn
        return handle

    def adopt_dynamic(self, handle: str, dyn) -> None:
        """Install a reconstructed :class:`DynamicKdTree` under ``handle``.

        The worker-recovery path: after a respawn the dispatcher re-ships
        a state snapshot, and the rebuilt replica must live under the
        original (registration-time) handle even though its *current*
        digest has drifted since.
        """
        self._dynamic[handle] = dyn

    def dynamic(self, handle: str):
        """The live :class:`DynamicKdTree` behind ``handle``."""
        try:
            return self._dynamic[handle]
        except KeyError:
            raise KeyError(f"unknown dynamic handle {handle!r}") from None

    def update(self, handle: str, inserts=None, removes=None) -> None:
        """Apply one frame of mutations.

        Removes apply before inserts (the frame contract every replica —
        worker, shadow, reference — shares, so slot allocation stays
        deterministic everywhere).  A dynamic cloud is queried through its
        own index, never the tree or result caches, so no cache entry can
        go stale.  Nothing is hashed here: ``dynamic(handle).digest``
        gives the content digest on demand.
        """
        dyn = self.dynamic(handle)
        if removes is not None:
            dyn.remove(removes)
        if inserts is not None:
            dyn.insert(inserts)

    def clear(self) -> None:
        """Drop the caches (dynamic-cloud registrations are state, not
        cache entries, and survive)."""
        self.results.clear()
        self.trees.clear()
        self.split_trees.clear()
