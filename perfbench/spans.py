"""Per-layer tracing for the benchmark, installed from outside the program.

The program has no spans of its own yet, so a traced run (``--trace 1``)
wraps the entry points of each layer in place — module functions in every
``repro`` module that imported them, methods on their classes — and keeps
one span stack in memory.  Each layer's *self* time is its span time minus
the time of the spans nested inside it, so a search that triggers a lazy
tree rebuild charges the rebuild to ``build`` and the rest to ``search``.

Layers (and the work counted at a layer's outermost span):

* ``hash``   — geometry digests: bytes hashed;
* ``build``  — K-d tree and split-tree layout construction: trees built,
  points indexed;
* ``search`` — neighbor-search engines: query rows searched;
* ``sample`` — farthest point sampling, the networks' centroid choice.

Time outside every layer span is the workload's own ``other`` time
(validation, queueing and demux, cycle accounting, the training forward
and backward passes).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

LAYERS = ("hash", "build", "search", "sample")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _digest_bytes(args, kwargs, owner, before):
    return {"hash_bytes": sum(getattr(a, "nbytes", 0) for a in args)}


def _dirty_chunk_bytes(args, kwargs, digest, before):
    # Re-hashed chunks, counted at full size: coords (3 x float64) + alive.
    return {"hash_bytes": (digest.chunks_hashed - before) * digest.chunk_slots * 25}


_dirty_chunk_bytes.probe = lambda digest: getattr(digest, "chunks_hashed", 0)


def _tree_build(args, kwargs, owner, before):
    return {"tree_builds": 1, "points_indexed": len(_arg(args, kwargs, 0, "points"))}


def _search_rows(index: int):
    def count(args, kwargs, owner, before):
        queries = _arg(args, kwargs, index, "queries")
        return {"queries_searched": len(queries) if getattr(queries, "ndim", 2) > 1 else 1}

    return count


# (module, attribute, layer, counter).  A counter receives the call's
# arguments (without ``self``), the bound instance for methods, and the
# value its optional ``probe`` read from that instance on entry; it returns
# work counts and runs only on a layer's outermost span, so nested engines
# (an accelerator engine calling the approximate search) count once.
HOOKS = [
    ("repro.runtime.session", "geometry_digest", "hash", _digest_bytes),
    ("repro.kdtree.dynamic", "DirtyRegionDigest.value", "hash", _dirty_chunk_bytes),
    ("repro.runtime.treebuild", "vectorized_build_kdtree", "build", _tree_build),
    ("repro.kdtree.build", "build_kdtree", "build", _tree_build),
    ("repro.core.split_tree", "SplitTree.__init__", "build", None),
    ("repro.runtime.treebuild", "VectorizedSplitTree.__init__", "build", None),
    ("repro.runtime.batched", "BatchedBallQuery.query", "search", _search_rows(0)),
    ("repro.runtime.batched", "BatchedBallQuery.query_merged", "search", _search_rows(0)),
    ("repro.kdtree.dynamic", "DynamicKdTree.query", "search", _search_rows(0)),
    ("repro.kdtree.dynamic", "DynamicKdTree.query_merged", "search", _search_rows(0)),
    ("repro.core.approx_search", "approximate_ball_query", "search", _search_rows(1)),
    ("repro.accel.search_engine", "NeighborSearchEngine.run", "search", _search_rows(1)),
    ("repro.accel.baselines", "ExhaustiveSplitSearchEngine.run", "search", _search_rows(1)),
    ("repro.models.layers", "farthest_point_sampling", "sample", None),
    ("repro.models.layers", "farthest_point_sampling_batched", "sample", None),
]


class Tracer:
    """Span stack with per-layer self time and work counts.

    Entering the context installs the wrappers; leaving restores every
    patched attribute.  A hook whose target no longer exists is reported
    on stderr and skipped, so its time shows up as ``other``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []  # [layer, resumed_at]
        self._depth: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: list = []

    def reset(self) -> None:
        self.self_time.clear()
        self.counts.clear()

    def _enter(self, layer: str) -> None:
        now = self._clock()
        if self._stack:
            top = self._stack[-1]
            self.self_time[top[0]] += now - top[1]
        self._stack.append([layer, now])
        self._depth[layer] += 1

    def _exit(self) -> None:
        now = self._clock()
        layer, resumed = self._stack.pop()
        self._depth[layer] -= 1
        self.self_time[layer] += now - resumed
        if self._stack:
            self._stack[-1][1] = now

    def _wrap(self, fn, layer: str, counter, is_method: bool):
        tracer = self
        probe = getattr(counter, "probe", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer._depth[layer] == 0
            owner = args[0] if is_method else None
            before = probe(owner) if probe is not None else None
            tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
                if outermost and counter is not None:
                    call_args = args[1:] if is_method else args
                    try:
                        counted = counter(call_args, kwargs, owner, before)
                    except (IndexError, KeyError, TypeError, AttributeError):
                        counted = {}  # signature moved on: time still traced
                    for key, value in counted.items():
                        tracer.counts[key] += value

        return wrapper

    def __enter__(self) -> "Tracer":
        targets, missing = [], []
        for module_name, attr, layer, counter in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            targets.append((owner, name, original, layer, counter, bool(owner_name)))
        if missing:
            print("perfbench: untraced, not found: " + ", ".join(missing), file=sys.stderr)
        # Every hook module is loaded before patching, so the scan below
        # sees each module that copied a function in with ``from x import f``.
        repro_modules = [
            m for n, m in list(sys.modules.items()) if n.startswith("repro") and m is not None
        ]
        for owner, name, original, layer, counter, is_method in targets:
            wrapper = self._wrap(original, layer, counter, is_method)
            if is_method:
                self._patch(owner, name, wrapper)
                continue
            for module in repro_modules:
                if vars(module).get(name) is original:
                    self._patch(module, name, wrapper)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
