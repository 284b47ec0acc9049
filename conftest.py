"""Repo-wide pytest configuration shared by ``tests/`` and ``benchmarks/``.

Registers the ``slow`` marker (training-backed figure benchmarks and the
runtime micro-benchmark carry it; CI's smoke lane deselects them with
``-m "not slow"``) and provides the shared seed fixture that keeps
randomized tests deterministic: override with ``REPRO_TEST_SEED`` to
explore other draws locally — CI always runs the default.

Also hosts the *pinned per-step lockstep reference driver* used by the
equivalence suite (``tests/test_runtime_lockstep.py``) and both perf
benches (``tests/test_runtime_perf.py``, ``benchmarks/test_lockstep_perf.py``):
one definition of "drive one SubtreeSearch machine per query through
``run_subtree_lockstep``" keeps all three suites testing the same
reference semantics.  ``digest_calls`` counts the serving layer's
geometry digests for the serving suites and ``benchmarks/test_serve_perf.py``;
``sweep_level_sizes`` records the row count of every frontier-sweep level
for the dense early-stop tests, and ``call_rows`` the row count of every
call of a named module function (``frontier_sweep``, ``pair_d2``, the
lockstep's ``_refill``) for the structural twins of the dynamic and
lockstep tests and ``benchmarks/test_dynamic_perf.py``.
"""

import inspect
import os

import numpy as np
import pytest

DEFAULT_TEST_SEED = 20260730


def _build_lockstep_groups(tree, queries, top_height):
    """Bucket ``queries`` per sub-tree root, in queue order.

    Returns ``(groups, split)`` where ``groups`` is the
    ``[(root, query_ids), ...]`` list both lockstep engines consume.
    """
    from repro.core.split_tree import SplitTree

    split = SplitTree(tree, top_height)
    assigned = split.route_queries(queries)
    uniq, inverse = np.unique(assigned, return_inverse=True)
    groups = [
        (int(root), np.nonzero(inverse == gi)[0]) for gi, root in enumerate(uniq)
    ]
    return groups, split


def _drive_reference_lockstep(
    tree, queries, split, groups, radius, max_neighbors, elide_depth,
    num_pes, banking, elide_policy="skip",
):
    """The per-step reference: one SubtreeSearch machine per query driven
    through ``run_subtree_lockstep``, sub-tree by sub-tree.
    ``max_neighbors`` is one result capacity for every machine, or one per
    ``queries`` row (0 makes a machine that is done at creation).

    Returns ``(cycles, stalls, hits_by_query, traversal_stats, sram_stats)``
    — the fingerprint the vectorized engine must reproduce exactly.
    """
    from repro.core.approx_search import run_subtree_lockstep
    from repro.kdtree.stats import TraversalStats
    from repro.kdtree.traversal import SubtreeSearch
    from repro.memsim.sram import SramStats

    stats, sram = TraversalStats(), SramStats()
    cycles = stalls = 0
    hits = {}
    per_query = np.ndim(max_neighbors) > 0
    for root, q_ids in groups:
        machines = [
            SubtreeSearch(
                tree, queries[qi], radius, root=root,
                max_neighbors=int(max_neighbors[qi]) if per_query else max_neighbors,
                elide_depth=elide_depth, stats=stats,
            )
            for qi in q_ids
        ]
        slot_map = {
            int(node): i for i, node in enumerate(split.subtree_nodes(root))
        }
        c, s = run_subtree_lockstep(
            machines, slot_map, banking, num_pes, sram,
            elide_policy=elide_policy,
        )
        cycles += c
        stalls += s
        for qi, machine in zip(q_ids, machines):
            hits[int(qi)] = list(machine.hits)
    return cycles, stalls, hits, stats, sram


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running test (training-backed benchmarks, perf micro-benchmarks); "
        'deselected in the CI smoke lane via -m "not slow"',
    )


@pytest.fixture
def test_seed() -> int:
    """The suite-wide base seed (``REPRO_TEST_SEED`` overrides)."""
    return int(os.environ.get("REPRO_TEST_SEED", DEFAULT_TEST_SEED))


# The helpers are handed out as fixtures (rather than imported by module
# name) because both the repo root and benchmarks/ have a conftest.py —
# ``import conftest`` would resolve to whichever is first on sys.path.
@pytest.fixture(scope="session")
def lockstep_groups_builder():
    """``(tree, queries, top_height) -> (groups, split)``."""
    return _build_lockstep_groups


@pytest.fixture(scope="session")
def reference_lockstep_driver():
    """The pinned per-step reference lockstep driver (see module docs)."""
    return _drive_reference_lockstep


@pytest.fixture
def call_rows(monkeypatch):
    """Count the rows of a module function's calls.

    ``call_rows(module, name, arg)`` wraps ``module.<name>`` and returns
    the list the wrapper appends each call's ``len`` of argument ``arg``
    to.  Patch the module a caller reads the function from: the dynamic
    index imports ``frontier_sweep`` at call time, so ``(repro.runtime
    .batched, "frontier_sweep", "queries")`` counts its sweeps, and it
    imports ``pair_d2`` by name, so ``(repro.kdtree.dynamic, "pair_d2",
    "hit_q")`` counts the hits it computes distances for.  The wrapper
    passes arguments and results through untouched and adds one
    signature bind per call, nothing per row: a work count that timing
    noise cannot flake.
    """

    def spy(module, name, arg):
        rows = []
        real = getattr(module, name)
        signature = inspect.signature(real)

        def counting(*args, **kwargs):
            rows.append(len(signature.bind(*args, **kwargs).arguments[arg]))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return rows

    return spy


@pytest.fixture
def digest_calls(call_rows):
    """Record every ``geometry_digest`` call the serving layer makes.

    ``call_rows`` over ``repro.serve.service.geometry_digest`` (the
    service imports it by name): one entry per call, the number of arrays
    it digested.
    """
    import repro.serve.service as service_module

    return call_rows(service_module, "geometry_digest", "arrays")


@pytest.fixture
def sweep_level_sizes(monkeypatch):
    """Spy on a module's ``frontier_sweep``.

    ``sweep_level_sizes(module)`` wraps ``module.frontier_sweep`` and
    returns the list the wrapper appends every yielded level's row count
    to: ``repro.runtime.batched`` for the batched engine, and
    ``repro.runtime.traced``, which imports the sweep by name, for the
    traced one.
    """

    def spy(module):
        sizes = []
        real = module.frontier_sweep

        def recording(*args, **kwargs):
            for level in real(*args, **kwargs):
                sizes.append(len(level.nodes))
                yield level

        monkeypatch.setattr(module, "frontier_sweep", recording)
        return sizes

    return spy


@pytest.fixture
def rng(test_seed) -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(test_seed)
