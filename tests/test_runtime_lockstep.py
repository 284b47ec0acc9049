"""Equivalence suite: VectorizedLockstep vs the per-step reference engine.

The vectorized engine claims to be *cycle-, stall-, stat-, and
hit-identical* to :func:`repro.core.approx_search.run_subtree_lockstep`
driving one :class:`~repro.kdtree.SubtreeSearch` machine per query.  These
tests pin that claim on randomized clouds, settings, and hardware shapes —
both end to end (the one-job :func:`repro.runtime.approximate_search`
against the per-step ``approximate_ball_query``, full
:class:`SearchReport` comparison) and at the raw engine level, one tree
at a time.  Mixed multi-tree forests are pinned in
``tests/test_runtime_forest.py``.
"""

import numpy as np
import pytest

from repro.core import ApproxSetting, TreeBufferBanking
from repro.core.approx_search import approximate_ball_query
from repro.core.split_tree import SplitTree
from repro.kdtree import SubtreeSearch, build_kdtree
from repro.kdtree.stats import TraversalStats
from repro.runtime import SearchJob, VectorizedLockstep, approximate_search


def report_fingerprint(report):
    """Every observable the two engines must agree on."""
    t, s = report.traversal, report.tree_sram
    return {
        "lockstep_cycles": report.lockstep_cycles,
        "stall_cycles": report.stall_cycles,
        "subtrees_loaded": report.subtrees_loaded,
        "top_tree_visits": report.top_tree_visits,
        "queue_occupancy": dict(report.queue_occupancy),
        "subtree_cycles": dict(report.subtree_cycles),
        "nodes_visited": t.nodes_visited,
        "nodes_skipped": t.nodes_skipped,
        "nodes_pruned": t.nodes_pruned,
        "stack_pushes": t.stack_pushes,
        "stack_pops": t.stack_pops,
        "neighbors_found": t.neighbors_found,
        "queries": t.queries,
        "sram_accesses": s.accesses,
        "sram_conflicted": s.conflicted,
        "sram_elided": s.elided,
        "sram_broadcasts": s.broadcasts,
        "sram_reads_served": s.reads_served,
        "sram_cycles": s.cycles,
    }


def run_both(tree, queries, radius, k, setting, banks, pes, simulate):
    ref = approximate_ball_query(
        tree, queries, radius, k, setting, banking=TreeBufferBanking(banks),
        num_pes=pes, simulate_conflicts=simulate,
    )
    (vec,) = approximate_search(
        [SearchJob(tree, queries, radius, k, setting, simulate)],
        banking=TreeBufferBanking(banks), num_pes=pes,
    )
    return ref, vec


def machines_of(groups):
    """``[(root, query_ids), ...]`` -> per-machine ``(query_ids, roots)``."""
    mach_queries = np.concatenate([q for _, q in groups])
    roots = np.concatenate(
        [np.full(len(q), root, dtype=np.int64) for root, q in groups]
    )
    return mach_queries, roots


def hits_by_query(mach_queries, outcome):
    """Each machine's hits in visit order, keyed by its query id."""
    hits = {int(q): [] for q in mach_queries}
    order = np.argsort(outcome.hit_machine, kind="stable")
    for mach, pid in zip(outcome.hit_machine[order], outcome.hit_point[order]):
        hits[int(mach_queries[mach])].append(int(pid))
    return hits


class TestRandomizedEquivalence:
    """Full-report identity over a randomized grid of workloads."""

    def test_randomized_clouds_and_settings(self, rng):
        for trial in range(25):
            n = int(rng.integers(30, 600))
            m = int(rng.integers(1, 90))
            points = rng.normal(size=(n, 3))
            queries = rng.normal(size=(m, 3)) * 0.8
            tree = build_kdtree(points)
            ht = int(rng.integers(0, 7))
            he = None if rng.integers(0, 2) else int(rng.integers(0, 9))
            pes = int(rng.choice([1, 2, 3, 4, 8, 16]))
            banks = int(rng.choice([1, 2, 4, 8]))
            simulate = bool(rng.integers(0, 2))
            radius = float(rng.uniform(0.15, 1.1))
            k = int(rng.integers(1, 24))
            ctx = f"trial={trial} n={n} m={m} ht={ht} he={he} pes={pes} banks={banks}"
            (ri, rc, rr), (vi, vc, vr) = run_both(
                tree, queries, radius, k, ApproxSetting(ht, he),
                banks, pes, simulate,
            )
            assert np.array_equal(ri, vi), ctx
            assert np.array_equal(rc, vc), ctx
            assert report_fingerprint(rr) == report_fingerprint(vr), ctx

    def test_top_hits_fill_buffers(self, rng):
        # max_neighbors=1 with a huge radius: most machines are done at
        # creation (top-tree hits fill the result buffer), exercising the
        # reference's discard-on-refill quirk.
        points = rng.normal(size=(200, 3))
        tree = build_kdtree(points)
        queries = points[rng.choice(200, 40)]
        (ri, rc, rr), (vi, vc, vr) = run_both(
            tree, queries, 2.5, 1, ApproxSetting(4, 2), banks=2, pes=4,
            simulate=True,
        )
        assert np.array_equal(ri, vi)
        assert np.array_equal(rc, vc)
        assert report_fingerprint(rr) == report_fingerprint(vr)

    def test_single_pe_and_single_bank_extremes(self, rng):
        points = rng.normal(size=(300, 3))
        tree = build_kdtree(points)
        queries = points[rng.choice(300, 48, replace=False)]
        for pes, banks in ((1, 8), (8, 1)):
            (ri, rc, rr), (vi, vc, vr) = run_both(
                tree, queries, 0.5, 8, ApproxSetting(3, 4), banks, pes, True
            )
            assert np.array_equal(ri, vi)
            assert report_fingerprint(rr) == report_fingerprint(vr)


class TestEngineLevelEquivalence:
    """Drive both engines directly on the same machine queues."""

    @pytest.fixture
    def problem_builder(self, rng, lockstep_groups_builder):
        def build(n=500, m=48, ht=2):
            points = rng.normal(size=(n, 3))
            tree = build_kdtree(points)
            queries = points[rng.choice(n, m, replace=False)]
            groups, split = lockstep_groups_builder(tree, queries, ht)
            return tree, queries, split, groups

        return build

    @pytest.mark.parametrize("policy", ["skip", "descend"])
    def test_policies_match_reference(
        self, problem_builder, reference_lockstep_driver, policy
    ):
        tree, queries, split, groups = problem_builder()
        banking = TreeBufferBanking(2)
        radius, k, he, pes = 0.6, 16, 2, 8
        cycles, stalls, hits, stats, sram = reference_lockstep_driver(
            tree, queries, split, groups, radius, k, he, pes, banking,
            elide_policy=policy,
        )
        engine = VectorizedLockstep(
            tree, banking=banking, num_pes=pes, elide_policy=policy
        )
        mach_queries, roots = machines_of(groups)
        outcome = engine.run(
            queries[mach_queries], roots, np.full(len(mach_queries), k),
            radius, elide_depth=he,
        )
        (vstats,), (vsram,) = outcome.traversal, outcome.sram
        assert outcome.cycles.tolist() == [cycles]
        assert outcome.stalls.tolist() == [stalls]
        assert hits_by_query(mach_queries, outcome) == hits
        for field in ("nodes_visited", "nodes_skipped", "nodes_pruned",
                      "stack_pushes", "stack_pops", "neighbors_found"):
            assert getattr(vstats, field) == getattr(stats, field), field
        for field in ("accesses", "conflicted", "elided", "broadcasts",
                      "reads_served", "cycles"):
            assert getattr(vsram, field) == getattr(sram, field), field

    def test_group_cycles_sum_to_total(self, problem_builder):
        tree, queries, split, groups = problem_builder(ht=3)
        engine = VectorizedLockstep(tree, banking=TreeBufferBanking(4), num_pes=4)
        mach_queries, roots = machines_of(groups)
        outcome = engine.run(
            queries[mach_queries], roots, np.full(len(mach_queries), 8), 0.5,
            elide_depth=3,
        )
        assert len(outcome.group_cycles) == len(groups)
        assert int(outcome.group_cycles.sum()) == int(outcome.cycles[0])

    def test_run_free_matches_run_to_completion(self, problem_builder):
        tree, queries, split, groups = problem_builder(ht=2)
        stats = TraversalStats()
        expected = {}
        for root, q_ids in groups:
            for qi in q_ids:
                machine = SubtreeSearch(
                    tree, queries[qi], 0.5, root=root, max_neighbors=8,
                    stats=stats,
                )
                machine.run_to_completion()
                expected[int(qi)] = list(machine.hits)
        engine = VectorizedLockstep(tree)
        mach_queries, roots = machines_of(groups)
        outcome = engine.run_free(
            queries[mach_queries], roots, np.full(len(mach_queries), 8), 0.5,
        )
        (vstats,) = outcome.traversal
        assert hits_by_query(mach_queries, outcome) == expected
        for field in ("nodes_visited", "nodes_pruned", "stack_pushes",
                      "stack_pops", "neighbors_found"):
            assert getattr(vstats, field) == getattr(stats, field), field

    def test_preorder_slots_match_split_tree_enumeration(self, rng):
        # The vectorized engine derives bank slots from Euler tin indices;
        # they must equal the reference's SplitTree.subtree_nodes order, in
        # every tree of a forest.
        trees = [build_kdtree(rng.normal(size=(n, 3))) for n in (257, 40)]
        engine = VectorizedLockstep(trees)
        for tree, offset in zip(trees, engine.offsets):
            split = SplitTree(tree, 3)
            for root in split.subtree_roots:
                nodes = split.subtree_nodes(int(root)) + offset
                slots = engine.tin[nodes] - engine.tin[int(root) + offset]
                assert np.array_equal(slots, np.arange(len(nodes)))

    def test_rejects_bad_arguments(self, rng):
        tree = build_kdtree(rng.normal(size=(31, 3)))
        with pytest.raises(ValueError):
            VectorizedLockstep(tree, num_pes=0)
        with pytest.raises(ValueError):
            VectorizedLockstep(tree, elide_policy="bogus")
        with pytest.raises(ValueError):
            VectorizedLockstep([])
        engine = VectorizedLockstep(tree)  # no banking
        with pytest.raises(ValueError):
            engine.run(np.zeros((1, 3)), [0], np.array([4]), 0.5)
        engine = VectorizedLockstep(tree, banking=TreeBufferBanking(2))
        with pytest.raises(ValueError):  # one capacity per machine
            engine.run(np.zeros((2, 3)), [0, 0], np.array([4]), 0.5)
        with pytest.raises(ValueError):  # one query row per machine
            engine.run_free(np.zeros((1, 3)), [0, 0], np.array([4, 4]), 0.5)

    def test_record_trace_routes_to_reference(self, rng):
        # The forest engine records no visit trace; visit traces come from
        # the per-step reference machines.
        points = rng.normal(size=(120, 3))
        tree = build_kdtree(points)
        queries = points[:10]
        _, _, report = approximate_ball_query(
            tree, queries, 0.5, 8, ApproxSetting(2, None),
            simulate_conflicts=False, record_trace=True,
        )
        # Every sub-tree visit is traced (top-tree visits are not).
        sub_tree_visits = report.traversal.nodes_visited - report.top_tree_visits
        assert len(report.traversal.visit_trace) == sub_tree_visits > 0
