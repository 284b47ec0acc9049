"""Regression tests for the cycle-accounting bugfix sweep.

One test class per fixed bug:

* ``LruCache.get`` treated a cached ``None``/falsy value as a miss, so
  ``memoize`` silently recomputed (and double-counted misses) forever.
* The vectorized top-tree descent re-tested a parked query (one whose
  branch ran out of children early) against the same leaf every remaining
  level, inflating ``nodes_visited``/``top_tree_visits`` and the
  distance-energy term derived from them.
* A same-address broadcast loser was advanced through the elision pathway
  (``elide=True`` with ``substitute == node``), mislabeling a *served*
  fetch with elision semantics; broadcasts are now recorded as served
  (``SramStats.broadcasts``) and the backdoor is an error.
* ``NeighborSearchEngine._top_phase`` accounted stalls as
  ``level_cycles - 1`` (serialization depth, not waiting PEs) and banked
  *global node ids* while phase 2 banks sub-tree buffer slots.
* ``dram_traffic_study`` crashed on an empty trace list
  (``np.concatenate([])`` / ``max()`` of an empty stream) where
  ``nonstreaming_fraction`` guarded the same case.
* Every trainer's ``evaluate`` unconditionally called ``model.train()``
  on exit, silently flipping an eval-mode model back to training.
"""

import numpy as np
import pytest

from repro.core import ApproxSetting, TreeBufferBanking
from repro.core.approx_search import approximate_ball_query, run_subtree_lockstep
from repro.core.config import CrescentHardwareConfig
from repro.core.split_tree import SplitTree
from repro.accel.pe import PIPELINE_DEPTH
from repro.accel.search_engine import NeighborSearchEngine
from repro.kdtree import SubtreeSearch, build_kdtree
from repro.kdtree.build import KdTree
from repro.memsim import SramStats
from repro.memsim.sram import BankedSramConfig
from repro.runtime import LruCache, SearchJob, SearchSession, approximate_search


# ----------------------------------------------------------------------
# Bugfix 1: LruCache sentinel miss marker
# ----------------------------------------------------------------------
class TestLruCacheSentinel:
    def test_cached_none_is_a_hit(self):
        cache = LruCache()
        cache.put("k", None)
        assert cache.get("k") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_cached_falsy_values_are_hits(self):
        cache = LruCache()
        for key, value in (("zero", 0), ("empty", ()), ("false", False)):
            cache.put(key, value)
            assert cache.get(key) == value
        assert cache.stats.misses == 0
        assert cache.stats.hits == 3

    def test_get_default_on_miss(self):
        cache = LruCache()
        marker = object()
        assert cache.get("missing", marker) is marker
        assert cache.stats.misses == 1

    def test_memoize_caches_none_result(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(10, 3))
        calls = []

        def compute():
            calls.append(1)
            return None  # legal result; must be computed exactly once

        assert session.memoize("k", (pts,), compute) is None
        assert session.memoize("k", (pts,), compute) is None
        assert len(calls) == 1
        assert session.results.stats.misses == 1
        assert session.results.stats.hits == 1


# ----------------------------------------------------------------------
# Bugfix 2: parked queries in the top-tree descent
# ----------------------------------------------------------------------
def short_branch_tree() -> KdTree:
    """Hand-built tree with a depth-1 leaf next to a depth-3 spine.

    (Balanced median-split trees keep all leaves within the bottom two
    levels, so the parked-query path needs a custom tree.)

    ::

              0 (x=0)
             / \\
      leaf  1   2 (x=1)
        (x=-1)   \\
                  3 (x=2)
                   \\
                    4 (x=3)
    """
    points = np.array(
        [[0.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]
    )
    return KdTree(
        points=points,
        point_id=np.arange(5, dtype=np.int64),
        split_dim=np.zeros(5, dtype=np.int8),
        left=np.array([1, -1, -1, -1, -1], dtype=np.int64),
        right=np.array([2, -1, 3, 4, -1], dtype=np.int64),
        depth=np.array([0, 1, 1, 2, 3], dtype=np.int32),
        subtree_size=np.array([5, 1, 3, 2, 1], dtype=np.int64),
    )


class TestParkedTopTreeDescent:
    def test_parked_query_tested_once(self):
        tree = short_branch_tree()
        queries = np.array([[-1.0, 0, 0], [3.0, 0, 0]])
        idx, counts, report = approximate_ball_query(
            tree, queries, 0.5, 4, ApproxSetting(3, None),
            simulate_conflicts=False,
        )
        # Query 0 parks at leaf 1 after two fetches (root, leaf); query 1
        # descends all three levels.  The old accounting charged
        # m * top_height = 6 fetches and re-tested the leaf each level.
        assert report.top_tree_visits == 5
        # Phase 2 then revisits each assigned root once (leaf 1, node 4).
        assert report.traversal.nodes_visited == 7
        np.testing.assert_array_equal(counts, [1, 1])
        np.testing.assert_array_equal(idx[0], [1, 1, 1, 1])
        np.testing.assert_array_equal(idx[1], [4, 4, 4, 4])

    def test_parked_hit_not_duplicated(self):
        # The re-test used to append the leaf's point to the query's hit
        # list once per remaining level; dedup hid it from results but the
        # duplicates crowded out the "remaining capacity" budget.
        tree = short_branch_tree()
        queries = np.array([[-1.0, 0, 0]])
        idx, counts, report = approximate_ball_query(
            tree, queries, 2.5, 4, ApproxSetting(3, None),
            simulate_conflicts=False,
        )
        # Radius 2.5 reaches points 0 and 1 from the parked query.
        assert counts[0] == 2
        assert set(idx[0].tolist()) == {1, 0}

    def test_balanced_trees_unaffected(self, rng):
        # Median-split trees have no early leaves above the last two
        # levels: the full m * h_t accounting must be unchanged.
        points = rng.normal(size=(256, 3))
        tree = build_kdtree(points)
        queries = points[:32]
        _, _, report = approximate_ball_query(
            tree, queries, 0.4, 8, ApproxSetting(4, None),
            simulate_conflicts=False,
        )
        assert report.top_tree_visits == 32 * 4


# ----------------------------------------------------------------------
# Bugfix 3: broadcasts recorded as served, not elided
# ----------------------------------------------------------------------
class TestBroadcastServed:
    def _identical_machines(self, rng, count=3):
        points = rng.normal(size=(127, 3))
        tree = build_kdtree(points)
        query = points[0]
        return tree, [
            SubtreeSearch(tree, query, 0.6, root=tree.root, max_neighbors=8,
                          elide_depth=0)
            for _ in range(count)
        ]

    def test_same_address_losers_visit_normally(self, rng):
        tree, machines = self._identical_machines(rng)
        solo = SubtreeSearch(tree, machines[0].query, 0.6, root=tree.root,
                             max_neighbors=8, elide_depth=0)
        solo.run_to_completion()
        sram = SramStats()
        slot_map = {int(n): i for i, n in enumerate(tree.subtree_nodes(tree.root))}
        run_subtree_lockstep(machines, slot_map, TreeBufferBanking(4), 4, sram)
        # Identical machines fetch the same address every cycle: every
        # conflict is a broadcast, nothing is elided or lost.
        assert sram.conflicted > 0
        assert sram.broadcasts == sram.conflicted
        assert sram.elided == 0
        for machine in machines:
            assert machine.hits == solo.hits
            assert machine.stats.nodes_skipped == 0

    def test_broadcast_reads_one_bank_fetch(self, rng):
        tree, machines = self._identical_machines(rng, count=2)
        sram = SramStats()
        slot_map = {int(n): i for i, n in enumerate(tree.subtree_nodes(tree.root))}
        run_subtree_lockstep(machines, slot_map, TreeBufferBanking(4), 2, sram)
        # One energy-bearing read per cycle serves both PEs.
        assert sram.reads_served == sram.cycles
        assert sram.accesses == 2 * sram.cycles

    def test_vector_engine_counts_broadcasts_identically(self, rng):
        points = rng.normal(size=(300, 3))
        tree = build_kdtree(points)
        queries = np.repeat(points[:4], 3, axis=0)  # triples share addresses
        _, _, ref = approximate_ball_query(
            tree, queries, 0.5, 8, ApproxSetting(2, 3),
            banking=TreeBufferBanking(4), num_pes=4, simulate_conflicts=True,
        )
        ((_, _, vec),) = approximate_search(
            [SearchJob(tree, queries, 0.5, 8, ApproxSetting(2, 3), True)],
            banking=TreeBufferBanking(4), num_pes=4,
        )
        assert ref.tree_sram.broadcasts > 0
        assert vec.tree_sram.broadcasts == ref.tree_sram.broadcasts


# ----------------------------------------------------------------------
# Bugfix 4: top-phase stall accounting and banking
# ----------------------------------------------------------------------
def engine_with(banks: int, pes: int = 4) -> NeighborSearchEngine:
    hw = CrescentHardwareConfig().with_overrides(
        num_pes=pes,
        tree_buffer=BankedSramConfig(size_bytes=6 * 1024, num_banks=banks),
    )
    return NeighborSearchEngine(hw)


class TestTopPhaseAccounting:
    def test_one_stall_per_losing_pe(self):
        # Seven collinear points; the median-split root is x=3 with the
        # depth-1 children covering x<3 and x>3.  Four queries split 2/2
        # across the children; with one bank the two distinct level-1
        # fetches serialize and the two PEs behind the losing node stall.
        points = np.array([[float(i), 0, 0] for i in range(7)])
        tree = build_kdtree(points)
        queries = np.array([[-10.0, 0, 0], [-10.0, 0, 0],
                            [10.0, 0, 0], [10.0, 0, 0]])
        engine = engine_with(banks=1)
        split = SplitTree(tree, 2)
        cycles, stalls = engine._top_phase(split, queries)
        # Level 0: one broadcast fetch, no stalls.  Level 1: two nodes in
        # one bank -> 2 cycles, and *two* PEs wait behind the losing node
        # (the old accounting charged level_cycles - 1 = 1).
        assert cycles == 1 + 2 + (PIPELINE_DEPTH - 1)
        assert stalls == 2

    def test_broadcast_fetches_do_not_stall(self):
        points = np.array([[float(i), 0, 0] for i in range(7)])
        tree = build_kdtree(points)
        queries = np.tile(np.array([[-10.0, 0, 0]]), (4, 1))  # same path
        engine = engine_with(banks=1)
        cycles, stalls = engine._top_phase(SplitTree(tree, 2), queries)
        assert stalls == 0
        assert cycles == 1 + 1 + (PIPELINE_DEPTH - 1)

    def test_banks_by_buffer_slot_not_node_id(self):
        # Custom tree whose depth-1 nodes are ids 3 and 5: as buffer slots
        # they are positions 1 and 2 of the streamed top tree (no conflict
        # with 2 banks); banking the raw ids 3 and 5 would alias both to
        # bank 1 and serialize the level.
        points = np.array(
            [[0.0, 0, 0], [-3.0, 0, 0], [-1.0, 0, 0], [-2.0, 0, 0],
             [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]
        )
        tree = KdTree(
            points=points,
            point_id=np.arange(7, dtype=np.int64),
            split_dim=np.zeros(7, dtype=np.int8),
            left=np.array([3, -1, -1, 1, -1, 4, -1], dtype=np.int64),
            right=np.array([5, -1, -1, 2, -1, 6, -1], dtype=np.int64),
            depth=np.array([0, 2, 2, 1, 2, 1, 2], dtype=np.int32),
            subtree_size=np.array([7, 1, 1, 3, 1, 3, 1], dtype=np.int64),
        )
        split = SplitTree(tree, 2)
        np.testing.assert_array_equal(split.top_nodes, [0, 3, 5])
        queries = np.array([[-2.0, 0, 0], [2.0, 0, 0]])
        engine = engine_with(banks=2)
        cycles, stalls = engine._top_phase(split, queries)
        assert cycles == 1 + 1 + (PIPELINE_DEPTH - 1)
        assert stalls == 0

    def test_parked_queries_stop_fetching(self):
        # Consistency with the phase-1 fix: a query parked at an early
        # leaf issues no further top-phase fetches, so its PE neither
        # burns cycles nor stalls others for the remaining levels.
        tree = short_branch_tree()
        queries = np.array([[-1.0, 0, 0], [3.0, 0, 0]])
        engine = engine_with(banks=1, pes=2)
        cycles, stalls = engine._top_phase(SplitTree(tree, 3), queries)
        # Level 0: both at the root (broadcast, 1 cycle).  Level 1: nodes
        # 1 and 2 in one bank (2 cycles, 1 losing PE).  Level 2: query 0
        # is parked at leaf 1 — only query 1 fetches node 3 (1 cycle, no
        # stall; the old accounting re-fetched the leaf and serialized).
        assert cycles == 1 + 2 + 1 + (PIPELINE_DEPTH - 1)
        assert stalls == 1

    def test_run_surfaces_top_phase_stalls(self, rng):
        points = rng.normal(size=(512, 3))
        tree = build_kdtree(points)
        queries = points[rng.choice(512, 64, replace=False)]
        engine = engine_with(banks=2, pes=8)
        _, _, result = engine.run(tree, queries, 0.4, 8, ApproxSetting(4, None))
        split = SplitTree(tree, ApproxSetting(4, None).scaled_to(tree.height).top_height)
        assert result.top_phase_stalls == engine._top_phase(split, queries)[1]
        assert result.top_phase_stalls > 0


# ----------------------------------------------------------------------
# Bugfix 5: dram_traffic_study on an empty trace list
# ----------------------------------------------------------------------
class TestDramTrafficEmptyTraces:
    def test_no_traces_reports_zero_instead_of_crashing(self, monkeypatch):
        from repro.analysis import characterization, dram_traffic_study
        from repro.analysis.characterization import nonstreaming_fraction

        monkeypatch.setattr(
            characterization, "layer_search_traces", lambda *a, **k: []
        )
        result = dram_traffic_study("PointNet++ (c)")
        assert result.traffic_ratio == 0.0 and result.miss_rate == 0.0
        # nonstreaming_fraction already guarded this; keep them agreeing.
        assert nonstreaming_fraction("PointNet++ (c)") == 0.0


# ----------------------------------------------------------------------
# Bugfix 6: evaluate() silently flipping eval-mode models to training
# ----------------------------------------------------------------------
class TestEvaluateRestoresMode:
    def test_eval_mode_model_stays_in_eval_mode(self):
        from repro.core import ApproxSetting
        from repro.geometry import ShapeClassificationDataset
        from repro.models import PointNetPPClassifier
        from repro.training import ClassificationTrainer, FixedSetting

        data = ShapeClassificationDataset(
            size=4, num_points=64, seed=0, occlusion=0.0, noise=0.01, rotate=False
        )
        model = PointNetPPClassifier(data.num_classes, np.random.default_rng(0))
        trainer = ClassificationTrainer(model, FixedSetting(ApproxSetting()))

        model.eval()
        trainer.evaluate(data, ApproxSetting())
        assert all(not m.training for m in model.modules())

        model.train()
        trainer.evaluate(data, ApproxSetting())
        assert all(m.training for m in model.modules())
