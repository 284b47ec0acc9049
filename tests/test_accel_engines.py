"""Tests for the search engine, aggregation unit, and exhaustive baseline.

``reference_exhaustive_run`` is the per-query Mesorasi search (the loop
:class:`ExhaustiveSplitSearchEngine` ran before its hit assembly became
flat array passes); ``TestExhaustiveEngineOracle`` pins the engine to it
bit for bit.
"""

import itertools

import numpy as np
import pytest

from repro.accel import (
    AggregationUnit,
    ExhaustiveSplitSearchEngine,
    NeighborSearchEngine,
    SearchEngineResult,
    evaluation_hardware,
)
from repro.accel.baselines import _staggered_scan_cost
from repro.accel.pe import PIPELINE_DEPTH
from repro.accel.search_engine import INDEX_BYTES, QUERY_BYTES
from repro.core import ApproxSetting, CrescentHardwareConfig
from repro.core.approx_search import SearchReport
from repro.kdtree import ball_query, build_kdtree
from repro.kdtree.build import NODE_BYTES
from repro.memsim import BankedSramConfig
from repro.memsim.dram import DramModel
from repro.memsim.energy import EnergyBreakdown
from repro.runtime.treebuild import VectorizedSplitTree


def problem(n=512, m=64, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    queries = pts[rng.choice(n, m, replace=False)]
    return pts, queries, build_kdtree(pts)


class TestNeighborSearchEngine:
    def test_exact_setting_matches_ball_query(self):
        pts, queries, tree = problem()
        engine = NeighborSearchEngine()
        idx, cnt, res = engine.run(tree, queries, 0.5, 8, ApproxSetting(0, None))
        want_idx, want_cnt = ball_query(tree, queries, 0.5, 8)
        assert np.array_equal(cnt, want_cnt)

    def test_cycles_positive_and_decomposed(self):
        pts, queries, tree = problem(seed=1)
        engine = NeighborSearchEngine()
        _, _, res = engine.run(tree, queries, 0.5, 8, ApproxSetting(3, 5))
        assert res.cycles >= max(res.compute_cycles, res.dram_cycles) - 1
        assert res.compute_cycles == res.top_phase_cycles + res.sub_phase_cycles
        assert res.top_phase_cycles > 0

    def test_dram_fully_streaming(self):
        pts, queries, tree = problem(seed=2)
        engine = NeighborSearchEngine()
        _, _, res = engine.run(tree, queries, 0.5, 8, ApproxSetting(3, None))
        assert res.dram.random_bytes == 0
        assert res.dram.streaming_bytes > 0

    def test_approximation_reduces_cycles(self):
        pts, queries, tree = problem(n=2048, m=256, seed=3)
        engine = NeighborSearchEngine()
        _, _, exact = engine.run(tree, queries, 0.4, 16, ApproxSetting(0, None))
        _, _, approx = engine.run(tree, queries, 0.4, 16, ApproxSetting(4, 6))
        assert approx.compute_cycles < exact.compute_cycles

    def test_energy_components_present(self):
        pts, queries, tree = problem(seed=4)
        engine = NeighborSearchEngine()
        _, _, res = engine.run(tree, queries, 0.5, 8, ApproxSetting(2, None))
        for key in ("dram_streaming", "sram_search", "search_datapath"):
            assert res.energy.components.get(key, 0) > 0


class TestAggregationUnit:
    def test_elide_faster_than_stall(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 512, size=(128, 16))
        unit = AggregationUnit()
        stall = unit.run(indices, num_points=512, elide=False)
        elide = unit.run(indices, num_points=512, elide=True)
        assert elide.cycles < stall.cycles
        assert np.array_equal(stall.effective_indices, indices)
        assert not np.array_equal(elide.effective_indices, indices)

    def test_elide_replaces_within_row(self):
        rng = np.random.default_rng(1)
        indices = rng.integers(0, 512, size=(64, 16))
        res = AggregationUnit().run(indices, num_points=512, elide=True)
        for i in range(64):
            assert set(res.effective_indices[i]) <= set(indices[i])

    def test_stall_counts_conflicts(self):
        # Same bank, distinct ids: 16 distinct addresses fully serialize.
        indices = np.tile(np.arange(16) * 16, (10, 1))  # all bank 0
        res = AggregationUnit().run(indices, num_points=300, elide=False)
        assert res.sram.conflicted == 10 * 15
        assert res.cycles == 10 * 16  # fully serialized
        assert res.sram.reads_served == 10 * 16

    def test_stall_broadcasts_duplicate_ids(self):
        # Same *id* on every port: one broadcast read serves the group in
        # a single cycle — no conflicts, no extra read energy.
        indices = np.full((10, 16), 3)
        res = AggregationUnit().run(indices, num_points=100, elide=False)
        assert res.sram.conflicted == 0
        assert res.sram.broadcasts == 10 * 15
        assert res.sram.reads_served == 10
        assert res.cycles == 10

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            AggregationUnit().run(np.zeros(4, dtype=int), 10, elide=False)

    def test_dram_streams_points_once(self):
        indices = np.zeros((4, 8), dtype=int)
        res = AggregationUnit().run(indices, num_points=100, elide=True)
        assert res.dram.streaming_bytes == 100 * 16


class TestExhaustiveEngine:
    def test_finds_all_in_subtree_neighbors(self):
        pts, queries, tree = problem(n=256, m=32, seed=5)
        engine = ExhaustiveSplitSearchEngine()
        idx, cnt, res = engine.run(tree, queries, 0.5, 16, ApproxSetting(0, None))
        # Exhaustive sub-tree search is at least as complete as Crescent's
        # K-d sub-tree search under the same split.
        assert (cnt > 0).any()
        assert res.report.traversal.nodes_visited > 0

    def test_visits_more_nodes_than_crescent(self):
        pts, queries, tree = problem(n=2048, m=256, seed=6)
        ex = ExhaustiveSplitSearchEngine()
        cres = NeighborSearchEngine()
        _, _, ex_res = ex.run(tree, queries, 0.4, 16, ApproxSetting(0, None))
        _, _, cres_res = cres.run(tree, queries, 0.4, 16, ApproxSetting(4, None))
        assert (
            ex_res.report.traversal.nodes_visited
            > cres_res.report.traversal.nodes_visited
        )

    def test_reload_increases_dram(self):
        hw = evaluation_hardware()
        pts, queries, tree = problem(n=2048, m=2048, seed=7)
        reload_engine = ExhaustiveSplitSearchEngine(hw, reload_on_full_queue=True)
        staged_engine = ExhaustiveSplitSearchEngine(hw, reload_on_full_queue=False)
        _, _, with_reload = reload_engine.run(tree, queries, 0.4, 16, ApproxSetting())
        _, _, staged = staged_engine.run(tree, queries, 0.4, 16, ApproxSetting())
        assert with_reload.dram.total_bytes > staged.dram.total_bytes

    def test_results_deterministic(self):
        pts, queries, tree = problem(seed=8)
        engine = ExhaustiveSplitSearchEngine()
        a = engine.run(tree, queries, 0.5, 8, ApproxSetting())
        b = engine.run(tree, queries, 0.5, 8, ApproxSetting())
        assert np.array_equal(a[0], b[0])


def test_staggered_scan_cost_cache_matches_uncached():
    sizes, pes, banks = (0, 1, 7, 31, 64), (0, 1, 3, 4), (1, 4, 16)
    for _ in range(2):  # the second pass reads the cache
        for args in itertools.product(sizes, pes, banks):
            assert _staggered_scan_cost(*args) == _staggered_scan_cost.__wrapped__(*args)


def reference_exhaustive_run(engine, tree, queries, radius, max_neighbors):
    """Per-query Mesorasi search and accounting: the engine's oracle.

    Returns ``(indices, counts, result, parked)``; ``parked`` counts the
    top-tree steps that stayed on a childless node and so re-tested it.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    m = len(queries)
    ht = engine._split_height(tree)
    split = VectorizedSplitTree(tree, ht)
    report = SearchReport()
    report.traversal.queries = m

    assigned = split.route_queries(queries)
    uniq_roots, inverse = np.unique(assigned, return_inverse=True)
    report.queue_occupancy = {
        int(r): int((inverse == i).sum()) for i, r in enumerate(uniq_roots)
    }
    report.subtrees_loaded = len(uniq_roots)
    report.top_tree_visits = m * ht
    report.traversal.nodes_visited += m * ht

    r2 = radius * radius
    indices = np.zeros((m, max_neighbors), dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)
    compute_cycles = 0
    parked = 0
    dram = DramModel(engine.hw.dram)
    dram.stream(m * QUERY_BYTES)
    dram.stream(split.top_tree_bytes())

    top_hits = [[] for _ in range(m)]
    if ht > 0:
        current = np.full(m, tree.root, dtype=np.int64)
        for _ in range(ht):
            pts = tree.points[tree.point_id[current]]
            d2 = ((queries - pts) ** 2).sum(axis=1)
            for qi in np.nonzero(d2 <= r2)[0]:
                top_hits[qi].append(int(tree.point_id[current[qi]]))
            rows = np.arange(m)
            dims = tree.split_dim[current]
            go_left = queries[rows, dims] <= pts[rows, dims]
            nxt = np.where(go_left, tree.left[current], tree.right[current])
            missing = nxt < 0
            if missing.any():
                alt = np.where(go_left, tree.right[current], tree.left[current])
                nxt = np.where(missing, alt, nxt)
                parked += int((nxt < 0).sum())
                nxt = np.where(nxt < 0, current, nxt)
            current = nxt.astype(np.int64)
        compute_cycles += (m // engine.hw.num_pes + 1) * ht

    for pos, root in enumerate(uniq_roots):
        q_ids = np.nonzero(inverse == pos)[0]
        nodes = split.subtree_nodes(int(root))
        node_points = tree.points[tree.point_id[nodes]]
        sub_queries = queries[q_ids]
        d2 = ((sub_queries[:, None, :] - node_points[None, :, :]) ** 2).sum(axis=2)
        within = d2 <= r2
        for local, qi in enumerate(q_ids):
            hits = list(top_hits[qi])
            scan_hits = nodes[within[local]]
            hits.extend(int(tree.point_id[n]) for n in scan_hits)
            counts[qi] = min(len(hits), max_neighbors)
            if not hits:
                nearest = nodes[int(np.argmin(d2[local]))]
                hits = [int(tree.point_id[nearest])]
            row = hits[:max_neighbors]
            row = row + [row[0]] * (max_neighbors - len(row))
            indices[qi] = row
        visits = len(q_ids) * len(nodes)
        report.traversal.nodes_visited += visits
        report.traversal.neighbors_found += int(counts[q_ids].sum())
        rounds = -(-len(q_ids) // engine.hw.num_pes)
        scan_cycles, scan_conflicts = _staggered_scan_cost(
            len(nodes),
            min(engine.hw.num_pes, len(q_ids)),
            engine.hw.tree_buffer.num_banks,
        )
        compute_cycles += rounds * scan_cycles + PIPELINE_DEPTH - 1
        report.tree_sram.accesses += visits
        report.tree_sram.reads_served += visits
        report.tree_sram.conflicted += rounds * scan_conflicts
        report.stall_cycles += rounds * (scan_cycles - len(nodes))
        if engine.reload_on_full_queue:
            loads = -(-len(q_ids) // engine.query_buffer_capacity)
        else:
            loads = 1
            dram.stream(len(q_ids) * QUERY_BYTES)
        for _ in range(loads):
            dram.stream(split.subtree_bytes(int(root)))
    dram.stream(m * max_neighbors * INDEX_BYTES)

    energy = EnergyBreakdown()
    em = engine.hw.energy
    energy.add("dram_streaming", em.dram_streaming(dram.usage.streaming_bytes))
    energy.add("dram_random", em.dram_random(dram.usage.random_bytes))
    energy.add(
        "sram_search",
        em.sram(report.tree_sram.reads_served * NODE_BYTES + m * QUERY_BYTES),
    )
    energy.add("search_datapath", em.distances(report.traversal.nodes_visited))
    cycles = max(compute_cycles, dram.usage.cycles)
    result = SearchEngineResult(
        cycles=cycles,
        compute_cycles=compute_cycles,
        dram_cycles=dram.usage.cycles,
        report=report,
        dram=dram.usage,
        energy=energy,
    )
    return indices, counts, result, parked


# A three-node tree buffer forces the tallest split (h_t = H - 1), so
# descents through a lopsided tree reach a leaf before the split depth.
TINY_BUFFER = CrescentHardwareConfig().with_overrides(
    tree_buffer=BankedSramConfig(size_bytes=3 * NODE_BYTES, num_banks=4)
)


class TestExhaustiveEngineOracle:
    def check(self, engine, tree, queries, radius, k):
        want_idx, want_cnt, want, parked = reference_exhaustive_run(
            engine, tree, queries, radius, k
        )
        got_idx, got_cnt, got = engine.run(tree, queries, radius, k, ApproxSetting())
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_cnt, want_cnt)
        assert got_idx.dtype == want_idx.dtype and got_cnt.dtype == want_cnt.dtype
        assert got == want  # report, DRAM and energy fields included
        return want_idx, want_cnt, want, parked

    @pytest.mark.parametrize("reload", [True, False])
    def test_duplicate_coordinates(self, reload):
        rng = np.random.default_rng(41)
        pts = np.repeat(rng.normal(size=(96, 3)), 4, axis=0)
        tree = build_kdtree(pts)
        queries = np.concatenate([pts[::7], rng.normal(size=(40, 3))])
        engine = ExhaustiveSplitSearchEngine(evaluation_hardware(), reload)
        _, cnt, _, _ = self.check(engine, tree, queries, 0.3, 8)
        assert (cnt == 8).any()

    @pytest.mark.parametrize("reload", [True, False])
    def test_parked_descent_keeps_repeated_hits(self, reload):
        engine = ExhaustiveSplitSearchEngine(TINY_BUFFER, reload)
        total_parked = 0
        repeated = False
        for n in (9, 12, 20, 33):
            rng = np.random.default_rng(n)
            pts = rng.normal(size=(n, 3))
            tree = build_kdtree(pts)
            assert engine._split_height(tree) == tree.height - 1
            idx, cnt, _, parked = self.check(engine, tree, pts, 10.0, 2 * n)
            total_parked += parked
            # Mesorasi does not dedupe: a re-tested node is a second hit.
            repeated |= any(
                len(set(row[:c].tolist())) < c for row, c in zip(idx, cnt)
            )
        assert total_parked > 0
        assert repeated

    @pytest.mark.parametrize("reload", [True, False])
    def test_radius_hitting_nothing_pads_with_nearest(self, reload):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(300, 3))
        tree = build_kdtree(pts)
        queries = rng.normal(size=(50, 3)) + 0.05
        for hw in (evaluation_hardware(), TINY_BUFFER):
            engine = ExhaustiveSplitSearchEngine(hw, reload)
            idx, cnt, _, _ = self.check(engine, tree, queries, 1e-6, 4)
            assert (cnt == 0).all()
            assert (idx == idx[:, :1]).all()

    def test_one_top_tree_descent_per_job(self, call_rows, monkeypatch):
        # The descent that tests the top-tree points also routes the
        # queues: one descend_step per top level, over every query, and no
        # second descent through route_queries.
        from repro.accel import baselines
        from repro.core.split_tree import SplitTree

        def second_descent(self, queries):
            raise AssertionError("a second top-tree descent")

        monkeypatch.setattr(SplitTree, "route_queries", second_descent)
        steps = call_rows(baselines, "descend_step", "current")
        engine = ExhaustiveSplitSearchEngine(TINY_BUFFER)
        pts = np.random.default_rng(44).normal(size=(33, 3))
        tree = build_kdtree(pts)
        engine.run(tree, pts, 10.0, 66, ApproxSetting())
        assert engine._split_height(tree) == 5
        assert steps == [len(pts)] * 5

    @pytest.mark.parametrize("reload", [True, False])
    def test_k_below_hit_count(self, reload):
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(1024, 3))
        tree = build_kdtree(pts)
        queries = pts[rng.choice(1024, 200, replace=False)]
        engine = ExhaustiveSplitSearchEngine(evaluation_hardware(), reload)
        _, cnt, result, _ = self.check(engine, tree, queries, 1.0, 4)
        assert (cnt == 4).mean() > 0.9
        # Sub-tree queues overflow the query buffer: reloads when enabled.
        queues = result.report.queue_occupancy.values()
        assert max(queues) > engine.query_buffer_capacity
