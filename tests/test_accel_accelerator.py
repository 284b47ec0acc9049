"""Integration tests: full accelerator runs and baseline comparisons.

These pin the paper's headline *shapes*: Crescent beats Mesorasi, DensePoint
benefits most, GPU baselines cost far more energy, and approximation knobs
move cycles in the right direction.
"""

import dataclasses

import numpy as np
import pytest

from repro.accel import (
    ExhaustiveSplitSearchEngine,
    LayerSpec,
    NeighborSearchEngine,
    NetworkSpec,
    PointCloudAccelerator,
    evaluation_hardware,
    evaluation_networks,
    gpu_network_result,
    make_mesorasi,
    run_networks,
    tigris_gpu_network_result,
    workload_points,
)
from repro.core import ApproxSetting
from repro.runtime.network import layer_sampling_plan


@pytest.fixture(scope="module")
def hw():
    return evaluation_hardware()


@pytest.fixture(scope="module")
def pnpp_runs(hw):
    spec = evaluation_networks()["PointNet++ (c)"]
    pts = workload_points("PointNet++ (c)")
    mesorasi = make_mesorasi(hw).run_network(spec, pts, ApproxSetting(0, None), seed=0)
    ans = PointCloudAccelerator(hw, NeighborSearchEngine(hw), False).run_network(
        spec, pts, ApproxSetting(4, None), seed=0
    )
    bce = PointCloudAccelerator(hw, NeighborSearchEngine(hw), True).run_network(
        spec, pts, ApproxSetting(4, 8), seed=0
    )
    return mesorasi, ans, bce


class TestSpecValidation:
    def test_layer_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec("x", 0, 0.5, 8, (3, 16))
        with pytest.raises(ValueError):
            LayerSpec("x", 8, -1.0, 8, (3, 16))
        with pytest.raises(ValueError):
            LayerSpec("x", 8, 0.5, 8, (3,))

    def test_network_spec_needs_layers(self):
        with pytest.raises(ValueError):
            NetworkSpec("empty", ())

    def test_evaluation_suite_has_four_networks(self):
        nets = evaluation_networks()
        assert set(nets) == {
            "PointNet++ (c)",
            "PointNet++ (s)",
            "DensePoint",
            "F-PointNet",
        }


class TestCrescentVsMesorasi(object):
    def test_crescent_is_faster(self, pnpp_runs):
        mesorasi, ans, bce = pnpp_runs
        assert ans.cycles < mesorasi.cycles
        assert bce.cycles < ans.cycles or bce.cycles < mesorasi.cycles

    def test_crescent_saves_energy(self, pnpp_runs):
        mesorasi, ans, bce = pnpp_runs
        assert ans.energy.total < mesorasi.energy.total
        assert bce.energy.total < mesorasi.energy.total

    def test_search_speedup_exceeds_end_to_end(self, pnpp_runs):
        mesorasi, _, bce = pnpp_runs
        search_speedup = mesorasi.search_cycles / bce.search_cycles
        total_speedup = mesorasi.cycles / bce.cycles
        assert search_speedup > total_speedup  # Amdahl: MLP stage is shared

    def test_crescent_visits_fewer_nodes(self, pnpp_runs):
        mesorasi, ans, bce = pnpp_runs
        assert bce.nodes_visited < ans.nodes_visited < mesorasi.nodes_visited

    def test_aggregation_elision_speeds_aggregation(self, pnpp_runs):
        mesorasi, ans, bce = pnpp_runs
        assert bce.aggregation_cycles < mesorasi.aggregation_cycles
        # ANS changes the index matrix but not the service discipline, so
        # its aggregation time stays near the baseline's.
        assert ans.aggregation_cycles == pytest.approx(
            mesorasi.aggregation_cycles, rel=0.25
        )

    def test_layer_results_compose(self, pnpp_runs):
        mesorasi, _, _ = pnpp_runs
        assert mesorasi.cycles == sum(l.cycles for l in mesorasi.layers)
        assert mesorasi.energy.total == pytest.approx(
            sum(l.energy.total for l in mesorasi.layers)
        )


class TestDensePointDominance:
    def test_densepoint_has_largest_speedup(self, hw):
        speedups = {}
        for name, spec in evaluation_networks().items():
            pts = workload_points(name)
            base = make_mesorasi(hw).run_network(spec, pts, ApproxSetting(0, None))
            cres = PointCloudAccelerator(hw, NeighborSearchEngine(hw), True).run_network(
                spec, pts, ApproxSetting(4, 8)
            )
            speedups[name] = base.cycles / cres.cycles
        assert max(speedups, key=speedups.get) == "DensePoint"
        assert speedups["DensePoint"] > 2.0


class TestGpuBaselines:
    def test_gpu_much_more_energy(self, pnpp_runs):
        mesorasi, _, _ = pnpp_runs
        gpu_cycles, gpu_energy = gpu_network_result(mesorasi)
        assert gpu_energy > 10 * mesorasi.energy.total

    def test_tigris_gpu_between_gpu_and_mesorasi(self, pnpp_runs):
        mesorasi, _, _ = pnpp_runs
        _, gpu_energy = gpu_network_result(mesorasi)
        _, tg_energy = tigris_gpu_network_result(mesorasi)
        assert mesorasi.energy.total < tg_energy < gpu_energy

    def test_gpu_slower(self, pnpp_runs):
        mesorasi, _, _ = pnpp_runs
        gpu_cycles, _ = gpu_network_result(mesorasi)
        assert gpu_cycles > mesorasi.cycles


class TestKnobSensitivity:
    def test_more_pes_never_slower(self, hw):
        spec = evaluation_networks()["PointNet++ (c)"]
        pts = workload_points("PointNet++ (c)")
        cycles = []
        for pes in (2, 4, 8):
            cfg = hw.with_overrides(num_pes=pes)
            acc = PointCloudAccelerator(cfg, NeighborSearchEngine(cfg), True)
            cycles.append(acc.run_network(spec, pts, ApproxSetting(4, 8)).cycles)
        assert cycles[0] >= cycles[-1]

    def test_query_overflow_raises(self, hw):
        spec = NetworkSpec(
            "too-big", (LayerSpec("sa", 100, 0.5, 8, (3, 8)),)
        )
        acc = PointCloudAccelerator(hw, NeighborSearchEngine(hw), False)
        with pytest.raises(ValueError):
            acc.run_network(spec, np.zeros((50, 3)), ApproxSetting(0, None))


def _small_spec():
    return NetworkSpec(
        "mini",
        (
            LayerSpec("sa1", 64, 0.4, 8, (3, 16)),
            LayerSpec("sa2", 16, 0.8, 8, (16, 32)),
        ),
    )


class TestRunMany:
    @staticmethod
    def _fingerprint(result):
        """Every field of every layer: stage cycles, DRAM bytes, aggregation
        conflicts, energy components and the whole search result (report
        counters, DRAM usage and search energy)."""
        return [dataclasses.asdict(layer) for layer in result.layers]

    def test_grid_matches_individual_runs(self, hw, rng):
        spec = _small_spec()
        clouds = [rng.normal(size=(128, 3)) for _ in range(2)]
        settings = [ApproxSetting(0, None), ApproxSetting(2, None), ApproxSetting(2, 4)]
        acc = PointCloudAccelerator(hw, elide_aggregation=True)
        grid = acc.run_many(spec, clouds, settings, seed=1)
        assert len(grid) == len(settings)
        assert all(len(row) == len(clouds) for row in grid)
        fresh = PointCloudAccelerator(hw, elide_aggregation=True)
        for i, setting in enumerate(settings):
            for j, cloud in enumerate(clouds):
                single = fresh.run_network(spec, cloud, setting, seed=1)
                assert self._fingerprint(grid[i][j]) == self._fingerprint(single)

    def test_run_many_keeps_engine_state(self, hw, rng):
        # The grid runs through this accelerator's own engine, so a custom
        # engine's non-default constructor state shapes every grid point.
        spec = _small_spec()
        clouds = [rng.normal(size=(96, 3))]
        settings = [ApproxSetting(0, None)]
        engine = ExhaustiveSplitSearchEngine(hw, reload_on_full_queue=False)
        acc = PointCloudAccelerator(hw, engine, elide_aggregation=False)
        direct = acc.run_network(spec, clouds[0], settings[0])
        swept = acc.run_many(spec, clouds, settings)[0][0]
        assert self._fingerprint(swept) == self._fingerprint(direct)


class TestRunNetworks:
    def _designs(self, hw, plans):
        """(accelerator, setting, plan) of four runs over two clouds; the
        two Crescent accelerators share one engine."""
        crescent = NeighborSearchEngine(hw)
        staged = ExhaustiveSplitSearchEngine(hw, reload_on_full_queue=False)
        exact, elided = ApproxSetting(0, None), ApproxSetting(2, 4)
        return [
            (make_mesorasi(hw), exact, plans[0]),
            (PointCloudAccelerator(hw, staged), exact, plans[1]),
            (PointCloudAccelerator(hw, crescent, False), exact, plans[1]),
            (PointCloudAccelerator(hw, crescent, True), elided, plans[0]),
        ]

    def test_mixed_batch_matches_single_runs(self, hw, rng, monkeypatch):
        import repro.accel.search_engine as search_engine

        spec = _small_spec()
        clouds = [rng.normal(size=(128, 3)), rng.normal(size=(96, 3))]
        plans = [layer_sampling_plan(spec, cloud, seed=2) for cloud in clouds]
        calls = []
        real = search_engine.approximate_search

        def counting(jobs, *args, **kwargs):
            calls.append(len(jobs))
            return real(jobs, *args, **kwargs)

        monkeypatch.setattr(search_engine, "approximate_search", counting)
        designs = self._designs(hw, plans)
        batched = run_networks([(acc, spec, s, plan) for acc, s, plan in designs])
        # Both Crescent runs' layers went through the shared engine at once.
        assert calls == [2 * len(spec.layers)]
        for (acc, setting, plan), got in zip(self._designs(hw, plans), batched):
            want = acc.run_network(spec, plan[0][0], setting, seed=2)
            assert TestRunMany._fingerprint(got) == TestRunMany._fingerprint(want)


class TestSessionReuse:
    def test_session_pools_trees_across_settings(self, hw, rng):
        from repro.runtime import SearchSession

        spec = _small_spec()
        cloud = rng.normal(size=(128, 3))
        session = SearchSession()
        acc = PointCloudAccelerator(hw, session=session)
        acc.run_network(spec, cloud, ApproxSetting(2, None), seed=3)
        built_once = session.trees.stats.misses
        assert built_once > 0
        acc.run_network(spec, cloud, ApproxSetting(4, None), seed=3)
        # The second sweep point reuses every tree (same clouds, same
        # sampled centroids): no new construction.
        assert session.trees.stats.misses == built_once
        assert session.trees.stats.hits >= built_once

    def test_shared_session_results_identical(self, hw, rng):
        spec = _small_spec()
        cloud = rng.normal(size=(128, 3))
        shared = PointCloudAccelerator(hw)
        a = shared.run_network(spec, cloud, ApproxSetting(2, 4), seed=5)
        b = shared.run_network(spec, cloud, ApproxSetting(2, 4), seed=5)
        assert a.cycles == b.cycles
        assert a.energy.total == pytest.approx(b.energy.total)
