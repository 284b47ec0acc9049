"""Tests for the analysis drivers and table formatting.

``TestComparison::test_suite_matches_golden`` pins every cycle, byte and
energy of :func:`run_evaluation_suite` (seed 0) to
``tests/golden/evaluation_suite.json``.  To regenerate after an
*intentional* change to the simulator::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src pytest tests/test_analysis.py -k golden

and commit the diff with the justification.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.accel import evaluation_hardware, evaluation_networks, workload_points
from repro.analysis import (
    energy_saving_contributions,
    format_series,
    format_table,
    knob_performance_sweep,
    nodes_skipped_vs_elision_height,
    nodes_visited_vs_top_height,
    nonstreaming_fraction,
    run_evaluation_suite,
    search_conflict_rate_vs_banks,
)
from repro.core import ApproxSetting


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table("T", ["a", "bbbb"], [[1, 2.5], ["xx", 3]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbbb" in lines[2]
        assert "2.500" in out

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table("T", ["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series("S", [1, 2], [0.5, 0.25])
        assert "0.500" in out and "0.250" in out


class TestCharacterization:
    def test_nonstreaming_high_on_small_workload(self):
        frac = nonstreaming_fraction("PointNet++ (c)", num_parallel=4)
        assert frac > 0.9

    def test_conflict_rate_monotone(self):
        rates = search_conflict_rate_vs_banks(
            (2, 8), num_points=512, num_queries=64
        )
        assert rates[2] >= rates[8]


class TestTradeoff:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.points = rng.normal(size=(512, 3))
        self.queries = self.points[:64]

    def test_visits_normalized_and_monotone(self):
        result = nodes_visited_vs_top_height(
            self.points, self.queries, 0.4, 16, (0, 2, 4)
        )
        assert result[0] == 1.0
        assert result[0] >= result[2] >= result[4]

    def test_skips_normalized(self):
        result = nodes_skipped_vs_elision_height(
            self.points, self.queries, 0.4, 16, top_height=2,
            elision_heights=(3, 6),
        )
        assert max(result.values()) == 1.0
        assert result[3] >= result[6]


@pytest.fixture(scope="module")
def suite():
    return run_evaluation_suite()


SUITE_GOLDEN = Path(__file__).parent / "golden" / "evaluation_suite.json"


def _network_digest(result):
    """Every number of one network run the Fig. 14-17 drivers read."""
    return {
        "cycles": result.cycles,
        "search_cycles": result.search_cycles,
        "aggregation_cycles": result.aggregation_cycles,
        "mlp_cycles": result.mlp_cycles,
        "dram_bytes": result.dram_bytes,
        "nodes_visited": result.nodes_visited,
        "energy": result.energy.components,
        "layers": [
            {
                "name": layer.name,
                "top_phase_cycles": layer.search.top_phase_cycles,
                "sub_phase_cycles": layer.search.sub_phase_cycles,
                "top_phase_stalls": layer.search.top_phase_stalls,
                "lockstep_cycles": layer.search.report.lockstep_cycles,
                "stall_cycles": layer.search.report.stall_cycles,
            }
            for layer in result.layers
        ],
    }


def _suite_digest(suite):
    return {
        name: {
            "mesorasi": _network_digest(r.mesorasi),
            "ans": _network_digest(r.ans),
            "ans_bce": _network_digest(r.ans_bce),
            "gpu_cycles": r.gpu_cycles,
            "gpu_energy": r.gpu_energy,
            "tigris_gpu_cycles": r.tigris_gpu_cycles,
            "tigris_gpu_energy": r.tigris_gpu_energy,
        }
        for name, r in suite.items()
    }


class TestComparison:
    def test_suite_matches_golden(self, suite):
        # JSON floats round-trip exactly, so the comparison needs no tolerance.
        digest = json.loads(json.dumps(_suite_digest(suite)))
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            SUITE_GOLDEN.write_text(json.dumps(digest, indent=1) + "\n")
            pytest.skip(f"golden file regenerated at {SUITE_GOLDEN}")
        assert SUITE_GOLDEN.exists(), (
            f"missing {SUITE_GOLDEN}; generate with REPRO_UPDATE_GOLDEN=1"
        )
        golden = json.loads(SUITE_GOLDEN.read_text())
        assert set(digest) == set(golden)
        for name, expected in golden.items():
            for key, value in expected.items():
                assert digest[name][key] == value, f"{name}: {key} drifted"

    def test_suite_is_one_forest_pass(self, monkeypatch):
        # Every Crescent layer search of the suite (4 networks x ANS and
        # ANS+BCE) runs in one approximate search, not one per layer.
        import repro.accel.search_engine as search_engine

        calls = []
        real = search_engine.approximate_search

        def counting(jobs, *args, **kwargs):
            calls.append(len(jobs))
            return real(jobs, *args, **kwargs)

        monkeypatch.setattr(search_engine, "approximate_search", counting)
        run_evaluation_suite(seed=0)
        layers = sum(len(spec.layers) for spec in evaluation_networks().values())
        assert calls == [2 * layers]

    def test_suite_covers_table1(self, suite):
        assert set(suite) == set(evaluation_networks())

    def test_speedups_positive(self, suite):
        for r in suite.values():
            assert r.speedup_ans > 1.0
            assert r.speedup_bce > 1.0

    def test_energy_contributions_normalized(self, suite):
        for r in suite.values():
            c = energy_saving_contributions(r)
            assert abs(sum(c.values()) - 1.0) < 1e-6
            assert all(v >= 0 for v in c.values())

    def test_knob_sweep_keys(self):
        spec = evaluation_networks()["PointNet++ (c)"]
        pts = workload_points("PointNet++ (c)")
        settings = [ApproxSetting(2, None), ApproxSetting(4, 8)]
        sweep = knob_performance_sweep(
            spec, pts, settings, hw=evaluation_hardware()
        )
        assert set(sweep) == {(2, None), (4, 8)}
        for speedup, energy in sweep.values():
            assert speedup > 0 and energy > 0
