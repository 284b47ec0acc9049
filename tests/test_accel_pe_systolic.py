"""Unit tests for the PE pipeline and systolic array models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import FiveStagePipeline, MatmulCost, SystolicArray
from repro.memsim import EnergyModel


class TestFiveStagePipeline:
    def test_single_visit_latency_is_depth(self):
        run = FiveStagePipeline().run([0])
        assert run.cycles == 5

    def test_steady_state_ii_one(self):
        run = FiveStagePipeline().run([0] * 100)
        assert run.cycles == 5 + 100 - 1
        assert run.throughput > 0.95

    def test_retries_add_bubbles(self):
        run = FiveStagePipeline().run([2, 0, 1])
        assert run.cycles == 5 + 3 - 1 + 3  # depth + visits - 1 + bubbles
        assert run.retry_bubbles == 3

    def test_empty_input(self):
        run = FiveStagePipeline().run([])
        assert run.cycles == 0
        assert run.visits_completed == 0

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            FiveStagePipeline().run([-1])

    def test_rejects_short_pipeline(self):
        with pytest.raises(ValueError):
            FiveStagePipeline(depth=2)

    def test_occupancy_bounded_by_depth(self):
        run = FiveStagePipeline().run([1, 0, 2, 0, 0, 1])
        assert max(run.occupancy_trace) <= 5

    @settings(max_examples=30, deadline=None)
    @given(
        retries=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40)
    )
    def test_property_matches_analytic_formula(self, retries):
        run = FiveStagePipeline().run(retries)
        # Closed form: depth + visits - 1 + retry bubbles.
        assert run.cycles == 5 + len(retries) - 1 + sum(retries)
        assert run.visits_completed == len(retries)


class TestSystolicArray:
    def test_small_matmul_fits_one_tile(self):
        arr = SystolicArray(16, 16)
        cost = arr.matmul(100, 8, 8)
        assert cost.cycles == 100 + 32
        assert cost.macs == 100 * 8 * 8

    def test_tiling_multiplies_cycles(self):
        arr = SystolicArray(16, 16)
        one = arr.matmul(100, 16, 16)
        four = arr.matmul(100, 32, 32)
        assert four.cycles == 4 * one.cycles

    def test_zero_rows(self):
        cost = SystolicArray().matmul(0, 8, 8)
        assert cost.cycles == 0 and cost.macs == 0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystolicArray(0, 16)
        with pytest.raises(ValueError):
            SystolicArray().matmul(10, 0, 8)

    def test_shared_mlp_chains(self):
        arr = SystolicArray()
        chain = arr.shared_mlp(50, [3, 16, 16])
        a = arr.matmul(50, 3, 16)
        b = arr.matmul(50, 16, 16)
        assert chain.cycles == a.cycles + b.cycles
        assert chain.macs == a.macs + b.macs

    def test_shared_mlp_needs_two_widths(self):
        with pytest.raises(ValueError):
            SystolicArray().shared_mlp(10, [8])

    def test_energy_components(self):
        arr = SystolicArray()
        cost = arr.matmul(10, 8, 8)
        energy = arr.energy(cost, EnergyModel())
        assert energy.components["mlp_macs"] == pytest.approx(0.5 * cost.macs)
        assert "dram_streaming" in energy.components

    def test_bigger_array_is_faster(self):
        small = SystolicArray(8, 8).matmul(1000, 64, 64)
        big = SystolicArray(32, 32).matmul(1000, 64, 64)
        assert big.cycles < small.cycles
