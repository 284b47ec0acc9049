"""Unit tests for bank-conflict modeling and aggregation elision."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    PointBufferBanking,
    TreeBufferBanking,
    aggregation_conflict_rate,
    apply_aggregation_elision,
    point_buffer_stall_stats,
)
from repro.memsim import SramStats


class TestBankings:
    def test_tree_slot_mapping(self):
        b = TreeBufferBanking(num_banks=4)
        assert b.bank_of_slot(np.array([0, 1, 4, 5])).tolist() == [0, 1, 0, 1]

    def test_point_mapping(self):
        b = PointBufferBanking(num_banks=16)
        assert b.bank_of_point(np.array([0, 16, 17])).tolist() == [0, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeBufferBanking(0)
        with pytest.raises(ValueError):
            PointBufferBanking(-1)


class TestAggregationElision:
    def test_no_conflict_is_identity(self):
        banking = PointBufferBanking(num_banks=16)
        indices = np.arange(16).reshape(1, 16)  # all distinct banks
        out = apply_aggregation_elision(indices, banking, num_ports=16)
        assert np.array_equal(out, indices)

    def test_conflicting_access_replicates_winner(self):
        banking = PointBufferBanking(num_banks=16)
        # Points 0 and 16 share bank 0; port 0 wins, port 1 observes 0.
        indices = np.array([[0, 16, 2, 3]])
        out = apply_aggregation_elision(indices, banking, num_ports=4)
        assert out.tolist() == [[0, 0, 2, 3]]

    def test_winner_is_first_occurrence(self):
        banking = PointBufferBanking(num_banks=4)
        indices = np.array([[5, 1, 9, 13]])  # banks 1,1,1,1: all collapse to 5
        out = apply_aggregation_elision(indices, banking, num_ports=4)
        assert out.tolist() == [[5, 5, 5, 5]]

    def test_groups_are_independent(self):
        banking = PointBufferBanking(num_banks=4)
        # With 2 ports, groups are (5, 1) and (9, 13): winners 5 and 9.
        indices = np.array([[5, 1, 9, 13]])
        out = apply_aggregation_elision(indices, banking, num_ports=2)
        assert out.tolist() == [[5, 5, 9, 9]]

    def test_output_is_subset_of_row(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 500, size=(40, 16))
        out = apply_aggregation_elision(indices, PointBufferBanking(16), 16)
        for i in range(40):
            assert set(out[i]) <= set(indices[i])

    def test_stats_accumulate(self):
        banking = PointBufferBanking(num_banks=4)
        stats = SramStats()
        apply_aggregation_elision(np.array([[5, 1, 9, 13]]), banking, 4, stats=stats)
        assert stats.accesses == 4
        assert stats.conflicted == 3
        assert stats.elided == 3
        assert stats.broadcasts == 0  # distinct addresses: nothing broadcast
        assert stats.reads_served == 1

    def test_duplicate_ids_broadcast_not_elide(self):
        # Ports 1 and 3 repeat the winner's id (ball_query-style padding):
        # they are served by the winner's broadcast read, keep their own
        # neighbor, and never enter the conflicted/elided ledgers.
        banking = PointBufferBanking(num_banks=4)
        stats = SramStats()
        out = apply_aggregation_elision(
            np.array([[5, 5, 9, 5]]), banking, 4, stats=stats
        )
        assert out.tolist() == [[5, 5, 5, 5]]  # 9 elided, 5s broadcast
        assert stats.broadcasts == 2
        assert stats.conflicted == 1
        assert stats.elided == 1
        assert stats.reads_served == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_aggregation_elision(np.zeros(4, dtype=int), PointBufferBanking(4), 4)
        with pytest.raises(ValueError):
            apply_aggregation_elision(np.zeros((2, 4), dtype=int), PointBufferBanking(4), 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        indices = rng.integers(0, 100, size=(8, 16))
        a = apply_aggregation_elision(indices, PointBufferBanking(16), 16)
        b = apply_aggregation_elision(indices, PointBufferBanking(16), 16)
        assert np.array_equal(a, b)


class TestConflictRate:
    def test_rate_drops_with_more_banks(self):
        rng = np.random.default_rng(2)
        indices = rng.integers(0, 4096, size=(300, 16))
        rates = [
            aggregation_conflict_rate(indices, PointBufferBanking(b), 16)
            for b in (2, 4, 8, 16, 32)
        ]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_paper_fig5_ballpark(self):
        # Random neighbor ids, 16 banks, 16 concurrent requests: the paper
        # measures 38–57% conflict rates on real networks.  Uniform-random
        # ids land in the same regime.
        rng = np.random.default_rng(3)
        indices = rng.integers(0, 10_000, size=(500, 16))
        rate = aggregation_conflict_rate(indices, PointBufferBanking(16), 16)
        assert 0.30 < rate < 0.65

    def test_identical_ids_broadcast_conflict_free(self):
        # An all-duplicate row (a fully padded short row) is one read
        # broadcast to every port: zero conflicts, not 15/16.
        indices = np.full((10, 16), 7)
        rate = aggregation_conflict_rate(indices, PointBufferBanking(16), 16)
        assert rate == 0.0


def unique_stall_oracle(indices, banking, num_ports, stats):
    """The stall-and-retry ledger with ``np.unique`` over fused ``(row,
    id)`` keys: the distinct-id count the sort-based ledger must equal."""
    m, k = indices.shape
    nb = banking.num_banks
    cycles = 0
    for start in range(0, k, num_ports):
        chunk = indices[:, start : start + num_ports]
        lo = int(chunk.min())
        span = int(chunk.max()) - lo + 1
        uniq = np.unique(np.arange(m)[:, None] * span + (chunk - lo))
        banks = banking.bank_of_point(uniq % span + lo)
        per_bank = np.bincount((uniq // span) * nb + banks, minlength=m * nb)
        group_cycles = int(per_bank.reshape(m, nb).max(axis=1).sum())
        cycles += group_cycles
        stats.accesses += chunk.size
        stats.reads_served += len(uniq)
        stats.broadcasts += chunk.size - len(uniq)
        stats.conflicted += len(uniq) - int((per_bank > 0).sum())
        stats.cycles += group_cycles
    return cycles


class TestStallLedgerOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 24),
        k=st.integers(1, 40),
        num_ports=st.integers(1, 17),
        num_banks=st.integers(1, 32),
        id_span=st.sampled_from([1, 2, 3, 8, 64, 5000]),
        dup_share=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**31),
    )
    # A single row; K not a multiple of num_ports; all-duplicate rows.
    @example(rows=1, k=16, num_ports=16, num_banks=16, id_span=5000, dup_share=0.0, seed=1)
    @example(rows=1, k=13, num_ports=5, num_banks=4, id_span=3, dup_share=0.0, seed=2)
    @example(rows=9, k=32, num_ports=16, num_banks=16, id_span=64, dup_share=1.0, seed=3)
    def test_sorted_ledger_matches_unique_oracle(
        self, rows, k, num_ports, num_banks, id_span, dup_share, seed
    ):
        # Small id spans make duplicate-heavy rows; dup_share of the rows
        # repeat one id across every port (all-duplicate rows).
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, id_span, size=(rows, k)) + int(rng.integers(0, 10**6))
        all_dup = rng.random(rows) < dup_share
        indices[all_dup] = indices[all_dup, :1]
        banking = PointBufferBanking(num_banks)
        got, want = SramStats(), SramStats()
        cycles = point_buffer_stall_stats(indices, banking, num_ports, stats=got)
        assert cycles == unique_stall_oracle(indices, banking, num_ports, want)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert all(type(v) is int for v in dataclasses.asdict(got).values())
