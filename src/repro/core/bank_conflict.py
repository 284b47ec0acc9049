"""Bank-conflict modeling and selective elision (paper Sec. 4).

Two on-chip buffers suffer input-dependent conflicts:

* the **tree buffer** during neighbor search — handled inside the lockstep
  search simulation (:mod:`repro.core.approx_search`), which uses
  :class:`TreeBufferBanking` from this module to map nodes to banks;
* the **point buffer** during neighbor aggregation — handled here by
  :func:`apply_aggregation_elision`, which rewrites the neighbor index
  matrix exactly the way the elision hardware does: a conflicted fetch
  observes the winner's data, i.e. the loser's neighbor is replaced by the
  winner's neighbor (hardware-implicit replication, Sec. 4.2).  Requests
  for the *same point id* are not conflicts at all: the winner's read is
  broadcast to them (mirroring the tree buffer's same-address discipline),
  so duplicate ids — guaranteed by ``ball_query``'s repeat-first-neighbor
  padding — serialize nothing and replicate nothing.

Both models are deterministic given the banking configuration, which is
what lets training replay inference-time behaviour (Sec. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..memsim.sram import BankedSramConfig, SramStats

__all__ = [
    "TreeBufferBanking",
    "PointBufferBanking",
    "apply_aggregation_elision",
    "point_buffer_stall_stats",
    "aggregation_conflict_rate",
]


@dataclass(frozen=True)
class TreeBufferBanking:
    """Node-to-bank mapping for the tree buffer.

    Tree nodes are record-interleaved: the buffer word is wide enough for a
    whole node record, and consecutive nodes (in the on-chip layout order)
    land in consecutive banks.  During the top-tree phase the layout order
    is the level-order node id; during a sub-tree phase it is the node's
    preorder position within the loaded sub-tree.
    """

    num_banks: int = 4

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("num_banks must be positive")

    def bank_of_slot(self, slot: np.ndarray) -> np.ndarray:
        """Bank of a buffer slot index (node position in the loaded tree)."""
        return np.asarray(slot, dtype=np.int64) % self.num_banks


@dataclass(frozen=True)
class PointBufferBanking:
    """Point-to-bank mapping for the aggregation point buffer.

    Points are record-interleaved by point id — each bank's word holds one
    whole point record (the "wide words" layout conventional DNN
    accelerators use), so ``bank = point_id mod num_banks``.
    """

    num_banks: int = 16

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("num_banks must be positive")

    def bank_of_point(self, point_id: np.ndarray) -> np.ndarray:
        return np.asarray(point_id, dtype=np.int64) % self.num_banks


def _first_occurrence_winner(
    chunk: np.ndarray, banks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arbitrate one ``(G, P)`` group of point-buffer requests.

    ``lost[g, j]`` is True when some column ``k < j`` requested the same
    bank; ``winner[g, j]`` is that first column — the bank's arbitration
    winner — or ``j`` itself if it won.  ``bcast[g, j]`` marks the losers
    whose point id equals the winner's: the winner's read is broadcast to
    them (the wide-word layout puts a whole point record on one bank
    word), so they are *served*, not conflicted — a duplicate id never
    serializes, costs no extra read energy, and keeps its own data.
    """
    g, p = banks.shape
    same = banks[:, :, None] == banks[:, None, :]  # (G, P, P): [g, j, k]
    earlier = np.triu(np.ones((p, p), dtype=bool), k=1).T  # k < j
    same_earlier = same & earlier[None, :, :]
    lost = same_earlier.any(axis=2)
    winner = np.where(lost, np.argmax(same_earlier, axis=2), np.arange(p)[None, :])
    bcast = lost & (np.take_along_axis(chunk, winner, axis=1) == chunk)
    return lost, winner, bcast


def apply_aggregation_elision(
    indices: np.ndarray,
    banking: PointBufferBanking,
    num_ports: int = 16,
    stats: Optional[SramStats] = None,
) -> np.ndarray:
    """Rewrite a neighbor index matrix under point-buffer conflict elision.

    ``indices`` is the ``(M, K)`` matrix from the neighbor search.  Each
    query's ``K`` neighbors are fetched in groups of ``num_ports``
    concurrent requests; within a group, a request that loses bank
    arbitration to a *different* point id receives the winner's point
    instead — replicating one of the query's own neighbors, which is safe
    because all requests in a group belong to the same query (Sec. 4.2).
    A loser requesting the *same* point id as the winner is served by the
    winner's broadcast read: it keeps its own neighbor, is ledgered in
    ``SramStats.broadcasts`` (never ``conflicted``/``elided``), and costs
    no extra read energy — ``ball_query``'s repeat-first-neighbor padding
    makes such duplicates routine on short rows.

    Returns the *effective* index matrix the MLP actually consumes.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise ValueError("indices must be (M, K)")
    if num_ports <= 0:
        raise ValueError("num_ports must be positive")
    m, k = indices.shape
    out = indices.copy()
    for start in range(0, k, num_ports):
        chunk = out[:, start : start + num_ports]
        banks = banking.bank_of_point(chunk)
        lost, winner, bcast = _first_occurrence_winner(chunk, banks)
        rows = np.arange(m)[:, None]
        replaced = chunk[rows, winner]
        # Replacing a broadcast port is a no-op (winner's id == its own),
        # so one where() covers both service outcomes.
        out[:, start : start + num_ports] = np.where(lost, replaced, chunk)
        if stats is not None:
            elided = int(lost.sum()) - int(bcast.sum())
            stats.accesses += chunk.size
            stats.conflicted += elided
            stats.elided += elided
            stats.broadcasts += int(bcast.sum())
            # One read per winning request; losers reuse the winner's data.
            stats.reads_served += chunk.size - int(lost.sum())
            stats.cycles += m  # one cycle per group of concurrent requests
    return out


def point_buffer_stall_stats(
    indices: np.ndarray,
    banking: PointBufferBanking,
    num_ports: int = 16,
    stats: Optional[SramStats] = None,
) -> int:
    """Account a stall-and-retry (baseline, no elision) aggregation pass.

    A group of ``num_ports`` concurrent requests serializes to the worst
    per-bank count of *distinct* point ids: each distinct id is read once
    (its duplicates are broadcast-served off that read, whichever retry
    cycle it lands on — the retry model's counterpart of the elide path's
    winner-only broadcast), and every distinct id after a bank's first is
    a stalled retry.  Returns the total cycles and accumulates the ledger
    into ``stats``; the index matrix itself is untouched — stalling
    changes timing, never data.

    Each group's distinct ids come from one row-wise sort: an id is new
    where it differs from its left neighbor (a plain ``np.unique`` of
    int64 keys takes NumPy's much slower hash path).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise ValueError("indices must be (M, K)")
    if num_ports <= 0:
        raise ValueError("num_ports must be positive")
    m, k = indices.shape
    nb = banking.num_banks
    cycles = 0
    for start in range(0, k, num_ports):
        chunk = np.sort(indices[:, start : start + num_ports], axis=1)
        distinct = np.ones(chunk.shape, dtype=bool)
        np.not_equal(chunk[:, 1:], chunk[:, :-1], out=distinct[:, 1:])
        rows = distinct.nonzero()[0]
        uniq_banks = banking.bank_of_point(chunk[distinct])
        per_bank = np.bincount(rows * nb + uniq_banks, minlength=m * nb).reshape(
            m, nb
        )  # (M, nb): distinct ids per bank per group
        group_cycles = int(per_bank.max(axis=1).sum())
        cycles += group_cycles
        if stats is not None:
            stats.accesses += chunk.size
            stats.reads_served += len(rows)  # energy-bearing reads only
            stats.broadcasts += chunk.size - len(rows)
            stats.conflicted += len(rows) - int(np.count_nonzero(per_bank))
            stats.cycles += group_cycles
    return cycles


def aggregation_conflict_rate(
    indices: np.ndarray,
    banking: PointBufferBanking,
    num_ports: int = 16,
) -> float:
    """Fraction of aggregation SRAM accesses that are bank-conflicted.

    This is the paper's Fig. 5 metric (measured there at 38–57% with 16
    banks and 16 concurrent requests).  No elision is applied — the rate
    comes from :func:`point_buffer_stall_stats`, the same ledger the
    baseline stall-mode :class:`~repro.accel.AggregationUnit` keeps, so
    the reported pressure is exactly what baseline hardware serializes.
    Same-address requests are served by broadcast, not serialization, so
    an all-duplicate row (a fully padded short row) reports a conflict
    rate of exactly 0.
    """
    stats = SramStats()
    point_buffer_stall_stats(indices, banking, num_ports, stats=stats)
    return stats.conflict_rate
