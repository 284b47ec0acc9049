"""Banked SRAM buffers: their geometry and their activity ledger.

:class:`BankedSramConfig` sizes one buffer of the paper's Fig. 10 (a
multi-port, multi-bank scratchpad); :class:`SramStats` accumulates what
its bank arbitration did.  The arbitration itself runs where the
simulators issue requests: :mod:`repro.core.bank_conflict` for the point
buffer during aggregation, and :mod:`repro.runtime.lockstep` for the tree
buffer during neighbor search.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BankedSramConfig", "SramStats"]


@dataclass(frozen=True)
class BankedSramConfig:
    """Geometry of one banked buffer."""

    size_bytes: int = 64 * 1024
    num_banks: int = 16
    word_bytes: int = 4
    e_access_per_byte: float = 1.0  # pJ/byte, the paper's SRAM unit cost

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.num_banks <= 0 or self.word_bytes <= 0:
            raise ValueError("size, banks, and word size must be positive")
        if self.num_banks & (self.num_banks - 1):
            raise ValueError("num_banks must be a power of two (low-order interleave)")


@dataclass
class SramStats:
    """Accumulated activity of one banked buffer.

    ``conflicted`` counts accesses that lost bank arbitration.  The tree
    buffer counts every loser — including same-address losers, which its
    ``broadcasts``/``elided`` counters then classify — so there
    ``conflicted == broadcasts + elided + stalled_retries``.  The point
    buffer's wide-word layout detects same-address requests before
    arbitration: broadcast-served ports never conflict at all, leaving
    ``conflicted == elided + stalled_retries`` with ``broadcasts``
    disjoint — which is what lets the Fig. 5 conflict rate ignore
    ``ball_query``'s repeat-first-neighbor padding.  In every discipline
    ``reads_served`` stays "actual bank reads" — energy-bearing fetches
    only, so broadcast-served ports do not inflate it (or the SRAM energy
    derived from it).
    """

    accesses: int = 0
    conflicted: int = 0
    elided: int = 0
    broadcasts: int = 0  # losers served by the winner's same-address read
    reads_served: int = 0  # actual bank reads (energy-bearing)
    cycles: int = 0

    @property
    def conflict_rate(self) -> float:
        return 0.0 if self.accesses == 0 else self.conflicted / self.accesses

    def merge(self, other: "SramStats") -> "SramStats":
        self.accesses += other.accesses
        self.conflicted += other.conflicted
        self.elided += other.elided
        self.broadcasts += other.broadcasts
        self.reads_served += other.reads_served
        self.cycles += other.cycles
        return self
