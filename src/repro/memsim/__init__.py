"""Memory-system simulator: DRAM, banked SRAM, cache, energy accounting."""

from .trace import continuous_mask, fraction_noncontiguous, interleave_round_robin
from .dram import DramConfig, DramModel, DramUsage
from .cache import CacheStats, FullyAssociativeCache
from .sram import BankedSramConfig, SramStats
from .energy import EnergyBreakdown, EnergyModel

__all__ = [
    "continuous_mask",
    "fraction_noncontiguous",
    "interleave_round_robin",
    "DramConfig",
    "DramModel",
    "DramUsage",
    "CacheStats",
    "FullyAssociativeCache",
    "BankedSramConfig",
    "SramStats",
    "EnergyBreakdown",
    "EnergyModel",
]
