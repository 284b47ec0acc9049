"""The five-stage search PE pipeline (paper Fig. 7, left panel).

A PE processes one tree-node visit per pipeline pass through the stages

    RS (read stack) → FN (fetch node) → CD (compute distance)
    → SR (store result) → US (update stack)

with an initiation interval of one: stack forwarding lets the next visit's
RS issue right behind the previous visit's US.  The only stall source is a
bank conflict at FN, which either inserts a retry bubble (conflict above
the elision height) or converts the visit into a skip that still flows
down the pipe (conflict elided).  During top-tree search the US stage is
bypassed (no backtracking state to update).

:class:`FiveStagePipeline` is a cycle-stepped simulator of that structure.
The batch engine (:mod:`repro.accel.search_engine`) uses its timing
contract — ``cycles = depth + visits + retry_bubbles - 1`` — which the
unit tests verify against this simulator cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["FiveStagePipeline", "PipelineRun", "PIPELINE_DEPTH"]

PIPELINE_DEPTH = 5
_STAGES = ("RS", "FN", "CD", "SR", "US")


@dataclass
class PipelineRun:
    """Outcome of running a visit sequence through the pipeline."""

    cycles: int
    visits_completed: int
    retry_bubbles: int
    occupancy_trace: List[int]

    @property
    def throughput(self) -> float:
        return 0.0 if self.cycles == 0 else self.visits_completed / self.cycles


class FiveStagePipeline:
    """Cycle-accurate model of one search PE.

    The input is, per visit, the number of FN retries the visit suffers
    (0 for conflict-free visits; an elided visit is also 0 retries — it
    proceeds as a skip).  The simulator advances stage occupancy cycle by
    cycle, holding younger visits back while FN retries.
    """

    def __init__(self, depth: int = PIPELINE_DEPTH, skip_us: bool = False):
        if depth < 3:
            raise ValueError("pipeline needs at least RS, FN, and one more stage")
        self.depth = depth
        self.skip_us = skip_us  # top-tree mode: US bypassed (no timing change;
        # the slot still flows through to keep II = 1)

    def run(self, retries_per_visit: Sequence[int]) -> PipelineRun:
        retries = list(retries_per_visit)
        if any(r < 0 for r in retries):
            raise ValueError("retry counts must be non-negative")
        n = len(retries)
        # stage[s] holds the visit index occupying stage s, or None.
        stage: List[Optional[int]] = [None] * self.depth
        fn = 1  # FN is the second stage
        remaining = dict(enumerate(retries))
        next_issue = 0
        completed = 0
        cycles = 0
        occupancy: List[int] = []
        while completed < n:
            # Issue into RS at the start of the cycle if it is free.
            if stage[0] is None and next_issue < n:
                stage[0] = next_issue
                next_issue += 1
            cycles += 1
            occupancy.append(sum(1 for v in stage if v is not None))
            # A conflicted FN occupies the stage for one retry cycle and
            # back-pressures everything behind it; stages ahead keep draining.
            fn_stall = stage[fn] is not None and remaining[stage[fn]] > 0
            if fn_stall:
                remaining[stage[fn]] -= 1
            new: List[Optional[int]] = [None] * self.depth
            for s in range(self.depth - 1, -1, -1):
                visit = stage[s]
                if visit is None:
                    continue
                if s == self.depth - 1:
                    completed += 1  # exits the pipeline this cycle
                elif fn_stall and s <= fn:
                    new[s] = visit  # held by the FN retry
                else:
                    new[s + 1] = visit
            stage = new
        return PipelineRun(
            cycles=cycles,
            visits_completed=completed,
            retry_bubbles=sum(retries),
            occupancy_trace=occupancy,
        )
