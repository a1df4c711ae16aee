"""Chip-level workload scheduler.

Section III-D.2's configurability exists so one chip can serve real
protocol workloads: many small multiplications (public-key traffic) or a
few huge ones (homomorphic evaluation).  This module schedules a mixed
stream of multiplication jobs onto the chip's superbanks and reports the
makespan, pipeline-fill overheads and utilization - the quantities a
deployment study would need on top of the paper's single-kernel numbers.

Model: jobs of the same degree share one chip configuration; the chip is
reconfigured between degree groups (a fixed reconfiguration penalty, since
softbank/superbank wiring is switch state).  Within a group, each
superbank streams its share through its pipeline; a group finishes when
its most-loaded superbank drains.  The schedule is a fold over a fresh
:class:`repro.serve.scheduler.ChipTimeline` - one dispatch per degree
group, in degree order - so batch planning and serving price the chip
with the same completion law.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Sequence

from ..arch.chip import CryptoPimChip

__all__ = ["MultiplicationJob", "GroupSchedule", "ScheduleReport",
           "ChipScheduler"]

#: cycles to rewire softbank/superbank switch state between degree groups
RECONFIGURATION_CYCLES = 1000


@dataclass(frozen=True)
class MultiplicationJob:
    """A batch of ``count`` degree-``n`` polynomial multiplications."""

    n: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("job count must be >= 1")


@dataclass(frozen=True)
class GroupSchedule:
    """Timing of one same-degree group."""

    n: int
    count: int
    superbanks: int
    per_superbank: int
    start_cycle: int
    duration_cycles: int

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration_cycles


@dataclass(frozen=True)
class ScheduleReport:
    groups: List[GroupSchedule]
    makespan_cycles: int
    makespan_us: float
    total_multiplications: int

    @property
    def aggregate_throughput_per_s(self) -> float:
        return self.total_multiplications / (self.makespan_us * 1e-6)

    def __str__(self) -> str:
        lines = [f"schedule: {len(self.groups)} groups, "
                 f"{self.total_multiplications} multiplications, "
                 f"makespan {self.makespan_us:.1f} us "
                 f"({self.aggregate_throughput_per_s:,.0f} mult/s)"]
        for g in self.groups:
            lines.append(f"  n={g.n:6d} x{g.count:<6d} on {g.superbanks} "
                         f"superbanks ({g.per_superbank}/superbank): "
                         f"cycles {g.start_cycle}..{g.end_cycle}")
        return "\n".join(lines)


class ChipScheduler:
    """Schedules multiplication jobs onto one CryptoPIM chip."""

    def __init__(self, chip: CryptoPimChip | None = None):
        self.chip = chip if chip is not None else CryptoPimChip()

    def schedule(self, jobs: Sequence[MultiplicationJob]) -> ScheduleReport:
        """Greedy degree-grouped schedule (jobs of equal n are merged)."""
        # the timeline lives in the serving layer, which imports this module
        from ..serve.scheduler import ChipTimeline

        if not jobs:
            raise ValueError("nothing to schedule")
        merged: Dict[int, int] = {}
        for job in jobs:
            merged[job.n] = merged.get(job.n, 0) + job.count
        timeline = ChipTimeline(chip=self.chip)
        timings = [timeline.dispatch(n, merged[n]) for n in sorted(merged)]
        groups = [
            GroupSchedule(
                n=t.n,
                count=t.count,
                superbanks=t.superbanks,
                per_superbank=ceil(t.count / t.superbanks),
                start_cycle=t.start_cycle,
                duration_cycles=t.end_cycle - t.start_cycle,
            )
            for t in timings
        ]
        return ScheduleReport(
            groups=groups,
            makespan_cycles=timeline.clock_cycles,
            makespan_us=timings[-1].completion_us[-1],
            total_multiplications=timeline.items,
        )
