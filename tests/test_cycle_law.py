"""The chip's one cycle law: ``ChipTimeline.dispatch``.

``ChipScheduler`` is a fold over a fresh timeline and
``controller.pipelined_completion_cycles`` is the timeline's one-pipeline
case; these properties hold the three to the same numbers for every
degree and batch size.
"""

from math import ceil

from hypothesis import given, settings, strategies as st

from repro.arch.bank import plan_bank
from repro.arch.chip import MAX_NATIVE_DEGREE, CryptoPimChip
from repro.core.controller import pipelined_completion_cycles
from repro.core.pipeline import PipelineModel
from repro.core.scheduler import (
    RECONFIGURATION_CYCLES,
    ChipScheduler,
    MultiplicationJob,
)
from repro.serve.scheduler import ChipTimeline

degrees = st.sampled_from([1 << k for k in range(2, 17)])   # 4 .. 65536
native_degrees = st.sampled_from([1 << k for k in range(2, 16)])
counts = st.integers(1, 300)


def closed_form_cycles(n: int, count: int) -> int:
    """Fill plus drain of the busiest superbank, each polynomial streaming
    as ``segments`` consecutive native passes."""
    config = CryptoPimChip().configure(n)
    model = PipelineModel.for_degree(min(n, MAX_NATIVE_DEGREE))
    per_superbank = ceil(count / config.parallel_multiplications)
    items = per_superbank * config.segments_per_polynomial
    return (model.depth + items - 1) * model.stage_cycles


@settings(max_examples=60, deadline=None)
@given(n=degrees, count=counts)
def test_scheduler_single_job_is_one_dispatch(n, count):
    report = ChipScheduler().schedule([MultiplicationJob(n, count)])
    timing = ChipTimeline().dispatch(n, count)
    assert report.makespan_cycles == timing.end_cycle
    assert report.makespan_cycles == closed_form_cycles(n, count)


@settings(max_examples=40, deadline=None)
@given(jobs=st.lists(st.tuples(degrees, counts), min_size=1, max_size=6))
def test_scheduler_is_a_timeline_fold_in_degree_order(jobs):
    merged = {}
    for n, count in jobs:
        merged[n] = merged.get(n, 0) + count
    report = ChipScheduler().schedule(
        [MultiplicationJob(n, count) for n, count in jobs])
    timeline = ChipTimeline()
    for n in sorted(merged):
        timeline.dispatch(n, merged[n])
    assert report.makespan_cycles == timeline.clock_cycles
    assert report.makespan_cycles == (
        sum(closed_form_cycles(n, c) for n, c in merged.items())
        + (len(merged) - 1) * RECONFIGURATION_CYCLES)
    assert [g.n for g in report.groups] == sorted(merged)


@settings(max_examples=60, deadline=None)
@given(n=native_degrees, count=counts)
def test_one_superbank_dispatch_is_the_pipelined_law(n, count):
    banks = plan_bank(n, CryptoPimChip().variant).banks_per_multiplication
    timeline = ChipTimeline(chip=CryptoPimChip(total_banks=banks))
    timing = timeline.dispatch(n, count)
    assert timing.superbanks == 1
    model = PipelineModel.for_degree(n)
    assert timing.completion_cycles == pipelined_completion_cycles(model, count)
