"""Set-up, load drivers and metrics of the serving benchmark.

One run of :func:`measure`:

1. **Set-up.** A set-up is a fresh :class:`CryptoPimService` plus every
   context the workload uses plus the first served result of every
   ``(kind, n)`` queue.  The first, cold one is ``setup.cold_s``; the
   second builds the service the run measures.
2. **Warm-up.** A fixed number of untimed requests on that service.
3. **Timed slices.** The run's seconds split into slices of about the
   workload's ``slice_s``.  Before each slice, a share of ``SETUPS``
   throwaway set-ups is timed, so ``setup_s`` (the median of all warm
   set-ups) samples the host's speed across the whole run, and
   ``gc.collect()`` runs (GC stays on).  After each slice, every served
   value is checked against its expected value outside the timed region
   and the slice's results are dropped.

Closed loops are coroutines that submit, await and repeat; how late a
client resumed after its result was ready is its lateness.  The open loop
is one sender coroutine walking a seeded Poisson schedule: it times each
request from when it was *due*, so a late sender shows in latency, and it
records how late it ran.

With ``trace=True`` the run measures layers instead: wrappers from
:mod:`layers` time each layer's entry points, and the slices alternate
between a service with ``ServiceConfig(tracing=True)`` and one without,
so ``obs.trace_overhead_frac`` compares the two under identical wrappers.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.pim.device import PAPER_DEVICE
from repro.serve import CryptoPimService, ServiceConfig

from layers import LAYERS, LayerClock
from workloads import WORKLOADS, Inputs, Workload, build_contexts

#: throwaway set-ups timed per run, spread over its slices (the median
#: of all warm set-ups is ``setup_s``)
SETUPS = 24
#: length of the seeded request plan a closed loop cycles through
PLAN_LEN = 1 << 16
#: payloads pre-built per traffic spec
PER_SPEC = 16
#: closed-loop warm-up: this many requests per client, untimed
WARMUP_ROUNDS = 16
#: open-loop warm-up: requests sent by 8 closed-loop clients, untimed
OPEN_WARMUP = 64

STAGES = ("admit", "queue", "window", "lease", "execute")


@dataclass
class Record:
    """One request: which payload, when it was due or sent, when it
    resolved, and what came back."""

    spec: int
    item: int
    start: float
    end: float
    response: Any
    #: how late the load generator ran: open loop, send time minus due
    #: time; closed loop, when the client resumed minus when its result
    #: was ready
    late: Optional[float] = None


def verify(inputs: Inputs,
           records: List[Record]) -> Tuple[List[bool], int]:
    """Per-record verdicts (served and correct) and the count of served
    values that were wrong; a rejection is a miss but not a wrong value."""
    verdicts = inputs.check([(r.spec, r.item, r.response) for r in records])
    wrong = sum(1 for r, ok in zip(records, verdicts)
                if r.response.ok and not ok)
    return verdicts, wrong


@dataclass
class Phase:
    """Verified outcome of the timed slices that ran on one service."""

    wall_s: float = 0.0
    attempted: int = 0
    correct: int = 0
    lateness: List[float] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)
    service: List[float] = field(default_factory=list)
    inv_size: float = 0.0   # sum over results of 1 / batch size
    inv_cap: float = 0.0    # sum over results of 1 / window capacity
    #: per slice: (correct completions / wall, latency p50 ms, p99 ms)
    slices: List[Tuple[float, float, float]] = field(default_factory=list)
    slice_samples: List[int] = field(default_factory=list)

    def add(self, records: List[Record], wall_s: float, inputs: Inputs,
            capacity: Dict[int, int]) -> int:
        """Fold in one slice; returns the count of wrong values."""
        verdicts, wrong = verify(inputs, records)
        self.wall_s += wall_s
        self.attempted += len(records)
        latencies = []
        for record, ok in zip(records, verdicts):
            if record.late is not None:
                self.lateness.append(record.late)
            response = record.response
            if not ok:
                continue
            latencies.append(record.end - record.start)
            self.queue_wait.append(response.queue_wait_s)
            self.service.append(response.service_s)
            self.inv_size += 1.0 / response.batch_size
            self.inv_cap += 1.0 / capacity[response.n]
        self.correct += len(latencies)
        self.slice_samples.append(len(latencies))
        self.slices.append((len(latencies) / wall_s,
                            _percentile_ms(latencies, 50),
                            _percentile_ms(latencies, 99)))
        return wrong

    def timings(self) -> Tuple[float, float, float]:
        """``(throughput, p50 ms, p99 ms)``, each the median over slices.
        The host slows down in episodes of a second or two, and the
        requests due during one make up a whole run's top percent; the
        median slice is one no episode decided."""
        rps, p50, p99 = zip(*self.slices)
        return (statistics.median(rps), statistics.median(p50),
                statistics.median(p99))


def _config(workload: Workload, tracing: bool) -> ServiceConfig:
    return ServiceConfig(num_chips=workload.chips, routing="affinity",
                         tracing=tracing)


async def set_up(workload: Workload, tracing: bool, seed: int,
                 inputs: Optional[Inputs] = None,
                 ) -> Tuple[CryptoPimService, float, Inputs, List[Record]]:
    """One fresh service, timed to its first served result per queue.

    Building the benchmark's own inputs (first call only) sits between
    the two timed parts and is not counted.
    """
    gc.collect()
    began = perf_counter()
    service = CryptoPimService(_config(workload, tracing))
    build_contexts(service, workload)
    seconds = perf_counter() - began
    if inputs is None:
        inputs = Inputs(workload, service, seed, per_spec=PER_SPEC)
    elif not inputs.same_keys(service):
        raise RuntimeError("a fresh service generated different keys")
    firsts = range(len(workload.specs))
    began = perf_counter()
    responses = await asyncio.gather(
        *(service.submit(inputs.request(s, 0)) for s in firsts))
    ended = perf_counter()
    seconds += ended - began
    records = [Record(s, 0, began, ended, r)
               for s, r in zip(firsts, responses)]
    return service, seconds, inputs, records


class Plan:
    """The seeded request sequence; closed loops consume it in order."""

    def __init__(self, workload: Workload, rng: np.random.Generator):
        self.workload = workload
        self.rng = rng
        self.specs = workload.pick(rng, PLAN_LEN)
        self.items = rng.integers(0, PER_SPEC, PLAN_LEN)
        self.cursor = 0

    def take(self) -> Tuple[int, int]:
        i = self.cursor % PLAN_LEN
        self.cursor += 1
        return int(self.specs[i]), int(self.items[i])

    def arrivals(self, seconds: float) -> np.ndarray:
        """Open-loop arrival offsets within ``seconds``: a Poisson process
        conditioned on its expected count, i.e. that many uniform points.
        Gaps and bursts are Poisson's; the count does not vary by seed."""
        count = max(1, round(self.workload.rate_per_s * seconds))
        return np.sort(self.rng.uniform(0.0, seconds, count))


async def closed_slice(service: CryptoPimService, inputs: Inputs,
                       plan: Plan, clients: int,
                       until: Optional[float] = None,
                       count: Optional[int] = None,
                       ) -> Tuple[List[Record], float]:
    """Clients submit, await and repeat until ``until`` (a
    ``perf_counter`` time) or until ``count`` requests were issued."""
    records: List[Record] = []
    issued = 0

    async def client() -> None:
        nonlocal issued
        while True:
            if until is not None and perf_counter() >= until:
                return
            if count is not None and issued >= count:
                return
            issued += 1
            spec, item = plan.take()
            request = inputs.request(spec, item)
            began = perf_counter()
            response = await service.submit(request)
            ended = perf_counter()
            # a closed-loop client is due to run as soon as its result is
            # ready; the service's total_s ends there
            late = ended - began - response.total_s if response.ok else None
            records.append(Record(spec, item, began, ended, response, late))

    began = perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    return records, perf_counter() - began


async def open_slice(service: CryptoPimService, inputs: Inputs,
                     plan: Plan, seconds: float,
                     ) -> Tuple[List[Record], float]:
    """One sender walks a Poisson schedule; each request is timed from
    its due time and carries how late the sender sent it."""
    offsets = plan.arrivals(seconds)
    records: List[Record] = []

    async def fire(spec: int, item: int, due: float, late: float) -> None:
        response = await service.submit(inputs.request(spec, item))
        records.append(Record(spec, item, due, perf_counter(), response,
                              late))

    loop = asyncio.get_running_loop()
    tasks = []
    began = perf_counter()
    for offset in offsets:
        due = began + float(offset)
        wait = due - perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        spec, item = plan.take()
        tasks.append(loop.create_task(
            fire(spec, item, due, perf_counter() - due)))
    await asyncio.gather(*tasks)
    return records, perf_counter() - began


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _sim(service: CryptoPimService) -> Dict[str, Any]:
    fleet = service.fleet.snapshot()
    seconds = PAPER_DEVICE.cycles_to_seconds(fleet["makespan_cycles"])
    fleet["sim_mults_per_s"] = fleet["items"] / seconds if seconds else 0.0
    return fleet


@dataclass
class Outcome:
    """What one run prints: metrics plus the counts behind them."""

    attempted: int
    failed: int
    wrong: int
    metrics: Dict[str, Tuple[float, str]]
    samples: Dict[str, int]
    sim: Dict[str, Any]
    slice_rps: List[float]
    trace_doc: Optional[Dict[str, Any]] = None

    @property
    def correct(self) -> bool:
        return self.wrong == 0


async def _run(workload: Workload, seed: int, seconds: float, trace: bool,
               requests: Optional[int],
               clock: Optional[LayerClock]) -> Outcome:
    plan = Plan(workload, np.random.default_rng(seed))
    wrong = 0

    def check(inputs: Inputs, records: List[Record]) -> None:
        nonlocal wrong
        wrong += verify(inputs, records)[1]

    async def fresh_setup() -> float:
        """Time one throwaway set-up; only its duration is kept."""
        svc, took, _, firsts = await set_up(workload, trace, seed, inputs)
        check(inputs, firsts)
        await svc.stop()
        return took

    cold, cold_s, inputs, firsts = await set_up(workload, trace, seed)
    check(inputs, firsts)
    await cold.stop()
    if clock is not None:
        clock.recording = True
    service, took, _, firsts = await set_up(workload, trace, seed, inputs)
    setup_builds = 0
    if clock is not None:
        setup_builds = clock.calls["ntt:__init__"]
        clock.recording = False
        clock.reset()
    check(inputs, firsts)
    setups = [took]
    services = [service]
    if trace:
        # the untraced twin the tracing overhead is measured against
        twin, _, _, firsts = await set_up(workload, False, seed, inputs)
        check(inputs, firsts)
        services.insert(0, twin)
    for svc in services:
        warm, _ = await closed_slice(
            svc, inputs, plan, workload.clients or 8,
            count=WARMUP_ROUNDS * workload.clients or OPEN_WARMUP)
        check(inputs, warm)

    capacity = {spec.n: service.fleet.capacity_for(spec.n)
                for spec in workload.specs}
    phases = [Phase() for _ in services]
    slices = (1 if requests is not None
              else max(1, round(seconds / workload.slice_s)))
    setups_per_slice = max(1, round(SETUPS / slices))
    per_slice = seconds / slices / len(services)
    journal_before = _stage_totals(service)
    for k in range(slices):
        # set-ups spread over the run sample the host's speed throughout
        for _ in range(setups_per_slice):
            setups.append(await fresh_setup())
        # alternate which service runs first, so drift hits both alike
        order = list(range(len(services)))
        if k % 2:
            order.reverse()
        for index in order:
            svc = services[index]
            gc.collect()
            if clock is not None:
                clock.recording = svc is service
            if requests is not None:
                records, wall = await closed_slice(
                    svc, inputs, plan, workload.clients, count=requests)
            elif workload.loop == "closed":
                records, wall = await closed_slice(
                    svc, inputs, plan, workload.clients,
                    until=perf_counter() + per_slice)
            else:
                records, wall = await open_slice(svc, inputs, plan,
                                                 per_slice)
            if clock is not None:
                clock.recording = False
            wrong += phases[index].add(records, wall, inputs, capacity)
            del records
    for svc in services:
        await svc.stop()

    main = phases[-1]
    sim = _sim(service)
    rps, p50, p99 = main.timings()
    metrics: Dict[str, Tuple[float, str]] = {
        "throughput_rps": (rps, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "ok_frac": (main.correct / main.attempted, "frac"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sim_mults_per_s": (sim["sim_mults_per_s"], "1/s"),
    }
    samples = {"requests": main.attempted, "latency": main.correct,
               "latency_per_slice_min": min(main.slice_samples),
               "setups": len(setups), "slices": slices}
    outcome = Outcome(attempted=main.attempted,
                      failed=main.attempted - main.correct, wrong=wrong,
                      metrics=metrics, samples=samples, sim=sim,
                      slice_rps=[x[0] for x in main.slices])
    if clock is not None:
        outcome.metrics = _layer_metrics(
            workload, service, main, phases[0], clock, setup_builds,
            cold_s, journal_before)
        outcome.trace_doc = service.trace_document()
        outcome.trace_doc["layers"] = {
            "self_s": clock.self_s, "calls": dict(clock.calls),
            "rows": clock.rows, "butterflies": clock.butterflies}
    return outcome


def _stage_totals(service: CryptoPimService) -> Dict[str, Tuple[int, float]]:
    journal = service.journal
    if journal is None:
        return {}
    return {name: (stats.count, stats.wall_s)
            for name, stats in journal.stages.items()}


def _layer_metrics(workload: Workload, service: CryptoPimService,
                   traced: Phase, untraced: Phase, clock: LayerClock,
                   setup_builds: int, cold_s: float,
                   journal_before: Dict[str, Tuple[int, float]],
                   ) -> Dict[str, Tuple[float, str]]:
    wall = traced.wall_s
    self_s = clock.self_s
    calls = clock.calls
    frac = {layer: self_s[layer] / wall for layer in LAYERS}
    butterflies = clock.butterflies
    fleet = _sim(service)
    batches = traced.inv_size
    journal_after = _stage_totals(service)
    late = traced.lateness

    def stage_ms(name: str) -> float:
        count0, wall0 = journal_before.get(name, (0, 0.0))
        count1, wall1 = journal_after.get(name, (0, 0.0))
        return (wall1 - wall0) / (count1 - count0) * 1e3 \
            if count1 > count0 else 0.0

    untraced_rps = untraced.timings()[0]
    traced_rps = traced.timings()[0]
    metrics: Dict[str, Tuple[float, str]] = {
        "ntt.self_frac": (frac["ntt"], "frac"),
        "ntt.ns_per_butterfly": (
            self_s["ntt"] / butterflies * 1e9 if butterflies else 0.0, "ns"),
        "ntt.rows": (clock.rows, "count"),
        "ntt.engine_builds": (
            setup_builds + calls.get("ntt:__init__", 0), "count"),
        "core.model_frac": (frac["core.model"], "frac"),
        "core.model_calls": (
            calls.get("core.model:report", 0)
            + calls.get("core.model:pipelined_completion_cycles", 0),
            "count"),
        "core.multiply_batch_self_frac": (frac["core.multiply_batch"],
                                          "frac"),
        "crypto.kem_self_frac": (frac["crypto.kem"], "frac"),
        "crypto.bgv_self_frac": (frac["crypto.bgv"], "frac"),
        "serve.dispatch_frac": (frac["serve.dispatch"], "frac"),
        "serve.other_frac": (1.0 - sum(frac.values()), "frac"),
        "serve.batches": (round(batches), "count"),
        "serve.batch_size_mean": (
            traced.correct / batches if batches else 0.0, "items"),
        "serve.batch_fill": (
            traced.inv_cap / batches if batches else 0.0, "frac"),
        "serve.queue_wait_p50_ms": (
            _percentile_ms(traced.queue_wait, 50), "ms"),
        "serve.queue_wait_p99_ms": (
            _percentile_ms(traced.queue_wait, 99), "ms"),
        "serve.service_p50_ms": (_percentile_ms(traced.service, 50), "ms"),
        **{f"serve.stage.{name}_ms": (stage_ms(name), "ms")
           for name in STAGES},
        "fleet.reconfigs_per_batch": (fleet["reconfigurations_per_batch"],
                                      "frac"),
        "fleet.utilization": (fleet["utilization"], "frac"),
        "fleet.clock_skew": (fleet["clock_skew"], "frac"),
        "fleet.makespan_cycles": (fleet["makespan_cycles"], "cycles"),
        "loadgen.late_p99_ms": (_percentile_ms(late, 99), "ms"),
        "loadgen.late_max_ms": (max(late) * 1e3 if late else 0.0, "ms"),
        "setup.cold_s": (cold_s, "s"),
        "obs.trace_overhead_frac": (1.0 - traced_rps / untraced_rps,
                                    "frac"),
    }
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            requests: Optional[int] = None) -> Outcome:
    """Run workload ``name`` once.  ``requests`` replaces the timed
    slices by one closed-loop slice of exactly that many requests, which
    makes a single-chip run's simulated statistics repeat exactly."""
    with LayerClock() if trace else contextlib.nullcontext() as clock:
        return asyncio.run(_run(WORKLOADS[name], seed, seconds, trace,
                                requests, clock))
