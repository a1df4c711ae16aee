"""Tests of the serving benchmark itself.

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

from repro.serve import (  # noqa: E402
    CryptoPimService, Rejection, RejectReason, RequestKind, ServeResult)

import bench  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Inputs, build_contexts, negacyclic)


def _served(spec_kind: RequestKind, n: int, value) -> ServeResult:
    return ServeResult(request_id=1, kind=spec_kind, n=n, value=value,
                       queue_wait_s=0.0, service_s=0.0, total_s=0.0,
                       batch_size=1, completion_cycle=0, completion_us=0.0)


def _corrupt_polymul(monkeypatch) -> None:
    """Make the service return a wrong POLYMUL product in every batch."""
    original = CryptoPimService._execute

    def execute(self, kind, n, pendings):
        values = original(self, kind, n, pendings)
        if kind is RequestKind.POLYMUL:
            values[0] = (values[0] + 1) % self.engine(n).q
        return values

    monkeypatch.setattr(CryptoPimService, "_execute", execute)


def test_negacyclic_oracle_wraps_with_sign():
    # x^(n-1) * x = x^n = -1 in Z_q[x]/(x^n + 1)
    a = np.zeros(4, dtype=np.int64)
    b = np.zeros(4, dtype=np.int64)
    a[3], b[1] = 1, 1
    assert list(negacyclic(a, b, 17)) == [16, 0, 0, 0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_expected_and_rejects_wrong_values(name):
    workload = WORKLOADS[name]
    service = CryptoPimService(bench._config(workload, False))
    build_contexts(service, workload)
    inputs = Inputs(workload, service, seed=7, per_spec=2)
    kem, pk, _ = service.kyber() if inputs._kem else (None, None, None)
    records, expect = [], []
    for s, spec in enumerate(workload.specs):
        payload, expected = inputs.items[s][1]
        if spec.kind is RequestKind.KYBER_ENCAPS:
            ct, key = kem.encapsulate(pk)
            good, bad = (ct, key), (ct, bytes(32))
        elif spec.kind is RequestKind.KYBER_DECAPS:
            good, bad = expected, bytes(32)
        elif spec.kind in (RequestKind.BGV_ADD, RequestKind.BGV_MULTIPLY):
            good = expected
            bad = service.bgv(spec.n)[0].add(expected, payload[0])
        else:
            good = expected
            bad = expected.copy()
            bad[0] = (bad[0] + 1) % service.engine(spec.n).q
        refused = Rejection(request_id=1, kind=spec.kind, n=spec.n,
                            reason=RejectReason.QUEUE_FULL)
        records += [(s, 1, _served(spec.kind, spec.n, good)),
                    (s, 1, _served(spec.kind, spec.n, bad)),
                    (s, 1, refused)]
        expect += [True, False, False]
    assert inputs.check(records) == expect


def test_corrupted_result_is_caught(monkeypatch):
    _corrupt_polymul(monkeypatch)
    outcome = bench.measure("pk-closed", seed=3, seconds=1.0, requests=256)
    assert not outcome.correct
    assert outcome.wrong > 0
    assert outcome.failed > 0
    assert outcome.metrics["ok_frac"][0] < 1.0


def test_command_exits_nonzero_on_a_wrong_value(monkeypatch, capsys):
    _corrupt_polymul(monkeypatch)
    code = run.main(["--workload", "pk-closed", "--seed", "4",
                     "--seconds", "0.5"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in last


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_clean_run_prints_every_end_to_end_metric():
    outcome = bench.measure("fleet-open", seed=5, seconds=1.0)
    assert outcome.correct and outcome.failed == 0
    assert outcome.metrics["ok_frac"][0] == 1.0
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} \
        == _declared("end_to_end")


@pytest.mark.parametrize("name", ["pk-closed", "he-closed"])
def test_simulated_statistics_repeat_exactly(name, monkeypatch):
    """A fixed seed and request count give identical chip statistics, so a
    simulator-only change can be checked to leave every one unchanged.

    Batch windows here close on what is queued, not on a 2 ms deadline:
    a deadline races the host's scheduler, so on a loaded host a window
    can close one request early.  Without timers the asyncio run is a
    function of the seed alone."""
    configure = bench._config
    monkeypatch.setattr(bench, "_config", lambda workload, tracing: replace(
        configure(workload, tracing), max_batch_wait_s=0.0))
    first = bench.measure(name, seed=11, seconds=1.0, requests=320)
    second = bench.measure(name, seed=11, seconds=1.0, requests=320)
    assert first.correct and second.correct
    assert first.metrics["sim_mults_per_s"] == second.metrics[
        "sim_mults_per_s"]
    for key in ("makespan_cycles", "batches", "items", "busy_cycles"):
        assert first.sim[key] == second.sim[key], key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    outcome = bench.measure(name, seed=2, seconds=1.0, trace=True)
    assert outcome.correct
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} \
        == _declared("per_layer")
    if WORKLOADS[name].loop == "open":
        return  # an open loop's wall time also holds the sender's sleeps
    fractions = [value for key, (value, unit) in outcome.metrics.items()
                 if key.endswith("_frac") and key.startswith(
                     ("ntt.", "core.", "crypto.", "serve.d"))]
    fractions.append(outcome.metrics["serve.other_frac"][0])
    assert sum(fractions) == pytest.approx(1.0)
