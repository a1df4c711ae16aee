"""Serving a mixed lattice-crypto workload on one CryptoPIM chip.

A deployment-flavoured scenario the paper's single-kernel evaluation
implies but never spells out: one 128-bank chip receives a mixed stream -
bursts of small public-key multiplications (TLS-style key exchanges) and a
stream of huge homomorphic-encryption products, including degrees *above*
the native 32k that must be CRT-segmented onto the hardware.

Run:  python examples/datacenter_workload.py
"""

import numpy as np

from repro import PipelineModel
from repro.arch.segmented import SegmentedMultiplier
from repro.core.scheduler import ChipScheduler, MultiplicationJob
from repro.ntt.params import params_for_degree
from repro.ntt.transform import NttEngine


def schedule_the_day() -> None:
    print("=== Scheduling a mixed workload on one 128-bank chip ===")
    scheduler = ChipScheduler()
    workload = [
        MultiplicationJob(256, 50_000),    # Kyber-style handshakes
        MultiplicationJob(1024, 10_000),   # NewHope-style handshakes
        MultiplicationJob(4096, 1_000),    # light HE traffic
        MultiplicationJob(32768, 100),     # deep HE evaluation
        MultiplicationJob(65536, 20),      # beyond-native (2 segments each)
    ]
    report = scheduler.schedule(workload)
    print(report)
    print(f"\naggregate: {report.aggregate_throughput_per_s:,.0f} "
          f"multiplications/s over a {report.makespan_us / 1e3:.2f} ms makespan")

    # contrast with a single pipeline doing it serially
    serial_us = sum(
        job.count * PipelineModel.for_degree(min(job.n, 32768)).latency_us(True)
        * max(1, job.n // 32768)
        for job in workload
    )
    print(f"one superbank, no overlap between multiplications: "
          f"{serial_us / 1e3:,.1f} ms "
          f"({serial_us / report.makespan_us:,.0f}x slower - the combined "
          f"payoff of streaming and superbank parallelism)")


def beyond_native_degree() -> None:
    print("\n=== A 65536-degree product on 32k hardware ===")
    multiplier = SegmentedMultiplier(65536)
    print(multiplier)
    rng = np.random.default_rng(5)
    a = rng.integers(0, multiplier.q, 65536)
    b = rng.integers(0, multiplier.q, 65536)
    product = multiplier.multiply(a, b)

    # q = 786433 happens to support a direct 65536-point transform, so we
    # can verify the segmented result against it outright.
    reference = NttEngine(params_for_degree(65536)).multiply(a, b)
    assert np.array_equal(product, reference)
    native = PipelineModel.for_degree(32768).report(True)
    passes = multiplier.hardware_passes()
    print(f"verified against a direct 65536-point NTT.")
    print(f"cost: {passes} native passes = {passes * native.latency_us:.1f} us, "
          f"{passes * native.energy_uj:.1f} uJ")


if __name__ == "__main__":
    schedule_the_day()
    beyond_native_degree()
