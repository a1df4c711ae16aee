"""Tests for the bit-level functional dataflow machine."""

import numpy as np
import pytest

from repro.arch.dataflow import PimMachine
from repro.core.pipeline import PipelineModel
from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.transform import NttEngine


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_schoolbook(self, n, rng):
        machine = PimMachine.for_degree(n)
        a = rng.integers(0, machine.params.q, n)
        b = rng.integers(0, machine.params.q, n)
        expected = schoolbook_negacyclic(a.tolist(), b.tolist(), machine.params.q)
        assert machine.multiply(a, b).tolist() == expected

    def test_matches_fast_path_512(self, rng):
        machine = PimMachine.for_degree(512)
        p = machine.params
        a = rng.integers(0, p.q, 512)
        b = rng.integers(0, p.q, 512)
        fast = NttEngine(p).multiply(a, b)
        assert np.array_equal(machine.multiply(a, b), fast)

    def test_identity_multiplication(self):
        machine = PimMachine.for_degree(32)
        one = np.zeros(32, dtype=np.uint64)
        one[0] = 1
        a = np.arange(32, dtype=np.uint64) % machine.params.q
        assert np.array_equal(machine.multiply(a, one), a)

    def test_zero_multiplication(self):
        machine = PimMachine.for_degree(32)
        zero = np.zeros(32, dtype=np.uint64)
        a = np.arange(32, dtype=np.uint64)
        assert not machine.multiply(a, zero).any()

    def test_wrong_length_rejected(self):
        machine = PimMachine.for_degree(16)
        with pytest.raises(ValueError):
            machine.multiply(np.zeros(8, dtype=np.uint64),
                             np.zeros(16, dtype=np.uint64))


class TestCycleConsistency:
    """The load-bearing cross-check: the gate-level machine must meter
    exactly the cycles the analytic model (which reproduces Table II)
    predicts for the full block cascade."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_cycles_equal_model_total(self, n, rng):
        machine = PimMachine.for_degree(n)
        a = rng.integers(0, machine.params.q, n)
        b = rng.integers(0, machine.params.q, n)
        machine.multiply(a, b)
        model = PipelineModel.for_degree(n)
        assert machine.counter.cycles == model.total_block_cycles()

    def test_row_events_equal_model_total(self, rng):
        n = 64
        machine = PimMachine.for_degree(n)
        a = rng.integers(0, machine.params.q, n)
        b = rng.integers(0, machine.params.q, n)
        machine.multiply(a, b)
        model = PipelineModel.for_degree(n)
        expected = model.op_row_events() + model.overhead_row_events()
        assert machine.counter.row_events == expected

    def test_transfer_events_equal_model_overhead_share(self, rng):
        n = 64
        machine = PimMachine.for_degree(n)
        a = rng.integers(0, machine.params.q, n)
        b = rng.integers(0, machine.params.q, n)
        machine.multiply(a, b)
        # the machine books 3N of every 10N overhead as transfer
        from repro.pim.logic import transfer_cycles
        blocks = len(PipelineModel.for_degree(n).blocks)
        physical = sum(b.multiplicity for b in PipelineModel.for_degree(n).blocks)
        assert machine.counter.transfers == (
            transfer_cycles(machine.params.bitwidth) * n * physical
        )


class TestStructure:
    def test_blocks_and_switches_instantiated(self, rng):
        n = 64
        machine = PimMachine.for_degree(n)
        a = rng.integers(0, machine.params.q, n)
        machine.multiply(a, a)
        log_n = 6
        # 2 blocks per scale phase x 4 phases (pre-a, pre-b, pointwise,
        # post) + 2 per butterfly stage x (2 fwd paths + 1 inv) x log2(n)
        assert machine.blocks_used == 8 + 2 * 3 * log_n
        assert machine.switches_used == 3 * log_n

    def test_montgomery_constants_in_domain(self):
        machine = PimMachine.for_degree(16)
        q = machine.params.q
        r = machine.R % q
        phi = machine.params.phi_powers()
        from repro.ntt.bitrev import bitrev_indices
        rev = bitrev_indices(16)
        for row in range(16):
            assert machine._phi_rows[row] == (phi[rev[row]] * r) % q
