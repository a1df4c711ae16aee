"""Tests for segmented above-native-degree multiplication."""

import numpy as np
import pytest

from repro.arch.segmented import SegmentedMultiplier
from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.params import params_for_degree
from repro.ntt.transform import NttEngine


class TestSmallScaleRecursion:
    """Shrink the 'native' degree so the recursion is cheap to verify."""

    @pytest.mark.parametrize("n,native", [(128, 64), (256, 64)])
    def test_matches_schoolbook(self, n, native, rng):
        sm = SegmentedMultiplier(n, native_degree=native)
        a = rng.integers(0, sm.q, n)
        b = rng.integers(0, sm.q, n)
        expected = schoolbook_negacyclic(a.tolist(), b.tolist(), sm.q)
        assert sm.multiply(a, b).tolist() == expected

    def test_pass_count(self):
        assert SegmentedMultiplier(256, native_degree=64).hardware_passes() == 4
        assert SegmentedMultiplier(65536).hardware_passes() == 2

    def test_two_adicity_limit_small_modulus(self):
        # q = 7681 has two-adicity 2^9: n = 512 (needs 2^10) must fail
        with pytest.raises(ValueError):
            SegmentedMultiplier(512, native_degree=64)

    def test_identity(self, rng):
        sm = SegmentedMultiplier(128, native_degree=64)
        a = rng.integers(0, sm.q, 128)
        one = np.zeros(128, dtype=np.uint64)
        one[0] = 1
        assert np.array_equal(sm.multiply(a, one), a.astype(np.uint64))

    def test_monomial_wraparound(self, rng):
        """x^(n/2) squared must hit the negacyclic -1 across the segment
        boundary - the case naive slicing would get wrong."""
        sm = SegmentedMultiplier(128, native_degree=64)
        half = np.zeros(128, dtype=np.uint64)
        half[64] = 1
        out = sm.multiply(half, half)
        expected = np.zeros(128, dtype=np.uint64)
        expected[0] = sm.q - 1
        assert np.array_equal(out, expected)


class TestFullScale:
    def test_65536_against_direct_ntt(self, rng):
        """One step beyond the paper's 32k, verified against a direct
        65536-point transform (possible because q = 786433 supports it)."""
        sm = SegmentedMultiplier(65536)
        a = rng.integers(0, sm.q, 65536)
        b = rng.integers(0, sm.q, 65536)
        reference = NttEngine(params_for_degree(65536)).multiply(a, b)
        assert np.array_equal(sm.multiply(a, b), reference)
        assert sm.hardware_passes() == 2


class TestValidation:
    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            SegmentedMultiplier(100, native_degree=64)

    def test_below_native(self):
        with pytest.raises(ValueError):
            SegmentedMultiplier(64, native_degree=128)

    def test_two_adicity_limit(self):
        # q = 786433 supports 2n up to 2^18: n = 262144 must be rejected
        with pytest.raises(ValueError):
            SegmentedMultiplier(262144)

    def test_wrong_operand_shape(self, rng):
        sm = SegmentedMultiplier(128, native_degree=64)
        with pytest.raises(ValueError):
            sm.multiply(np.zeros(64, dtype=np.uint64),
                        np.zeros(128, dtype=np.uint64))

    def test_custom_modulus_needs_backend(self):
        with pytest.raises(ValueError):
            SegmentedMultiplier(128, native_degree=64, q=12289)
