"""Unit tests for the Gentleman-Sande NTT (Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.params import params_for_degree
from repro.ntt.transform import NttEngine, intt_gs, negacyclic_multiply, ntt_gs


class TestForwardTransform:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matches_direct_dft(self, n, rng):
        """The kernel must compute A[k] = sum_j a_j w^{jk} exactly."""
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n).tolist()
        direct = [
            sum(a[j] * pow(p.w, j * k, p.q) for j in range(n)) % p.q
            for k in range(n)
        ]
        assert ntt_gs(a, p) == direct

    def test_delta_transforms_to_constant(self):
        p = params_for_degree(16)
        delta = [1] + [0] * 15
        assert ntt_gs(delta, p) == [1] * 16

    def test_constant_transforms_to_scaled_delta(self):
        p = params_for_degree(16)
        out = ntt_gs([1] * 16, p)
        assert out[0] == 16 % p.q
        assert all(v == 0 for v in out[1:])

    def test_linearity(self, rng):
        p = params_for_degree(64)
        a = rng.integers(0, p.q, 64).tolist()
        b = rng.integers(0, p.q, 64).tolist()
        fa, fb = ntt_gs(a, p), ntt_gs(b, p)
        fsum = ntt_gs([(x + y) % p.q for x, y in zip(a, b)], p)
        assert fsum == [(x + y) % p.q for x, y in zip(fa, fb)]

    def test_numpy_matches_python(self, rng):
        for n in (16, 256, 1024):
            p = params_for_degree(n)
            a = rng.integers(0, p.q, n)
            assert NttEngine(p).forward(a).tolist() == ntt_gs(a.tolist(), p)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [4, 16, 256, 512])
    def test_intt_inverts_ntt(self, n, rng):
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n).tolist()
        assert intt_gs(ntt_gs(a, p), p) == a

    @pytest.mark.parametrize("n", [256, 2048])
    def test_numpy_roundtrip(self, n, rng):
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n)
        engine = NttEngine(p)
        back = engine.inverse(engine.forward(a))
        assert np.array_equal(back, a.astype(np.uint64))

    @given(st.lists(st.integers(0, 7680), min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_roundtrip_property(self, coeffs):
        p = params_for_degree(16)
        assert intt_gs(ntt_gs(coeffs, p), p) == coeffs


class TestNegacyclicMultiply:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_against_schoolbook(self, n, rng):
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n).tolist()
        b = rng.integers(0, p.q, n).tolist()
        assert negacyclic_multiply(a, b, p) == schoolbook_negacyclic(a, b, p.q)

    @pytest.mark.parametrize("n", [512, 2048, 8192])
    def test_numpy_against_schoolbook(self, n, rng):
        p = params_for_degree(n)
        a = rng.integers(0, p.q, n)
        b = rng.integers(0, p.q, n)
        engine = NttEngine(p)
        got = engine.multiply(a, b)
        # verify with the x^n = -1 identity on a monomial product instead of
        # the O(n^2) schoolbook at large n: multiply by x^k
        k = int(rng.integers(1, n))
        x_k = np.zeros(n, dtype=np.uint64)
        x_k[k] = 1
        shifted = engine.multiply(a, x_k)
        expected = np.roll(a.astype(np.int64), k)
        expected[:k] = -expected[:k]
        assert np.array_equal(shifted.astype(np.int64), expected % p.q)
        # and spot-check the general product against schoolbook on n=512 only
        if n == 512:
            from repro.ntt.naive import schoolbook_negacyclic_np
            assert np.array_equal(got, schoolbook_negacyclic_np(a, b, p.q))

    def test_multiplication_by_one(self, rng):
        p = params_for_degree(64)
        a = rng.integers(0, p.q, 64).tolist()
        one = [1] + [0] * 63
        assert negacyclic_multiply(a, one, p) == a

    def test_x_to_n_is_minus_one(self):
        """x^(n/2) * x^(n/2) = x^n = -1 in the negacyclic ring."""
        p = params_for_degree(16)
        half = [0] * 16
        half[8] = 1
        out = negacyclic_multiply(half, half, p)
        assert out == [(p.q - 1)] + [0] * 15

    def test_commutativity(self, rng):
        p = params_for_degree(128)
        a = rng.integers(0, p.q, 128).tolist()
        b = rng.integers(0, p.q, 128).tolist()
        assert negacyclic_multiply(a, b, p) == negacyclic_multiply(b, a, p)

    def test_wrong_length_rejected(self):
        p = params_for_degree(16)
        with pytest.raises(ValueError):
            negacyclic_multiply([1] * 8, [1] * 16, p)

    @given(
        st.lists(st.integers(0, 7680), min_size=16, max_size=16),
        st.lists(st.integers(0, 7680), min_size=16, max_size=16),
    )
    @settings(max_examples=50)
    def test_convolution_theorem_property(self, a, b):
        p = params_for_degree(16)
        assert negacyclic_multiply(a, b, p) == schoolbook_negacyclic(a, b, p.q)


class TestNttEngine:
    def test_engine_multiply(self, rng):
        engine = NttEngine.for_degree(256)
        a = rng.integers(0, engine.q, 256)
        b = rng.integers(0, engine.q, 256)
        expected = schoolbook_negacyclic(a.tolist(), b.tolist(), engine.q)
        assert engine.multiply(a, b).tolist() == expected

    def test_engine_forward_inverse(self, rng):
        engine = NttEngine.for_degree(512)
        a = rng.integers(0, engine.q, 512)
        assert np.array_equal(engine.inverse(engine.forward(a)),
                              a.astype(np.uint64))

    def test_distributivity_over_addition(self, rng):
        engine = NttEngine.for_degree(256)
        q = engine.q
        a, b, c = (rng.integers(0, q, 256) for _ in range(3))
        left = engine.multiply(a, (b + c) % q)
        right = (engine.multiply(a, b) + engine.multiply(a, c)) % q
        assert np.array_equal(left, right)
