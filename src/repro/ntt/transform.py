"""Gentleman-Sande number theoretic transform (Algorithms 1 and 2).

The paper computes both the forward and the inverse transform with the same
Gentleman-Sande (GS) kernel, following the NewHope reference implementation
[19]: the kernel consumes its input in *bit-reversed* order, produces
*natural* order output, and walks butterfly distances ``1, 2, 4, ...``
(Algorithm 2, ``j' = j + (1 << i)``).  Twiddle factors ``w^i`` are stored in
bit-reversed order (Algorithm 1 line 2) and indexed as
``twiddle[j >> (i + 1)]``.

Negacyclic multiplication in ``Z_q[x]/(x^n + 1)`` (Algorithm 1) wraps the
kernel with the ``phi^i`` twist: scale inputs by ``phi^i``, transform,
multiply pointwise, inverse-transform, scale by ``n^-1 * phi^-i``.

Two implementations are provided with identical semantics:

* pure-Python on ``list[int]`` - the readable ground truth and the
  independent oracle for everything else;
* :class:`NttEngine` - the batched numpy engine over
  :func:`repro.ntt.batch.gs_kernel_batch`, used by the PIM simulator's
  functional mode, the crypto layer and the CPU baseline.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .batch import (
    SHOUP_MAX_Q,
    StagePlan,
    bitrev_gather_rows,
    check_kernel_modulus,
    gs_kernel_batch,
    kernel_dtype,
    modmul_fixed,
    shoup_table,
    stage_plan,
)
from .bitrev import bitrev_permute
from .params import NttParams, params_for_degree

__all__ = [
    "ntt_gs",
    "intt_gs",
    "negacyclic_multiply",
    "NttEngine",
]


# ---------------------------------------------------------------------------
# Pure-Python reference kernel
# ---------------------------------------------------------------------------

def _gs_kernel(values: List[int], twiddles_bitrev: Sequence[int], q: int) -> List[int]:
    """In-place GS butterflies on a bit-reversed-order input list.

    Returns the same list, now holding the transform in natural order.
    This is a literal transcription of Algorithm 2.
    """
    n = len(values)
    if n & (n - 1) or n < 2:
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    log_n = n.bit_length() - 1
    for i in range(log_n):
        distance = 1 << i
        for j in range(n):
            if j & distance:
                continue  # j indexes the top element of each butterfly pair
            j_pair = j + distance
            w = twiddles_bitrev[j >> (i + 1)]
            t = values[j]
            values[j] = (t + values[j_pair]) % q
            values[j_pair] = (w * (t - values[j_pair])) % q
    return values


def ntt_gs(values: Sequence[int], params: NttParams) -> List[int]:
    """Forward GS NTT.

    Args:
        values: coefficients in **natural** order (the bit-reversal of
            Algorithm 1 line 4 is applied internally, mirroring how
            CryptoPIM folds it into the row-write).
    Returns:
        The transform ``A[k] = sum_j a_j w^{jk} mod q`` in natural order.
    """
    work = bitrev_permute(list(values))
    return _gs_kernel(work, params.forward_twiddles_bitrev(), params.q)


def intt_gs(values: Sequence[int], params: NttParams) -> List[int]:
    """Inverse GS NTT (without the negacyclic ``phi`` post-twist).

    Applies the same kernel with ``w^-1`` twiddles and multiplies by
    ``n^-1``, so that ``intt_gs(ntt_gs(a)) == a``.
    """
    work = bitrev_permute(list(values))
    _gs_kernel(work, params.inverse_twiddles_bitrev(), params.q)
    return [(v * params.n_inv) % params.q for v in work]


def negacyclic_multiply(
    a: Sequence[int], b: Sequence[int], params: NttParams
) -> List[int]:
    """Algorithm 1: multiply two polynomials in ``Z_q[x]/(x^n + 1)``."""
    n, q = params.n, params.q
    if len(a) != n or len(b) != n:
        raise ValueError(f"operands must have exactly n={n} coefficients")
    phi = params.phi_powers()
    a_twisted = [(x * p) % q for x, p in zip(a, phi)]
    b_twisted = [(x * p) % q for x, p in zip(b, phi)]
    a_hat = ntt_gs(a_twisted, params)
    b_hat = ntt_gs(b_twisted, params)
    c_hat = [(x * y) % q for x, y in zip(a_hat, b_hat)]
    c_twisted = intt_gs(c_hat, params)
    phi_inv = params.phi_inv_powers()
    return [(x * p) % q for x, p in zip(c_twisted, phi_inv)]


# ---------------------------------------------------------------------------
# Engine facade
# ---------------------------------------------------------------------------

class NttEngine:
    """Convenience bundle of one parameter set plus cached twiddle tables.

    This is the software multiplier used by the crypto layer and by the CPU
    baseline; the PIM accelerator exposes the same ``multiply`` signature so
    the two are interchangeable backends.

    Besides the per-pair ``forward``/``inverse``/``multiply``, the engine
    offers ``forward_many``/``inverse_many``/``multiply_many`` over
    ``(batch, n)`` blocks: one set of numpy stage operations covers the
    whole batch (the software analogue of the paper's parallel superbanks).
    Both paths share the cached :class:`~repro.ntt.batch.StagePlan`, so
    even single-pair calls stop rebuilding stage indices.
    """

    def __init__(self, params: NttParams):
        check_kernel_modulus(params.q)
        self.params = params
        self._plan: StagePlan = stage_plan(params.n)
        #: kernel datapath width: uint32 when q^2 fits (the 16-bit moduli,
        #: mirroring the paper's 16-bit datapath for n <= 1024), else uint64
        self._dtype = kernel_dtype(params.q)
        dt = self._dtype
        self._phi = np.asarray(params.phi_powers(), dtype=dt)
        self._phi_inv = np.asarray(params.phi_inv_powers(), dtype=dt)
        self._fwd_tw = np.asarray(params.forward_twiddles_bitrev(), dtype=dt)
        self._inv_tw = np.asarray(params.inverse_twiddles_bitrev(), dtype=dt)
        #: n^-1 * phi^-i fused post-scale (the table the PIM stores too)
        self._post = np.asarray(params.phi_inv_powers_scaled(), dtype=dt)
        if dt == np.uint64 and params.q < SHOUP_MAX_Q:
            q = params.q
            self._fwd_shoup = shoup_table(self._fwd_tw, q)
            self._inv_shoup = shoup_table(self._inv_tw, q)
            self._phi_shoup = shoup_table(self._phi, q)
            self._post_shoup = shoup_table(self._post, q)
        else:
            self._fwd_shoup = self._inv_shoup = None
            self._phi_shoup = self._post_shoup = None

    @classmethod
    def for_degree(cls, n: int) -> "NttEngine":
        return cls(params_for_degree(n))

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def q(self) -> int:
        return self.params.q

    def forward(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.uint64).reshape(1, -1)
        return self.forward_many(arr)[0]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.uint64).reshape(1, -1)
        return self.inverse_many(arr)[0]

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of two coefficient vectors."""
        a2 = np.asarray(a, dtype=np.uint64).reshape(1, -1)
        b2 = np.asarray(b, dtype=np.uint64).reshape(1, -1)
        return self.multiply_many(a2, b2)[0]

    # -- batched operations -------------------------------------------------

    def _as_batch(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(
                f"expected a (batch, {self.n}) array, got shape {arr.shape}"
            )
        return (arr % self.q).astype(self._dtype, copy=False)

    def _modmul_table(self, x: np.ndarray, table: np.ndarray,
                      table_shoup) -> np.ndarray:
        """``(x * table) mod q`` against a cached constant table."""
        if table_shoup is not None:
            return modmul_fixed(x, table, table_shoup, self.q)
        return (x * table) % self.q  # uint32 datapath / huge-q fallback

    def forward_many(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT of every row of a ``(batch, n)`` block."""
        work = bitrev_gather_rows(self._as_batch(values), self._plan)
        return gs_kernel_batch(work, self._fwd_tw, self.q, self._plan,
                               self._fwd_shoup)

    def inverse_many(self, values: np.ndarray) -> np.ndarray:
        """Inverse NTT (with ``n^-1`` scaling) of every row."""
        work = bitrev_gather_rows(self._as_batch(values), self._plan)
        gs_kernel_batch(work, self._inv_tw, self.q, self._plan,
                        self._inv_shoup)
        return (work * self.params.n_inv) % self.q

    def multiply_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic products of ``(batch, n)`` operand blocks, row-wise.

        Bit-identical to calling :meth:`multiply` on each row, at the cost
        of roughly one transform's worth of numpy dispatch for the whole
        batch.  The pre-twist, post-twist and ``n^-1`` scalings run
        against cached Shoup tables (the post scale is the fused
        ``n^-1 * phi^-i`` column the PIM itself stores).
        """
        q = self.q
        a2 = self._as_batch(a)
        b2 = self._as_batch(b)
        if a2.shape[0] != b2.shape[0]:
            raise ValueError(
                f"operand batches differ: {a2.shape[0]} vs {b2.shape[0]}"
            )
        plan = self._plan
        a_hat = gs_kernel_batch(
            bitrev_gather_rows(self._modmul_table(a2, self._phi, self._phi_shoup), plan),
            self._fwd_tw, q, plan, self._fwd_shoup)
        b_hat = gs_kernel_batch(
            bitrev_gather_rows(self._modmul_table(b2, self._phi, self._phi_shoup), plan),
            self._fwd_tw, q, plan, self._fwd_shoup)
        c_twisted = gs_kernel_batch(
            bitrev_gather_rows((a_hat * b_hat) % q, plan),
            self._inv_tw, q, plan, self._inv_shoup)
        return self._modmul_table(c_twisted, self._post, self._post_shoup)
