"""Benchmark workloads, their seeded inputs, and the output oracle.

The traffic mixes copy the weights of the program's ``mixed-pk``,
``he-eval`` and ``mixed-kyber-he`` serving profiles, but they are written
out here rather than imported, so a change to the program cannot change
the traffic the benchmark sends.

:class:`Inputs` builds a small pool of payloads per traffic spec from the
``--seed`` and keeps what it needs to check every served value: the
client-side plaintexts, the client-side KEM keys, and the value a direct
library call returns for the same payload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.crypto.bgv import BgvCiphertext, BgvScheme
from repro.crypto.kyber import KyberCiphertext, KyberKem
from repro.ntt.polynomial import Polynomial
from repro.ntt.transform import NttEngine
from repro.serve import CryptoPimService, RequestKind, ServeRequest


@dataclass(frozen=True)
class Spec:
    """One request kind's share of a workload."""

    kind: RequestKind
    n: int
    weight: float


@dataclass(frozen=True)
class Workload:
    """A traffic mix plus how it is offered (closed or open loop)."""

    name: str
    loop: str                 # "closed" or "open"
    specs: Tuple[Spec, ...]
    chips: int = 1
    clients: int = 0          # closed loop: concurrent clients
    rate_per_s: float = 0.0   # open loop: Poisson arrival rate
    #: length of one timed slice, whose latency percentiles are taken on
    #: their own: a closed-loop slice holds >= 1000 requests, so its p99
    #: has >= 10 samples beyond it; an open-loop one is shorter than that
    #: to stay short against the host's slow episodes
    slice_s: float = 2.0

    def pick(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` seeded spec indices drawn by weight."""
        weights = np.asarray([s.weight for s in self.specs], dtype=float)
        return rng.choice(len(self.specs), size=count,
                          p=weights / weights.sum())


K = RequestKind
WORKLOADS: Dict[str, Workload] = {
    # many small public-key requests: serve path and cycle model dominate
    "pk-closed": Workload("pk-closed", "closed", (
        Spec(K.POLYMUL, 256, 0.40),
        Spec(K.KYBER_ENCAPS, 256, 0.20),
        Spec(K.KYBER_DECAPS, 256, 0.10),
        Spec(K.NTT_FORWARD, 256, 0.15),
        Spec(K.NTT_INVERSE, 256, 0.15),
    ), chips=1, clients=64, slice_s=1.0),
    # SEAL-ring homomorphic eval: the uint64 NTT kernel dominates
    "he-closed": Workload("he-closed", "closed", (
        Spec(K.BGV_MULTIPLY, 2048, 0.50),
        Spec(K.BGV_ADD, 2048, 0.50),
    ), chips=1, clients=32, slice_s=3.0),
    # arrival-driven degree-mixed traffic over a two-chip fleet, offered
    # at about a quarter of what one host thread serves: at 40/s and
    # above, queueing amplified every swing of host speed into the tail
    "fleet-open": Workload("fleet-open", "open", (
        Spec(K.KYBER_ENCAPS, 256, 0.25),
        Spec(K.KYBER_DECAPS, 256, 0.10),
        Spec(K.POLYMUL, 1024, 0.25),
        Spec(K.BGV_MULTIPLY, 2048, 0.25),
        Spec(K.BGV_ADD, 2048, 0.15),
    ), chips=2, rate_per_s=25.0, slice_s=2.5),
}


def build_contexts(service: CryptoPimService, workload: Workload) -> None:
    """Build every execution context the workload's requests use, always
    in spec order, so fresh services with one seed hold identical keys."""
    for spec in workload.specs:
        if spec.kind is K.POLYMUL:
            service.accelerator(spec.n)
        elif spec.kind in (K.NTT_FORWARD, K.NTT_INVERSE):
            service.engine(spec.n)
        elif spec.kind in (K.KYBER_ENCAPS, K.KYBER_DECAPS):
            service.kyber()
        elif spec.kind in (K.BGV_ADD, K.BGV_MULTIPLY):
            service.bgv(spec.n)
        else:
            raise ValueError(f"no context for {spec.kind}")


def negacyclic(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Schoolbook product in ``Z_q[x]/(x^n + 1)``: the oracle that does
    not share a line of code with the NTT it checks."""
    n = len(a)
    full = np.convolve(np.asarray(a, dtype=np.int64) % q,
                       np.asarray(b, dtype=np.int64) % q)
    out = full[:n].copy()
    out[:n - 1] -= full[n:]
    return out % q


def _same_ciphertext(x: Any, y: Any) -> bool:
    return len(x.parts) == len(y.parts) and all(
        np.array_equal(p.coeffs, r.coeffs) for p, r in zip(x.parts, y.parts))


class Inputs:
    """Seeded payloads per spec, each with the value it must produce.

    ``items[s][j]`` is ``(payload, expected)`` for spec ``s``.  Expected
    values come from direct library calls on a client-side engine or the
    service's own key material, and each is cross-checked once against
    an independent reference (schoolbook product, NTT round trip, KEM
    key kept by the client, BGV decryption of the plaintext result).
    """

    def __init__(self, workload: Workload, service: CryptoPimService,
                 seed: int, per_spec: int = 16):
        self.workload = workload
        rng = np.random.default_rng([seed, 0x1A7])
        self._engines: Dict[int, NttEngine] = {}
        self._bgv_secrets: Dict[int, np.ndarray] = {}
        self._kem = service.kyber() if any(
            s.kind in (K.KYBER_ENCAPS, K.KYBER_DECAPS)
            for s in workload.specs) else None
        self.items: List[List[Tuple[Any, Any]]] = [
            [self._build(service, spec, rng) for _ in range(per_spec)]
            for spec in workload.specs
        ]

    def _engine(self, n: int) -> NttEngine:
        if n not in self._engines:
            self._engines[n] = NttEngine.for_degree(n)
        return self._engines[n]

    def _build(self, service: CryptoPimService, spec: Spec,
               rng: np.random.Generator) -> Tuple[Any, Any]:
        kind, n = spec.kind, spec.n
        if kind is K.POLYMUL:
            engine = self._engine(n)
            a = rng.integers(0, engine.q, n).astype(np.uint64)
            b = rng.integers(0, engine.q, n).astype(np.uint64)
            expected = engine.multiply(a, b)
            _require(np.array_equal(expected, negacyclic(a, b, engine.q)),
                     "NttEngine.multiply disagrees with the schoolbook")
            return (a, b), expected
        if kind in (K.NTT_FORWARD, K.NTT_INVERSE):
            engine = self._engine(n)
            a = rng.integers(0, engine.q, n).astype(np.uint64)
            forward = engine.forward(a)
            _require(np.array_equal(engine.inverse(forward), a),
                     "NTT round trip does not return its input")
            return a, (forward if kind is K.NTT_FORWARD
                       else engine.inverse(a))
        if kind is K.KYBER_ENCAPS:
            return None, None  # checked by decapsulating with the service key
        if kind is K.KYBER_DECAPS:
            kem, pk, sk = self._kem
            client = KyberKem(rng=np.random.default_rng(
                int(rng.integers(2**63))))
            ct, key = client.encapsulate(pk)
            _require(kem.decapsulate(sk, ct) == key
                     and self._decapsulate([ct]) == [key],
                     "client-side Kyber key does not decapsulate")
            return ct, key
        if kind in (K.BGV_ADD, K.BGV_MULTIPLY):
            scheme, sk = service.bgv(n)
            self._bgv_secrets[n] = sk.s.coeffs
            client = BgvScheme(n=n, rng=np.random.default_rng(
                int(rng.integers(2**63))))
            m1 = rng.integers(0, scheme.t, n)
            m2 = rng.integers(0, scheme.t, n)
            x, y = client.encrypt(sk, m1), client.encrypt(sk, m2)
            if kind is K.BGV_ADD:
                expected, plain = scheme.add(x, y), (m1 + m2) % scheme.t
            else:
                expected = scheme.multiply(x, y)
                plain = negacyclic(m1, m2, scheme.t)
            _require(np.array_equal(scheme.decrypt(sk, expected), plain),
                     f"{kind.value} does not decrypt to the plaintext result")
            return (x, y), expected
        raise ValueError(f"no payload builder for {kind}")

    def request(self, spec_index: int, item: int) -> ServeRequest:
        """A request carrying fresh ciphertext objects, as a server gets
        them from the wire: nothing cached on one request's polynomials
        carries over to the next."""
        spec = self.workload.specs[spec_index]
        payload = self.items[spec_index][item][0]
        if spec.kind in (K.BGV_ADD, K.BGV_MULTIPLY):
            payload = tuple(BgvCiphertext([_fresh(p) for p in ct.parts],
                                          ct.noise_bound) for ct in payload)
        elif spec.kind is K.KYBER_DECAPS:
            payload = KyberCiphertext(u=[_fresh(p) for p in payload.u],
                                      v=_fresh(payload.v))
        return ServeRequest(kind=spec.kind, n=spec.n, payload=payload)

    def same_keys(self, service: CryptoPimService) -> bool:
        """True when a fresh service holds the keys these inputs target."""
        if self._kem is not None and not all(
                np.array_equal(a.coeffs, b.coeffs)
                for a, b in zip(self._kem[1].t, service.kyber()[1].t)):
            return False
        return all(np.array_equal(service.bgv(n)[1].s.coeffs, s)
                   for n, s in self._bgv_secrets.items())

    def check(self, records: Sequence[Tuple[int, int, Any]]) -> List[bool]:
        """Verdict per ``(spec_index, item, response)``: served, and equal
        to the expected value.  Encapsulations are decapsulated in one
        batch with the service key."""
        verdicts = [False] * len(records)
        encaps: List[int] = []
        for i, (s, item, response) in enumerate(records):
            if not response.ok:
                continue
            kind = self.workload.specs[s].kind
            value, expected = response.value, self.items[s][item][1]
            if kind is K.KYBER_ENCAPS:
                encaps.append(i)
            elif kind is K.KYBER_DECAPS:
                verdicts[i] = value == expected
            elif kind in (K.BGV_ADD, K.BGV_MULTIPLY):
                verdicts[i] = _same_ciphertext(value, expected)
            else:
                verdicts[i] = bool(np.array_equal(value, expected))
        if encaps:
            pairs = [records[i][2].value for i in encaps]
            keys = self._decapsulate([ct for ct, _ in pairs])
            for i, (_, key), got in zip(encaps, pairs, keys):
                verdicts[i] = got == key
        return verdicts

    def _decapsulate(self, cts: List[KyberCiphertext]) -> List[bytes]:
        """Decapsulate with the service key, all ciphertexts in one numpy
        pass: ``H(round(v - s.u))``, the KEM's definition, written out so
        checking thousands of encapsulations stays cheap."""
        kem, _, sk = self._kem
        params = kem.pke.params
        n, q = params.n, params.q
        u = np.stack([[p.coeffs for p in ct.u] for ct in cts])
        s = np.broadcast_to(np.stack([p.coeffs for p in sk.s]), u.shape)
        products = self._engine(n).multiply_many(
            s.reshape(-1, n), u.reshape(-1, n)).reshape(u.shape)
        dot = products.astype(np.int64).sum(axis=1)
        v = np.stack([ct.v.coeffs for ct in cts]).astype(np.int64)
        noisy = (v - dot) % q
        centered = np.where(noisy > q // 2, noisy - q, noisy)
        bits = (np.abs(centered) > q // 4).astype(np.uint8)
        return [hashlib.sha3_256(row.tobytes()).digest() for row in bits]


def _fresh(poly: Polynomial) -> Polynomial:
    return Polynomial(poly.coeffs, poly.params)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"benchmark oracle failed: {message}")
