"""Per-layer self time, measured from outside the program.

:class:`LayerClock` wraps public entry points of each layer (class methods
and module functions) with a timer.  Every wrapped call in this process
runs on the asyncio loop's one thread and none of them awaits, so the
calls nest as a stack: a call's *self time* is its duration minus the
durations of the wrapped calls nested inside it.  Layers:

* ``ntt``     - ``NttEngine`` construction, ``forward``/``inverse``/
  ``multiply`` and their ``_many`` forms, and the GS kernel those call
  (which also counts rows transformed and butterflies);
* ``core.model`` - ``PipelineModel.report`` and
  ``controller.pipelined_completion_cycles``;
* ``core.multiply_batch`` - ``CryptoPIM.multiply_batch`` (marshalling);
* ``crypto.kem`` / ``crypto.bgv`` - ``KyberKem.*_many`` and
  ``BgvScheme.multiply_many``/``add``;
* ``serve.dispatch`` - ``ChipTimeline.dispatch``.

Whatever wall time no wrapped call covers (asyncio, admission, batching,
result fan-out, the load generator) is the serve path's remainder.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import repro.core.controller as controller
import repro.ntt.transform as transform
from repro.core.accelerator import CryptoPIM
from repro.core.pipeline import PipelineModel
from repro.crypto.bgv import BgvScheme
from repro.crypto.kyber import KyberKem
from repro.ntt.transform import NttEngine
from repro.serve.scheduler import ChipTimeline

LAYERS = ("ntt", "core.model", "core.multiply_batch", "crypto.kem",
          "crypto.bgv", "serve.dispatch")

# (owner, attribute, layer) for every wrapped entry point
_TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (NttEngine, "__init__", "ntt"),
    *((NttEngine, name, "ntt") for name in (
        "forward", "inverse", "multiply",
        "forward_many", "inverse_many", "multiply_many")),
    (transform, "gs_kernel_batch", "ntt"),
    (PipelineModel, "report", "core.model"),
    (controller, "pipelined_completion_cycles", "core.model"),
    (CryptoPIM, "multiply_batch", "core.multiply_batch"),
    (KyberKem, "encapsulate_many", "crypto.kem"),
    (KyberKem, "decapsulate_many", "crypto.kem"),
    (BgvScheme, "multiply_many", "crypto.bgv"),
    (BgvScheme, "add", "crypto.bgv"),
    (ChipTimeline, "dispatch", "serve.dispatch"),
)


class LayerClock:
    """Self seconds and call counts per layer, plus NTT work counts.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.  The wrappers always time their
    calls, so their overhead is the same everywhere, but they add to the
    totals only while ``recording`` is true.
    """

    def __init__(self) -> None:
        self.recording = False
        self.reset()
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.rows = 0          # polynomials through the GS kernel
        self.butterflies = 0   # rows * (n/2) * log2(n)

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        stack = self._stack
        key = f"{layer}:{name}"
        kernel = name == "gs_kernel_batch"

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            began = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - began
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if self.recording:
                    self.self_s[layer] += elapsed - frame[0]
                    self.calls[key] += 1
                    if kernel:
                        batch, n = args[0].shape
                        self.rows += batch
                        self.butterflies += batch * (n // 2) * int(
                            math.log2(n))
        return timed

    def __enter__(self) -> "LayerClock":
        for owner, name, layer in _TARGETS:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, name))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
