"""Host-speed calibration for the benchmark's timings.

A shared 2-core host does not run at one speed: over tens of seconds the
same operation here took anywhere from 27 ms to 49 ms, far more than the
bounds a benchmark must hold.  A fixed kernel that uses none of ssiforge's
code, only the kinds of work ssiforge does (dicts, canonical JSON, regular
expressions, Ed25519, small allocations), slows down with the host.  Timing
the kernel right before and after an interval and scaling the interval by
``REFERENCE_S / kernel time`` gives the interval at reference speed: the
speed at which the kernel takes ``REFERENCE_S``.  A change to ssiforge moves
the scaled time as it moves the raw time; the host's speed mostly cancels.

The host's speed also changes within a second, so a long operation is
timed stage by stage (:class:`StageClock`), with a kernel between stages.
"""

from __future__ import annotations

import contextlib
import json
import re
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# The kernel's time on an idle host of the kind the benchmark was written on
# (2 x86-64 cores, Python 3.11); a unit, not a measurement to match.
REFERENCE_S = 0.0025

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"calibration message " * 8
_RECORDS = [
    {"kind": "Send", "seq": i, "tick": i % 40, "message": {"from": f"a-{i}", "to": f"b-{i}", "nonce": "ab" * 16}}
    for i in range(60)
]
_NAMES = [f"Check Mother's ID {i} against Office-Copy" for i in range(300)]
_PUNCT = re.compile(r"[^a-z0-9 ]+")


def _kernel() -> int:
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 500] = counts.get(i % 500, 0) + i
    size = sum(len(json.dumps(r, sort_keys=True, separators=(",", ":"))) for r in _RECORDS)
    size += sum(len(_PUNCT.sub("", n.lower()).split()) for n in _NAMES)
    for _ in range(3):
        _PUBLIC.verify(_KEY.sign(_MESSAGE), _MESSAGE)
    cells = [(i, str(i), (i,)) for i in range(3000)]
    return size + len(cells) + len(counts)


def kernel_seconds() -> float:
    """The kernel's time now: the faster of two runs, to shed interrupts."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """An interval timed between two kernel runs, scaled to reference speed."""
    return seconds * REFERENCE_S / ((kernel_before + kernel_after) / 2)


class StageClock:
    """Times a run of stages at reference speed; stage spans go on to ``tracer``.

    Pass it where the pipeline takes a tracer.  The kernel runs between
    stages, outside every span, so it adds to no stage's time.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.seconds = 0.0  # at reference speed
        self.measured = 0.0
        self.stages: dict[str, float] = {}  # stage -> seconds at reference speed
        self._kernel = kernel_seconds()

    @property
    def op(self):
        return self.tracer.op

    @contextlib.contextmanager
    def span(self, name: str):
        with self.tracer.span(name):
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        after = kernel_seconds()
        seconds = at_reference(elapsed, self._kernel, after)
        self._kernel = after
        self.measured += elapsed
        self.seconds += seconds
        self.stages[name] = self.stages.get(name, 0.0) + seconds
