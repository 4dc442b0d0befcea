"""Spans for the traced benchmark run, kept in memory until the run ends.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
span that was open when this one started, ``op`` the operation it belongs
to.  Stage spans sit around the calls in the benchmark's own code; the
credential and propagation calls inside the simulator are timed by
:func:`instrument`, which swaps in wrappers for the duration of a ``with``
block and puts the originals back afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

import ssiforge.credentials as credentials
import ssiforge.simulator as simulator

KEY_LOAD = "credentials.key_load"
SIGN_SPANS = ("credentials.issue", "credentials.present")

# Calls the simulator makes into other layers, timed while instrumented.
SIMULATOR_CALLS = (
    (simulator, "issue_credential", "credentials.issue"),
    (simulator, "create_presentation", "credentials.present"),
    (simulator, "verify_presentation", "credentials.verify"),
    (simulator, "evaluate_goals", "propagation.evaluate_goals"),
)


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def mark(self, name: str) -> None:
        """A zero-length span: a count taken where the work happens."""
        now = time.perf_counter()
        self.spans.append([name, now, now, self._open[-1] if self._open else None, self.op])

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


class _KeyLoadCounter:
    """Stands in for ``Ed25519PrivateKey``; marks each ``from_private_bytes``."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer

    def from_private_bytes(self, data):
        self._tracer.mark(KEY_LOAD)
        return self._real.from_private_bytes(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextlib.contextmanager
def instrument(tracer: Tracer, extra=()):
    """Wrap the simulator's cross-layer calls (plus ``extra``) in spans."""
    saved = []
    try:
        for module, attr, name in (*SIMULATOR_CALLS, *extra):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name))
        saved.append((credentials, "Ed25519PrivateKey", credentials.Ed25519PrivateKey))
        credentials.Ed25519PrivateKey = _KeyLoadCounter(credentials.Ed25519PrivateKey, tracer)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def per_op(spans) -> dict:
    """Per operation: total ms and count by span name, plus self ms of each span."""
    out: dict = {}
    children_ms: dict[int, float] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children_ms[parent] = children_ms.get(parent, 0.0) + (end - start) * 1000
    for index, (name, start, end, parent, op) in enumerate(spans):
        group = out.setdefault(op, {"ms": {}, "calls": {}, "self_ms": {}, "signing_key_loads": 0})
        ms = (end - start) * 1000
        group["ms"][name] = group["ms"].get(name, 0.0) + ms
        group["calls"][name] = group["calls"].get(name, 0) + 1
        group["self_ms"][name] = group["self_ms"].get(name, 0.0) + ms - children_ms.get(index, 0.0)
        if name == KEY_LOAD and parent is not None and spans[parent][0] in SIGN_SPANS:
            group["signing_key_loads"] += 1
    return out


def median_over_ops(groups: dict, field: str, name: str) -> float:
    """Median over the operations that recorded ``name``."""
    values = [g[field][name] for g in groups.values() if name in g[field]]
    return statistics.median(values) if values else 0.0
