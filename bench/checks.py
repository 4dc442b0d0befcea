"""Output checks: what every run must show, whatever its timing."""

from __future__ import annotations

import json
from collections import Counter

from ssiforge.propagation import LabelState, evaluate_goals, root_goals
from ssiforge.simulator import SimConfig

from scaled import copy_of

MAX_TICKS = SimConfig().max_ticks
# The fixture alone ends with three passing Verify events (README, seed 42).
VERIFIES_PER_COPY = 3
REQUEST_KINDS = ("IssuanceRequest", "ProofRequest")


def _message_key(event) -> str:
    return json.dumps(event["message"], sort_keys=True)


def trace_checks(model, trace) -> dict[str, bool]:
    """Invariants of any run on a model that validated and compiled."""
    sent = Counter(_message_key(e) for e in trace.events if e["kind"] == "Send")
    settled = Counter(_message_key(e) for e in trace.events if e["kind"] in ("Deliver", "Drop"))
    observed = {e["element"]: LabelState(e["label"]) for e in trace.events if e["kind"] == "GoalUpdate"}
    replayed = {k: v.value for k, v in evaluate_goals(model, observed).items()}
    return {
        "quiescence within max_ticks": trace.termination == "quiescence" and trace.final_tick <= MAX_TICKS,
        "every Send delivered or dropped once": sent == settled,
        "finalLabels equal evaluate_goals over GoalUpdate labels": replayed == dict(trace.final_labels),
    }


def copy_checks(model, trace) -> dict[int, bool]:
    """Per copy of a scaled fixture: all roots Satisfied and three passing Verify events."""
    ok: dict[int, bool] = {}
    for _, goal in root_goals(model):
        i = copy_of(goal.id)
        ok[i] = ok.get(i, True) and trace.final_labels.get(goal.id) == LabelState.SATISFIED.value
    verified = Counter(copy_of(e["flow"]) for e in trace.events if e["kind"] == "Verify" and e["verdict"])
    return {i: good and verified[i] == VERIFIES_PER_COPY for i, good in ok.items()}


def fingerprint(ov, model, trace) -> dict[str, float]:
    """Counts that repeat exactly for a given model and seed."""
    kinds = Counter(e["kind"] for e in trace.events)
    requests = Counter(
        (e["message"]["type"], e["message"]["flow"], e["message"]["from"])
        for e in trace.events
        if e["kind"] == "Send" and e["message"]["type"] in REQUEST_KINDS
    )
    return {
        "overlay.roles": len(ov.roles),
        "overlay.flows": len(ov.flows),
        "overlay.warnings": len(ov.warnings),
        "simulator.events": len(trace.events),
        "simulator.sends": kinds["Send"],
        "simulator.drops": kinds["Drop"],
        "simulator.verifies": kinds["Verify"],
        "simulator.retries": sum(n - 1 for n in requests.values()),
        "simulator.final_tick": trace.final_tick,
        "simulator.delivered_per_send": kinds["Deliver"] / kinds["Send"] if kinds["Send"] else 0.0,
        "propagation.roots_satisfied": sum(
            trace.final_labels.get(g.id) == LabelState.SATISFIED.value for _, g in root_goals(model)
        ),
    }
