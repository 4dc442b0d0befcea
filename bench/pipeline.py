"""The in-process ssiforge pipeline, one span per stage call.

The stages and their order follow ``ssiforge simulate``: parse, validate,
overlay (roles, flows, lint), keys, trust registry, bootstrap, compile, run
and trace serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ssiforge.credentials import did_from_public_key, generate_keypair
from ssiforge.model import Model, validate
from ssiforge.overlay import build_trust_registry, derive_flows, infer_roles, lint_ssi
from ssiforge.pistar import parse_model
from ssiforge.simulator import SimConfig, Trace, actor_key_seed, compile_agents, derive_bootstrap, run


@dataclass(frozen=True)
class Overlay:
    model: Model
    errors: int
    roles: tuple
    flows: tuple
    warnings: tuple


def overlay(data: bytes, tracer) -> Overlay:
    """Model bytes through parse, validate and the credential overlay."""
    with tracer.span("pistar.parse"):
        parsed = parse_model(data)
    if not parsed.ok:
        raise ValueError(f"model does not parse: {parsed.errors[:3]}")
    model = parsed.model
    with tracer.span("model.validate"):
        report = validate(model)
    with tracer.span("overlay.infer_roles"):
        roles = infer_roles(model)
    with tracer.span("overlay.derive_flows"):
        flows = derive_flows(model, roles)
    with tracer.span("overlay.lint_ssi"):
        warnings = lint_ssi(model, roles, flows)
    return Overlay(model, len(report.errors), roles, flows, warnings)


def simulate(ov: Overlay, seed: int, drop: float, tracer) -> tuple[Trace, str]:
    """Keys, trust, bootstrap, compile, run and trace text for one seed."""
    model = ov.model
    with tracer.span("credentials.keygen"):
        dids = {a.id: did_from_public_key(generate_keypair(actor_key_seed(seed, a.id)).public_key) for a in model.actors}
    with tracer.span("overlay.build_trust_registry"):
        trust = build_trust_registry(ov.roles, ov.flows, dids)
    with tracer.span("simulator.derive_bootstrap"):
        bootstrap = derive_bootstrap(model, ov.roles, ov.flows)
    with tracer.span("simulator.compile"):
        agents = compile_agents(model, ov.roles, ov.flows, trust, bootstrap, seed=seed)
    with tracer.span("simulator.run"):
        trace = run(model, agents, SimConfig(seed=seed, drop_probability=drop))
    with tracer.span("simulator.trace_text"):
        text = trace.text()
    return trace, text
