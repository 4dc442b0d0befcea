"""Command line front end.

Exit codes across all commands: 0 success, 1 semantic failure (validation
errors, unsatisfied root goals, strict-mode warnings, bad trust data), 2
unusable input or output (unreadable file, unparseable document, bad
flags, an output file that cannot be written).  With
``--format json`` stdout carries exactly one JSON document; diagnostics go
to stderr.  Set ``SSIFORGE_NO_COLOR`` to suppress ANSI styling.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from importlib import import_module
from pathlib import Path

import click

from . import __version__
from .model import validate as validate_model
from .overlay import (
    DEFAULT_LEXICON,
    SsiRole,
    TrustOverride,
    TrustPolicyError,
    VerbLexicon,
    build_trust_registry,
    derive_flows,
    infer_roles,
    lint_ssi,
)
from .pistar import export_dot, parse_model

# What only ``simulate`` uses, and with it ``cryptography``: bound as module
# globals on the first ``simulate`` (or on first attribute access), so that
# validate, roles and export never load it.  A name already set on the module
# (a wrapper, say) is kept.
_SIMULATE_IMPORTS = {
    "credentials": ("did_from_public_key", "generate_keypair"),
    "propagation": ("LabelState", "root_goals"),
    "simulator": (
        "CompileError",
        "SimConfig",
        "actor_key_seed",
        "compile_agents",
        "derive_bootstrap",
        "run",
        "write_trace",
    ),
}

_LABEL_COLORS = {"Satisfied": "green", "Denied": "red"}
_LEXICON_KEYS = {"issueVerbs": "issue_verbs", "provideVerbs": "provide_verbs", "checkVerbs": "check_verbs"}


def _load_simulation() -> None:
    for module, names in _SIMULATE_IMPORTS.items():
        loaded = import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if not any(name in names for names in _SIMULATE_IMPORTS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_simulation()
    return globals()[name]


def _use_color() -> bool:
    return "SSIFORGE_NO_COLOR" not in os.environ


def _styled(text: str, color: str | None) -> str:
    if color and _use_color():
        return click.style(text, fg=color)
    return text


def _fail(message: str, code: int) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _read_document(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}", 2)
        raise AssertionError  # unreachable


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failed write of ``path`` into one line and exit 2."""
    try:
        yield
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}", 2)


def _probability(ctx, param, value: float) -> float:
    if not 0.0 <= value <= 1.0:  # also rejects nan, which click.FloatRange lets through
        raise click.BadParameter(f"{value} is not within [0, 1]")
    return value


def _load_model(path: str):
    result = parse_model(_read_document(path))
    if not result.ok:
        for error in result.errors:
            click.echo(f"PARSE {error.code} at {error.path or '/'}: {error.message}", err=True)
        sys.exit(2)
    return result


def _load_lexicon(path: str | None) -> VerbLexicon:
    if path is None:
        return DEFAULT_LEXICON
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("lexicon file must hold a JSON object")
        verbs = {}
        for key, field in _LEXICON_KEYS.items():
            if key in raw:
                if not isinstance(raw[key], list) or not all(isinstance(v, str) for v in raw[key]):
                    raise ValueError(f"{key} must be a list of strings")
                verbs[field] = frozenset(raw[key])
        return VerbLexicon(**verbs)  # a missing key keeps the default verbs
    except (OSError, ValueError) as exc:
        _fail(f"bad lexicon file {path}: {exc}", 2)
        raise AssertionError


def _load_overrides(path: str | None) -> tuple[TrustOverride, ...]:
    if path is None:
        return ()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, list):
            raise ValueError("trust file must hold a JSON array")
        overrides = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise ValueError("each trust entry must be a JSON object")
            fields = (entry["verifier"], entry["credentialType"], entry["issuerDid"], entry.get("action", "add"))
            if not all(isinstance(value, str) for value in fields):
                raise ValueError("verifier, credentialType, issuerDid and action must be strings")
            overrides.append(TrustOverride(*fields))
        return tuple(overrides)
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"bad trust file {path}: {exc}", 2)
        raise AssertionError


@click.group()
@click.version_option(__version__, prog_name="ssiforge")
def main() -> None:
    """Goal-model driven credential ecosystem toolkit."""


@main.command("validate")
@click.argument("path", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def cmd_validate(path: str, fmt: str) -> None:
    """Check a model document for structural problems."""
    result = _load_model(path)
    report = validate_model(result.model)
    warnings = [{"code": w.code, "message": w.message, "subject": w.path or "/"} for w in result.warnings]
    warnings += [{"code": w.code, "message": w.message, "subject": w.offending_id} for w in report.warnings]
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "errors": [
                        {"code": e.code, "message": e.message, "subject": e.offending_id} for e in report.errors
                    ],
                    "warnings": warnings,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for error in report.errors:
            click.echo(f"{_styled('ERROR', 'red')} {error.code} {error.offending_id}: {error.message}")
        for warning in warnings:
            click.echo(f"{_styled('WARN', 'yellow')} {warning['code']} {warning['subject']}: {warning['message']}")
        click.echo(f"{len(report.errors)} error(s), {len(warnings)} warning(s)")
    if report.errors:
        sys.exit(1)


@main.command("roles")
@click.argument("path", type=click.Path())
@click.option("--lexicon", "lexicon_path", type=click.Path(), default=None, help="JSON verb lexicon override.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--strict", is_flag=True, help="Exit 1 when any overlay warning fires.")
def cmd_roles(path: str, lexicon_path: str | None, fmt: str, strict: bool) -> None:
    """Show inferred credential roles and flows."""
    result = _load_model(path)
    roles = infer_roles(result.model, _load_lexicon(lexicon_path))
    flows = derive_flows(result.model, roles)
    warnings = lint_ssi(result.model, roles, flows)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "flows": [
                        {
                            "credentialType": f.credential_type,
                            "dependency": f.dependency,
                            "evidence": {"element": f.evidence.element, "kind": f.evidence.kind.value},
                            "from": f.sender,
                            "kind": f.kind.value,
                            "to": f.receiver,
                        }
                        for f in flows
                    ],
                    "roles": [
                        {"actor": a.actor, "credentialType": a.credential_type, "role": a.role.value}
                        for a in roles
                    ],
                    "warnings": [
                        {"code": w.code, "message": w.message, "subject": w.offending_id} for w in warnings
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        click.echo("Roles:")
        for a in roles:
            click.echo(f"  {a.actor}: {a.role.value} of {a.credential_type}")
        click.echo("Flows:")
        for f in flows:
            click.echo(
                f"  {f.dependency}: {f.kind.value} of {f.credential_type} from {f.sender} to {f.receiver}"
                f" [{f.evidence.kind.value}]"
            )
        for w in warnings:
            click.echo(f"{_styled('WARN', 'yellow')} {w.code} {w.offending_id}: {w.message}")
    if strict and warnings:
        sys.exit(1)


@main.command("simulate")
@click.argument("path", type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trust", "trust_path", type=click.Path(), default=None, help="JSON trust override file.")
@click.option(
    "--drop", type=float, default=0.0, show_default=True, callback=_probability, help="Message drop probability."
)
@click.option("--trace", "trace_path", type=click.Path(), default=None, help="Write the JSONL trace here.")
@click.option("--dot", "dot_path", type=click.Path(), default=None, help="Write the SD view as DOT here.")
@click.option("--lexicon", "lexicon_path", type=click.Path(), default=None, help="JSON verb lexicon override.")
@click.option("--allow-ambiguous", is_flag=True, help="Run even when some flows stay unresolved.")
def cmd_simulate(
    path: str,
    seed: int,
    trust_path: str | None,
    drop: float,
    trace_path: str | None,
    dot_path: str | None,
    lexicon_path: str | None,
    allow_ambiguous: bool,
) -> None:
    """Run the credential lifecycle and report goal satisfaction."""
    _load_simulation()
    result = _load_model(path)
    model = result.model
    report = validate_model(model)
    if report.errors:
        for error in report.errors:
            click.echo(f"ERROR {error.code} {error.offending_id}: {error.message}", err=True)
        sys.exit(1)
    lexicon = _load_lexicon(lexicon_path)
    overrides = _load_overrides(trust_path)
    roles = infer_roles(model, lexicon)
    flows = derive_flows(model, roles)
    warnings = lint_ssi(model, roles, flows, overrides)
    ambiguous = [w for w in warnings if w.code == "W_FLOW_AMBIGUOUS"]
    if ambiguous and not allow_ambiguous:
        for w in ambiguous:
            click.echo(f"WARN {w.code} {w.offending_id}: {w.message}", err=True)
        _fail("ambiguous flows; rerun with --allow-ambiguous to simulate anyway", 1)

    did_of = {
        actor.id: did_from_public_key(generate_keypair(actor_key_seed(seed, actor.id)).public_key)
        for actor in model.actors
    }
    try:
        registry = build_trust_registry(roles, flows, did_of, overrides)
        agents = compile_agents(
            model,
            roles,
            flows,
            registry,
            derive_bootstrap(model, roles, flows),
            seed=seed,
        )
        config = SimConfig(seed=seed, drop_probability=drop)
    except (TrustPolicyError, CompileError, ValueError) as exc:
        _fail(f"{getattr(exc, 'code', 'E_CONFIG')}: {exc}", 1)
        raise AssertionError

    trace = run(model, agents, config)
    if trace_path is not None:
        with _writing(trace_path):
            write_trace(trace, trace_path)
    if dot_path is not None:
        with _writing(dot_path):
            Path(dot_path).write_text(export_dot(model, "sd"), encoding="utf-8")

    click.echo("Root goals:")
    all_satisfied = True
    for actor_id, goal in root_goals(model):
        label = trace.final_labels.get(goal.id, LabelState.UNKNOWN.value)
        all_satisfied = all_satisfied and label == LabelState.SATISFIED.value
        click.echo(f"  {actor_id}: {goal.name}: {_styled(label, _LABEL_COLORS.get(label))}")
    counts = {name: [0, 0] for name in ("integrity", "issuerSignature", "subjectBinding", "issuerTrusted")}
    for event in trace.events:
        if event["kind"] == "Verify":
            for name in counts:
                counts[name][0 if event[name] else 1] += 1
    click.echo("Checks:")
    for name, (passed, failed) in counts.items():
        click.echo(f"  {name}: {passed} pass, {failed} fail")
    click.echo(f"Termination: {trace.termination} at tick {trace.final_tick}")
    if not all_satisfied:
        sys.exit(1)


@main.command("export")
@click.argument("path", type=click.Path())
@click.option("--view", type=click.Choice(["sd", "sr"]), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None, help="Target file; stdout when omitted.")
def cmd_export(path: str, view: str, out_path: str | None) -> None:
    """Render the model as GraphViz DOT."""
    result = _load_model(path)
    dot = export_dot(result.model, view)
    if out_path is None:
        click.echo(dot, nl=False)
    else:
        with _writing(out_path):
            Path(out_path).write_text(dot, encoding="utf-8")


if __name__ == "__main__":
    main()
