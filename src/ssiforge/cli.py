"""Command line front end.

Exit codes across all commands: 0 success, 1 semantic failure (validation
errors, unsatisfied root goals, strict-mode warnings, bad trust data), 2
unusable input or output (unreadable file, unparseable document, bad
flags, an output file that cannot be written).  With
``--format json`` stdout carries exactly one JSON document; diagnostics go
to stderr.  Labels and markers are styled with ANSI colours only when stdout
is a terminal and ``SSIFORGE_NO_COLOR`` is unset.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import ssiforge

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
    trust_noops,
)
from .pistar import export_dot, parse_model

# What only ``simulate`` uses, and with it ``cryptography``: bound as module
# globals from the package's lazy names on the first ``simulate`` (or on first
# attribute access), so that validate, roles and export never load it.  A name
# already set on the module (a wrapper, say) is kept.
_SIMULATE_NAMES = (
    "CHECK_ORDER",
    "did_from_public_key",
    "generate_keypair",
    "LabelState",
    "root_goals",
    "CompileError",
    "SimConfig",
    "actor_key_seed",
    "compile_agents",
    "derive_bootstrap",
    "run",
    "write_trace",
)

# ANSI foreground colour codes.
_RED, _GREEN, _YELLOW = 31, 32, 33
_LABEL_COLORS = {"Satisfied": _GREEN, "Denied": _RED}
_LEXICON_KEYS = {"issueVerbs": "issue_verbs", "provideVerbs": "provide_verbs", "checkVerbs": "check_verbs"}
_TRUST_KEYS = {"verifier", "credentialType", "issuerDid", "action"}


def _load_simulation() -> None:
    for name in _SIMULATE_NAMES:
        globals().setdefault(name, getattr(ssiforge, name))


def __getattr__(name: str):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_simulation()
    return globals()[name]


def _styled(text: str, color: int | None) -> str:
    if color and sys.stdout.isatty() and "SSIFORGE_NO_COLOR" not in os.environ:
        return f"\x1b[{color}m{text}\x1b[0m"
    return text


def _fail(message: str, code: int) -> None:
    print(message, file=sys.stderr)
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


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= value < 2**64:  # key derivation and the PRNG read a seed as 64 bits
        raise argparse.ArgumentTypeError(f"{value} is not within [0, 2^64)")
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"{value} is not within [0, 1]")
    return value


def _load_model(path: str):
    result = parse_model(_read_document(path))
    if not result.ok:
        for error in result.errors:
            print(f"PARSE {error.code} at {error.path or '/'}: {error.message}", file=sys.stderr)
        sys.exit(2)
    return result


def _load_lexicon(path: str | None) -> VerbLexicon:
    if path is None:
        return DEFAULT_LEXICON
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("lexicon file must hold a JSON object")
        unknown = sorted(raw.keys() - _LEXICON_KEYS.keys())
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        verbs = {}
        for key, field in _LEXICON_KEYS.items():
            if key in raw:
                if not isinstance(raw[key], list) or not all(isinstance(v, str) for v in raw[key]):
                    raise ValueError(f"{key} must be a list of strings")
                verbs[field] = frozenset(raw[key])
        return VerbLexicon(**verbs)  # a missing key keeps the default verbs
    except (OSError, ValueError, RecursionError) as exc:
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
            unknown = sorted(entry.keys() - _TRUST_KEYS)
            if unknown:
                raise ValueError(f"unknown keys {unknown}")
            fields = (entry["verifier"], entry["credentialType"], entry["issuerDid"], entry.get("action", "add"))
            if not all(isinstance(value, str) for value in fields):
                raise ValueError("verifier, credentialType, issuerDid and action must be strings")
            overrides.append(TrustOverride(*fields))
        return tuple(overrides)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        _fail(f"bad trust file {path}: {exc}", 2)
        raise AssertionError


def cmd_validate(path: str, fmt: str) -> None:
    """Check a model document for structural problems."""
    result = _load_model(path)
    report = validate_model(result.model)
    warnings = [{"code": w.code, "message": w.message, "subject": w.path or "/"} for w in result.warnings]
    warnings += [{"code": w.code, "message": w.message, "subject": w.offending_id} for w in report.warnings]
    if fmt == "json":
        print(
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
            print(f"{_styled('ERROR', _RED)} {error.code} {error.offending_id}: {error.message}")
        for warning in warnings:
            print(f"{_styled('WARN', _YELLOW)} {warning['code']} {warning['subject']}: {warning['message']}")
        print(f"{len(report.errors)} error(s), {len(warnings)} warning(s)")
    if report.errors:
        sys.exit(1)


def cmd_roles(path: str, lexicon_path: str | None, fmt: str, strict: bool) -> None:
    """Show inferred credential roles and flows."""
    result = _load_model(path)
    roles = infer_roles(result.model, _load_lexicon(lexicon_path))
    flows = derive_flows(result.model, roles)
    warnings = lint_ssi(result.model, roles, flows)
    if fmt == "json":
        print(
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
        print("Roles:")
        for a in roles:
            print(f"  {a.actor}: {a.role.value} of {a.credential_type}")
        print("Flows:")
        for f in flows:
            print(
                f"  {f.dependency}: {f.kind.value} of {f.credential_type} from {f.sender} to {f.receiver}"
                f" [{f.evidence.kind.value}]"
            )
        for w in warnings:
            print(f"{_styled('WARN', _YELLOW)} {w.code} {w.offending_id}: {w.message}")
    if strict and warnings:
        sys.exit(1)


def cmd_simulate(
    path: str,
    seed: int,
    trust_path: str | None,
    drop: float,
    trace_path: str | None,
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
            print(f"ERROR {error.code} {error.offending_id}: {error.message}", file=sys.stderr)
        sys.exit(1)
    lexicon = _load_lexicon(lexicon_path)
    overrides = _load_overrides(trust_path)
    roles = infer_roles(model, lexicon)
    flows = derive_flows(model, roles)
    warnings = lint_ssi(model, roles, flows, overrides)
    ambiguous = [w for w in warnings if w.code == "W_FLOW_AMBIGUOUS"]
    if ambiguous and not allow_ambiguous:
        for w in ambiguous:
            print(f"WARN {w.code} {w.offending_id}: {w.message}", file=sys.stderr)
        _fail("ambiguous flows; rerun with --allow-ambiguous to simulate anyway", 1)

    did_of = {
        actor.id: did_from_public_key(generate_keypair(actor_key_seed(seed, actor.id)).public_key)
        for actor in model.actors
    }
    try:
        registry = build_trust_registry(roles, flows, did_of, overrides)
        for w in trust_noops(roles, flows, did_of, overrides):
            print(f"WARN {w.code} {w.offending_id}: {w.message}", file=sys.stderr)
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

    print("Root goals:")
    all_satisfied = True
    for actor_id, goal in root_goals(model):
        label = trace.final_labels.get(goal.id, LabelState.UNKNOWN.value)
        all_satisfied = all_satisfied and label == LabelState.SATISFIED.value
        print(f"  {actor_id}: {goal.name}: {_styled(label, _LABEL_COLORS.get(label))}")
    counts = {name: [0, 0] for name in CHECK_ORDER}
    for event in trace.events:
        if event["kind"] == "Verify":
            for name in counts:
                counts[name][0 if event[name] else 1] += 1
    print("Checks:")
    for name, (passed, failed) in counts.items():
        print(f"  {name}: {passed} pass, {failed} fail")
    print(f"Termination: {trace.termination} at tick {trace.final_tick}")
    if not all_satisfied:
        sys.exit(1)


def cmd_export(path: str, view: str, out_path: str | None) -> None:
    """Render the model as GraphViz DOT."""
    result = _load_model(path)
    dot = export_dot(result.model, view)
    if out_path is None:
        sys.stdout.write(dot)
    else:
        with _writing(out_path):
            Path(out_path).write_text(dot, encoding="utf-8")


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"ssiforge, version {ssiforge.__version__}")
    commands = parser.add_subparsers(required=True)

    def command(function) -> argparse.ArgumentParser:
        name, summary = function.__name__.removeprefix("cmd_"), function.__doc__
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.set_defaults(command=function)
        sub.add_argument("path", metavar="PATH")
        return sub

    fmt = {"dest": "fmt", "choices": ("text", "json"), "default": "text", "help": "[default: %(default)s]"}
    lexicon = {"dest": "lexicon_path", "metavar": "PATH", "help": "JSON verb lexicon override."}

    command(cmd_validate).add_argument("--format", **fmt)

    roles = command(cmd_roles)
    roles.add_argument("--lexicon", **lexicon)
    roles.add_argument("--format", **fmt)
    roles.add_argument("--strict", action="store_true", help="Exit 1 when any overlay warning fires.")

    simulate = command(cmd_simulate)
    simulate.add_argument(
        "--seed", type=_seed, default=0, metavar="N", help="Within [0, 2^64).  [default: %(default)s]"
    )
    simulate.add_argument("--trust", dest="trust_path", metavar="PATH", help="JSON trust override file.")
    simulate.add_argument(
        "--drop", type=_probability, default=0.0, metavar="P", help="Message drop probability.  [default: %(default)s]"
    )
    simulate.add_argument("--trace", dest="trace_path", metavar="PATH", help="Write the JSONL trace here.")
    simulate.add_argument("--lexicon", **lexicon)
    simulate.add_argument("--allow-ambiguous", action="store_true", help="Run even when some flows stay unresolved.")

    export = command(cmd_export)
    export.add_argument("--view", choices=("sd", "sr"), required=True)
    export.add_argument("--out", dest="out_path", metavar="PATH", help="Target file; stdout when omitted.")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Goal-model driven credential ecosystem toolkit."""
    options = vars(_parser(prog_name).parse_args(args))
    options.pop("command")(**options)


if __name__ == "__main__":
    main()
