import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ssiforge
import ssiforge.cli as cli
import ssiforge.overlay as overlay
from helpers import invoke
from ssiforge.credentials import did_from_public_key, generate_keypair
from ssiforge.pistar import export_dot, parse_model
from ssiforge.propagation import LabelState, evaluate_goals
from ssiforge.simulator import actor_key_seed

BND = "Birth Notification Document"
# sha256 of the seed-42 fixture trace; a change to it is a change to the trace format.
GOLDEN_TRACE_SHA256 = "3afdd5da3b90ba2501d0878d8c7870295bbed5285e842f57d316da5ed7e5ac2e"
# The last line ``simulate`` prints when it stops on flows it cannot run.
UNRUNNABLE_FLOWS = 'ambiguous flows or flows missing a role; resolve each with task verbs or an "ssi" annotation'


@pytest.fixture()
def fixture_doc(birth_path):
    return json.loads(birth_path.read_text(encoding="utf-8"))


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def rename_node(doc, node_id, text):
    for actor in doc["actors"]:
        for node in actor["nodes"]:
            if node["id"] == node_id:
                node["text"] = text
                return
    raise KeyError(node_id)


def ambiguous_doc(doc):
    rename_node(doc, "midwife-issue-bnd", "Arrange BND")
    return doc


def self_dep_doc(doc):
    # both ends inside Mother: depender equals dependee
    for dep in doc["dependencies"]:
        if dep["id"] == "dep-id-midwife":
            dep["target"] = "mother-obtain-bnd"
    return doc


def midwife_did(seed):
    return did_from_public_key(generate_keypair(actor_key_seed(seed, "Midwife")).public_key)


# -- validate -------------------------------------------------------------


def test_validate_clean_fixture(birth_path):
    result = invoke(["validate", str(birth_path)])
    assert result.exit_code == 0
    assert result.stdout == "0 error(s), 0 warning(s)\n"


def test_validate_clean_fixture_json(birth_path):
    result = invoke(["validate", str(birth_path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"errors": [], "warnings": []}


def test_validate_reports_errors(tmp_path, fixture_doc):
    path = write_doc(tmp_path, self_dep_doc(fixture_doc))
    result = invoke(["validate", path])
    assert result.exit_code == 1
    assert "ERROR E_DEP_SELF dep-id-midwife:" in result.stdout
    assert "1 error(s), 0 warning(s)" in result.stdout

    result = invoke(["validate", path, "--format", "json"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert [e["code"] for e in payload["errors"]] == ["E_DEP_SELF"]
    assert payload["errors"][0]["subject"] == "dep-id-midwife"


def test_validate_bundled_broken_fixture(birth_path):
    result = invoke(["validate", str(birth_path.parent / "bad_dep.json")])
    assert result.exit_code == 1
    assert "ERROR E_DEP_SELF dep-self:" in result.stdout


def test_validate_surfaces_parser_warnings(tmp_path, fixture_doc):
    fixture_doc["colorScheme"] = "pastel"
    result = invoke(["validate", write_doc(tmp_path, fixture_doc)])
    assert result.exit_code == 0
    assert "WARN W_UNKNOWN_KEY /colorScheme:" in result.stdout
    assert "0 error(s), 1 warning(s)" in result.stdout


def test_unparseable_document_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    result = invoke(["validate", str(path)])
    assert result.exit_code == 2
    assert "PARSE E_JSON" in result.stderr
    assert result.stdout == ""


def test_unreadable_path_exits_two(tmp_path):
    result = invoke(["validate", str(tmp_path / "missing.json")])
    assert result.exit_code == 2
    assert "cannot read" in result.stderr


# -- roles ----------------------------------------------------------------


def test_roles_text_lists_roles_and_flows(birth_path):
    result = invoke(["roles", str(birth_path)])
    assert result.exit_code == 0
    assert "  Midwife: Issuer of Birth Notification Document" in result.stdout
    assert "  Mother: Holder of Birth Certificate" in result.stdout
    assert (
        "  dep-bnd-mother: Issuance of Birth Notification Document from Midwife to Mother [Verb]"
        in result.stdout
    )
    assert "WARN" not in result.stdout


def test_roles_json(birth_path):
    result = invoke(["roles", str(birth_path), "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert {"actor": "Midwife", "credentialType": BND, "role": "Issuer"} in payload["roles"]
    flow = next(f for f in payload["flows"] if f["dependency"] == "dep-bnd-mother")
    assert flow == {
        "credentialType": BND,
        "dependency": "dep-bnd-mother",
        "evidence": {"element": "midwife-issue-bnd", "kind": "Verb"},
        "from": "Midwife",
        "kind": "Issuance",
        "to": "Mother",
    }
    assert payload["warnings"] == []


def test_roles_strict_flag(tmp_path, birth_path, fixture_doc):
    ambiguous = write_doc(tmp_path, ambiguous_doc(fixture_doc))
    assert invoke(["roles", str(birth_path), "--strict"]).exit_code == 0
    assert invoke(["roles", ambiguous]).exit_code == 0
    result = invoke(["roles", ambiguous, "--strict"])
    assert result.exit_code == 1
    assert "WARN W_FLOW_AMBIGUOUS dep-bnd-mother:" in result.stdout


def test_roles_warns_when_a_copy_task_names_two_equally_long_actors(tmp_path, fixture_doc):
    fixture_doc["actors"].append(
        {"id": "Archivist", "text": "Archivist", "type": "istar.Actor", "x": 0, "y": 0, "nodes": []}
    )
    rename_node(fixture_doc, "midwife-send-copy", "Send copy to Archivist or Registrar")
    path = write_doc(tmp_path, fixture_doc)
    warning = (
        "midwife-send-copy: names Registrar, Archivist, whose names are equally long: the copy goes to Registrar"
    )
    strict = invoke(["roles", path, "--strict"])
    assert strict.exit_code == 1
    assert f"WARN W_COPY_AMBIGUOUS {warning}\n" in strict.stdout
    listed = invoke(["roles", path, "--format", "json"])
    assert listed.exit_code == 0
    subject, message = warning.split(": ", 1)
    assert json.loads(listed.stdout)["warnings"] == [
        {"code": "W_COPY_AMBIGUOUS", "message": message, "subject": subject}
    ]
    trace = tmp_path / "run.jsonl"
    assert invoke(["simulate", path, "--seed", "42", "--trace", str(trace)]).exit_code == 0
    events = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()[1:-1]]
    copies = [e["message"] for e in events if e["kind"] == "Deliver" and e["message"]["type"] == "RecordCopy"]
    assert copies and all(m["from"] == "Midwife" and m["to"] == "Registrar" for m in copies)


def test_roles_custom_lexicon(tmp_path, fixture_doc):
    rename_node(fixture_doc, "midwife-issue-bnd", "Draw Up BND")
    model_path = write_doc(tmp_path, fixture_doc)
    lexicon_path = tmp_path / "lexicon.json"
    lexicon_path.write_text(json.dumps({"issueVerbs": ["issue", "draw up"]}), encoding="utf-8")

    plain = invoke(["roles", model_path, "--strict"])
    assert plain.exit_code == 1
    custom = invoke(["roles", model_path, "--strict", "--lexicon", str(lexicon_path)])
    assert custom.exit_code == 0
    assert "  Midwife: Issuer of Birth Notification Document" in custom.stdout


@pytest.mark.parametrize(
    "text",
    [
        '{"issueVerbs": ["check"]}',  # collides with check verbs
        '{"issueVerbs": "issue"}',  # a string, not a list: not the verbs i, s, u, e
        '{"issueVerbs": [1]}',
        '["issue"]',
        '{"issueVerb": ["grant"]}',  # misspelled: would keep the default verbs
    ],
    ids=["colliding", "string", "number", "array", "unknown-key"],
)
def test_bad_lexicon_file_exits_two(birth_path, tmp_path, text):
    bad = tmp_path / "lexicon.json"
    bad.write_text(text, encoding="utf-8")
    result = invoke(["roles", str(birth_path), "--lexicon", str(bad)])
    assert result.exit_code == 2
    assert "bad lexicon file" in result.stderr


# -- simulate -------------------------------------------------------------


def test_simulate_happy_path(birth_path):
    result = invoke(["simulate", str(birth_path), "--seed", "42"])
    assert result.exit_code == 0
    assert "Root goals:" in result.stdout
    assert "  Mother: Get Birth Certificate for new baby: Satisfied" in result.stdout
    assert "  Midwife: Issue Valid BNDs: Satisfied" in result.stdout
    assert "  integrity: 3 pass, 0 fail" in result.stdout
    assert "  issuerTrusted: 3 pass, 0 fail" in result.stdout
    assert "Termination: quiescence at tick 11" in result.stdout


def test_simulate_trace_is_reproducible(birth_path, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for target in (first, second):
        result = invoke(["simulate", str(birth_path), "--seed", "42", "--trace", str(target)])
        assert result.exit_code == 0
    assert first.read_bytes() == second.read_bytes()
    head = json.loads(first.read_text(encoding="utf-8").splitlines()[0])
    assert head["config"]["seed"] == 42


@pytest.mark.parametrize("renamed", [False, True], ids=["fixture", "draw-up-lexicon"])
def test_simulate_golden_trace(tmp_path, birth_path, fixture_doc, renamed):
    args = [str(birth_path)]
    if renamed:
        # The renamed issue task is read only through the custom lexicon;
        # without it the Midwife issues nothing, and the BND flow stays unresolved.
        rename_node(fixture_doc, "midwife-issue-bnd", "Draw Up BND")
        model_path = write_doc(tmp_path, fixture_doc)
        plain = invoke(["simulate", model_path, "--seed", "42"])
        assert plain.exit_code == 1
        assert "WARN W_FLOW_AMBIGUOUS dep-bnd-mother:" in plain.stderr
        assert plain.stderr.endswith(UNRUNNABLE_FLOWS + "\n")
        lexicon_path = tmp_path / "lexicon.json"
        lexicon_path.write_text(json.dumps({"issueVerbs": ["issue", "draw up"]}), encoding="utf-8")
        args = [model_path, "--lexicon", str(lexicon_path)]
    trace = tmp_path / "run.jsonl"
    result = invoke(["simulate", *args, "--seed", "42", "--trace", str(trace)])
    assert result.exit_code == 0 and result.stderr == ""
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256


def test_simulate_trust_removal_denies(birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text(
        json.dumps(
            [
                {
                    "verifier": "Registrar",
                    "credentialType": BND,
                    "issuerDid": midwife_did(42),
                    "action": "remove",
                }
            ]
        ),
        encoding="utf-8",
    )
    result = invoke(["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 1
    assert "  Mother: Get Birth Certificate for new baby: Denied" in result.stdout
    assert "  issuerTrusted: 2 pass, 1 fail" in result.stdout
    assert "  integrity: 3 pass, 0 fail" in result.stdout


def test_simulate_trust_addition_is_accepted(birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text(
        json.dumps([{"verifier": "Registrar", "credentialType": BND, "issuerDid": "did:sim:ext"}]),
        encoding="utf-8",
    )
    result = invoke(["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "seed,action,exit_code,warns",
    [(42, "remove", 1, False), (43, "remove", 0, True), (42, "add", 0, True), (43, "add", 0, False)],
    ids=["remove-42", "remove-43", "add-42", "add-43"],
)
def test_simulate_warns_on_a_trust_override_that_changes_nothing(birth_path, tmp_path, seed, action, exit_code, warns):
    # DIDs depend on the seed: the seed-42 Midwife DID is accepted at seed 42 only.
    trust = tmp_path / "trust.json"
    entry = {"verifier": "Registrar", "credentialType": BND, "issuerDid": midwife_did(42), "action": action}
    trust.write_text(json.dumps([entry]), encoding="utf-8")
    result = invoke(["simulate", str(birth_path), "--seed", str(seed), "--trust", str(trust)])
    assert result.exit_code == exit_code
    warning = (
        f"WARN W_TRUST_NOOP Registrar: {action} of {midwife_did(42)} for {BND!r} changes nothing: the verifier "
        + ("does not accept it" if action == "remove" else "already accepts it")
    )
    assert result.stderr.splitlines() == ([warning] if warns else [])
    assert ("Denied" in result.stdout) == (exit_code == 1)


def test_simulate_builds_one_trust_registry(birth_path, tmp_path, monkeypatch):
    # The README's distrust file at seed 43, where no verifier holds the seed-42 Midwife DID: the default
    # registry is built once, by the command or inside the overlay, and its one no-op warned once.
    calls = []
    real = cli.build_trust_registry

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, overlay):
        monkeypatch.setattr(module, "build_trust_registry", counted)
    trust = tmp_path / "trust.json"
    entry = {"verifier": "Registrar", "credentialType": BND, "issuerDid": midwife_did(42), "action": "remove"}
    trust.write_text(json.dumps([entry]), encoding="utf-8")
    result = invoke(["simulate", str(birth_path), "--seed", "43", "--trust", str(trust)])
    assert result.exit_code == 0
    assert len(calls) == 1
    assert [line for line in result.stderr.splitlines() if line.startswith("WARN W_TRUST_NOOP Registrar:")] == [
        f"WARN W_TRUST_NOOP Registrar: remove of {midwife_did(42)} for {BND!r} changes nothing: the verifier "
        "does not accept it"
    ]


def test_simulate_malformed_trust_file_exits_two(birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text('{"not": "a list"}', encoding="utf-8")
    result = invoke(["simulate", str(birth_path), "--trust", str(trust)])
    assert result.exit_code == 2
    assert "bad trust file" in result.stderr


def test_simulate_trust_entry_that_is_no_object_exits_two(birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text("[1]", encoding="utf-8")
    result = invoke(["simulate", str(birth_path), "--trust", str(trust)])
    assert result.exit_code == 2
    assert result.stderr == f"bad trust file {trust}: each trust entry must be a JSON object\n"


@pytest.mark.parametrize(
    "field,value",
    [
        ("verifier", ["Registrar"]),
        ("credentialType", {"type": BND}),
        ("issuerDid", 5),
        ("action", None),
    ],
)
def test_simulate_mistyped_trust_entry_exits_two(birth_path, tmp_path, field, value):
    entry = {"verifier": "Registrar", "credentialType": BND, "issuerDid": midwife_did(42), field: value}
    trust = tmp_path / "trust.json"
    trust.write_text(json.dumps([entry]), encoding="utf-8")
    result = invoke(["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 2
    assert "bad trust file" in result.stderr
    assert "must be strings" in result.stderr


def test_simulate_unknown_trust_key_exits_two(birth_path, tmp_path):
    # A misspelled "action" would otherwise read as the default, add.
    entry = {"verifier": "Registrar", "credentialType": BND, "issuerDid": midwife_did(42), "acton": "remove"}
    trust = tmp_path / "trust.json"
    trust.write_text(json.dumps([entry]), encoding="utf-8")
    result = invoke(["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 2
    assert "bad trust file" in result.stderr
    assert "'acton'" in result.stderr


def test_simulate_unknown_trust_pair_exits_one(birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text(
        json.dumps([{"verifier": "Mother", "credentialType": "Birth Certificate", "issuerDid": "did:sim:x"}]),
        encoding="utf-8",
    )
    result = invoke(["simulate", str(birth_path), "--trust", str(trust)])
    assert result.exit_code == 1
    assert result.stderr.startswith("E_TRUST_NOT_VERIFIER:")


def test_simulate_rejects_invalid_model(tmp_path, fixture_doc):
    path = write_doc(tmp_path, self_dep_doc(fixture_doc))
    result = invoke(["simulate", path])
    assert result.exit_code == 1
    assert "ERROR E_DEP_SELF dep-id-midwife:" in result.stderr


def test_simulate_stops_on_ambiguous_flows(tmp_path, fixture_doc):
    path = write_doc(tmp_path, ambiguous_doc(fixture_doc))
    result = invoke(["simulate", path, "--seed", "42"])
    assert result.exit_code == 1
    assert "WARN W_FLOW_AMBIGUOUS dep-bnd-mother:" in result.stderr
    assert result.stderr.endswith(UNRUNNABLE_FLOWS + "\n")
    assert "Root goals:" not in result.stdout

    # no option runs the model anyway
    forced = invoke(["simulate", path, "--seed", "42", "--allow-ambiguous"])
    assert forced.exit_code == 2
    assert "unrecognized arguments: --allow-ambiguous" in forced.stderr


def test_roles_strict_flags_the_flow_simulate_rejects(tmp_path, fixture_doc):
    """``simulate`` reports every flow whose actors lack their roles, not only the first."""
    for dep in fixture_doc["dependencies"]:
        if dep["id"] in ("dep-id-midwife", "dep-id-registrar"):
            dep["customProperties"]["ssi"] = "issue"
    path = write_doc(tmp_path, fixture_doc)
    roles = invoke(["roles", path, "--strict"])
    assert roles.exit_code == 1
    lines = [
        f"WARN W_FLOW_ROLE_MISSING {dep}: 'Mother' is not an issuer of \"Mother's ID\", so the issuance cannot be "
        "simulated"
        for dep in ("dep-id-midwife", "dep-id-registrar")
    ]
    assert "  dep-id-midwife: Issuance of Mother's ID from Mother to Midwife [Annotation]" in roles.stdout
    assert all(line in roles.stdout for line in lines)
    simulate = invoke(["simulate", path, "--seed", "42"])
    assert simulate.exit_code == 1
    assert simulate.stdout == ""
    assert simulate.stderr.splitlines() == [*lines, UNRUNNABLE_FLOWS]


@pytest.mark.parametrize(
    "dep_id,end,side", [("dep-bnd-mother", "target", "depender"), ("dep-bnd-registrar", "source", "dependee")]
)
def test_a_flow_anchored_on_an_actor_is_flagged_and_still_runs(tmp_path, fixture_doc, dep_id, end, side):
    """A resource dependency whose depender side (of an issuance) or dependee
    side (of a presentation) is an actor validates, but the run labels no task
    of that side from it, so the Mother's root cannot be Satisfied however the
    checks go.  ``roles --strict`` names the dependency, and so does
    ``simulate``, on stderr; a run still ends in quiescence, its final labels
    propagated from its own GoalUpdates."""
    for dep in fixture_doc["dependencies"]:
        if dep["id"] == dep_id:
            dep[end] = "Mother"
    path = write_doc(tmp_path, fixture_doc)
    assert invoke(["validate", path]).exit_code == 0
    roles = invoke(["roles", path, "--strict"])
    assert roles.exit_code == 1
    assert f"WARN W_FLOW_UNANCHORED {dep_id}: its {side} side is an actor, not an element" in roles.stdout
    model = parse_model(Path(path).read_bytes()).model
    for drop in ("0", "0.3"):
        trace_path = tmp_path / f"run-{drop}.jsonl"
        result = invoke(["simulate", path, "--seed", "42", "--drop", drop, "--trace", str(trace_path)])
        warning = f"WARN W_FLOW_UNANCHORED {dep_id}: its {side} side is an actor, not an element"
        (line,) = result.stderr.splitlines()
        assert result.exit_code == 1 and line.startswith(warning)
        lines = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
        updates = {e["element"]: LabelState(e["label"]) for e in lines[1:-1] if e["kind"] == "GoalUpdate"}
        assert lines[-1]["termination"] == "quiescence"
        assert lines[-1]["finalLabels"] == {k: v.value for k, v in evaluate_goals(model, updates).items()}
        assert lines[-1]["finalLabels"]["mother-goal"] != "Satisfied"
    assert "Mother: Get Birth Certificate for new baby: Unknown" in invoke(["simulate", path, "--seed", "42"]).stdout


def test_simulate_drop_flag(birth_path):
    result = invoke(["simulate", str(birth_path), "--seed", "42", "--drop", "1.0"])
    assert result.exit_code == 1
    assert "  Mother: Get Birth Certificate for new baby: Denied" in result.stdout
    assert "  integrity: 0 pass, 0 fail" in result.stdout
    assert "Termination: quiescence at tick 40" in result.stdout


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_simulate_out_of_range_drop_exits_two(birth_path, value):
    result = invoke(["simulate", str(birth_path), "--drop", value])
    assert result.exit_code == 2
    assert "--drop" in result.stderr
    assert "not within [0, 1]" in result.stderr
    assert "Root goals:" not in result.stdout


def test_simulate_non_numeric_drop_exits_two(birth_path):
    result = invoke(["simulate", str(birth_path), "--drop", "abc"])
    assert result.exit_code == 2
    assert "argument --drop: 'abc' is not a number" in result.stderr
    assert "Root goals:" not in result.stdout


@pytest.mark.parametrize("value", ["-1", str(2**64), "4.2", "x"])
def test_simulate_seed_outside_64_bits_exits_two(birth_path, value):
    result = invoke(["simulate", str(birth_path), "--seed", value])
    assert result.exit_code == 2
    assert "--seed" in result.stderr
    assert "Root goals:" not in result.stdout


def test_simulate_largest_seed_runs(birth_path):
    result = invoke(["simulate", str(birth_path), "--seed", str(2**64 - 1)])
    assert "Root goals:" in result.stdout
    assert result.exit_code == 0


def goal_chain_doc(length):
    """One actor whose goals form an And-refinement chain, listed child first."""
    nodes = [
        {"id": f"g{i}", "text": f"Goal {i}", "type": "istar.Goal", "x": 0, "y": 0, "customProperties": {}}
        for i in range(length)
    ]
    links = [
        {"id": f"l{i}", "type": "istar.AndRefinementLink", "source": f"g{i}", "target": f"g{i + 1}"}
        for i in range(length - 1)
    ]
    actor = {"id": "A", "text": "A", "type": "istar.Actor", "x": 0, "y": 0, "customProperties": {}, "nodes": nodes}
    return {"actors": [actor], "dependencies": [], "links": links, "istar": "2.0"}


def test_simulate_deep_goal_chain_exits_without_traceback(tmp_path):
    path = write_doc(tmp_path, goal_chain_doc(1000))
    assert invoke(["validate", path]).exit_code == 0
    result = invoke(["simulate", path])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1  # the root goal stays Unknown: nothing in the chain is seeded
    assert "  A: Goal 999: Unknown" in result.stdout
    assert "Traceback" not in result.stdout + result.stderr


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "args, message",
    [
        (["validate", "{deep}"], "PARSE E_JSON at /: not valid JSON"),
        (["roles", "{model}", "--lexicon", "{deep}"], "bad lexicon file"),
        (["simulate", "{model}", "--trust", "{deep}"], "bad trust file"),
    ],
    ids=["model", "lexicon", "trust"],
)
def test_deeply_nested_json_exits_two(birth_path, tmp_path, args, message):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    result = invoke([arg.format(deep=deep, model=birth_path) for arg in args])
    assert result.exit_code == 2
    assert result.stderr.startswith(message)
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--seed", "42", "--trace"],
        ["export", "--view", "sd", "--out"],
    ],
    ids=["trace", "out"],
)
def test_unwritable_output_exits_two(birth_path, tmp_path, args):
    target = tmp_path / "missing" / "out.txt"
    command, *options = args
    result = invoke([command, str(birth_path), *options, str(target)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"cannot write {target}: ")
    assert len(result.stderr.splitlines()) == 1
    assert not target.parent.exists()


# -- export ---------------------------------------------------------------


def test_export_sd_to_stdout(birth_path):
    result = invoke(["export", str(birth_path), "--view", "sd"])
    assert result.exit_code == 0
    parsed = parse_model(birth_path.read_bytes())
    assert result.stdout == export_dot(parsed.model, "sd")


def test_export_sr_to_file(birth_path, tmp_path):
    out = tmp_path / "model.dot"
    result = invoke(["export", str(birth_path), "--view", "sr", "--out", str(out)])
    assert result.exit_code == 0
    assert result.stdout == ""
    parsed = parse_model(birth_path.read_bytes())
    assert out.read_text(encoding="utf-8") == export_dot(parsed.model, "sr")


def test_export_requires_known_view(birth_path):
    assert invoke(["export", str(birth_path), "--view", "3d"]).exit_code == 2
    assert invoke(["export", str(birth_path)]).exit_code == 2


# -- presentation ---------------------------------------------------------


def test_color_toggle(birth_path, monkeypatch):
    colored = invoke(["simulate", str(birth_path), "--seed", "42"], tty=True)
    assert "\x1b[" in colored.stdout
    piped = invoke(["simulate", str(birth_path), "--seed", "42"])
    assert "\x1b[" not in piped.stdout
    monkeypatch.setenv("SSIFORGE_NO_COLOR", "1")
    plain = invoke(["simulate", str(birth_path), "--seed", "42"], tty=True)
    assert "\x1b[" not in plain.stdout
    assert plain.exit_code == 0


def test_version_flag():
    result = invoke(["--version"])
    assert result.exit_code == 0
    assert "ssiforge, version 0.1.0" in result.stdout


def test_help_names_the_commands():
    result = invoke(["--help"])
    assert result.exit_code == 0
    for command in ("validate", "roles", "simulate", "export"):
        assert command in result.stdout


def test_simulate_help_shows_option_help():
    result = invoke(["simulate", "--help"])
    assert result.exit_code == 0
    for text in (
        "JSON trust override file.",
        "Message drop probability.",
        "Write the JSONL trace here.",
        "JSON verb lexicon override.",
    ):
        assert text in result.stdout
    assert "--allow-ambiguous" not in result.stdout


def test_simulate_has_no_dot_option(birth_path, tmp_path):
    """``export --view sd --out`` writes the SD view; ``simulate`` has no second way."""
    dot = tmp_path / "model.dot"
    result = invoke(["simulate", str(birth_path), "--seed", "42", "--dot", str(dot)])
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: ")
    assert "--dot" in result.stderr.splitlines()[-1]
    assert not dot.exists()


def test_bare_command_prints_usage_and_exits_two():
    result = invoke([])
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: ssiforge")
    assert result.stdout == ""


# -- lazy loading ---------------------------------------------------------

# The layers above the model and the parser: each command loads the ones it
# runs and no others, so validate and export compile and run neither the
# overlay nor the credential layer, and roles runs only the overlay.
LAZY_MODULES = (
    "ssiforge.overlay", "ssiforge.credentials", "ssiforge.propagation", "ssiforge.simulator", "cryptography"
)
# No command loads these: records are plain slotted classes, and importing
# ``dataclasses`` (with ``inspect``) would add about 10 ms to every start-up;
# the simulator logs nothing, and ``logging`` would add 6-8 ms to ``simulate``.
UNUSED_MODULES = ("dataclasses", "inspect", "logging")
LOADED_AFTER = """
import sys
from ssiforge.cli import main
try:
    main(sys.argv[1:], prog_name="ssiforge")
except SystemExit:
    pass
print(",".join(m for m in {modules!r} if m in sys.modules), file=sys.stderr)
"""


def stderr_of_fresh_run(script, *argv):
    """Run ``script`` in a fresh interpreter with ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(ssiforge.__file__).parent.parent)},
    )
    return proc.stderr


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["validate"], ()),
        (["roles"], ("ssiforge.overlay",)),
        (["export", "--view", "sd"], ()),
        (["simulate", "--seed", "42"], LAZY_MODULES),
    ],
    ids=["validate", "roles", "export", "simulate"],
)
def test_only_simulate_loads_the_credential_layer(birth_path, args, loaded):
    script = LOADED_AFTER.format(modules=LAZY_MODULES + UNUSED_MODULES)
    stderr = stderr_of_fresh_run(script, args[0], str(birth_path), *args[1:])
    assert stderr.strip().split(",") == (list(loaded) or [""])


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args", [["validate"], ["roles"], ["export", "--view", "sd"], ["simulate", "--seed", "42"]],
    ids=["validate", "roles", "export", "simulate"],
)
def test_a_stdout_nobody_reads_exits_two(birth_path, args, buffered):
    """A command whose stdout pipe has no reader reports it on one line and
    exits 2, in a fresh interpreter, whether stdout is buffered or not."""
    env = {**os.environ, "PYTHONPATH": str(Path(ssiforge.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ssiforge.cli", args[0], str(birth_path), *args[1:]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "cannot write <stdout>: [Errno 32] Broken pipe\n")


IMPORTED_BY_PACKAGE = """
import sys
import ssiforge
print(",".join(m for m in sorted(sys.modules) if m.startswith(("ssiforge.", "cryptography"))), file=sys.stderr)
"""


def test_importing_the_package_loads_only_the_model_and_parser():
    assert stderr_of_fresh_run(IMPORTED_BY_PACKAGE).strip() == "ssiforge.model,ssiforge.pistar"


THIRD_PARTY_AFTER = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
from ssiforge.cli import main
try:
    main(sys.argv[1:], prog_name="ssiforge")
except SystemExit:
    pass
loaded = {name.partition(".")[0] for name in sys.modules} - before - sys.stdlib_module_names - {"ssiforge"}
print(",".join(sorted(loaded)), file=sys.stderr)
"""
# cryptography and the top-level modules of its bindings (they differ between its releases).
CRYPTOGRAPHY_MODULES = {"cryptography", "_cffi_backend", "_openssl"}


@pytest.mark.parametrize(
    "args", [["validate"], ["roles"], ["export", "--view", "sd"], ["simulate", "--seed", "42"]],
    ids=["validate", "roles", "export", "simulate"],
)
def test_commands_load_only_stdlib_and_their_dependencies(birth_path, args):
    stderr = stderr_of_fresh_run(THIRD_PARTY_AFTER, args[0], str(birth_path), *args[1:])
    loaded = set(stderr.strip().split(",")) - {""}
    if args[0] == "simulate":
        assert "cryptography" in loaded and loaded <= CRYPTOGRAPHY_MODULES, loaded
    else:
        assert loaded == set()


def test_package_names_all_resolve():
    for name in ssiforge.__all__:
        assert getattr(ssiforge, name) is not None, name


# The stage functions that bench/cli_child.py wraps on ssiforge.cli, in the
# order each command calls them.
ROLES_STAGES = ("parse_model", "infer_roles", "derive_flows", "lint_ssi")
SIMULATE_STAGES = (
    "parse_model",
    "validate_model",
    "infer_roles",
    "derive_flows",
    "lint_ssi",
    "generate_keypair",
    "build_trust_registry",
    "derive_bootstrap",
    "compile_agents",
    "run",
    "write_trace",
)


@pytest.mark.parametrize(
    "args, stages",
    [(["roles"], ROLES_STAGES), (["simulate", "--seed", "42", "--trace", "run.jsonl"], SIMULATE_STAGES)],
    ids=["roles", "simulate"],
)
def test_commands_call_the_functions_set_on_the_module(
    birth_path, birth_model, tmp_path, monkeypatch, args, stages
):
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in stages:
        monkeypatch.setattr(cli, name, spy(name))
    monkeypatch.chdir(tmp_path)
    result = invoke([args[0], str(birth_path), *args[1:]])
    assert result.exit_code == 0
    keygens = len(birth_model.actors)  # one key pair per actor
    assert calls == [name for name in stages for _ in range(keygens if name == "generate_keypair" else 1)]
    assert args[0] == "roles" or (tmp_path / "run.jsonl").exists()


def test_readme_library_example_prints_satisfied(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("## As a library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() == "Satisfied"


def test_every_diagnostic_code_is_documented():
    """Each diagnostic code the package can report (a quoted ``E_...`` or
    ``W_...`` name in its source) is named in the docs."""
    root = Path(__file__).resolve().parent.parent
    sources = "".join(path.read_text(encoding="utf-8") for path in sorted((root / "src" / "ssiforge").glob("*.py")))
    docs = "".join(path.read_text(encoding="utf-8") for path in sorted((root / "docs").glob("*.md")))
    codes = set(re.findall(r"[\"']([EW]_[A-Z_]+)[\"']", sources))
    assert len(codes) > 20
    assert sorted(code for code in codes if f"`{code}`" not in docs) == []
