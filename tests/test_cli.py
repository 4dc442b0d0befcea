import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ssiforge
import ssiforge.cli as cli
from ssiforge.cli import main
from ssiforge.credentials import did_from_public_key, generate_keypair
from ssiforge.pistar import export_dot, parse_model
from ssiforge.simulator import actor_key_seed

BND = "Birth Notification Document"
# sha256 of the seed-42 fixture trace; a change to it is a change to the trace format.
GOLDEN_TRACE_SHA256 = "3afdd5da3b90ba2501d0878d8c7870295bbed5285e842f57d316da5ed7e5ac2e"


@pytest.fixture()
def runner():
    return CliRunner()


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


def test_validate_clean_fixture(runner, birth_path):
    result = runner.invoke(main, ["validate", str(birth_path)])
    assert result.exit_code == 0
    assert result.output == "0 error(s), 0 warning(s)\n"


def test_validate_clean_fixture_json(runner, birth_path):
    result = runner.invoke(main, ["validate", str(birth_path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"errors": [], "warnings": []}


def test_validate_reports_errors(runner, tmp_path, fixture_doc):
    path = write_doc(tmp_path, self_dep_doc(fixture_doc))
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 1
    assert "ERROR E_DEP_SELF dep-id-midwife:" in result.output
    assert "1 error(s), 0 warning(s)" in result.output

    result = runner.invoke(main, ["validate", path, "--format", "json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert [e["code"] for e in payload["errors"]] == ["E_DEP_SELF"]
    assert payload["errors"][0]["subject"] == "dep-id-midwife"


def test_validate_bundled_broken_fixture(runner, birth_path):
    result = runner.invoke(main, ["validate", str(birth_path.parent / "bad_dep.json")])
    assert result.exit_code == 1
    assert "ERROR E_DEP_SELF dep-self:" in result.output


def test_validate_surfaces_parser_warnings(runner, tmp_path, fixture_doc):
    fixture_doc["colorScheme"] = "pastel"
    result = runner.invoke(main, ["validate", write_doc(tmp_path, fixture_doc)])
    assert result.exit_code == 0
    assert "WARN W_UNKNOWN_KEY /colorScheme:" in result.output
    assert "0 error(s), 1 warning(s)" in result.output


def test_unparseable_document_exits_two(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "PARSE E_JSON" in result.stderr
    assert result.stdout == ""


def test_unreadable_path_exits_two(runner, tmp_path):
    result = runner.invoke(main, ["validate", str(tmp_path / "missing.json")])
    assert result.exit_code == 2
    assert "cannot read" in result.stderr


# -- roles ----------------------------------------------------------------


def test_roles_text_lists_roles_and_flows(runner, birth_path):
    result = runner.invoke(main, ["roles", str(birth_path)])
    assert result.exit_code == 0
    assert "  Midwife: Issuer of Birth Notification Document" in result.output
    assert "  Mother: Holder of Birth Certificate" in result.output
    assert (
        "  dep-bnd-mother: Issuance of Birth Notification Document from Midwife to Mother [Verb]"
        in result.output
    )
    assert "WARN" not in result.output


def test_roles_json(runner, birth_path):
    result = runner.invoke(main, ["roles", str(birth_path), "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
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


def test_roles_strict_flag(runner, tmp_path, birth_path, fixture_doc):
    ambiguous = write_doc(tmp_path, ambiguous_doc(fixture_doc))
    assert runner.invoke(main, ["roles", str(birth_path), "--strict"]).exit_code == 0
    assert runner.invoke(main, ["roles", ambiguous]).exit_code == 0
    result = runner.invoke(main, ["roles", ambiguous, "--strict"])
    assert result.exit_code == 1
    assert "WARN W_FLOW_AMBIGUOUS dep-bnd-mother:" in result.output


def test_roles_custom_lexicon(runner, tmp_path, fixture_doc):
    rename_node(fixture_doc, "midwife-issue-bnd", "Draw Up BND")
    model_path = write_doc(tmp_path, fixture_doc)
    lexicon_path = tmp_path / "lexicon.json"
    lexicon_path.write_text(json.dumps({"issueVerbs": ["issue", "draw up"]}), encoding="utf-8")

    plain = runner.invoke(main, ["roles", model_path, "--strict"])
    assert plain.exit_code == 1
    custom = runner.invoke(main, ["roles", model_path, "--strict", "--lexicon", str(lexicon_path)])
    assert custom.exit_code == 0
    assert "  Midwife: Issuer of Birth Notification Document" in custom.output


@pytest.mark.parametrize(
    "text",
    [
        '{"issueVerbs": ["check"]}',  # collides with check verbs
        '{"issueVerbs": "issue"}',  # a string, not a list: not the verbs i, s, u, e
        '{"issueVerbs": [1]}',
        '["issue"]',
    ],
    ids=["colliding", "string", "number", "array"],
)
def test_bad_lexicon_file_exits_two(runner, birth_path, tmp_path, text):
    bad = tmp_path / "lexicon.json"
    bad.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["roles", str(birth_path), "--lexicon", str(bad)])
    assert result.exit_code == 2
    assert "bad lexicon file" in result.stderr


# -- simulate -------------------------------------------------------------


def test_simulate_happy_path(runner, birth_path):
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42"])
    assert result.exit_code == 0
    assert "Root goals:" in result.output
    assert "  Mother: Get Birth Certificate for new baby: Satisfied" in result.output
    assert "  Midwife: Issue Valid BNDs: Satisfied" in result.output
    assert "  integrity: 3 pass, 0 fail" in result.output
    assert "  issuerTrusted: 3 pass, 0 fail" in result.output
    assert "Termination: quiescence at tick 11" in result.output


def test_simulate_trace_is_reproducible(runner, birth_path, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for target in (first, second):
        result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42", "--trace", str(target)])
        assert result.exit_code == 0
    assert first.read_bytes() == second.read_bytes()
    head = json.loads(first.read_text(encoding="utf-8").splitlines()[0])
    assert head["config"]["seed"] == 42


@pytest.mark.parametrize("renamed", [False, True], ids=["fixture", "draw-up-lexicon"])
def test_simulate_golden_trace(runner, tmp_path, birth_path, fixture_doc, renamed):
    args = [str(birth_path)]
    if renamed:
        # The renamed issue task is read only through the custom lexicon;
        # without it the Midwife issues nothing and compile fails.
        rename_node(fixture_doc, "midwife-issue-bnd", "Draw Up BND")
        model_path = write_doc(tmp_path, fixture_doc)
        plain = runner.invoke(main, ["simulate", model_path, "--seed", "42", "--allow-ambiguous"])
        assert plain.exit_code == 1
        assert "E_COMPILE_ROLE" in plain.stderr
        lexicon_path = tmp_path / "lexicon.json"
        lexicon_path.write_text(json.dumps({"issueVerbs": ["issue", "draw up"]}), encoding="utf-8")
        args = [model_path, "--lexicon", str(lexicon_path)]
    trace = tmp_path / "run.jsonl"
    result = runner.invoke(main, ["simulate", *args, "--seed", "42", "--trace", str(trace)])
    assert result.exit_code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256


def test_simulate_writes_dot(runner, birth_path, tmp_path):
    dot = tmp_path / "model.dot"
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42", "--dot", str(dot)])
    assert result.exit_code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "dep-bnd-mother" in text


def test_simulate_trust_removal_denies(runner, birth_path, tmp_path):
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
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 1
    assert "  Mother: Get Birth Certificate for new baby: Denied" in result.output
    assert "  issuerTrusted: 2 pass, 1 fail" in result.output
    assert "  integrity: 3 pass, 0 fail" in result.output


def test_simulate_trust_addition_is_accepted(runner, birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text(
        json.dumps([{"verifier": "Registrar", "credentialType": BND, "issuerDid": "did:sim:ext"}]),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 0


def test_simulate_malformed_trust_file_exits_two(runner, birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text('{"not": "a list"}', encoding="utf-8")
    result = runner.invoke(main, ["simulate", str(birth_path), "--trust", str(trust)])
    assert result.exit_code == 2
    assert "bad trust file" in result.stderr


@pytest.mark.parametrize(
    "field,value",
    [
        ("verifier", ["Registrar"]),
        ("credentialType", {"type": BND}),
        ("issuerDid", 5),
        ("action", None),
    ],
)
def test_simulate_mistyped_trust_entry_exits_two(runner, birth_path, tmp_path, field, value):
    entry = {"verifier": "Registrar", "credentialType": BND, "issuerDid": midwife_did(42), field: value}
    trust = tmp_path / "trust.json"
    trust.write_text(json.dumps([entry]), encoding="utf-8")
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42", "--trust", str(trust)])
    assert result.exit_code == 2
    assert "bad trust file" in result.stderr
    assert "must be strings" in result.stderr


def test_simulate_unknown_trust_pair_exits_one(runner, birth_path, tmp_path):
    trust = tmp_path / "trust.json"
    trust.write_text(
        json.dumps([{"verifier": "Mother", "credentialType": "Birth Certificate", "issuerDid": "did:sim:x"}]),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["simulate", str(birth_path), "--trust", str(trust)])
    assert result.exit_code == 1
    assert result.stderr.startswith("E_TRUST_NOT_VERIFIER:")


def test_simulate_rejects_invalid_model(runner, tmp_path, fixture_doc):
    path = write_doc(tmp_path, self_dep_doc(fixture_doc))
    result = runner.invoke(main, ["simulate", path])
    assert result.exit_code == 1
    assert "ERROR E_DEP_SELF dep-id-midwife:" in result.stderr


def test_simulate_stops_on_ambiguous_flows(runner, tmp_path, fixture_doc):
    path = write_doc(tmp_path, ambiguous_doc(fixture_doc))
    result = runner.invoke(main, ["simulate", path, "--seed", "42"])
    assert result.exit_code == 1
    assert "WARN W_FLOW_AMBIGUOUS dep-bnd-mother:" in result.stderr
    assert "--allow-ambiguous" in result.stderr

    forced = runner.invoke(main, ["simulate", path, "--seed", "42", "--allow-ambiguous"])
    # the defaulted presentation has no matching verifier, so compilation fails
    assert forced.exit_code == 1
    assert forced.stderr.startswith("E_COMPILE_ROLE:")


def test_simulate_drop_flag(runner, birth_path):
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42", "--drop", "1.0"])
    assert result.exit_code == 1
    assert "  Mother: Get Birth Certificate for new baby: Denied" in result.output
    assert "  integrity: 0 pass, 0 fail" in result.output
    assert "Termination: quiescence at tick 40" in result.output


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_simulate_out_of_range_drop_exits_two(runner, birth_path, value):
    result = runner.invoke(main, ["simulate", str(birth_path), "--drop", value])
    assert result.exit_code == 2
    assert "Invalid value for '--drop'" in result.stderr
    assert "Root goals:" not in result.output


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


def test_simulate_deep_goal_chain_exits_without_traceback(runner, tmp_path):
    path = write_doc(tmp_path, goal_chain_doc(1000))
    assert runner.invoke(main, ["validate", path]).exit_code == 0
    result = runner.invoke(main, ["simulate", path])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1  # the root goal stays Unknown: nothing in the chain is seeded
    assert "  A: Goal 999: Unknown" in result.output
    assert "Traceback" not in result.output + result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--seed", "42", "--trace"],
        ["simulate", "--seed", "42", "--dot"],
        ["export", "--view", "sd", "--out"],
    ],
    ids=["trace", "dot", "out"],
)
def test_unwritable_output_exits_two(runner, birth_path, tmp_path, args):
    target = tmp_path / "missing" / "out.txt"
    command, *options = args
    result = runner.invoke(main, [command, str(birth_path), *options, str(target)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"cannot write {target}: ")
    assert len(result.stderr.splitlines()) == 1
    assert not target.parent.exists()


# -- export ---------------------------------------------------------------


def test_export_sd_to_stdout(runner, birth_path):
    result = runner.invoke(main, ["export", str(birth_path), "--view", "sd"])
    assert result.exit_code == 0
    parsed = parse_model(birth_path.read_bytes())
    assert result.output == export_dot(parsed.model, "sd")


def test_export_sr_to_file(runner, birth_path, tmp_path):
    out = tmp_path / "model.dot"
    result = runner.invoke(main, ["export", str(birth_path), "--view", "sr", "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    parsed = parse_model(birth_path.read_bytes())
    assert out.read_text(encoding="utf-8") == export_dot(parsed.model, "sr")


def test_export_requires_known_view(runner, birth_path):
    assert runner.invoke(main, ["export", str(birth_path), "--view", "3d"]).exit_code == 2
    assert runner.invoke(main, ["export", str(birth_path)]).exit_code == 2


# -- presentation ---------------------------------------------------------


def test_color_toggle(runner, birth_path):
    colored = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42"], color=True)
    assert "\x1b[" in colored.output
    plain = runner.invoke(
        main,
        ["simulate", str(birth_path), "--seed", "42"],
        color=True,
        env={"SSIFORGE_NO_COLOR": "1"},
    )
    assert "\x1b[" not in plain.output
    assert plain.exit_code == 0


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "ssiforge, version 0.1.0" in result.output


# -- lazy loading ---------------------------------------------------------

LAZY_MODULES = ("cryptography", "ssiforge.credentials", "ssiforge.simulator")
LOADED_AFTER = """
import sys
from ssiforge.cli import main
try:
    main(sys.argv[1:], prog_name="ssiforge")
except SystemExit:
    pass
print(",".join(m for m in {modules!r} if m in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["validate"], False),
        (["roles"], False),
        (["export", "--view", "sd"], False),
        (["simulate", "--seed", "42"], True),
    ],
    ids=["validate", "roles", "export", "simulate"],
)
def test_only_simulate_loads_the_credential_layer(birth_path, args, loaded):
    script = LOADED_AFTER.format(modules=LAZY_MODULES)
    argv = [args[0], str(birth_path), *args[1:]]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(ssiforge.__file__).parent.parent)},
    )
    assert proc.stderr.strip().split(",") == (list(LAZY_MODULES) if loaded else [""])


def test_package_names_all_resolve():
    for name in ssiforge.__all__:
        assert getattr(ssiforge, name) is not None, name


def test_simulate_calls_the_functions_set_on_the_module(runner, birth_path, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("compile_agents", "run"):
        monkeypatch.setattr(cli, name, spy(name))
    result = runner.invoke(main, ["simulate", str(birth_path), "--seed", "42"])
    assert result.exit_code == 0
    assert calls == ["compile_agents", "run"]
