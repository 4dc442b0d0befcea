import hashlib
import json
import random
from collections import Counter

import pytest

import helpers
from ssiforge.model import ActorLinkKind, ContributionLabel, ElementKind, LinkKind
from ssiforge.pistar import export_dot, parse_model, serialize_model


def minimal_doc(**over):
    doc = {
        "istar": "2.0",
        "actors": [
            {
                "id": "A",
                "text": "Alpha",
                "type": "istar.Actor",
                "nodes": [
                    {"id": "g", "text": "Grow", "type": "istar.Goal"},
                    {"id": "t", "text": "Till", "type": "istar.Task"},
                ],
            },
            {
                "id": "B",
                "text": "Beta",
                "type": "istar.Agent",
                "nodes": [{"id": "u", "text": "Use", "type": "istar.Task"}],
            },
        ],
        "dependencies": [],
        "links": [],
    }
    doc.update(over)
    return doc


def parse_doc(doc):
    return parse_model(json.dumps(doc))


def error_index(result):
    return {(e.code, e.path) for e in result.errors}


def pointer_parent_resolves(doc, path: str) -> bool:
    if path == "":
        return True
    parts = [p.replace("~1", "/").replace("~0", "~") for p in path.split("/")[1:]]
    node = doc
    for part in parts[:-1]:
        if isinstance(node, list):
            index = int(part)
            if index >= len(node):
                return False
            node = node[index]
        elif isinstance(node, dict):
            if part not in node:
                return False
            node = node[part]
        else:
            return False
    return isinstance(node, (list, dict))


def resolve_pointer(doc, path: str):
    node = doc
    for part in path.split("/")[1:]:
        part = part.replace("~1", "/").replace("~0", "~")
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def test_fixture_parses_clean(birth_path):
    result = parse_model(birth_path.read_bytes())
    assert result.ok
    assert result.errors == ()
    assert result.warnings == ()
    model = result.model
    assert [a.id for a in model.actors] == ["Mother", "Midwife", "Registrar", "ID Agency"]
    assert len(model.dependencies) == 6
    assert model.metadata["tool"] == "pistar.2.1.0"
    assert "saveDate" in model.metadata


def test_fixture_annotations_survive(birth_model):
    dep = next(d for d in birth_model.dependencies if d.id == "dep-bnd-mother")
    assert dict(dep.annotations) == {"ssi.alias": "BND", "ssi.subject": "child"}
    assert dep.kind is ElementKind.RESOURCE
    assert dep.depender == "Mother" and dep.dependee == "Midwife"
    assert dep.depender_element == "mother-obtain-bnd"
    assert dep.dependee_element == "midwife-issue-bnd"


def test_actor_level_dependency_side(birth_model):
    dep = next(d for d in birth_model.dependencies if d.id == "dep-registration")
    assert dep.depender == "Mother" and dep.depender_element is None
    assert dep.dependee == "Registrar" and dep.dependee_element == "registrar-goal"


def test_malformed_json():
    result = parse_model("{nope")
    assert result.model is None
    assert [(e.code, e.path) for e in result.errors] == [("E_JSON", "")]


def test_invalid_utf8_bytes():
    result = parse_model(b"\xff\xfe{}")
    assert ("E_JSON", "") in error_index(result)


def test_top_level_must_be_object():
    assert ("E_SCHEMA", "") in error_index(parse_model("[1,2]"))


def test_version_marker_required():
    doc = minimal_doc()
    del doc["istar"]
    assert ("E_VERSION", "") in error_index(parse_doc(doc))
    assert ("E_VERSION", "/istar") in error_index(parse_doc(minimal_doc(istar="1.0")))


def test_unknown_top_level_key_warns_only():
    result = parse_doc(minimal_doc(colorScheme="dark"))
    assert result.ok
    assert [(w.code, w.path) for w in result.warnings] == [("W_UNKNOWN_KEY", "/colorScheme")]


@pytest.mark.parametrize(
    "mutate,expected",
    [
        (lambda d: d["actors"][0].update(type="istar.Thing"), ("E_UNKNOWN_TYPE", "/actors/0/type")),
        (lambda d: d["actors"][0]["nodes"][0].update(type="istar.Belief"), ("E_UNKNOWN_TYPE", "/actors/0/nodes/0/type")),
        (lambda d: d["actors"][0].pop("id"), ("E_SCHEMA", "/actors/0/id")),
        (lambda d: d["actors"][0].update(nodes=5), ("E_SCHEMA", "/actors/0/nodes")),
        (lambda d: d.update(actors={}), ("E_SCHEMA", "/actors")),
        (lambda d: d["actors"][0].update(customProperties=[1]), ("E_SCHEMA", "/actors/0/customProperties")),
        (lambda d: d["actors"][0]["nodes"][0].update(customProperties={"k": 3}),
         ("E_SCHEMA", "/actors/0/nodes/0/customProperties/k")),
    ],
)
def test_structural_errors(mutate, expected):
    doc = minimal_doc()
    mutate(doc)
    result = parse_doc(doc)
    assert expected in error_index(result)
    assert result.model is None


@pytest.mark.parametrize(
    "link,expected",
    [
        ({"id": "l", "type": "istar.FancyLink", "source": "t", "target": "g"}, ("E_UNKNOWN_TYPE", "/links/0/type")),
        ({"id": "l", "type": "istar.ContributionLink", "source": "t", "target": "g"}, ("E_SCHEMA", "/links/0/label")),
        ({"id": "l", "type": "istar.ContributionLink", "source": "t", "target": "g", "label": "boost"},
         ("E_UNKNOWN_TYPE", "/links/0/label")),
        ({"id": "l", "type": "istar.AndRefinementLink", "source": "zz", "target": "g"}, ("E_DANGLING", "/links/0/source")),
        ({"id": "l", "type": "istar.AndRefinementLink", "source": "u", "target": "g"}, ("E_DANGLING", "/links/0")),
        ({"id": "l", "type": "istar.IsALink", "source": "g", "target": "B"}, ("E_DANGLING", "/links/0/source")),
        ({"id": "l", "type": "istar.AndRefinementLink", "source": "zz", "target": "yy"}, ("E_DANGLING", "/links/0/target")),
    ],
)
def test_link_errors(link, expected):
    result = parse_doc(minimal_doc(links=[link]))
    assert expected in error_index(result)


def test_dependency_errors():
    doc = minimal_doc(dependencies=[{"id": "d", "text": "X", "type": "istar.Resource", "source": "zz", "target": "g"}])
    assert ("E_DANGLING", "/dependencies/0/source") in error_index(parse_doc(doc))
    doc = minimal_doc(dependencies=[{"id": "d", "text": "X", "type": "istar.BeliefDep", "source": "u", "target": "g"}])
    assert ("E_UNKNOWN_TYPE", "/dependencies/0/type") in error_index(parse_doc(doc))
    doc = minimal_doc(dependencies=[{"id": "d", "text": "X", "type": "istar.Resource", "target": "g"}])
    assert ("E_SCHEMA", "/dependencies/0/source") in error_index(parse_doc(doc))


def test_dependency_sides_resolve_elements_and_actors():
    doc = minimal_doc(
        dependencies=[
            {"id": "d1", "text": "X", "type": "istar.Resource", "source": "u", "target": "g"},
            {"id": "d2", "text": "Y", "type": "istar.Goal", "source": "B", "target": "A"},
        ]
    )
    model = parse_doc(doc).model
    d1, d2 = model.dependencies
    # source side is the dependee, target side the depender
    assert (d1.dependee, d1.dependee_element) == ("B", "u")
    assert (d1.depender, d1.depender_element) == ("A", "g")
    assert (d2.dependee, d2.dependee_element) == ("B", None)
    assert (d2.depender, d2.depender_element) == ("A", None)


def test_error_paths_point_into_the_document():
    doc = minimal_doc(
        links=[
            {"id": "l1", "type": "istar.Mystery", "source": "t", "target": "g"},
            {"id": "l2", "type": "istar.ContributionLink", "source": "t", "target": "g"},
        ],
        dependencies=[{"id": "d", "text": "X", "type": "istar.Resource", "source": "nope", "target": "g"}],
        istar="3.0",
    )
    doc["actors"][1].pop("id")
    result = parse_doc(doc)
    assert result.errors
    for error in result.errors:
        assert error.path == "" or error.path.startswith("/")
        assert pointer_parent_resolves(doc, error.path), error


def test_pointer_tokens_escape_slash_and_tilde():
    doc = minimal_doc(**{"a/b~c": 1})
    doc["actors"][0]["customProperties"] = {"x/y": 3}
    result = parse_doc(doc)
    assert [(e.code, e.path) for e in result.errors] == [("E_SCHEMA", "/actors/0/customProperties/x~1y")]
    assert [(w.code, w.path) for w in result.warnings] == [("W_UNKNOWN_KEY", "/a~1b~0c")]
    assert resolve_pointer(doc, result.errors[0].path) == 3
    assert resolve_pointer(doc, result.warnings[0].path) == 1


def test_duplicate_ids_left_to_validation():
    doc = minimal_doc()
    doc["actors"][1]["nodes"].append({"id": "g", "text": "Again", "type": "istar.Goal"})
    result = parse_doc(doc)
    assert result.ok


# What the reader said about each of 3,000 seeded edits of the fixture
# (``helpers.mutate_document``): every error and warning as (path, code,
# message) in order, and the serialized model when there is one.
CORPUS_SIZE = 3000
CORPUS_SHA256 = "cdc3a1ecdad0fbb749451c11600f92f99dfc23c20190d960dd23b44c0011592b"
CORPUS_CODES = {"E_DANGLING": 3627, "E_SCHEMA": 1625, "E_UNKNOWN_TYPE": 853, "E_VERSION": 25, "W_UNKNOWN_KEY": 17}
CORPUS_PARSED = 817


def test_mutated_fixtures_keep_their_diagnostics(birth_path):
    text = birth_path.read_text(encoding="utf-8")
    digest = hashlib.sha256()
    codes = Counter()
    parsed = 0
    for seed in range(CORPUS_SIZE):
        result = parse_doc(helpers.mutate_document(json.loads(text), random.Random(seed)))
        entry = [
            [[e.path, e.code, e.message] for e in result.errors],
            [[w.path, w.code, w.message] for w in result.warnings],
            serialize_model(result.model) if result.ok else None,
        ]
        digest.update(json.dumps(entry).encode() + b"\n")
        codes.update(e.code for e in result.errors + result.warnings)
        parsed += result.ok
    assert (dict(codes), parsed) == (CORPUS_CODES, CORPUS_PARSED)
    assert digest.hexdigest() == CORPUS_SHA256


def test_fixture_round_trip(birth_path):
    model = parse_model(birth_path.read_bytes()).model
    text = serialize_model(model)
    again = parse_model(text)
    assert again.ok and again.warnings == ()
    assert again.model == model
    assert serialize_model(again.model) == text
    assert text.endswith("\n")


def test_serializer_drops_layout(birth_path):
    raw = json.loads(birth_path.read_text(encoding="utf-8"))
    assert "diagram" in raw and "x" in raw["actors"][0]
    out = json.loads(serialize_model(parse_model(birth_path.read_bytes()).model))
    assert "diagram" not in out
    assert all("x" not in a for a in out["actors"])
    assert all("x" not in n for a in out["actors"] for n in a["nodes"])


def test_generated_models_round_trip():
    for seed in range(20):
        model = helpers.make_random_model(random.Random(seed))
        result = parse_model(serialize_model(model))
        assert result.ok, (seed, result.errors)
        assert result.model == model, seed


def test_actor_links_round_trip():
    doc = minimal_doc(links=[{"id": "al", "type": "istar.ParticipatesInLink", "source": "B", "target": "A"}])
    model = parse_doc(doc).model
    assert model.actor_links[0].kind is ActorLinkKind.PARTICIPATES_IN
    assert parse_model(serialize_model(model)).model == model


def test_sd_view_routes_dependencies(birth_model):
    text = export_dot(birth_model, "sd")
    assert text.startswith("digraph sd {")
    assert text.count("{") == text.count("}")
    edges = helpers.dot_edges(text)
    assert ("Mother", "dep-bnd-mother") in edges
    assert ("dep-bnd-mother", "Midwife") in edges
    assert ("Mother", "dep-registration") in edges
    assert ("dep-registration", "Registrar") in edges
    nodes = set(helpers.dot_nodes(text))
    for a, b in edges:
        assert a in nodes and b in nodes


def test_sd_view_shapes_dependums(birth_model):
    text = export_dot(birth_model, "sd")
    for line in text.splitlines():
        if '"dep-registration"' in line and "label=" in line:
            assert "shape=ellipse" in line
        if '"dep-bnd-mother"' in line and "label=" in line:
            assert "shape=box" in line and "style=dashed" in line


def test_sr_view_clusters_actor_internals(birth_model):
    text = export_dot(birth_model, "sr")
    assert text.startswith("digraph sr {")
    assert text.count("subgraph cluster_") == 4
    assert text.count("{") == text.count("}")
    edges = helpers.dot_edges(text)
    assert ("mother-obtain-bnd", "mother-goal") in edges
    assert 'label="and"' in text
    nodes = set(helpers.dot_nodes(text))
    for a, b in edges:
        assert a in nodes and b in nodes


def test_sr_view_labels_contributions():
    doc = minimal_doc(links=[{"id": "l", "type": "istar.ContributionLink", "source": "t", "target": "q", "label": "hurt"}])
    doc["actors"][0]["nodes"].append({"id": "q", "text": "Quick", "type": "istar.Quality"})
    model = parse_doc(doc).model
    assert model.actors[0].links[0].contribution is ContributionLabel.HURT
    assert 'label="hurt"' in export_dot(model, "sr")


def test_unknown_view_rejected(birth_model):
    with pytest.raises(ValueError):
        export_dot(birth_model, "sideways")


def test_names_with_quotes_are_escaped():
    doc = minimal_doc()
    doc["actors"][0]["text"] = 'Say "hi" \\ there'
    model = parse_doc(doc).model
    text = export_dot(model, "sd")
    assert '\\"hi\\"' in text
    assert parse_model(serialize_model(model)).model == model
