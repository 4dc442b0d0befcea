from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

import helpers
import ssiforge.overlay as overlay
from ssiforge.model import Actor, Dependency, Element, ElementKind, Model
from ssiforge.overlay import (
    CredentialCatalog,
    CredentialFlow,
    DEFAULT_LEXICON,
    Evidence,
    EvidenceKind,
    FlowKind,
    RoleAssignment,
    SsiRole,
    TrustOverride,
    TrustPolicyError,
    TrustRegistry,
    VerbLexicon,
    apply_trust_overrides,
    build_trust_registry,
    derive_flows,
    infer_roles,
    issuers_by_type,
    lint_ssi,
    normalize_name,
)
from ssiforge.overlay import _Names
from ssiforge.pistar import parse_model
from ssiforge.simulator import CompileError, compile_agents, derive_bootstrap

BND = "Birth Notification Document"
MID = "Mother's ID"
CERT = "Birth Certificate"


def annotate_dependency(model, dep_id, **notes):
    deps = tuple(
        d.replace(annotations={**d.annotations, **notes}) if d.id == dep_id else d
        for d in model.dependencies
    )
    return model.replace(dependencies=deps)


def test_normalize_name():
    assert normalize_name("Mother's ID") == "mothers id"
    assert normalize_name("  Send-Copy   to REGISTRAR!? ") == "send copy to registrar"
    assert normalize_name("---") == ""


@given(st.text(max_size=40))
def test_normalize_name_is_idempotent(text):
    once = normalize_name(text)
    assert normalize_name(once) == once


def test_lexicon_rejects_overlap_and_empties():
    with pytest.raises(ValueError):
        VerbLexicon(issue_verbs=frozenset({"issue"}), provide_verbs=frozenset({"issue"}))
    with pytest.raises(ValueError):
        VerbLexicon(check_verbs=frozenset())
    with pytest.raises(ValueError):
        VerbLexicon(issue_verbs=frozenset({"  "}))


def test_lexicon_normalizes_verbs():
    lex = VerbLexicon(issue_verbs=frozenset({" Grant "}))
    assert lex.issue_verbs == frozenset({"grant"})


def test_catalog_aliases(birth_model):
    # Each resource dependency is recorded once with its type, in model order: a dependum spelled as a
    # type's alias or normalized name is of that type, and one that no type spells is a type of its own.
    respelled = {"dep-id-registrar": "mothers-ID", "dep-bnd-registrar": "bnd", "dep-cert-mother": "Unheard Of"}
    deps = tuple(d.replace(name=respelled.get(d.id, d.name)) for d in birth_model.dependencies)
    catalog = CredentialCatalog(birth_model.replace(dependencies=deps))
    assert [(dep.id, ctype) for dep, ctype in catalog.resources] == [
        ("dep-id-midwife", MID),
        ("dep-bnd-mother", BND),
        ("dep-id-registrar", MID),
        ("dep-bnd-registrar", BND),
        ("dep-cert-mother", "Unheard Of"),
    ]
    assert all(dep is model_dep for (dep, _), model_dep in zip(catalog.resources, deps))
    catalog = CredentialCatalog(birth_model)
    assert catalog.types_in(normalize_name("Check BND against Office Copy")) == [BND]
    assert catalog.types_in(normalize_name("Issue Mother's ID Credential")) == [MID]
    assert catalog.types_in(normalize_name("File paperwork")) == []


# Name fragments that stress whole-word matching: copy numbers that are
# prefixes of each other, an alias inside a longer word ("ID" in "valid"),
# an actor name inside a longer one ("Registrar" in "Registrar Office"), and
# the words of office-copy tasks, also inside longer words.
NAME_FRAGMENTS = (
    "BND 1", "BND 12", "Registrar 1", "Registrar 10", "Registrar", "Registrar Office", "ID", "valid",
    "Mother's ID", "Midwife", "send", "copy", "resend", "copyist", "issue", "check", "of", "",
)
NAMES = st.one_of(st.sampled_from(NAME_FRAGMENTS), st.text(alphabet="abdiIDR 01'-", max_size=8))


def has_words(text_norm, spelling_norm):
    """Whether the normalized ``spelling_norm`` is a run of whole words of ``text_norm``."""
    return bool(spelling_norm) and f" {spelling_norm} " in f" {text_norm} "


def naive_mentioned_types(catalog, task_name):
    norm = normalize_name(task_name)
    return [display for display, patterns in catalog.patterns.items() if any(has_words(norm, p) for p in patterns)]


def naive_copy_targets(model):
    """Per actor, its first send-copy task that names another actor, and every
    other actor it names with the longest name, in actor order: the copy goes
    to the first."""
    actor_names = [(a.id, normalize_name(a.name)) for a in model.actors]
    targets = {}
    for actor in model.actors:
        for elem in actor.elements:
            norm = normalize_name(elem.name)
            if elem.kind is ElementKind.TASK and has_words(norm, "copy") and has_words(norm, "send"):
                named = [(other, name) for other, name in actor_names if other != actor.id and has_words(norm, name)]
                if named and actor.id not in targets:
                    longest = max(len(name) for _, name in named)
                    targets[actor.id] = (elem.id, [other for other, name in named if len(name) == longest])
    return targets


@given(
    actor_names=st.lists(NAMES, min_size=1, max_size=6),
    type_spellings=st.lists(st.lists(NAMES, min_size=1, max_size=3), max_size=5),
    tasks=st.lists(st.tuples(st.integers(0, 5), st.lists(NAMES, max_size=6).map(" ".join)), max_size=12),
)
@example(
    actor_names=["Registrar 1", "Registrar 10", "Midwife 1"],
    type_spellings=[["Birth Notification Document 1", "BND 1"], ["Birth Notification Document 12", "BND 12"]],
    tasks=[(2, "Send BND 12 copy to Registrar 10"), (0, "Issue BND 1"), (1, "Check BND 12")],
)
@example(actor_names=["Midwife"], type_spellings=[["Mother's ID", "ID"]], tasks=[(0, "Check valid BND")])
@example(
    actor_names=["Midwife", "Registrar"],
    type_spellings=[],
    tasks=[(0, "Send copy of Midwife record to Registrar"), (1, "Send Registrar copy")],
)
@example(
    actor_names=["Midwife", "Registrar", "Registrar Office", "Registrar Offices"],
    type_spellings=[],
    tasks=[(0, "Send copy to Registrar Office"), (1, "Send copy to Registrar Offices or Midwife")],
)
@example(
    actor_names=["Midwife", "Archivist", "Registrar", "Mother"],
    type_spellings=[],
    tasks=[(0, "Send copy to Registrar, Mother or Archivist"), (0, "Send copy to Mother")],
)
def test_name_index_matches_naive_whole_word_search(actor_names, type_spellings, tasks):
    elements = [[] for _ in actor_names]
    for n, (owner, name) in enumerate(tasks):
        elements[owner % len(actor_names)].append(Element(f"t{n}", name, ElementKind.TASK))
    actors = [Actor(f"a{i}", name, elements=elements[i]) for i, name in enumerate(actor_names)]
    deps = [
        Dependency(f"d{j}", spellings[0], ElementKind.RESOURCE, "a0", actors[-1].id,
                   annotations={"ssi.alias": ",".join(spellings[1:])})
        for j, spellings in enumerate(type_spellings)
    ]
    model = Model(actors=actors, dependencies=deps)
    catalog = CredentialCatalog(model)
    for _, name in tasks:
        assert catalog.types_in(normalize_name(name)) == naive_mentioned_types(catalog, name)
    assert _Names(model).copy_sends == naive_copy_targets(model)


def test_fixture_role_map(birth_model):
    roles = infer_roles(birth_model)
    assert roles == (
        RoleAssignment("ID Agency", MID, SsiRole.ISSUER, ("agency-issue-id",)),
        RoleAssignment("Midwife", BND, SsiRole.ISSUER, ("midwife-issue-bnd",)),
        RoleAssignment("Midwife", MID, SsiRole.VERIFIER, ("midwife-check-id",)),
        RoleAssignment("Mother", CERT, SsiRole.HOLDER),  # from the issuance alone
        RoleAssignment("Mother", BND, SsiRole.HOLDER, ("mother-present-bnd",)),
        RoleAssignment("Mother", MID, SsiRole.HOLDER, ("mother-present-id",)),
        RoleAssignment("Registrar", CERT, SsiRole.ISSUER, ("registrar-issue-cert",)),
        RoleAssignment("Registrar", BND, SsiRole.VERIFIER, ("registrar-check-bnd", "registrar-check-copy")),
        RoleAssignment("Registrar", MID, SsiRole.VERIFIER, ("registrar-check-id",)),
    )


def test_roles_ignore_actor_order(birth_model):
    shuffled = birth_model.replace(actors=tuple(reversed(birth_model.actors)))
    assert infer_roles(shuffled) == infer_roles(birth_model)


def test_goal_names_do_not_create_roles(birth_model):
    # "Issue Valid BNDs" is a goal, not a task, so the Midwife's issuer role
    # must come from the "Issue BND" task alone.
    stripped = helpers.rename_element(birth_model, "midwife-issue-bnd", "Prepare paperwork")
    roles = infer_roles(stripped)
    assert ("Midwife", BND, SsiRole.ISSUER) not in {(a.actor, a.credential_type, a.role) for a in roles}


@pytest.mark.parametrize(
    "element, name",
    [
        ("registrar-check-bnd", "Checkout BND"),
        ("mother-present-bnd", "Presentation of BND"),
        ("midwife-issue-bnd", "Issued BND register"),
    ],
    ids=["check", "present", "issue"],
)
def test_verbs_match_whole_words(birth_model, element, name):
    # Each name starts with a verb's letters but not with the verb as a word.
    renamed = helpers.rename_element(birth_model, element, name)
    assert all(element not in a.tasks for a in infer_roles(renamed))


def flow_of(model, dependency):
    return next(f for f in derive_flows(model, infer_roles(model)) if f.dependency == dependency)


def test_office_copy_check_needs_the_word_copy(birth_model):
    renamed = helpers.rename_element(birth_model, "registrar-check-copy", "Check BND against copyright notice")
    assert flow_of(birth_model, "dep-bnd-registrar").require_copy is True
    assert flow_of(renamed, "dep-bnd-registrar").require_copy is False


def test_office_copy_send_needs_the_words_send_and_copy(birth_model):
    renamed = helpers.rename_element(birth_model, "midwife-send-copy", "Resend copyist note to Registrar")
    flow = flow_of(renamed, "dep-bnd-mother")
    assert (flow.copy_to, flow.copy_task) == (None, None)


def test_an_alias_inside_a_longer_word_names_nothing(birth_model):
    # The alias "ID" is in "valid", but not as a word.
    aliased = annotate_dependency(birth_model, "dep-id-midwife", **{"ssi.alias": "ID"})
    renamed = helpers.rename_element(aliased, "registrar-check-bnd", "Check valid BND")
    tasks = {(a.actor, a.credential_type, a.role): a.tasks for a in infer_roles(renamed)}
    assert tasks["Registrar", MID, SsiRole.VERIFIER] == ("registrar-check-id",)
    assert tasks["Registrar", BND, SsiRole.VERIFIER] == ("registrar-check-bnd", "registrar-check-copy")


def test_office_copy_goes_to_the_longest_actor_name(birth_model):
    office = Actor("office", "Registrar Office")
    model = helpers.rename_element(
        birth_model.replace(actors=(*birth_model.actors, office)), "midwife-send-copy", "Send copy to Registrar Office"
    )
    flow = flow_of(model, "dep-bnd-mother")
    assert (flow.copy_to, flow.copy_task) == ("office", "midwife-send-copy")
    assert flow_of(birth_model, "dep-bnd-mother").copy_to == "Registrar"


def test_a_copy_task_naming_two_longest_names_warns(birth_model):
    """A tie between the longest actor names a send-copy task names is
    warned, naming every candidate and the one picked; a longer unique name
    is no tie."""
    def lint_copy(model):
        roles = infer_roles(model)
        return [w for w in lint_ssi(model, roles, derive_flows(model, roles)) if w.code == "W_COPY_AMBIGUOUS"]

    archive = Actor("archive", "Archivist")  # as long as "Registrar"
    with_archive = birth_model.replace(actors=(*birth_model.actors, archive))
    tied = helpers.rename_element(with_archive, "midwife-send-copy", "Send copy to Archivist or Registrar")
    assert flow_of(tied, "dep-bnd-mother").copy_to == "Registrar"  # the first in actor order
    [warning] = lint_copy(tied)
    assert warning.offending_id == "midwife-send-copy"
    assert "Registrar, archive" in warning.message and warning.message.endswith("goes to Registrar")

    office = Actor("office", "Registrar Office")
    longer = helpers.rename_element(
        tied.replace(actors=(*tied.actors, office)), "midwife-send-copy", "Send copy to Registrar Office or Archivist"
    )
    assert flow_of(longer, "dep-bnd-mother").copy_to == "office"
    assert lint_copy(longer) == [] == lint_copy(birth_model)

    # In a model that fails validation, the copy task may belong to a second actor with a duplicate id.
    second = Actor("Midwife", "Midwife", elements=(Element("dup-send-copy", "Send copy to Registrar", ElementKind.TASK),))
    renamed = helpers.rename_element(birth_model, "midwife-send-copy", "File note")
    duplicated = renamed.replace(actors=(*renamed.actors, second))
    assert flow_of(duplicated, "dep-bnd-mother").copy_task == "dup-send-copy"
    assert lint_copy(duplicated) == []


def test_each_name_is_read_once_per_model(birth_path, monkeypatch):
    """``infer_roles``, ``derive_flows`` and ``lint_ssi`` normalize each
    actor, task, dependum and alias name of a model at most once between
    them, and ``lint_ssi`` searches no name again; ``infer_roles`` with
    another lexicon, multi-word verbs included, normalizes none again and
    gives what it gives on a freshly parsed model."""
    model = helpers.scaled_model(birth_path, 4)
    # "check bnd" has two words; a name starting with "issue birth" starts with the issue verb "issue" too.
    lexicon = VerbLexicon(
        issue_verbs=frozenset({"issue"}),
        provide_verbs=frozenset({"present mothers id", "obtain"}),
        check_verbs=frozenset({"check bnd", "issue birth"}),
    )
    calls = Counter()
    monkeypatch.setattr(overlay, "normalize_name", lambda text: calls.update([text]) or normalize_name(text))
    roles = infer_roles(model)
    flows = derive_flows(model, roles)
    searched = Counter()
    owners_in = overlay._SpellingIndex.owners_in
    monkeypatch.setattr(
        overlay._SpellingIndex, "owners_in", lambda index, text: searched.update([text]) or owners_in(index, text)
    )
    lint_ssi(model, roles, flows)
    assert not searched  # ``lint_ssi`` reads the office-copy ties recorded with the names
    assert {f.copy_task for f in flows if f.copy_task} == {f"midwife-send-copy-c{i}" for i in range(1, 5)}
    names = Counter(a.name for a in model.actors)
    names.update(e.name for a in model.actors for e in a.elements if e.kind is ElementKind.TASK)
    names.update(d.name for d in model.dependencies)
    names.update(alias for d in model.dependencies for alias in d.annotations.get("ssi.alias", "").split(","))
    assert calls and not calls - names  # no name is normalized more often than it occurs

    read = Counter(calls)
    custom = infer_roles(model, lexicon)
    assert calls == read
    assert custom == infer_roles(helpers.scaled_model(birth_path, 4), lexicon)
    tasks = {(a.actor, a.role): a.tasks for a in custom if a.credential_type.startswith("Birth Notification")}
    assert tasks[("Registrar-c1", SsiRole.VERIFIER)] == ("registrar-check-bnd-c1", "registrar-check-copy-c1")
    assert tasks[("Mother-c1", SsiRole.HOLDER)] == ("mother-obtain-bnd-c1",)
    assert RoleAssignment("Registrar-c1", "Birth Certificate 1", SsiRole.ISSUER, ("registrar-issue-cert-c1",)) in custom
    assert all(a.role is not SsiRole.VERIFIER for a in custom if a.credential_type.startswith("Birth Certificate"))


def test_issuance_receipt_grants_holder(birth_model):
    roles = infer_roles(birth_model)
    # No Mother task starts with a provide verb for the certificate.
    assert RoleAssignment("Mother", CERT, SsiRole.HOLDER) in roles


def test_fixture_flows(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    assert flows == (
        CredentialFlow("dep-id-midwife", FlowKind.PRESENTATION, MID, "Mother", "Midwife",
                       Evidence(EvidenceKind.VERB, "mother-present-id"),
                       check_tasks=("midwife-check-id",), verdict_task="mother-present-id"),
        CredentialFlow("dep-bnd-mother", FlowKind.ISSUANCE, BND, "Midwife", "Mother",
                       Evidence(EvidenceKind.VERB, "midwife-issue-bnd"),
                       copy_to="Registrar", copy_task="midwife-send-copy", issue_task="midwife-issue-bnd",
                       gate_tasks=("midwife-check-id",), await_task="mother-obtain-bnd", subject="child"),
        CredentialFlow("dep-id-registrar", FlowKind.PRESENTATION, MID, "Mother", "Registrar",
                       Evidence(EvidenceKind.VERB, "mother-present-id"),
                       check_tasks=("registrar-check-id",), verdict_task="mother-present-id",
                       purpose="entitlement"),
        CredentialFlow("dep-bnd-registrar", FlowKind.PRESENTATION, BND, "Mother", "Registrar",
                       Evidence(EvidenceKind.VERB, "mother-present-bnd"), require_copy=True,
                       check_tasks=("registrar-check-bnd", "registrar-check-copy"), verdict_task="mother-present-bnd"),
        CredentialFlow("dep-cert-mother", FlowKind.ISSUANCE, CERT, "Registrar", "Mother",
                       Evidence(EvidenceKind.VERB, "registrar-issue-cert"), issue_task="registrar-issue-cert",
                       gate_tasks=("registrar-check-id", "registrar-check-bnd", "registrar-check-copy"),
                       await_task="mother-obtain-cert", subject="child"),
    )


def test_needed_by_sources_end_the_gate_tasks_in_link_order(birth_model):
    model = helpers.licensed_registrar_model(birth_model)
    roles = infer_roles(model)
    flows = {f.dependency: f for f in derive_flows(model, roles)}
    licence = flows["dep-licence-registrar"]
    assert (licence.kind, licence.sender, licence.receiver) == (FlowKind.ISSUANCE, "ID Agency", "Registrar")
    assert (licence.issue_task, licence.await_task, licence.gate_tasks) == (
        "agency-issue-licence", "registrar-licence", (),
    )
    checks = ("registrar-check-id", "registrar-check-bnd", "registrar-check-copy")
    assert flows["dep-cert-mother"].gate_tasks == (*checks, "registrar-licence")
    assert lint_ssi(model, roles, tuple(flows.values())) == ()

    sealed = helpers.licensed_registrar_model(birth_model, seal=True)
    cert = next(f for f in derive_flows(sealed, infer_roles(sealed)) if f.dependency == "dep-cert-mother")
    assert cert.gate_tasks == (*checks, "registrar-seal", "registrar-licence")


def test_annotation_overrides_verb_classification(birth_model):
    forced = annotate_dependency(birth_model, "dep-bnd-mother", **{"ssi": "present"})
    roles = infer_roles(forced)
    flows = derive_flows(forced, roles)
    flow = next(f for f in flows if f.dependency == "dep-bnd-mother")
    assert flow.kind is FlowKind.PRESENTATION
    assert flow.evidence == Evidence(EvidenceKind.ANNOTATION)

    forced = annotate_dependency(birth_model, "dep-id-midwife", **{"ssi": "issue"})
    flows = derive_flows(forced, infer_roles(forced))
    flow = next(f for f in flows if f.dependency == "dep-id-midwife")
    assert flow.kind is FlowKind.ISSUANCE
    assert flow.evidence.kind is EvidenceKind.ANNOTATION


def test_issue_annotation_grants_holder(birth_model):
    forced = annotate_dependency(birth_model, "dep-id-midwife", **{"ssi": "issue"})
    assert RoleAssignment("Midwife", MID, SsiRole.HOLDER) in infer_roles(forced)


FIXTURE_RESOURCES = ("dep-id-midwife", "dep-bnd-mother", "dep-id-registrar", "dep-bnd-registrar", "dep-cert-mother")


@pytest.mark.parametrize("forced", ["issue", "present"])
@pytest.mark.parametrize("dependency", FIXTURE_RESOURCES)
def test_a_holder_without_tasks_receives_an_issuance(birth_model, dependency, forced):
    # One rule decides an issuance for the roles and the flows: an ``ssi`` of ``present`` on an
    # issuance by verb gives its depender no Holder role, as it gives no issuance flow.
    model = annotate_dependency(birth_model, dependency, ssi=forced)
    roles = infer_roles(model)
    issued = {(f.receiver, f.credential_type) for f in derive_flows(model, roles) if f.kind is FlowKind.ISSUANCE}
    untasked = {(a.actor, a.credential_type) for a in roles if a.role is SsiRole.HOLDER and not a.tasks}
    assert untasked <= issued


@pytest.mark.parametrize("renamed", [False, True], ids=["fixture", "bnd-issue-task-renamed"])
def test_lint_flags_exactly_the_flows_compile_agents_rejects(birth_model, renamed):
    # With each ``ssi`` value forced on each resource dependency in turn, a flow draws
    # W_FLOW_ROLE_MISSING or W_FLOW_AMBIGUOUS exactly when ``compile_agents`` rejects it.
    base = helpers.rename_element(birth_model, "midwife-issue-bnd", "Arrange BND") if renamed else birth_model
    drawn = Counter()
    for dependency, forced in [(None, None), *((d, v) for d in FIXTURE_RESOURCES for v in ("issue", "present"))]:
        model = base if dependency is None else annotate_dependency(base, dependency, ssi=forced)
        roles = infer_roles(model)
        flows = derive_flows(model, roles)
        codes = ("W_FLOW_ROLE_MISSING", "W_FLOW_AMBIGUOUS")
        flagged = {w.offending_id: w.code for w in lint_ssi(model, roles, flows) if w.code in codes}
        for flow in flows:
            try:
                compile_agents(model, roles, [flow], TrustRegistry({}))
            except CompileError as exc:
                assert flow.dependency in flagged, (dependency, forced, str(exc))
                drawn[flagged[flow.dependency]] += 1
            else:
                assert flow.dependency not in flagged, (dependency, forced)
    # Forcing reaches the lint code on the fixture; the renamed task leaves one flow ambiguous too.
    assert set(drawn) == ({"W_FLOW_ROLE_MISSING", "W_FLOW_AMBIGUOUS"} if renamed else {"W_FLOW_ROLE_MISSING"})


def test_check_task_is_fallback_evidence():
    doc = {
        "istar": "2.0",
        "actors": [
            {"id": "I", "text": "Issuer Org", "type": "istar.Actor",
             "nodes": [{"id": "i-issue", "text": "Issue Pass", "type": "istar.Task"}]},
            {"id": "H", "text": "Carrier", "type": "istar.Actor", "nodes": []},
            {"id": "V", "text": "Gate", "type": "istar.Actor",
             "nodes": [{"id": "v-check", "text": "Check Pass", "type": "istar.Task"}]},
        ],
        "dependencies": [
            {"id": "d1", "text": "Pass", "type": "istar.Resource", "source": "i-issue", "target": "H"},
            {"id": "d2", "text": "Pass", "type": "istar.Resource", "source": "H", "target": "v-check"},
        ],
        "links": [],
    }
    import json

    model = parse_model(json.dumps(doc)).model
    roles = infer_roles(model)
    assert RoleAssignment("H", "Pass", SsiRole.HOLDER) in roles
    flows = derive_flows(model, roles)
    presentation = next(f for f in flows if f.dependency == "d2")
    assert presentation.kind is FlowKind.PRESENTATION
    assert presentation.evidence == Evidence(EvidenceKind.VERB, "v-check")


def test_lint_is_quiet_on_fixture(birth_model, birth_path):
    roles = infer_roles(birth_model)
    assert lint_ssi(birth_model, roles, derive_flows(birth_model, roles)) == ()
    copies = helpers.scaled_model(birth_path, 12)
    roles = infer_roles(copies)
    assert lint_ssi(copies, roles, derive_flows(copies, roles)) == ()


def test_renamed_issue_task_leaves_one_ambiguous_flow(birth_model):
    renamed = helpers.rename_element(birth_model, "midwife-issue-bnd", "Arrange BND")
    roles = infer_roles(renamed)
    flows = derive_flows(renamed, roles)
    flow = next(f for f in flows if f.dependency == "dep-bnd-mother")
    assert flow.kind is FlowKind.PRESENTATION
    assert flow.evidence == Evidence(EvidenceKind.UNRESOLVED)
    other = next(f for f in flows if f.dependency == "dep-bnd-registrar")
    assert other.evidence.kind is EvidenceKind.VERB

    warnings = lint_ssi(renamed, roles, flows)
    assert [(w.code, w.offending_id) for w in warnings] == [
        ("W_FLOW_AMBIGUOUS", "dep-bnd-mother"),
        ("W_NO_ISSUER", BND),
    ]


def test_orphan_verifier_warns(birth_model):
    trimmed = birth_model.replace(
        dependencies=tuple(d for d in birth_model.dependencies if d.id != "dep-id-midwife"),
    )
    roles = infer_roles(trimmed)
    flows = derive_flows(trimmed, roles)
    warnings = lint_ssi(trimmed, roles, flows)
    assert ("W_ORPHAN_VERIFIER", "Midwife") in [(w.code, w.offending_id) for w in warnings]


def test_a_task_naming_two_types_warns(birth_model):
    # The task takes the Verifier role of both types, so it becomes a check
    # task of both presentations to the Registrar.
    renamed = helpers.rename_element(birth_model, "registrar-check-bnd", "Check BND and Mother's ID")
    roles = infer_roles(renamed)
    flows = derive_flows(renamed, roles)
    assert "registrar-check-bnd" in flow_of(renamed, "dep-id-registrar").check_tasks
    warnings = lint_ssi(renamed, roles, flows)
    assert [(w.code, w.offending_id) for w in warnings] == [("W_TASK_MULTI_TYPE", "registrar-check-bnd")]
    assert f"{BND!r}, {MID!r}" in warnings[0].message


def test_a_presented_type_with_several_issuers_warns(birth_model):
    """``issuers_by_type`` lists the issuers of each type in role order for
    every reader: whatever that order, the bootstrap takes the first, the
    warning names that one, and the registry accepts them all."""
    midwife = birth_model.actor("Midwife")
    extra = Element("midwife-issue-id", "Issue Mother's ID", ElementKind.TASK)
    model = birth_model.replace(
        actors=tuple(a.replace(elements=(*a.elements, extra)) if a is midwife else a for a in birth_model.actors)
    )
    dids = fixture_dids(model)
    for roles, first in ((infer_roles(model), "ID Agency"), (tuple(reversed(infer_roles(model))), "Midwife")):
        flows = derive_flows(model, roles)
        names = issuers_by_type(roles)[MID]
        assert names[0] == first and sorted(names) == ["ID Agency", "Midwife"]
        # The bootstrap takes the first issuer, and a wallet keeps one credential per type.
        assert [(b.credential_type, b.issuer) for b in derive_bootstrap(model, roles, flows)] == [(MID, first)]
        warnings = lint_ssi(model, roles, flows)
        assert [(w.code, w.offending_id) for w in warnings] == [("W_MULTI_ISSUER", MID)]
        assert f"({', '.join(names)}): bootstrap uses {first}'s" in warnings[0].message
        registry = build_trust_registry(roles, flows, dids)
        assert registry.accepted["Registrar", MID] == {dids["ID Agency"], dids["Midwife"]}


def fixture_dids(model):
    return {a.id: f"did:sim:{a.id.replace(' ', '')}" for a in model.actors}


def test_registry_defaults_to_model_issuers(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    dids = fixture_dids(birth_model)
    registry = build_trust_registry(roles, flows, dids)
    assert set(registry.accepted) == {("Midwife", MID), ("Registrar", BND), ("Registrar", MID)}
    assert registry.accepted[("Midwife", MID)] == frozenset({dids["ID Agency"]})
    assert registry.accepted[("Registrar", MID)] == frozenset({dids["ID Agency"]})
    assert registry.accepted[("Registrar", BND)] == frozenset({dids["Midwife"]})
    assert registry.is_trusted("Registrar", BND, dids["Midwife"])
    assert not registry.is_trusted("Registrar", BND, dids["Registrar"])
    assert not registry.is_trusted("Registrar", CERT, dids["Registrar"])


def test_overrides_add_and_remove(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    dids = fixture_dids(birth_model)
    defaults = build_trust_registry(roles, flows, dids)
    registry, noops = apply_trust_overrides(
        defaults,
        (
            TrustOverride("Registrar", BND, "did:sim:external"),
            TrustOverride("Registrar", MID, dids["ID Agency"], action="remove"),
        ),
    )
    assert registry.accepted == {
        ("Midwife", MID): frozenset({dids["ID Agency"]}),
        ("Registrar", BND): frozenset({dids["Midwife"], "did:sim:external"}),
        ("Registrar", MID): frozenset(),
    }
    assert noops == ()
    assert defaults == build_trust_registry(roles, flows, dids)  # the default registry is left as it was


def test_override_requires_verifier_role(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    defaults = build_trust_registry(roles, flows, fixture_dids(birth_model))
    with pytest.raises(TrustPolicyError) as err:
        apply_trust_overrides(defaults, (TrustOverride("Mother", BND, "did:sim:x"),))
    assert err.value.code == "E_TRUST_NOT_VERIFIER"


def test_registry_needs_issuer_dids(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    dids = fixture_dids(birth_model)
    del dids["Midwife"]
    with pytest.raises(ValueError):
        build_trust_registry(roles, flows, dids)


def test_registry_needs_the_dids_of_issuers_without_a_flow(birth_model):
    """The ID Agency issues the Mother's ID but sends no issuance, so only the
    issuer-role check catches its DID missing."""
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    assert "ID Agency" not in {f.sender for f in flows if f.kind is FlowKind.ISSUANCE}
    dids = fixture_dids(birth_model)
    del dids["ID Agency"]
    with pytest.raises(ValueError, match="didOf is missing issuer actor 'ID Agency'"):
        build_trust_registry(roles, flows, dids)


def test_override_action_validated():
    with pytest.raises(ValueError):
        TrustOverride("V", "T", "did:sim:x", action="drop")


def test_registry_lookup_is_pure():
    registry = TrustRegistry({("V", "T"): frozenset({"did:sim:a"})})
    assert registry.is_trusted("V", "T", "did:sim:a")
    assert not registry.is_trusted("V", "T", "did:sim:b")
    assert not registry.is_trusted("W", "T", "did:sim:a")


def test_trust_noops_follow_override_order(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    did_of = {a.id: f"did:sim:{a.id}" for a in birth_model.actors}
    defaults = build_trust_registry(roles, flows, did_of)
    remove = TrustOverride("Registrar", BND, "did:sim:Midwife", "remove")
    add = TrustOverride("Registrar", BND, "did:sim:Midwife")
    assert apply_trust_overrides(defaults, []) == (defaults, ())
    assert apply_trust_overrides(defaults, [remove, add]) == (defaults, ())
    registry, noops = apply_trust_overrides(defaults, [remove, remove, add, add])
    assert registry == defaults
    assert [(w.code, w.offending_id) for w in noops] == [("W_TRUST_NOOP", "Registrar")] * 2
    assert noops[0].message == (
        f"remove of did:sim:Midwife for {BND!r} changes nothing: the verifier does not accept it"
    )
    assert noops[1].message.endswith("the verifier already accepts it")
    registry, noops = apply_trust_overrides(defaults, [add, remove, remove])
    assert not registry.is_trusted("Registrar", BND, "did:sim:Midwife")
    states = [w.message.rsplit(": ", 1)[1] for w in noops]
    assert states == ["the verifier already accepts it", "the verifier does not accept it"]
    with pytest.raises(TrustPolicyError):
        apply_trust_overrides(defaults, [remove, TrustOverride("Mother", BND, "did:sim:x")])
