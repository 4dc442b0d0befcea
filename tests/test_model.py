import copy
import json
import pickle
import random

import pytest

import helpers
from ssiforge.credentials import (
    Credential,
    KeyPair,
    Presentation,
    VerificationOutcome,
    generate_keypair,
)
from ssiforge.model import (
    Actor,
    ActorKind,
    ActorLink,
    ActorLinkKind,
    ContributionLabel,
    Dependency,
    Element,
    ElementKind,
    InternalLink,
    LinkKind,
    Model,
    Record,
    ValidationIssue,
    ValidationReport,
    validate,
)
from ssiforge.overlay import (
    CredentialFlow,
    Evidence,
    EvidenceKind,
    FlowKind,
    RoleAssignment,
    SsiRole,
    TrustOverride,
    TrustRegistry,
    VerbLexicon,
)
from ssiforge.pistar import ParseError, ParseResult, parse_model
from ssiforge.simulator import (
    AgentSpec,
    BootstrapCredential,
    Message,
    SimConfig,
    Trace,
)


def goal(eid: str) -> Element:
    return Element(eid, eid, ElementKind.GOAL)


def task(eid: str) -> Element:
    return Element(eid, eid, ElementKind.TASK)


def resource(eid: str) -> Element:
    return Element(eid, eid, ElementKind.RESOURCE)


def quality(eid: str) -> Element:
    return Element(eid, eid, ElementKind.QUALITY)


def actor(aid: str, elements=(), links=()) -> Actor:
    return Actor(aid, aid, ActorKind.ACTOR, tuple(elements), tuple(links))


def codes(report) -> list[tuple[str, str]]:
    return [(i.code, i.offending_id) for i in report.errors]


def test_fixture_is_clean(birth_model):
    report = validate(birth_model)
    assert report.errors == ()
    assert report.warnings == ()


def test_duplicate_identifier_reported():
    model = Model((actor("a", [goal("x")]), actor("b", [goal("x")])))
    report = validate(model)
    assert ("E_ID_DUP", "x") in codes(report)


def test_actor_id_collides_with_element_id():
    model = Model((actor("a", [goal("a")]),))
    assert ("E_ID_DUP", "a") in codes(validate(model))


def test_self_dependency_rejected():
    model = Model(
        (actor("a", [task("t")]),),
        (Dependency("d", "Thing", ElementKind.RESOURCE, "a", "a", "t", "t"),),
    )
    assert ("E_DEP_SELF", "d") in codes(validate(model))


def test_link_to_missing_element_is_dangling():
    model = Model((actor("a", [goal("g")], [InternalLink("l", LinkKind.AND_REFINEMENT, "ghost", "g")]),))
    assert ("E_REF_DANGLING", "l") in codes(validate(model))


def test_link_across_actors_is_dangling():
    # Internal links may only join elements of the same actor.
    model = Model(
        (
            actor("a", [goal("g")], [InternalLink("l", LinkKind.AND_REFINEMENT, "t", "g")]),
            actor("b", [task("t")]),
        )
    )
    assert ("E_REF_DANGLING", "l") in codes(validate(model))


def test_dependency_referencing_missing_actor():
    model = Model((actor("a", [task("t")]),), (Dependency("d", "Thing", ElementKind.RESOURCE, "a", "zz"),))
    assert ("E_REF_DANGLING", "d") in codes(validate(model))


def test_dependency_element_owned_elsewhere():
    model = Model(
        (actor("a", [task("t")]), actor("b", [task("u")])),
        (Dependency("d", "Thing", ElementKind.RESOURCE, "a", "b", depender_element="u"),),
    )
    assert ("E_REF_DANGLING", "d") in codes(validate(model))


@pytest.mark.parametrize(
    "elements,link",
    [
        ([task("t"), resource("r")], InternalLink("l", LinkKind.AND_REFINEMENT, "t", "r")),
        ([task("t"), task("u")], InternalLink("l", LinkKind.CONTRIBUTION, "t", "u", ContributionLabel.HELP)),
        ([task("t"), quality("q")], InternalLink("l", LinkKind.CONTRIBUTION, "t", "q", None)),
        ([task("t"), task("u")], InternalLink("l", LinkKind.QUALIFICATION, "t", "u")),
        ([task("t"), task("u")], InternalLink("l", LinkKind.NEEDED_BY, "t", "u")),
    ],
)
def test_link_kind_rules(elements, link):
    model = Model((actor("a", elements, [link]),))
    assert ("E_LINK_KIND", "l") in codes(validate(model))


def test_valid_link_kinds_pass():
    model = Model(
        (
            actor(
                "a",
                [goal("g"), task("t"), resource("r"), quality("q")],
                [
                    InternalLink("l1", LinkKind.AND_REFINEMENT, "t", "g"),
                    InternalLink("l2", LinkKind.CONTRIBUTION, "t", "q", ContributionLabel.MAKE),
                    InternalLink("l3", LinkKind.QUALIFICATION, "q", "t"),
                    InternalLink("l4", LinkKind.NEEDED_BY, "r", "t"),
                ],
            ),
        )
    )
    assert validate(model).errors == ()


def test_refinement_cycle_detected_once_per_actor():
    model = Model(
        (
            actor(
                "a",
                [goal("g1"), goal("g2"), goal("g3")],
                [
                    InternalLink("l1", LinkKind.AND_REFINEMENT, "g2", "g1"),
                    InternalLink("l2", LinkKind.AND_REFINEMENT, "g3", "g2"),
                    InternalLink("l3", LinkKind.AND_REFINEMENT, "g1", "g3"),
                ],
            ),
        )
    )
    found = [c for c in codes(validate(model)) if c[0] == "E_REFINE_CYCLE"]
    assert found == [("E_REFINE_CYCLE", "g1")]


def test_mixed_refinement_modes_rejected():
    model = Model(
        (
            actor(
                "a",
                [goal("g"), task("t1"), task("t2")],
                [
                    InternalLink("l1", LinkKind.AND_REFINEMENT, "t1", "g"),
                    InternalLink("l2", LinkKind.OR_REFINEMENT, "t2", "g"),
                ],
            ),
        )
    )
    assert ("E_REFINE_MIXED", "g") in codes(validate(model))


def test_actor_link_endpoints_must_be_distinct_actors():
    model = Model((actor("a"), actor("b", [task("t")])), actor_links=(ActorLink("al", ActorLinkKind.IS_A, "a", "a"),))
    assert ("E_LINK_KIND", "al") in codes(validate(model))
    model = Model((actor("a"),), actor_links=(ActorLink("al", ActorLinkKind.IS_A, "a", "t"),))
    assert ("E_REF_DANGLING", "al") in codes(validate(model))


def test_empty_names_warn():
    model = Model(
        (Actor("a", "", ActorKind.ACTOR, (Element("e", "", ElementKind.GOAL),), ()),),
        (Dependency("d", "", ElementKind.GOAL, "a", "b"),),
    )
    report = validate(model)
    warned = {(w.code, w.offending_id) for w in report.warnings}
    assert {("W_EMPTY_NAME", "a"), ("W_EMPTY_NAME", "e"), ("W_EMPTY_NAME", "d")} <= warned


def test_multi_parent_warns():
    model = Model(
        (
            actor(
                "a",
                [goal("g1"), goal("g2"), task("t")],
                [
                    InternalLink("l1", LinkKind.AND_REFINEMENT, "t", "g1"),
                    InternalLink("l2", LinkKind.AND_REFINEMENT, "t", "g2"),
                ],
            ),
        )
    )
    report = validate(model)
    assert ("W_MULTI_PARENT", "t") in {(w.code, w.offending_id) for w in report.warnings}
    assert report.errors == ()


def test_findings_sorted_and_repeatable():
    model = Model(
        (
            actor("zz", [task("zz-t")], [InternalLink("zl", LinkKind.AND_REFINEMENT, "nope", "zz-t")]),
            actor("aa", [task("aa-t")], [InternalLink("al", LinkKind.AND_REFINEMENT, "nope2", "aa-t")]),
        ),
        (Dependency("dd", "X", ElementKind.RESOURCE, "aa", "aa"),),
    )
    first = validate(model)
    second = validate(model)
    assert first == second
    keys = [(e.offending_id, e.code) for e in first.errors]
    assert keys == sorted(keys)


def test_generated_models_validate_clean():
    for seed in range(60):
        rng = random.Random(seed)
        model = helpers.make_random_model(rng)
        report = validate(model)
        assert report.errors == (), (seed, report.errors)


def test_cycle_reports_the_least_element_refining_into_it():
    """A chain of children refining into a cycle is left over by the peeling
    like the cycle itself, so the least of them all is reported, here the
    chain's first child, not a cycle member."""
    model = Model(
        (
            actor(
                "a",
                [goal("c1"), goal("c2"), goal("b"), task("a0"), task("z")],
                [
                    InternalLink("l1", LinkKind.AND_REFINEMENT, "c1", "c2"),
                    InternalLink("l2", LinkKind.AND_REFINEMENT, "c2", "c1"),
                    InternalLink("l3", LinkKind.AND_REFINEMENT, "b", "c1"),
                    InternalLink("l4", LinkKind.AND_REFINEMENT, "a0", "b"),
                    InternalLink("l5", LinkKind.AND_REFINEMENT, "z", "c2"),
                ],
            ),
        )
    )
    report = validate(model)
    assert [c for c in codes(report) if c[0] == "E_REFINE_CYCLE"] == [("E_REFINE_CYCLE", "a0")]
    assert report == helpers.validate_oracle(model)


def test_validate_agrees_with_its_oracle_on_hand_made_faults():
    models = [
        # Duplicate ids: actor, element, link and dependency ids colliding across kinds and actors.
        Model(
            (
                actor("a", [goal("g"), task("g")], [InternalLink("a", LinkKind.AND_REFINEMENT, "g", "g")]),
                actor("b", [goal("g")]),
            ),
            (Dependency("b", "X", ElementKind.RESOURCE, "a", "b"),),
        ),
        # Endpoints outside the actor: another actor's element and a missing one.
        Model(
            (
                actor("a", [goal("g")], [InternalLink("l1", LinkKind.AND_REFINEMENT, "t", "g")]),
                actor("b", [task("t")], [InternalLink("l2", LinkKind.NEEDED_BY, "nope", "t")]),
            )
        ),
        # Mixed And and Or refinement, and an element refining several parents.
        Model(
            (
                actor(
                    "a",
                    [goal("g"), goal("h"), task("t1"), task("t2")],
                    [
                        InternalLink("l1", LinkKind.AND_REFINEMENT, "t1", "g"),
                        InternalLink("l2", LinkKind.OR_REFINEMENT, "t2", "g"),
                        InternalLink("l3", LinkKind.OR_REFINEMENT, "t1", "h"),
                    ],
                ),
            )
        ),
        # Two actors, each with a cycle and chains into it, and a self-refinement.
        Model(
            tuple(
                actor(
                    name,
                    [goal(f"{name}1"), goal(f"{name}2"), task(f"{name}0"), task(f"{name}3")],
                    [
                        InternalLink(f"{name}l1", LinkKind.OR_REFINEMENT, f"{name}1", f"{name}2"),
                        InternalLink(f"{name}l2", LinkKind.OR_REFINEMENT, f"{name}2", f"{name}1"),
                        InternalLink(f"{name}l3", LinkKind.OR_REFINEMENT, f"{name}0", f"{name}3"),
                        InternalLink(f"{name}l4", LinkKind.OR_REFINEMENT, f"{name}3", f"{name}3"),
                    ],
                )
                for name in ("q", "p")
            )
        ),
    ]
    found = set()
    for model in models:
        report = validate(model)
        assert report == helpers.validate_oracle(model)
        found.update(i.code for i in report.errors + report.warnings)
    assert {"E_ID_DUP", "E_REF_DANGLING", "E_REFINE_MIXED", "W_MULTI_PARENT", "E_REFINE_CYCLE"} <= found


def test_validate_agrees_with_its_oracle_on_broken_random_models():
    found = set()
    for seed in range(400):
        rng = random.Random(seed)
        model = helpers.make_random_model(rng)
        assert validate(model) == helpers.validate_oracle(model), seed
        broken = helpers.break_model(model, rng)
        report = validate(broken)
        assert report == helpers.validate_oracle(broken), seed
        found.update(i.code for i in report.errors + report.warnings)
    assert set(found) == {
        "E_ID_DUP", "E_REF_DANGLING", "E_LINK_KIND", "E_REFINE_CYCLE", "E_REFINE_MIXED", "W_EMPTY_NAME",
        "W_MULTI_PARENT",
    }, found


def test_validate_agrees_with_its_oracle_on_mutated_fixtures(birth_path):
    text = birth_path.read_text(encoding="utf-8")
    checked = 0
    for seed in range(3000):
        doc = helpers.mutate_document(json.loads(text), random.Random(seed))
        result = parse_model(json.dumps(doc))
        if result.ok:
            assert validate(result.model) == helpers.validate_oracle(result.model), seed
            checked += 1
    assert checked > 500


def test_model_lookups(birth_model):
    assert birth_model.actor("Midwife").name == "Midwife"
    assert birth_model.actor("Stranger") is None
    assert birth_model.actor("Mother").element("mother-goal").kind is ElementKind.GOAL
    assert birth_model.actor("Mother").element("ghost") is None


# -- records ----------------------------------------------------------------

_TASK = Element("t", "Issue BND", ElementKind.TASK, {"note": "x"})
_ACTOR = Actor("A", "Midwife", ActorKind.AGENT, (_TASK,), (), {})
_ISSUE = ValidationIssue("E_ID_DUP", "x", "identifier 'x' is not unique")
_EVIDENCE = Evidence(EvidenceKind.VERB, "t")
_KEYS = generate_keypair(bytes(32))
_CREDENTIAL = Credential("urn:1", "BND", "did:sim:i", "did:sim:s", "did:sim:h", {"zone": "3"}, 4, b"sig")
_REGISTRY = TrustRegistry({("V", "BND"): frozenset({"did:sim:i"})})

# One record of every type: its fields in order, a change that ``replace``
# must apply, and a change its checks must reject (None if it has none).
RECORDS = [
    (Element, dict(id="e", name="Check BND", kind=ElementKind.TASK, annotations={"k": "v"}), {"name": "Verify"}, None),
    (
        InternalLink,
        dict(id="l", kind=LinkKind.CONTRIBUTION, source="a", target="b", contribution=ContributionLabel.HELP),
        {"contribution": ContributionLabel.HURT},
        None,
    ),
    (
        Actor,
        dict(id="A", name="Midwife", kind=ActorKind.AGENT, elements=(_TASK,), links=(), annotations={}),
        {"elements": [Element("u", "Check ID", ElementKind.TASK)]},
        None,
    ),
    (ActorLink, dict(id="al", kind=ActorLinkKind.IS_A, source="A", target="B"), {"target": "C"}, None),
    (
        Dependency,
        dict(
            id="d", name="BND", kind=ElementKind.RESOURCE, depender="A", dependee="B", depender_element=None,
            dependee_element="t", annotations={"ssi": "issue"},
        ),
        {"depender_element": "g", "annotations": {}},
        None,
    ),
    (Model, dict(actors=(_ACTOR,), dependencies=(), actor_links=(), metadata={"tool": "x"}), {"actors": []}, None),
    (ValidationIssue, dict(code="W_EMPTY_NAME", offending_id="x", message="m"), {"message": "n"}, None),
    (ValidationReport, dict(errors=(_ISSUE,), warnings=()), {"warnings": (_ISSUE,)}, None),
    (ParseError, dict(path="/actors/0", code="E_JSON", message="m"), {"code": "E_TYPE"}, None),
    (ParseResult, dict(model=Model(), errors=(), warnings=()), {"model": None}, None),
    (
        VerbLexicon,
        # One verb a set: a set's repr lists its items in an order that
        # varies with the string hash seed.
        dict(issue_verbs=frozenset({"draw up"}), provide_verbs=frozenset({"present"}), check_verbs=frozenset({"check"})),
        {"check_verbs": frozenset({"verify"})},
        {"check_verbs": frozenset({"draw up"})},
    ),
    (RoleAssignment, dict(actor="A", credential_type="BND", role=SsiRole.ISSUER, tasks=("t",)), {"role": SsiRole.HOLDER}, None),
    (Evidence, dict(kind=EvidenceKind.VERB, element="t"), {"element": None}, None),
    (
        CredentialFlow,
        dict(
            dependency="d", kind=FlowKind.ISSUANCE, credential_type="BND", sender="B", receiver="A",
            evidence=_EVIDENCE, copy_to=None, copy_task=None, require_copy=False, issue_task="t", gate_tasks=("g",),
            await_task="w", subject=None, check_tasks=(), verdict_task="v", purpose="p",
        ),
        {"subject": "child"},
        None,
    ),
    (
        TrustOverride,
        dict(verifier="V", credential_type="BND", issuer_did="did:sim:i", action="remove"),
        {"action": "add"},
        {"action": "acton"},
    ),
    (TrustRegistry, dict(accepted={("V", "BND"): frozenset({"did:sim:i"})}), {"accepted": {}}, None),
    (KeyPair, dict(public_key=_KEYS.public_key, signing_key=_KEYS.signing_key), {"public_key": b"\x01" * 32}, None),
    (
        Credential,
        dict(
            id="urn:1", type="BND", issuer="did:sim:i", subject="did:sim:s", holder="did:sim:h", claims={"zone": "3"},
            issued_at=4, signature=b"sig",
        ),
        {"claims": {"zone": "4"}},
        None,
    ),
    (
        Presentation,
        dict(credential=_CREDENTIAL, presenter="did:sim:h", nonce=bytes(16), holder_proof=b"proof"),
        {"nonce": b"\x01" * 16},
        None,
    ),
    (
        VerificationOutcome,
        dict(integrity=True, issuer_signature=True, subject_binding=False, issuer_trusted=True),
        {"subject_binding": True},
        None,
    ),
    (
        SimConfig,
        dict(
            seed=7, latency={("A", "B"): 2}, default_latency=1, drop_probability=0.25, max_retries=3,
            retry_timeout=10, max_ticks=100,
        ),
        {"seed": 8},
        {"drop_probability": 1.5},
    ),
    (BootstrapCredential, dict(credential_type="ID", issuer="B", holder="A"), {"holder": "C"}, None),
    (
        AgentSpec,
        dict(
            actor="A", did="did:sim:a", keys=_KEYS, wallet=(_CREDENTIAL,), verifies=(), issues=(), requests=(),
            trust=_REGISTRY, prelabeled=("t",),
        ),
        {"prelabeled": ()},
        None,
    ),
    (
        Message,
        dict(kind="ProofRequest", flow="d", from_actor="A", to_actor="B", payload=bytes(16)),
        {"payload": bytes(3)},
        None,
    ),
    (
        Trace,
        dict(
            config={"seed": 1}, event_lines=('{"kind":"Start","tick":0}',), final_labels={"g": "Satisfied"},
            termination="quiescence", final_tick=3,
        ),
        {"final_tick": 4},
        None,
    ),
]
# Left out of equality, hashing and repr.
HIDDEN = {"signing_key"}
# Records holding an Ed25519 private key, which does not pickle.
UNPICKLABLE = {KeyPair, AgentSpec}


def test_every_record_type_has_an_example():
    defined = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("ssiforge.")}
    assert defined == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, fields, change, bad", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_semantics(cls, fields, change, bad):
    record = cls(**fields)
    shown = {name: value for name, value in fields.items() if name not in HIDDEN}

    same = cls(**copy.deepcopy(fields))
    assert record == same and not record != same
    try:
        hash(tuple(shown.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)
    twin = type(cls.__name__, (cls,), {"__slots__": ()})
    assert record != twin(**fields) and twin(**fields) != record

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == same

    assert repr(record) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in shown.items())})"

    changed = record.replace(**change)
    expected = cls(**{**fields, **change})
    assert changed == expected != record
    for name in fields:
        assert getattr(changed, name) == getattr(expected if name in change else record, name)
    assert record == same
    if bad is not None:
        with pytest.raises(ValueError):
            record.replace(**bad)
    with pytest.raises(TypeError):
        record.replace(unknown=1)

    assert copy.deepcopy(record) == record
    if cls in UNPICKLABLE:
        with pytest.raises(TypeError, match="pickle"):
            pickle.dumps(record)
    else:
        assert pickle.loads(pickle.dumps(record)) == record


def test_default_mappings_are_not_shared():
    makers = [
        (lambda: Element("e", "n", ElementKind.TASK), "annotations"),
        (lambda: Actor("a", "A"), "annotations"),
        (lambda: Dependency("d", "n", ElementKind.RESOURCE, "a", "b"), "annotations"),
        (Model, "metadata"),
        (SimConfig, "latency"),
    ]
    for make, name in makers:
        first, second = getattr(make(), name), getattr(make(), name)
        assert first == {} and first is not second, name


def test_record_fields_come_from_annotations():
    class Sample(Record):
        first: int
        table: dict = {}
        last: str = "z"
        _derived: int

        def __post_init__(self):
            if self.first < 0:
                raise ValueError("first must be non-negative")
            object.__setattr__(self, "_derived", self.first * 2)

    assert Sample.__slots__ == ("first", "table", "last", "_derived")
    sample = Sample(3)
    assert (sample.first, sample.table, sample.last, sample._derived) == (3, {}, "z", 6)
    assert Sample(3, None).table == {} and Sample(3).table is not sample.table
    assert repr(Sample(1, {"k": 1}, last="y")) == "test_record_fields_come_from_annotations.<locals>.Sample(first=1, table={'k': 1}, last='y')"
    assert sample.replace(last="y") == Sample(3, {}, "y")
    with pytest.raises(ValueError):
        sample.replace(first=-1)
    with pytest.raises(TypeError):
        Sample(3, _derived=1)
    with pytest.raises(AttributeError):
        sample.other = 1

    with pytest.raises(TypeError, match="without a default"):

        class Misordered(Record):
            first: int = 0
            second: int
