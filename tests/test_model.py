import random

import pytest

import helpers
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
    validate,
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


def test_model_lookups(birth_model):
    assert birth_model.actor("Midwife").name == "Midwife"
    assert birth_model.actor("Stranger") is None
    assert birth_model.actor("Mother").element("mother-goal").kind is ElementKind.GOAL
    assert birth_model.actor("Mother").element("ghost") is None
