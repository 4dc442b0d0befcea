import random

import pytest

import helpers
from helpers import D, PD, PS, S, U
from ssiforge.model import (
    Actor,
    ActorKind,
    ContributionLabel,
    Dependency,
    Element,
    ElementKind,
    InternalLink,
    LinkKind,
    Model,
    validate,
)
from ssiforge.propagation import (
    LabelState,
    apply_contribution,
    combine_and,
    combine_contributions,
    combine_or,
    evaluate_goals,
    root_goals,
)


@pytest.mark.parametrize(
    "polarity,source,expected",
    [
        (ContributionLabel.MAKE, S, S),
        (ContributionLabel.MAKE, PD, PD),
        (ContributionLabel.BREAK, S, D),
        (ContributionLabel.BREAK, PD, PS),
        (ContributionLabel.HELP, S, PS),
        (ContributionLabel.HELP, D, PD),
        (ContributionLabel.HELP, PS, PS),
        (ContributionLabel.HURT, S, PD),
        (ContributionLabel.HURT, D, PS),
        (ContributionLabel.HURT, U, U),
    ],
)
def test_contribution_algebra(polarity, source, expected):
    assert apply_contribution(polarity, source) is expected


def test_combine_contributions():
    assert combine_contributions([]) is U
    assert combine_contributions([U, U]) is U
    assert combine_contributions([PS, D]) is U  # sign conflict
    assert combine_contributions([PS, S]) is S
    assert combine_contributions([PD, D]) is D
    assert combine_contributions([PS, PS]) is PS
    assert combine_contributions([U, PD]) is PD


def test_combine_and():
    assert combine_and([]) is U
    assert combine_and([S, S]) is S
    assert combine_and([S, D]) is D
    assert combine_and([S, U]) is U
    assert combine_and([S, PS]) is U


def test_combine_or():
    assert combine_or([]) is U
    assert combine_or([D, S]) is S
    assert combine_or([D, D]) is D
    assert combine_or([D, U]) is U


def test_fixture_root_goals(birth_model):
    roots = root_goals(birth_model)
    assert [(actor, elem.id) for actor, elem in roots] == [
        ("Mother", "mother-goal"),
        ("Midwife", "midwife-goal"),
        ("Registrar", "registrar-goal"),
    ]


ALL_FIXTURE_TASKS = [
    "mother-obtain-bnd",
    "mother-present-id",
    "mother-present-bnd",
    "mother-obtain-cert",
    "midwife-check-id",
    "midwife-issue-bnd",
    "midwife-send-copy",
    "registrar-check-id",
    "registrar-check-bnd",
    "registrar-check-copy",
    "registrar-issue-cert",
    "agency-issue-id",
]


def test_all_tasks_satisfied_satisfies_every_goal(birth_model):
    labels = evaluate_goals(birth_model, {t: S for t in ALL_FIXTURE_TASKS})
    assert set(labels) == {e.id for a in birth_model.actors for e in a.elements}
    assert all(v is S for v in labels.values())


def test_registrar_goal_rests_on_its_three_checks(birth_model):
    outcomes = {"registrar-check-id": S, "registrar-check-bnd": S, "registrar-check-copy": S}
    labels = evaluate_goals(birth_model, outcomes)
    assert labels["registrar-goal"] is S
    # the unlinked issuing task stays out of the goal's refinement
    assert labels["registrar-issue-cert"] is U


def test_one_denied_check_denies_the_goal(birth_model):
    outcomes = {t: S for t in ALL_FIXTURE_TASKS}
    outcomes["registrar-check-bnd"] = D
    labels = evaluate_goals(birth_model, outcomes)
    assert labels["registrar-goal"] is D
    assert labels["mother-goal"] is S
    assert labels["midwife-goal"] is S


def test_dependency_copies_dependee_labels(birth_model):
    # mother-obtain-bnd and mother-obtain-cert are left unseeded and must be
    # filled in from the issuing tasks across the dependency.
    outcomes = {t: S for t in ALL_FIXTURE_TASKS if t not in ("mother-obtain-bnd", "mother-obtain-cert")}
    labels = evaluate_goals(birth_model, outcomes)
    assert labels["mother-obtain-bnd"] is S
    assert labels["mother-obtain-cert"] is S
    assert labels["mother-goal"] is S

    outcomes["midwife-issue-bnd"] = D
    labels = evaluate_goals(birth_model, outcomes)
    assert labels["mother-obtain-bnd"] is D
    assert labels["mother-goal"] is D


def _actor(aid, elements, links=()):
    return Actor(aid, aid, ActorKind.ACTOR, tuple(elements), tuple(links))


def _task(eid):
    return Element(eid, eid, ElementKind.TASK)


def _goal(eid):
    return Element(eid, eid, ElementKind.GOAL)


def test_root_goals_are_goals_never_refined_inside_their_actor():
    model = Model(
        (
            _actor(
                "a",
                [_goal("g1"), _goal("g2"), _goal("sub"), _task("t"), _task("top-task")],
                [
                    InternalLink("l1", LinkKind.AND_REFINEMENT, "t", "g1"),
                    InternalLink("l2", LinkKind.OR_REFINEMENT, "t", "g2"),
                    InternalLink("l3", LinkKind.AND_REFINEMENT, "sub", "g2"),
                    # A link whose parent is not in this actor leaves g1 a root.
                    InternalLink("l4", LinkKind.AND_REFINEMENT, "g1", "elsewhere"),
                    InternalLink("l5", LinkKind.CONTRIBUTION, "g2", "g1", ContributionLabel.HELP),
                ],
            ),
            _actor("b", [_goal("b-goal")]),
        )
    )
    assert [(actor, elem.id) for actor, elem in root_goals(model)] == [("a", "g1"), ("a", "g2"), ("b", "b-goal")]


@pytest.mark.parametrize("child_first", [True, False], ids=["child-first", "parent-first"])
def test_root_goals_of_a_deep_chain(child_first):
    ids = [f"g{i}" for i in range(5000)]
    elements = [_goal(eid) for eid in (ids if child_first else reversed(ids))]
    links = [InternalLink(f"l{i}", LinkKind.AND_REFINEMENT, ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    model = Model((_actor("a", elements, links),))
    assert [elem.id for _, elem in root_goals(model)] == ["g4999"]


def test_or_refinement_needs_one_satisfied_child():
    model = Model(
        (
            _actor(
                "a",
                [Element("g", "g", ElementKind.GOAL), _task("c1"), _task("c2")],
                [
                    InternalLink("l1", LinkKind.OR_REFINEMENT, "c1", "g"),
                    InternalLink("l2", LinkKind.OR_REFINEMENT, "c2", "g"),
                ],
            ),
        )
    )
    assert evaluate_goals(model, {"c1": D, "c2": S})["g"] is S
    assert evaluate_goals(model, {"c1": D, "c2": D})["g"] is D
    assert evaluate_goals(model, {"c1": D})["g"] is U


def test_quality_settles_from_contributions():
    model = Model(
        (
            _actor(
                "a",
                [Element("q", "q", ElementKind.QUALITY), _task("t1"), _task("t2")],
                [
                    InternalLink("l1", LinkKind.CONTRIBUTION, "t1", "q", ContributionLabel.HELP),
                    InternalLink("l2", LinkKind.CONTRIBUTION, "t2", "q", ContributionLabel.BREAK),
                ],
            ),
        )
    )
    assert evaluate_goals(model, {"t1": S, "t2": D})["q"] is S  # PS and S agree in sign
    assert evaluate_goals(model, {"t1": S, "t2": S})["q"] is U  # conflict
    assert evaluate_goals(model, {"t1": S})["q"] is PS


def test_seed_on_refined_element_is_ignored():
    model = Model(
        (
            _actor(
                "a",
                [Element("g", "g", ElementKind.GOAL), _task("c")],
                [InternalLink("l", LinkKind.AND_REFINEMENT, "c", "g")],
            ),
        )
    )
    labels = evaluate_goals(model, {"g": D, "c": S})
    assert labels["g"] is S


def test_multiple_dependencies_combine():
    model = Model(
        (
            _actor("a", [_task("x")]),
            _actor("b", [_task("y")]),
            _actor("c", [_task("z")]),
        ),
        (
            Dependency("d1", "Item", ElementKind.RESOURCE, "a", "b", "x", "y"),
            Dependency("d2", "Item", ElementKind.RESOURCE, "a", "c", "x", "z"),
        ),
    )
    assert evaluate_goals(model, {"y": S, "z": S})["x"] is S
    assert evaluate_goals(model, {"y": S, "z": D})["x"] is D
    assert evaluate_goals(model, {"y": S})["x"] is U


def _quality(eid):
    return Element(eid, eid, ElementKind.QUALITY)


def _contribution(lid, polarity, source, target):
    return InternalLink(lid, LinkKind.CONTRIBUTION, source, target, polarity)


def flipping_quality_cycle(extra_elements=()):
    """``s`` makes ``q1``, ``q1`` makes ``q2`` and ``q2`` breaks ``q1``: with
    ``s`` Satisfied, the two qualities flip between Satisfied and Unknown on
    every pass and never settle."""
    links = [
        _contribution("l1", ContributionLabel.MAKE, "s", "q1"),
        _contribution("l2", ContributionLabel.MAKE, "q1", "q2"),
        _contribution("l3", ContributionLabel.BREAK, "q2", "q1"),
    ]
    return Model((_actor("a", [_task("s"), _quality("q1"), _quality("q2"), *extra_elements], links),))


@pytest.mark.parametrize(
    "extra,expected",
    [((), S), ((_quality("unrelated"),), U)],
    ids=["3-elements", "4-elements"],
)
def test_contribution_cycle_ends_where_the_pass_bound_stops_it(extra, expected):
    # The labels never settle, so the element count + 2 pass bound decides
    # them: an odd number of passes ends on Satisfied, an even one on Unknown.
    model = flipping_quality_cycle(extra)
    assert validate(model).errors == ()
    labels = evaluate_goals(model, {"s": S})
    assert (labels["q1"], labels["q2"]) == (expected, expected)


def cross_actor_dependency_cycle():
    """a.ta depends on b.tb, b.tb depends on a.qa, and ta breaks qa while the
    seeded sa makes it: ta, qa and tb flip on every pass."""
    return Model(
        (
            _actor(
                "a",
                [_task("ta"), _quality("qa"), _task("sa")],
                [
                    _contribution("l1", ContributionLabel.BREAK, "ta", "qa"),
                    _contribution("l2", ContributionLabel.MAKE, "sa", "qa"),
                ],
            ),
            _actor("b", [_task("tb")]),
        ),
        (
            Dependency("d1", "Item", ElementKind.RESOURCE, "a", "b", "ta", "tb"),
            Dependency("d2", "Item", ElementKind.RESOURCE, "b", "a", "tb", "qa"),
        ),
    )


def test_cross_actor_dependency_cycle_ends_where_the_pass_bound_stops_it():
    model = cross_actor_dependency_cycle()
    assert validate(model).errors == ()
    assert evaluate_goals(model, {"sa": S}) == {"ta": S, "qa": U, "sa": S, "tb": U}
    assert evaluate_goals(model, {"sa": D}) == {"ta": D, "qa": U, "sa": D, "tb": U}


def test_one_model_keeps_one_rule_list_across_outcome_maps():
    """The rule list is built on a model's first evaluation and reused by
    the next ones: a sequence of outcome maps on one model gives the labels
    of a fresh copy, and of the oracle on acyclic models, also where seeds
    replace rules, and the non-settling cycles keep their pinned labels."""
    pinned = [
        (flipping_quality_cycle(), [({"s": S}, {"q1": S, "q2": S}), ({"s": D}, None), ({"s": S}, {"q1": S})]),
        (flipping_quality_cycle((_quality("unrelated"),)), [({"s": S}, {"q1": U, "q2": U}), ({"q1": S}, None)]),
        (cross_actor_dependency_cycle(), [({"sa": S}, {"ta": S, "qa": U, "tb": U}), ({"sa": D}, {"ta": D})]),
    ]
    for model, runs in pinned:
        assert model._goal_rules is None
        for outcomes, expected in runs:
            labels = evaluate_goals(model, outcomes)
            fresh = model.replace()
            assert fresh._goal_rules is None
            assert labels == evaluate_goals(fresh, outcomes)
            assert expected is None or {e: labels[e] for e in expected} == expected
        assert model._goal_rules is not None
    for seed in range(40):
        rng = random.Random(seed)
        model = helpers.make_random_model(rng)
        rules = None
        for outcomes in ({}, *(helpers.random_outcomes(rng, model) for _ in range(4))):
            labels = evaluate_goals(model, outcomes)
            rules = rules or model._goal_rules
            assert model._goal_rules is rules
            assert labels == evaluate_goals(model.replace(), outcomes) == helpers.label_oracle(model, outcomes), seed


def test_matches_brute_force_oracle_on_small_sample():
    for seed in range(50):
        rng = random.Random(seed)
        model = helpers.make_random_model(rng)
        outcomes = helpers.random_outcomes(rng, model)
        assert evaluate_goals(model, outcomes) == helpers.label_oracle(model, outcomes), seed


def test_label_values_are_spelled_for_traces():
    assert {l.value for l in LabelState} == {
        "Unknown", "Satisfied", "Denied", "PartiallySatisfied", "PartiallyDenied",
    }
