"""Qualitative satisfaction labels over a goal model.

Labels follow the usual five-valued qualitative scale.  Evaluation seeds
leaf elements from observed task outcomes, then sweeps the elements in
order, applying four rules in place, until a sweep changes nothing (at most
element count + 2 sweeps):

1. a seeded, unrefined element keeps its seeded label;
2. a refined element combines its children: And is Satisfied only when every
   child is, Denied as soon as one child is; Or is Satisfied as soon as one
   child is, Denied only when every child is;
3. a quality combines its incoming contributions: each contribution maps its
   source label through its polarity (make copies, break inverts, help
   weakens toward the same sign, hurt weakens toward the opposite sign);
   mixed signs are a conflict and give Unknown, otherwise the strongest
   candidate wins;
4. an element anchoring the depender side of dependencies combines the
   dependee-side labels like an And: Denied if any is denied, Satisfied if
   all are satisfied.

The first applicable rule decides an element, once, before the passes;
anything untouched stays Unknown.  The rule list depends only on the model,
so it is built once per model and each call only seeds and sweeps.  The
full table with worked cases lives in ``docs/goals.md``.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Mapping

from .model import (
    ContributionLabel,
    Element,
    ElementKind,
    Identifier,
    LinkKind,
    Model,
    REFINEMENT_KINDS,
)


class LabelState(enum.Enum):
    UNKNOWN = "Unknown"
    SATISFIED = "Satisfied"
    DENIED = "Denied"
    PARTIALLY_SATISFIED = "PartiallySatisfied"
    PARTIALLY_DENIED = "PartiallyDenied"


# Read once: on Python 3.11 a member read off its enum costs about four plain class attribute reads.
_UNKNOWN, _SATISFIED, _DENIED = LabelState.UNKNOWN, LabelState.SATISFIED, LabelState.DENIED
_POSITIVE = {LabelState.SATISFIED, LabelState.PARTIALLY_SATISFIED}
_NEGATIVE = {LabelState.DENIED, LabelState.PARTIALLY_DENIED}

_INVERT = {
    LabelState.SATISFIED: LabelState.DENIED,
    LabelState.DENIED: LabelState.SATISFIED,
    LabelState.PARTIALLY_SATISFIED: LabelState.PARTIALLY_DENIED,
    LabelState.PARTIALLY_DENIED: LabelState.PARTIALLY_SATISFIED,
    LabelState.UNKNOWN: LabelState.UNKNOWN,
}

_WEAKEN = {
    LabelState.SATISFIED: LabelState.PARTIALLY_SATISFIED,
    LabelState.PARTIALLY_SATISFIED: LabelState.PARTIALLY_SATISFIED,
    LabelState.DENIED: LabelState.PARTIALLY_DENIED,
    LabelState.PARTIALLY_DENIED: LabelState.PARTIALLY_DENIED,
    LabelState.UNKNOWN: LabelState.UNKNOWN,
}


def apply_contribution(polarity: ContributionLabel, label: LabelState) -> LabelState:
    if polarity is ContributionLabel.MAKE:
        return label
    if polarity is ContributionLabel.BREAK:
        return _INVERT[label]
    if polarity is ContributionLabel.HELP:
        return _WEAKEN[label]
    return _WEAKEN[_INVERT[label]]  # hurt


def combine_contributions(candidates: list[LabelState]) -> LabelState:
    known = [c for c in candidates if c is not LabelState.UNKNOWN]
    if not known:
        return LabelState.UNKNOWN
    if any(c in _POSITIVE for c in known) and any(c in _NEGATIVE for c in known):
        return LabelState.UNKNOWN
    if LabelState.SATISFIED in known:
        return LabelState.SATISFIED
    if LabelState.DENIED in known:
        return LabelState.DENIED
    return known[0]


def _contribute(polarities: tuple[ContributionLabel, ...], sources: list[LabelState]) -> LabelState:
    return combine_contributions([apply_contribution(p, label) for p, label in zip(polarities, sources)])


def combine_and(children: list[LabelState]) -> LabelState:
    if any(c is _DENIED for c in children):
        return _DENIED
    if children and all(c is _SATISFIED for c in children):
        return _SATISFIED
    return _UNKNOWN


def combine_or(children: list[LabelState]) -> LabelState:
    if any(c is _SATISFIED for c in children):
        return _SATISFIED
    if children and all(c is _DENIED for c in children):
        return _DENIED
    return _UNKNOWN


def root_goals(model: Model) -> tuple[tuple[Identifier, Element], ...]:
    """Goal elements at the top of each actor's refinement forest, in element order.

    A root is never the child (source) side of a refinement link inside its
    actor.  Root tasks and resources are excluded: they are means, and only
    goals decide whether a run counts as a success.
    """
    out: list[tuple[Identifier, Element]] = []
    for actor in model.actors:
        local = {e.id for e in actor.elements}
        refined = {
            l.source for l in actor.links if l.kind in REFINEMENT_KINDS and l.source in local and l.target in local
        }
        out.extend((actor.id, e) for e in actor.elements if e.kind is ElementKind.GOAL and e.id not in refined)
    return tuple(out)


def _rules_of(model: Model) -> tuple:
    """Each element's rule, decided once per model in element order: the
    combine function and the elements it reads.  Returns every element as
    Unknown, the elements a seed labels (all but refined ones, whose seeds
    are ignored), the rules and the pass bound."""
    order: list[Identifier] = []
    refines: dict[Identifier, tuple[LinkKind, list[Identifier]]] = {}
    contributions: dict[Identifier, list[tuple[ContributionLabel, Identifier]]] = {}
    quality: set[Identifier] = set()
    # Read once, and compared by identity: on Python 3.11 enum member reads and hashes are Python-level calls.
    and_refinement, or_refinement, contribution = LinkKind.AND_REFINEMENT, LinkKind.OR_REFINEMENT, LinkKind.CONTRIBUTION
    quality_kind = ElementKind.QUALITY
    for actor in model.actors:
        local = {e.id for e in actor.elements}
        for elem in actor.elements:
            order.append(elem.id)
            if elem.kind is quality_kind:
                quality.add(elem.id)
        for link in actor.links:
            if link.source not in local or link.target not in local:
                continue
            kind = link.kind
            if kind is and_refinement or kind is or_refinement:
                mode, children = refines.setdefault(link.target, (kind, []))
                children.append(link.source)
            elif kind is contribution and link.contribution is not None:
                contributions.setdefault(link.target, []).append((link.contribution, link.source))

    dep_sources: dict[Identifier, list[Identifier]] = {}
    for dep in model.dependencies:
        if dep.depender_element is not None and dep.dependee_element is not None:
            dep_sources.setdefault(dep.depender_element, []).append(dep.dependee_element)

    rules: list[tuple[Identifier, Callable[[list[LabelState]], LabelState], list[Identifier]]] = []
    for element in order:
        if element in refines:
            mode, children = refines[element]
            rules.append((element, combine_and if mode is and_refinement else combine_or, children))
        elif element in quality and element in contributions:
            polarities, sources = zip(*contributions[element])
            rules.append((element, partial(_contribute, polarities), list(sources)))
        elif element in dep_sources:
            rules.append((element, combine_and, dep_sources[element]))
    seedable = frozenset(e for e in order if e not in refines)
    return dict.fromkeys(order, _UNKNOWN), seedable, rules, len(order) + 2


def evaluate_goals(
    model: Model,
    task_outcomes: Mapping[Identifier, LabelState],
) -> dict[Identifier, LabelState]:
    """Propagate observed outcomes through the model; pure and deterministic.

    Returns a label for every element of every actor.  Assumes a model that
    passed validation; contribution cycles are evaluated best-effort within
    the pass bound.  The rule list is built on the first call for a model
    and kept in it.
    """
    if model._goal_rules is None:
        object.__setattr__(model, "_goal_rules", _rules_of(model))
    unknown, seedable, all_rules, passes = model._goal_rules
    # A seeded element keeps its label, so only the rules of unseeded elements enter the passes.
    seeded = {element: label for element, label in task_outcomes.items() if element in seedable}
    labels = {**unknown, **seeded}
    rules = [rule for rule in all_rules if rule[0] not in seeded]

    for _ in range(passes):
        changed = False
        for element, combine, sources in rules:
            new = combine([labels[s] for s in sources])
            if new is not labels[element]:
                labels[element] = new
                changed = True
        if not changed:
            break
    return labels
