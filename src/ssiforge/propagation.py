"""Qualitative satisfaction labels over a goal model.

Labels follow the usual five-valued qualitative scale.  Evaluation seeds
leaf elements from observed task outcomes, then repeatedly applies four
rules until nothing changes (bounded by the element count):

1. a seeded, unrefined element keeps its seeded label;
2. a refined element combines its children: And is Satisfied only when every
   child is, Denied as soon as one child is; Or is Satisfied as soon as one
   child is, Denied only when every child is;
3. a quality combines its incoming contributions: each contribution maps its
   source label through its polarity (make copies, break inverts, help
   weakens toward the same sign, hurt weakens toward the opposite sign);
   mixed signs are a conflict and give Unknown, otherwise the strongest
   candidate wins;
4. an element anchoring the depender side of dependencies copies the
   dependee-side labels: Denied if any is denied, Satisfied if all are
   satisfied.

The first applicable rule decides an element; anything untouched stays
Unknown.  The full table with worked cases lives in ``docs/goals.md``.
"""

from __future__ import annotations

import enum
from typing import Mapping

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


def combine_and(children: list[LabelState]) -> LabelState:
    if any(c is LabelState.DENIED for c in children):
        return LabelState.DENIED
    if children and all(c is LabelState.SATISFIED for c in children):
        return LabelState.SATISFIED
    return LabelState.UNKNOWN


def combine_or(children: list[LabelState]) -> LabelState:
    if any(c is LabelState.SATISFIED for c in children):
        return LabelState.SATISFIED
    if children and all(c is LabelState.DENIED for c in children):
        return LabelState.DENIED
    return LabelState.UNKNOWN


def combine_dependencies(sources: list[LabelState]) -> LabelState:
    if any(c is LabelState.DENIED for c in sources):
        return LabelState.DENIED
    if sources and all(c is LabelState.SATISFIED for c in sources):
        return LabelState.SATISFIED
    return LabelState.UNKNOWN


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


def evaluate_goals(
    model: Model,
    task_outcomes: Mapping[Identifier, LabelState],
) -> dict[Identifier, LabelState]:
    """Propagate observed outcomes through the model; pure and deterministic.

    Returns a label for every element of every actor.  Assumes a model that
    passed validation; contribution cycles are evaluated best-effort within
    the pass bound.
    """
    order: list[Identifier] = []
    refines: dict[Identifier, tuple[LinkKind, list[Identifier]]] = {}
    contributions: dict[Identifier, list[tuple[ContributionLabel, Identifier]]] = {}
    quality: set[Identifier] = set()
    for actor in model.actors:
        local = {e.id for e in actor.elements}
        for elem in actor.elements:
            order.append(elem.id)
            if elem.kind is ElementKind.QUALITY:
                quality.add(elem.id)
        for link in actor.links:
            if link.source not in local or link.target not in local:
                continue
            if link.kind in REFINEMENT_KINDS:
                mode, children = refines.setdefault(link.target, (link.kind, []))
                children.append(link.source)
            elif link.kind is LinkKind.CONTRIBUTION and link.contribution is not None:
                contributions.setdefault(link.target, []).append((link.contribution, link.source))

    dep_sources: dict[Identifier, list[Identifier]] = {}
    for dep in model.dependencies:
        if dep.depender_element is not None and dep.dependee_element is not None:
            dep_sources.setdefault(dep.depender_element, []).append(dep.dependee_element)

    labels: dict[Identifier, LabelState] = {e: LabelState.UNKNOWN for e in order}
    seeded = {
        e: task_outcomes[e]
        for e in order
        if e in task_outcomes and e not in refines
    }
    labels.update(seeded)

    for _ in range(len(order) + 2):
        changed = False
        for element in order:
            if element in seeded:
                continue
            if element in refines:
                mode, children = refines[element]
                child_labels = [labels[c] for c in children]
                new = combine_and(child_labels) if mode is LinkKind.AND_REFINEMENT else combine_or(child_labels)
            elif element in quality and element in contributions:
                new = combine_contributions(
                    [apply_contribution(pol, labels[src]) for pol, src in contributions[element]]
                )
            elif element in dep_sources:
                new = combine_dependencies([labels[s] for s in dep_sources[element]])
            else:
                continue
            if new is not labels[element]:
                labels[element] = new
                changed = True
        if not changed:
            break
    return labels
