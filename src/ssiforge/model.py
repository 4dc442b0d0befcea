"""Core iStar 2.0 goal model: actors, intentional elements, links, dependencies.

The types here are plain immutable values.  A :class:`Model` is a forest of
actors, each owning intentional elements (goals, tasks, resources, qualities)
wired together by internal links (refinement, contribution, qualification,
needed-by), plus cross-actor dependencies and actor links (is-a,
participates-in).

Structural well-formedness is checked by :func:`validate`, which never raises
on bad input; it returns a report of coded findings:

======canonical code====== ==============================================
E_ID_DUP                   identifier used more than once in the model
E_DEP_SELF                 dependency with depender == dependee
E_REF_DANGLING             reference to a missing or out-of-scope node
E_LINK_KIND                link endpoint kinds violate the link's rules
E_REFINE_CYCLE             refinement links form a cycle inside an actor
E_REFINE_MIXED             element refined by both And and Or links
W_EMPTY_NAME               actor, element, or dependum with an empty name
W_MULTI_PARENT             element that refines more than one parent
========================== ==============================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

Identifier = str


class ElementKind(enum.Enum):
    GOAL = "Goal"
    TASK = "Task"
    RESOURCE = "Resource"
    QUALITY = "Quality"


class ActorKind(enum.Enum):
    ACTOR = "Actor"
    AGENT = "Agent"
    ROLE = "Role"


class LinkKind(enum.Enum):
    AND_REFINEMENT = "AndRefinement"
    OR_REFINEMENT = "OrRefinement"
    CONTRIBUTION = "Contribution"
    QUALIFICATION = "Qualification"
    NEEDED_BY = "NeededBy"


class ContributionLabel(enum.Enum):
    MAKE = "make"
    HELP = "help"
    HURT = "hurt"
    BREAK = "break"


class ActorLinkKind(enum.Enum):
    IS_A = "IsA"
    PARTICIPATES_IN = "ParticipatesIn"


REFINEMENT_KINDS = frozenset({LinkKind.AND_REFINEMENT, LinkKind.OR_REFINEMENT})

# Allowed target kinds for a refinement link.
_REFINABLE = frozenset({ElementKind.GOAL, ElementKind.TASK})


class UnknownActorError(KeyError):
    """Raised when an operation names an actor id absent from the model."""


def _tuple(items: Iterable) -> tuple:
    return tuple(items) if not isinstance(items, tuple) else items


@dataclass(frozen=True)
class Element:
    id: Identifier
    name: str
    kind: ElementKind
    annotations: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class InternalLink:
    id: Identifier
    kind: LinkKind
    source: Identifier
    target: Identifier
    contribution: ContributionLabel | None = None


@dataclass(frozen=True)
class Actor:
    id: Identifier
    name: str
    kind: ActorKind = ActorKind.ACTOR
    elements: tuple[Element, ...] = ()
    links: tuple[InternalLink, ...] = ()
    annotations: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", _tuple(self.elements))
        object.__setattr__(self, "links", _tuple(self.links))
        # Element lookup by id; built in reverse so that the first of duplicate ids wins.
        object.__setattr__(self, "_elements_by_id", {e.id: e for e in reversed(self.elements)})

    def element(self, element_id: Identifier) -> Element | None:
        return self._elements_by_id.get(element_id)


@dataclass(frozen=True)
class ActorLink:
    id: Identifier
    kind: ActorLinkKind
    source: Identifier
    target: Identifier


@dataclass(frozen=True)
class Dependency:
    """A strategic dependency: depender relies on dependee for the dependum.

    The dependum is inlined as ``name``/``kind`` rather than referencing an
    element; the optional side elements anchor the dependency inside each
    actor's rationale.
    """

    id: Identifier
    name: str
    kind: ElementKind
    depender: Identifier
    dependee: Identifier
    depender_element: Identifier | None = None
    dependee_element: Identifier | None = None
    annotations: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Model:
    actors: tuple[Actor, ...] = ()
    dependencies: tuple[Dependency, ...] = ()
    actor_links: tuple[ActorLink, ...] = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "actors", _tuple(self.actors))
        object.__setattr__(self, "dependencies", _tuple(self.dependencies))
        object.__setattr__(self, "actor_links", _tuple(self.actor_links))
        # Actor lookup by id; built in reverse so that the first of duplicate ids wins.
        object.__setattr__(self, "_actors_by_id", {a.id: a for a in reversed(self.actors)})

    def actor(self, actor_id: Identifier) -> Actor | None:
        return self._actors_by_id.get(actor_id)

    def owner_of(self, element_id: Identifier) -> Actor | None:
        for actor in self.actors:
            if actor.element(element_id) is not None:
                return actor
        return None

    def replace_actor(self, actor: Actor) -> "Model":
        actors = tuple(actor if a.id == actor.id else a for a in self.actors)
        return replace(self, actors=actors)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    offending_id: Identifier
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...] = ()
    warnings: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _all_ids(model: Model) -> list[Identifier]:
    ids: list[Identifier] = []
    for actor in model.actors:
        ids.append(actor.id)
        ids.extend(e.id for e in actor.elements)
        ids.extend(l.id for l in actor.links)
    ids.extend(d.id for d in model.dependencies)
    ids.extend(l.id for l in model.actor_links)
    return ids


def validate(model: Model) -> ValidationReport:
    """Check structural rules; pure, never raises, deterministic output order.

    Findings are sorted by (offending id, code).  Running validate twice on
    the same model yields equal reports.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    seen: set[Identifier] = set()
    for node_id in _all_ids(model):
        if node_id in seen:
            errors.append(ValidationIssue("E_ID_DUP", node_id, f"identifier {node_id!r} is not unique"))
        seen.add(node_id)

    for actor in model.actors:
        if not actor.name:
            warnings.append(ValidationIssue("W_EMPTY_NAME", actor.id, "actor has an empty name"))
        local = {e.id: e for e in actor.elements}
        for elem in actor.elements:
            if not elem.name:
                warnings.append(ValidationIssue("W_EMPTY_NAME", elem.id, "element has an empty name"))

        refine_parents: dict[Identifier, set[LinkKind]] = {}
        child_parent_count: dict[Identifier, int] = {}
        for link in actor.links:
            src = local.get(link.source)
            dst = local.get(link.target)
            if src is None or dst is None:
                errors.append(
                    ValidationIssue(
                        "E_REF_DANGLING",
                        link.id,
                        f"link endpoint outside actor {actor.id!r}",
                    )
                )
                continue
            if link.kind in REFINEMENT_KINDS:
                if dst.kind not in _REFINABLE:
                    errors.append(
                        ValidationIssue("E_LINK_KIND", link.id, f"refinement target must be a goal or task, got {dst.kind.value}")
                    )
                refine_parents.setdefault(link.target, set()).add(link.kind)
                child_parent_count[link.source] = child_parent_count.get(link.source, 0) + 1
            elif link.kind is LinkKind.CONTRIBUTION:
                if dst.kind is not ElementKind.QUALITY:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "contribution target must be a quality"))
                if link.contribution is None:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "contribution link carries no label"))
            elif link.kind is LinkKind.QUALIFICATION:
                if src.kind is not ElementKind.QUALITY:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "qualification source must be a quality"))
            elif link.kind is LinkKind.NEEDED_BY:
                if src.kind is not ElementKind.RESOURCE or dst.kind is not ElementKind.TASK:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "needed-by joins a resource to a task"))

        for parent, kinds in refine_parents.items():
            if len(kinds) > 1:
                errors.append(ValidationIssue("E_REFINE_MIXED", parent, "element mixes And and Or refinements"))
        for child, count in child_parent_count.items():
            if count > 1:
                warnings.append(ValidationIssue("W_MULTI_PARENT", child, "element refines more than one parent"))

        cyclic = _refinement_cycle_members(actor)
        if cyclic:
            errors.append(
                ValidationIssue("E_REFINE_CYCLE", min(cyclic), f"refinement cycle inside actor {actor.id!r}")
            )

    for dep in model.dependencies:
        if not dep.name:
            warnings.append(ValidationIssue("W_EMPTY_NAME", dep.id, "dependum has an empty name"))
        if dep.depender == dep.dependee:
            errors.append(ValidationIssue("E_DEP_SELF", dep.id, "actor depends on itself"))
        for side, actor_id, element_id in (
            ("depender", dep.depender, dep.depender_element),
            ("dependee", dep.dependee, dep.dependee_element),
        ):
            actor = model.actor(actor_id)
            if actor is None:
                errors.append(ValidationIssue("E_REF_DANGLING", dep.id, f"{side} {actor_id!r} is not an actor"))
            elif element_id is not None and actor.element(element_id) is None:
                errors.append(
                    ValidationIssue("E_REF_DANGLING", dep.id, f"{side} element {element_id!r} not owned by {actor_id!r}")
                )

    for link in model.actor_links:
        if model.actor(link.source) is None or model.actor(link.target) is None:
            errors.append(ValidationIssue("E_REF_DANGLING", link.id, "actor link endpoint is not an actor"))
        elif link.source == link.target:
            errors.append(ValidationIssue("E_LINK_KIND", link.id, "actor link endpoints must differ"))

    errors.sort(key=lambda i: (i.offending_id, i.code))
    warnings.sort(key=lambda i: (i.offending_id, i.code))
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def _refinement_cycle_members(actor: Actor) -> set[Identifier]:
    """Elements left with unresolved refinement edges after peeling leaves."""
    local = {e.id for e in actor.elements}
    edges = [
        (l.source, l.target)
        for l in actor.links
        if l.kind in REFINEMENT_KINDS and l.source in local and l.target in local
    ]
    outdeg: dict[Identifier, int] = {e: 0 for e in local}
    incoming: dict[Identifier, list[Identifier]] = {e: [] for e in local}
    for src, dst in edges:
        outdeg[src] += 1
        incoming[src]  # keep key
        incoming[dst].append(src)
    queue = [e for e in sorted(local) if outdeg[e] == 0]
    removed: set[Identifier] = set()
    while queue:
        node = queue.pop()
        removed.add(node)
        for src in incoming[node]:
            outdeg[src] -= 1
            if outdeg[src] == 0 and src not in removed:
                queue.append(src)
    participants = {e for e in local if e not in removed and outdeg[e] > 0}
    return participants


@dataclass(frozen=True)
class ActorDependencies:
    as_depender: tuple[Dependency, ...] = ()
    as_dependee: tuple[Dependency, ...] = ()


def dependencies_of(model: Model, actor_id: Identifier) -> ActorDependencies:
    """Partition the model's dependencies around one actor, in model order."""
    if model.actor(actor_id) is None:
        raise UnknownActorError(actor_id)
    as_depender = tuple(d for d in model.dependencies if d.depender == actor_id)
    as_dependee = tuple(d for d in model.dependencies if d.dependee == actor_id)
    return ActorDependencies(as_depender=as_depender, as_dependee=as_dependee)
