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
from typing import Mapping, Sequence

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


def _store_tuples(record: Record, fields: tuple[str, ...]) -> None:
    """Store each of ``record``'s ``fields`` that is not a tuple as one."""
    for field in fields:
        if not isinstance(getattr(record, field), tuple):
            object.__setattr__(record, field, tuple(getattr(record, field)))


class _RecordType(type):
    """Turns a record class body's annotated names into its slots and fields.

    A name without a leading ``_`` is a field: an ``__init__`` parameter, in
    the order written, whose default is the value assigned to it in the body,
    if any; a default of ``{}`` gives each record its own new dict, also when
    the caller passes ``None``.  A name with a leading ``_`` holds derived
    state: it is no parameter and starts as ``None``.  The ``__init__``,
    compiled once per class, sets each slot through its member descriptor and
    then calls the class's ``__post_init__``, if it has one, to check and
    normalize the fields.
    """

    def __new__(mcls, name: str, bases: tuple, namespace: dict):
        own = tuple(namespace.get("__annotations__", ()))
        defaults = {slot: namespace.pop(slot) for slot in own if slot in namespace}
        namespace["__slots__"] = own
        cls = super().__new__(mcls, name, bases, namespace)
        cls._slots = getattr(cls, "_slots", ()) + own
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        cls._params = tuple(slot for slot in cls._slots if not slot.startswith("_"))
        cls._fields = tuple(slot for slot in cls._params if slot not in cls._hidden)
        cls.__init__ = mcls._compile_init(cls)
        return cls

    @staticmethod
    def _compile_init(cls: type):
        defaults, body, namespace = [], [], {}
        for i, slot in enumerate(cls._slots):
            value = slot
            if slot.startswith("_"):
                value = "None"
            elif slot in cls._defaults:
                default = cls._defaults[slot]
                if default == {}:
                    default, value = None, f"{{}} if {slot} is None else {slot}"
                defaults.append(default)
            elif defaults:
                raise TypeError(f"field {slot!r} without a default follows one with a default")
            # The slot's member descriptor sets it without the frozen ``__setattr__``.
            namespace[f"_set{i}"] = getattr(cls, slot).__set__
            body.append(f"_set{i}(self, {value})")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(cls._params)}):\n    " + "\n    ".join(body or ["pass"]), namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(defaults) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        return init


class Record(metaclass=_RecordType):
    """Base of the immutable records; see ``_RecordType`` for how a subclass
    declares its fields.

    Records of one class compare and hash by their fields in order, except
    the fields named in ``_hidden``, which the repr leaves out too.
    ``replace`` goes through ``__init__``, so a copy is checked and normalized
    like a new record.
    """

    _hidden = frozenset()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._params)

    def replace(self, **changes: object):
        """A copy of this record with the named fields changed."""
        return self.__class__(**{**{name: getattr(self, name) for name in self._params}, **changes})


class Element(Record):
    id: Identifier
    name: str
    kind: ElementKind
    annotations: Mapping[str, str] = {}


class InternalLink(Record):
    id: Identifier
    kind: LinkKind
    source: Identifier
    target: Identifier
    contribution: ContributionLabel | None = None


class Actor(Record):
    id: Identifier
    name: str
    kind: ActorKind = ActorKind.ACTOR
    elements: tuple[Element, ...] = ()
    links: tuple[InternalLink, ...] = ()
    annotations: Mapping[str, str] = {}

    def __post_init__(self) -> None:
        _store_tuples(self, ("elements", "links"))

    def element(self, element_id: Identifier) -> Element | None:  # the first of that id
        return next((e for e in self.elements if e.id == element_id), None)


class ActorLink(Record):
    id: Identifier
    kind: ActorLinkKind
    source: Identifier
    target: Identifier


class Dependency(Record):
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
    annotations: Mapping[str, str] = {}


class Model(Record):
    actors: tuple[Actor, ...] = ()
    dependencies: tuple[Dependency, ...] = ()
    actor_links: tuple[ActorLink, ...] = ()
    metadata: Mapping[str, str] = {}
    _goal_rules: tuple | None  # ``propagation.evaluate_goals``' rule list, built on its first call
    _overlay_names: object | None  # ``overlay._Names``: the names, office copies included, read on first use

    def __post_init__(self) -> None:
        _store_tuples(self, ("actors", "dependencies", "actor_links"))

    def actor(self, actor_id: Identifier) -> Actor | None:  # the first of that id
        return next((a for a in self.actors if a.id == actor_id), None)


class ValidationIssue(Record):
    code: str
    offending_id: Identifier
    message: str


class ValidationReport(Record):
    errors: tuple[ValidationIssue, ...] = ()
    warnings: tuple[ValidationIssue, ...] = ()


def validate(model: Model) -> ValidationReport:
    """Check structural rules; pure, never raises, deterministic output order.

    Findings are sorted by (offending id, code).  Running validate twice on
    the same model yields equal reports.  Each actor's links are read once.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []
    ids: list[Identifier] = []  # every identifier, for E_ID_DUP
    owned: dict[Identifier, dict[Identifier, Element]] = {}  # the element ids of the first actor of each id

    # Read once: on Python 3.11 an enum member read is a descriptor call.
    and_refinement, or_refinement = LinkKind.AND_REFINEMENT, LinkKind.OR_REFINEMENT
    contribution, qualification, needed_by = LinkKind.CONTRIBUTION, LinkKind.QUALIFICATION, LinkKind.NEEDED_BY
    goal, task, resource, quality = ElementKind.GOAL, ElementKind.TASK, ElementKind.RESOURCE, ElementKind.QUALITY
    for actor in model.actors:
        ids.append(actor.id)
        if not actor.name:
            warnings.append(ValidationIssue("W_EMPTY_NAME", actor.id, "actor has an empty name"))
        local: dict[Identifier, Element] = {}
        owned.setdefault(actor.id, local)
        for elem in actor.elements:
            ids.append(elem.id)
            local[elem.id] = elem
            if not elem.name:
                warnings.append(ValidationIssue("W_EMPTY_NAME", elem.id, "element has an empty name"))

        first_kinds: dict[Identifier, LinkKind] = {}  # each parent's first refinement kind
        mixed: dict[Identifier, None] = {}  # the parents refined by both kinds, in order
        children: dict[Identifier, list[Identifier]] = {}  # the refinement edges: child ids by parent
        parent_counts: dict[Identifier, int] = {}  # each child's number of refinement edges
        for link in actor.links:
            ids.append(link.id)
            src = local.get(link.source)
            dst = local.get(link.target)
            if src is None or dst is None:
                errors.append(ValidationIssue("E_REF_DANGLING", link.id, f"link endpoint outside actor {actor.id!r}"))
                continue
            kind = link.kind
            if kind is and_refinement or kind is or_refinement:
                if dst.kind is not goal and dst.kind is not task:
                    message = f"refinement target must be a goal or task, got {dst.kind.value}"
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, message))
                if first_kinds.setdefault(link.target, kind) is not kind:
                    mixed[link.target] = None
                children.setdefault(link.target, []).append(link.source)
                parent_counts[link.source] = parent_counts.get(link.source, 0) + 1
            elif kind is contribution:
                if dst.kind is not quality:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "contribution target must be a quality"))
                if link.contribution is None:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "contribution link carries no label"))
            elif kind is qualification:
                if src.kind is not quality:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "qualification source must be a quality"))
            elif kind is needed_by:
                if src.kind is not resource or dst.kind is not task:
                    errors.append(ValidationIssue("E_LINK_KIND", link.id, "needed-by joins a resource to a task"))

        for parent in mixed:
            errors.append(ValidationIssue("E_REFINE_MIXED", parent, "element mixes And and Or refinements"))
        for child, count in parent_counts.items():
            if count > 1:
                warnings.append(ValidationIssue("W_MULTI_PARENT", child, "element refines more than one parent"))

        cyclic = _refinement_cycle_members(children, parent_counts)
        if cyclic:
            errors.append(ValidationIssue("E_REFINE_CYCLE", min(cyclic), f"refinement cycle inside actor {actor.id!r}"))

    for dep in model.dependencies:
        ids.append(dep.id)
        if not dep.name:
            warnings.append(ValidationIssue("W_EMPTY_NAME", dep.id, "dependum has an empty name"))
        if dep.depender == dep.dependee:
            errors.append(ValidationIssue("E_DEP_SELF", dep.id, "actor depends on itself"))
        ends = ("depender", dep.depender, dep.depender_element), ("dependee", dep.dependee, dep.dependee_element)
        for side, actor_id, element_id in ends:
            elements = owned.get(actor_id)
            if elements is None:
                errors.append(ValidationIssue("E_REF_DANGLING", dep.id, f"{side} {actor_id!r} is not an actor"))
            elif element_id is not None and element_id not in elements:
                message = f"{side} element {element_id!r} not owned by {actor_id!r}"
                errors.append(ValidationIssue("E_REF_DANGLING", dep.id, message))

    for link in model.actor_links:
        ids.append(link.id)
        if link.source not in owned or link.target not in owned:
            errors.append(ValidationIssue("E_REF_DANGLING", link.id, "actor link endpoint is not an actor"))
        elif link.source == link.target:
            errors.append(ValidationIssue("E_LINK_KIND", link.id, "actor link endpoints must differ"))

    if len(set(ids)) < len(ids):  # every occurrence after an identifier's first is a duplicate
        seen: set[Identifier] = set()
        for node_id in ids:
            if node_id in seen:
                errors.append(ValidationIssue("E_ID_DUP", node_id, f"identifier {node_id!r} is not unique"))
            seen.add(node_id)

    errors.sort(key=lambda i: (i.offending_id, i.code))
    warnings.sort(key=lambda i: (i.offending_id, i.code))
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def _refinement_cycle_members(
    children: dict[Identifier, list[Identifier]], parent_counts: dict[Identifier, int]
) -> Sequence[Identifier]:
    """The elements left with refinement edges after peeling off, again and
    again, those that refine nothing: the members of refinement cycles and
    the chains of children refining into them.  The set does not depend on
    the peeling order.

    ``children`` are an actor's refinement edges between its own elements,
    child ids by parent; ``parent_counts`` each child's number of them.
    """
    queue = [parent for parent in children if parent not in parent_counts]
    if len(queue) == len(children):  # no parent refines anything, so every child peels off
        return ()
    left = dict(parent_counts)
    while queue:
        for child in children.get(queue.pop(), ()):
            left[child] -= 1
            if not left[child]:
                queue.append(child)
    return [element for element, count in left.items() if count]
