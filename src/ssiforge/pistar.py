"""Read and write goal models in the piStar tool's JSON dialect, plus DOT export.

The accepted document shape is described in ``docs/format.md``.  Parsing is
total: it never raises on bad input, and instead accumulates
:class:`ParseError` records whose ``path`` is a JSON Pointer (RFC 6901)
into the document.  Error codes:

- ``E_JSON``: the document is not valid JSON, or nests too deeply to decode
  (single error at the root)
- ``E_VERSION``: missing or unsupported ``istar`` version marker
- ``E_UNKNOWN_TYPE``: a ``type`` or contribution ``label`` outside the dialect
- ``E_DANGLING``: an id reference that resolves to nothing (or to the wrong
  scope, e.g. an internal link spanning two actors)
- ``E_SCHEMA``: structurally malformed node (missing field, wrong JSON type)

Layout data (``diagram``, node coordinates) is dropped on parse, so
``serialize_model`` emits a canonical, layout-free document and
``parse_model(serialize_model(m))`` reconstructs ``m`` exactly.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterator

from .model import (
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
)

ISTAR_VERSION = "2.0"

_ACTOR_TYPES = {
    "istar.Actor": ActorKind.ACTOR,
    "istar.Agent": ActorKind.AGENT,
    "istar.Role": ActorKind.ROLE,
}
_ELEMENT_TYPES = {
    "istar.Goal": ElementKind.GOAL,
    "istar.Task": ElementKind.TASK,
    "istar.Resource": ElementKind.RESOURCE,
    "istar.Quality": ElementKind.QUALITY,
}
# Links between elements of one actor, then links between actors.
_LINK_TYPES = {
    "istar.AndRefinementLink": LinkKind.AND_REFINEMENT,
    "istar.OrRefinementLink": LinkKind.OR_REFINEMENT,
    "istar.ContributionLink": LinkKind.CONTRIBUTION,
    "istar.QualificationLink": LinkKind.QUALIFICATION,
    "istar.NeededByLink": LinkKind.NEEDED_BY,
    "istar.IsALink": ActorLinkKind.IS_A,
    "istar.ParticipatesInLink": ActorLinkKind.PARTICIPATES_IN,
}
_CONTRIBUTION_LABELS = {l.value: l for l in ContributionLabel}

_KNOWN_TOP_KEYS = {"actors", "dependencies", "links", "istar", "tool", "saveDate", "diagram"}
_METADATA_KEYS = ("tool", "saveDate")
# Each array of entries: its key; its nouns for an entry that is not an object and for an unknown
# type; its string fields, in the order of their errors, and how to read them with one ``get`` each
# (a missing ``text`` reads as ""); and the kinds of its types.
_NAMED = ("id", "text", "type"), lambda e: (e.get("id"), e.get("text", ""), e.get("type"))
_LINKED = ("id", "type", "source", "target"), lambda e: (e.get("id"), e.get("type"), e.get("source"), e.get("target"))
_ACTORS = ("actors", "actor", "actor", *_NAMED, _ACTOR_TYPES)
_NODES = ("nodes", "node", "element", *_NAMED, _ELEMENT_TYPES)
_LINKS = ("links", "link", "link", *_LINKED, _LINK_TYPES)
_DEPENDENCIES = (
    "dependencies", "dependency", "dependum", ("id", "text", "type", "source", "target"),
    lambda e: (e.get("id"), e.get("text", ""), e.get("type"), e.get("source"), e.get("target")), _ELEMENT_TYPES,
)


class ParseError(Record):
    path: str
    code: str
    message: str


class ParseResult(Record):
    model: Model | None
    errors: tuple[ParseError, ...] = ()
    warnings: tuple[ParseError, ...] = ()

    @property
    def ok(self) -> bool:
        return self.model is not None


def _token(key: str) -> str:
    """``key`` as one JSON Pointer reference token (RFC 6901)."""
    return key.replace("~", "~0").replace("/", "~1")


class _Reader:
    """The diagnostics of one document, and the checks that add to them.
    An entry's pointer is built only for a diagnostic."""

    def __init__(self) -> None:
        self.errors: list[ParseError] = []
        self.warnings: list[ParseError] = []

    def error(self, path: str, code: str, message: str) -> None:
        self.errors.append(ParseError(path, code, message))

    def result(self, model: Model | None = None) -> ParseResult:
        return ParseResult(model, tuple(self.errors), tuple(self.warnings))

    def entries(self, parent: dict, at: str, array: tuple) -> Iterator[tuple[int, dict, tuple, object]]:
        """Yield ``(i, entry, values, kind)`` for each object of ``array`` (see ``_ACTORS``) in ``parent``,
        at the pointer ``at``, whose fields hold the strings ``values`` and whose ``type`` has a ``kind``;
        each other entry gets an error for not being an object, each non-string field, or else its type."""
        key, noun, type_noun, fields, read, types = array
        at = f"{at}/{key}"
        entries = parent.get(key, [])
        if not isinstance(entries, list):
            self.error(at, "E_SCHEMA", f"{key} must be an array")
            return
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                self.error(f"{at}/{i}", "E_SCHEMA", f"{noun} must be an object")
                continue
            values = read(entry)
            for value in values:
                if not isinstance(value, str):
                    for field, bad in zip(fields, values):
                        if not isinstance(bad, str):
                            self.error(f"{at}/{i}/{field}", "E_SCHEMA", f"field {field!r} must be a string")
                    break
            else:  # every field is a string
                kind = types.get(entry["type"])
                if kind is None:
                    self.error(f"{at}/{i}/type", "E_UNKNOWN_TYPE", f"unknown {type_noun} type {entry['type']!r}")
                else:
                    yield i, entry, values, kind

    def dangling(self, refs: dict, source: str, target: str, expected: str, at: str, i: int) -> None:
        """Report each of an entry's ``source`` and ``target`` that ``refs`` lacks."""
        for field, ref in (("source", source), ("target", target)):
            if ref not in refs:
                self.error(f"{at}/{i}/{field}", "E_DANGLING", f"{ref!r} is {expected}")

    def properties(self, obj: dict, at: str, i: int) -> dict[str, str]:
        """The entry's ``customProperties`` object, after an error for each value that is not a string."""
        props = obj.get("customProperties", {})
        if not isinstance(props, dict):
            self.error(f"{at}/{i}/customProperties", "E_SCHEMA", "customProperties must be an object")
            return {}
        for key, value in props.items():
            if not isinstance(value, str):
                self.error(f"{at}/{i}/customProperties/{_token(key)}", "E_SCHEMA", "property values must be strings")
        return props


def parse_model(data: bytes | str) -> ParseResult:
    """Parse a piStar-dialect JSON document into a :class:`Model`.

    Returns a result whose ``model`` is None when any error was found.
    Duplicate identifiers are tolerated here and left to model validation.
    """
    r = _Reader()
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        r.error("", "E_JSON", f"not valid UTF-8: {exc}")
        return r.result()
    except (json.JSONDecodeError, RecursionError) as exc:
        r.error("", "E_JSON", f"not valid JSON: {exc}")
        return r.result()
    if not isinstance(doc, dict):
        r.error("", "E_SCHEMA", "top-level value must be an object")
        return r.result()

    for key in doc:
        if key not in _KNOWN_TOP_KEYS:
            r.warnings.append(ParseError(f"/{_token(key)}", "W_UNKNOWN_KEY", f"unknown top-level key {key!r} ignored"))
    if "istar" not in doc:
        r.error("", "E_VERSION", "missing 'istar' version marker")
    elif doc["istar"] != ISTAR_VERSION:
        r.error("/istar", "E_VERSION", f"unsupported version {doc['istar']!r}, expected {ISTAR_VERSION!r}")

    # Actors are built at the end, once their links are known.  ``links`` is
    # keyed by actor id, and the first actor to declare an element owns it.
    actors: list[tuple[str, str, ActorKind, tuple[Element, ...], dict[str, str]]] = []
    links: dict[str, list[InternalLink]] = {}
    owner: dict[str, str] = {}
    for i, raw, (actor_id, name, _), kind in r.entries(doc, "", _ACTORS):
        nodes_at = f"/actors/{i}/nodes"
        elements: list[Element] = []
        for j, node, (element_id, element_name, _), element_kind in r.entries(raw, f"/actors/{i}", _NODES):
            elements.append(Element(element_id, element_name, element_kind, r.properties(node, nodes_at, j)))
            owner.setdefault(element_id, actor_id)
        actors.append((actor_id, name, kind, tuple(elements), r.properties(raw, "/actors", i)))
        links.setdefault(actor_id, [])

    actor_links: list[ActorLink] = []
    for i, raw, (link_id, _, source, target), kind in r.entries(doc, "", _LINKS):
        between_actors = isinstance(kind, ActorLinkKind)
        refs = links if between_actors else owner
        src, dst = refs.get(source), refs.get(target)
        if src is None or dst is None:
            r.dangling(refs, source, target, "not an actor id" if between_actors else "not an element id", "/links", i)
            continue
        if between_actors:
            actor_links.append(ActorLink(link_id, kind, source, target))
            continue
        if src != dst:
            r.error(f"/links/{i}", "E_DANGLING", "link endpoints belong to different actors")
            continue
        contribution: ContributionLabel | None = None
        if kind is LinkKind.CONTRIBUTION:
            label = raw.get("label")
            if not isinstance(label, str):
                r.error(f"/links/{i}/label", "E_SCHEMA", "contribution link needs a string label")
                continue
            contribution = _CONTRIBUTION_LABELS.get(label.lower())
            if contribution is None:
                r.error(f"/links/{i}/label", "E_UNKNOWN_TYPE", f"unknown contribution label {label!r}")
                continue
        links[src].append(InternalLink(link_id, kind, source, target, contribution))

    # A dependency side is an actor id, or an element id inside that actor.
    sides: dict[str, tuple[str, str | None]] = {element: (actor, element) for element, actor in owner.items()}
    sides.update((actor, (actor, None)) for actor in links)
    dependencies: list[Dependency] = []
    for i, raw, (dep_id, name, _, source, target), kind in r.entries(doc, "", _DEPENDENCIES):
        # source names the dependee side, target the depender side.
        dependee, depender = sides.get(source), sides.get(target)
        if dependee is None or depender is None:
            r.dangling(sides, source, target, "neither an actor nor an element id", "/dependencies", i)
            continue
        ends = depender[0], dependee[0], depender[1], dependee[1]
        dependencies.append(Dependency(dep_id, name, kind, *ends, r.properties(raw, "/dependencies", i)))

    if r.errors:
        return r.result()
    return r.result(
        Model(
            actors=tuple(
                Actor(actor_id, name, kind, elements, tuple(links[actor_id]), annotations)
                for actor_id, name, kind, elements, annotations in actors
            ),
            dependencies=tuple(dependencies),
            actor_links=tuple(actor_links),
            metadata={k: doc[k] for k in _METADATA_KEYS if isinstance(doc.get(k), str)},
        )
    )


_ACTOR_TYPE_NAMES = {v: k for k, v in _ACTOR_TYPES.items()}
_ELEMENT_TYPE_NAMES = {v: k for k, v in _ELEMENT_TYPES.items()}
_LINK_TYPE_NAMES = {v: k for k, v in _LINK_TYPES.items()}


def serialize_model(model: Model) -> str:
    """Emit the canonical JSON document for a model.

    Output is deterministic (sorted keys, two-space indent, trailing newline)
    and layout-free.  Serializing the parse of a serialized model reproduces
    the same bytes.
    """
    links: list[dict] = []
    for link in chain(*(actor.links for actor in model.actors), model.actor_links):
        raw = {"id": link.id, "source": link.source, "target": link.target, "type": _LINK_TYPE_NAMES[link.kind]}
        if link.kind is LinkKind.CONTRIBUTION and link.contribution is not None:
            raw["label"] = link.contribution.value
        links.append(raw)

    doc = {
        "actors": [
            {
                "customProperties": dict(actor.annotations),
                "id": actor.id,
                "nodes": [
                    {
                        "customProperties": dict(elem.annotations),
                        "id": elem.id,
                        "text": elem.name,
                        "type": _ELEMENT_TYPE_NAMES[elem.kind],
                    }
                    for elem in actor.elements
                ],
                "text": actor.name,
                "type": _ACTOR_TYPE_NAMES[actor.kind],
            }
            for actor in model.actors
        ],
        "dependencies": [
            {
                "customProperties": dict(dep.annotations),
                "id": dep.id,
                "source": dep.dependee_element or dep.dependee,
                "target": dep.depender_element or dep.depender,
                "text": dep.name,
                "type": _ELEMENT_TYPE_NAMES[dep.kind],
            }
            for dep in model.dependencies
        ],
        "istar": ISTAR_VERSION,
        "links": links,
    }
    for key in _METADATA_KEYS:
        if key in model.metadata:
            doc[key] = model.metadata[key]
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_DEPENDUM_SHAPE = {
    ElementKind.GOAL: "ellipse",
    ElementKind.TASK: "hexagon",
    ElementKind.RESOURCE: "box",
    ElementKind.QUALITY: "diamond",
}

_LINK_EDGE_LABEL = {
    LinkKind.AND_REFINEMENT: "and",
    LinkKind.OR_REFINEMENT: "or",
    LinkKind.QUALIFICATION: "qualifies",
    LinkKind.NEEDED_BY: "needed-by",
}


def export_dot(model: Model, view: str) -> str:
    """Render the strategic dependency ("sd") or rationale ("sr") view as DOT.

    Node ids are model identifiers; display names go into labels.  The SD
    view routes each dependency depender -> dependum node -> dependee; the SR
    view clusters each actor's elements with their internal link edges.
    """
    if view == "sd":
        return _export_sd(model)
    if view == "sr":
        return _export_sr(model)
    raise ValueError(f"unknown view {view!r}, expected 'sd' or 'sr'")


def _export_sd(model: Model) -> str:
    lines = ["digraph sd {", "  rankdir=LR;"]
    for actor in model.actors:
        lines.append(f"  {_quote(actor.id)} [label={_quote(actor.name)},shape=circle];")
    for dep in model.dependencies:
        shape = _DEPENDUM_SHAPE[dep.kind]
        lines.append(f"  {_quote(dep.id)} [label={_quote(dep.name)},shape={shape},style=dashed];")
        lines.append(f"  {_quote(dep.depender)} -> {_quote(dep.id)};")
        lines.append(f"  {_quote(dep.id)} -> {_quote(dep.dependee)};")
    for link in model.actor_links:
        label = "is-a" if link.kind is ActorLinkKind.IS_A else "participates-in"
        lines.append(f"  {_quote(link.source)} -> {_quote(link.target)} [label={_quote(label)},style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_sr(model: Model) -> str:
    lines = ["digraph sr {", "  compound=true;"]
    for index, actor in enumerate(model.actors):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f"    label={_quote(actor.name)};")
        for elem in actor.elements:
            shape = _DEPENDUM_SHAPE[elem.kind]
            lines.append(f"    {_quote(elem.id)} [label={_quote(elem.name)},shape={shape}];")
        for link in actor.links:
            if link.kind is LinkKind.CONTRIBUTION:
                label = link.contribution.value if link.contribution else "contribution"
            else:
                label = _LINK_EDGE_LABEL[link.kind]
            lines.append(f"    {_quote(link.source)} -> {_quote(link.target)} [label={_quote(label)}];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
