"""Read and write goal models in the piStar tool's JSON dialect, plus DOT export.

The accepted document shape is described in ``docs/format.md``.  Parsing is
total: it never raises on bad input, and instead accumulates
:class:`ParseError` records whose ``path`` is a JSON Pointer into the
document.  Error codes:

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
_INTERNAL_LINK_TYPES = {
    "istar.AndRefinementLink": LinkKind.AND_REFINEMENT,
    "istar.OrRefinementLink": LinkKind.OR_REFINEMENT,
    "istar.ContributionLink": LinkKind.CONTRIBUTION,
    "istar.QualificationLink": LinkKind.QUALIFICATION,
    "istar.NeededByLink": LinkKind.NEEDED_BY,
}
_ACTOR_LINK_TYPES = {
    "istar.IsALink": ActorLinkKind.IS_A,
    "istar.ParticipatesInLink": ActorLinkKind.PARTICIPATES_IN,
}
_CONTRIBUTION_LABELS = {l.value: l for l in ContributionLabel}

_KNOWN_TOP_KEYS = {"actors", "dependencies", "links", "istar", "tool", "saveDate", "diagram"}
_METADATA_KEYS = ("tool", "saveDate")


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


class _Collector:
    def __init__(self) -> None:
        self.errors: list[ParseError] = []
        self.warnings: list[ParseError] = []

    def error(self, path: str, code: str, message: str) -> None:
        self.errors.append(ParseError(path, code, message))

    def warn(self, path: str, code: str, message: str) -> None:
        self.warnings.append(ParseError(path, code, message))


def _str_field(obj: dict, key: str, path: str, out: _Collector, default: str | None = None) -> str | None:
    value = obj.get(key, default)
    if not isinstance(value, str):
        out.error(f"{path}/{key}", "E_SCHEMA", f"field {key!r} must be a string")
        return None
    return value


def _properties(obj: dict, path: str, out: _Collector) -> dict[str, str]:
    raw = obj.get("customProperties", {})
    if not isinstance(raw, dict):
        out.error(f"{path}/customProperties", "E_SCHEMA", "customProperties must be an object")
        return {}
    props: dict[str, str] = {}
    for key, value in raw.items():
        if not isinstance(value, str):
            out.error(f"{path}/customProperties/{key}", "E_SCHEMA", "property values must be strings")
            continue
        props[key] = value
    return props


def parse_model(data: bytes | str) -> ParseResult:
    """Parse a piStar-dialect JSON document into a :class:`Model`.

    Returns a result whose ``model`` is None when any error was found.
    Duplicate identifiers are tolerated here and left to model validation.
    """
    out = _Collector()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            out.error("", "E_JSON", f"not valid UTF-8: {exc}")
            return ParseResult(None, tuple(out.errors), tuple(out.warnings))
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        out.error("", "E_JSON", f"not valid JSON: {exc}")
        return ParseResult(None, tuple(out.errors), tuple(out.warnings))
    if not isinstance(doc, dict):
        out.error("", "E_SCHEMA", "top-level value must be an object")
        return ParseResult(None, tuple(out.errors), tuple(out.warnings))

    for key in doc:
        if key not in _KNOWN_TOP_KEYS:
            out.warn(f"/{key}", "W_UNKNOWN_KEY", f"unknown top-level key {key!r} ignored")

    if "istar" not in doc:
        out.error("", "E_VERSION", "missing 'istar' version marker")
    elif doc["istar"] != ISTAR_VERSION:
        out.error("/istar", "E_VERSION", f"unsupported version {doc['istar']!r}, expected {ISTAR_VERSION!r}")

    actors: list[Actor] = []
    element_owner: dict[str, str] = {}
    actor_ids: set[str] = set()
    raw_actors = doc.get("actors", [])
    if not isinstance(raw_actors, list):
        out.error("/actors", "E_SCHEMA", "actors must be an array")
        raw_actors = []
    for i, raw_actor in enumerate(raw_actors):
        path = f"/actors/{i}"
        if not isinstance(raw_actor, dict):
            out.error(path, "E_SCHEMA", "actor must be an object")
            continue
        actor_id = _str_field(raw_actor, "id", path, out)
        name = _str_field(raw_actor, "text", path, out, default="")
        type_name = _str_field(raw_actor, "type", path, out)
        if actor_id is None or name is None or type_name is None:
            continue
        kind = _ACTOR_TYPES.get(type_name)
        if kind is None:
            out.error(f"{path}/type", "E_UNKNOWN_TYPE", f"unknown actor type {type_name!r}")
            continue
        elements: list[Element] = []
        raw_nodes = raw_actor.get("nodes", [])
        if not isinstance(raw_nodes, list):
            out.error(f"{path}/nodes", "E_SCHEMA", "nodes must be an array")
            raw_nodes = []
        for j, raw_node in enumerate(raw_nodes):
            node_path = f"{path}/nodes/{j}"
            if not isinstance(raw_node, dict):
                out.error(node_path, "E_SCHEMA", "node must be an object")
                continue
            node_id = _str_field(raw_node, "id", node_path, out)
            node_name = _str_field(raw_node, "text", node_path, out, default="")
            node_type = _str_field(raw_node, "type", node_path, out)
            if node_id is None or node_name is None or node_type is None:
                continue
            node_kind = _ELEMENT_TYPES.get(node_type)
            if node_kind is None:
                out.error(f"{node_path}/type", "E_UNKNOWN_TYPE", f"unknown element type {node_type!r}")
                continue
            elements.append(Element(node_id, node_name, node_kind, _properties(raw_node, node_path, out)))
            element_owner.setdefault(node_id, actor_id)
        actors.append(Actor(actor_id, name, kind, tuple(elements), (), _properties(raw_actor, path, out)))
        actor_ids.add(actor_id)

    internal_links: dict[str, list[InternalLink]] = {a.id: [] for a in actors}
    actor_links: list[ActorLink] = []
    raw_links = doc.get("links", [])
    if not isinstance(raw_links, list):
        out.error("/links", "E_SCHEMA", "links must be an array")
        raw_links = []
    for i, raw_link in enumerate(raw_links):
        path = f"/links/{i}"
        if not isinstance(raw_link, dict):
            out.error(path, "E_SCHEMA", "link must be an object")
            continue
        link_id = _str_field(raw_link, "id", path, out)
        type_name = _str_field(raw_link, "type", path, out)
        source = _str_field(raw_link, "source", path, out)
        target = _str_field(raw_link, "target", path, out)
        if link_id is None or type_name is None or source is None or target is None:
            continue
        if type_name in _ACTOR_LINK_TYPES:
            if source not in actor_ids:
                out.error(f"{path}/source", "E_DANGLING", f"{source!r} is not an actor id")
                continue
            if target not in actor_ids:
                out.error(f"{path}/target", "E_DANGLING", f"{target!r} is not an actor id")
                continue
            actor_links.append(ActorLink(link_id, _ACTOR_LINK_TYPES[type_name], source, target))
            continue
        kind = _INTERNAL_LINK_TYPES.get(type_name)
        if kind is None:
            out.error(f"{path}/type", "E_UNKNOWN_TYPE", f"unknown link type {type_name!r}")
            continue
        src_owner = element_owner.get(source)
        dst_owner = element_owner.get(target)
        if src_owner is None:
            out.error(f"{path}/source", "E_DANGLING", f"{source!r} is not an element id")
            continue
        if dst_owner is None:
            out.error(f"{path}/target", "E_DANGLING", f"{target!r} is not an element id")
            continue
        if src_owner != dst_owner:
            out.error(path, "E_DANGLING", "link endpoints belong to different actors")
            continue
        contribution: ContributionLabel | None = None
        if kind is LinkKind.CONTRIBUTION:
            raw_label = raw_link.get("label")
            if not isinstance(raw_label, str):
                out.error(f"{path}/label", "E_SCHEMA", "contribution link needs a string label")
                continue
            contribution = _CONTRIBUTION_LABELS.get(raw_label.lower())
            if contribution is None:
                out.error(f"{path}/label", "E_UNKNOWN_TYPE", f"unknown contribution label {raw_label!r}")
                continue
        internal_links[src_owner].append(InternalLink(link_id, kind, source, target, contribution))

    dependencies: list[Dependency] = []
    raw_deps = doc.get("dependencies", [])
    if not isinstance(raw_deps, list):
        out.error("/dependencies", "E_SCHEMA", "dependencies must be an array")
        raw_deps = []
    for i, raw_dep in enumerate(raw_deps):
        path = f"/dependencies/{i}"
        if not isinstance(raw_dep, dict):
            out.error(path, "E_SCHEMA", "dependency must be an object")
            continue
        dep_id = _str_field(raw_dep, "id", path, out)
        name = _str_field(raw_dep, "text", path, out, default="")
        type_name = _str_field(raw_dep, "type", path, out)
        source = _str_field(raw_dep, "source", path, out)
        target = _str_field(raw_dep, "target", path, out)
        if dep_id is None or name is None or type_name is None or source is None or target is None:
            continue
        kind = _ELEMENT_TYPES.get(type_name)
        if kind is None:
            out.error(f"{path}/type", "E_UNKNOWN_TYPE", f"unknown dependum type {type_name!r}")
            continue

        # source names the dependee side, target the depender side; either may
        # be an actor id or an element id inside that actor.
        def _resolve(ref: str, field: str) -> tuple[str, str | None] | None:
            if ref in actor_ids:
                return ref, None
            owner = element_owner.get(ref)
            if owner is None:
                out.error(f"{path}/{field}", "E_DANGLING", f"{ref!r} is neither an actor nor an element id")
                return None
            return owner, ref

        dependee = _resolve(source, "source")
        depender = _resolve(target, "target")
        if dependee is None or depender is None:
            continue
        dependencies.append(
            Dependency(
                id=dep_id,
                name=name,
                kind=kind,
                depender=depender[0],
                dependee=dependee[0],
                depender_element=depender[1],
                dependee_element=dependee[1],
                annotations=_properties(raw_dep, path, out),
            )
        )

    if out.errors:
        return ParseResult(None, tuple(out.errors), tuple(out.warnings))

    metadata = {k: doc[k] for k in _METADATA_KEYS if isinstance(doc.get(k), str)}
    model = Model(
        actors=tuple(
            Actor(a.id, a.name, a.kind, a.elements, tuple(internal_links[a.id]), a.annotations) for a in actors
        ),
        dependencies=tuple(dependencies),
        actor_links=tuple(actor_links),
        metadata=metadata,
    )
    return ParseResult(model, (), tuple(out.warnings))


_ACTOR_TYPE_NAMES = {v: k for k, v in _ACTOR_TYPES.items()}
_ELEMENT_TYPE_NAMES = {v: k for k, v in _ELEMENT_TYPES.items()}
_INTERNAL_LINK_TYPE_NAMES = {v: k for k, v in _INTERNAL_LINK_TYPES.items()}
_ACTOR_LINK_TYPE_NAMES = {v: k for k, v in _ACTOR_LINK_TYPES.items()}


def serialize_model(model: Model) -> str:
    """Emit the canonical JSON document for a model.

    Output is deterministic (sorted keys, two-space indent, trailing newline)
    and layout-free.  Serializing the parse of a serialized model reproduces
    the same bytes.
    """
    links: list[dict] = []
    for actor in model.actors:
        for link in actor.links:
            raw: dict = {
                "id": link.id,
                "source": link.source,
                "target": link.target,
                "type": _INTERNAL_LINK_TYPE_NAMES[link.kind],
            }
            if link.kind is LinkKind.CONTRIBUTION and link.contribution is not None:
                raw["label"] = link.contribution.value
            links.append(raw)
    for actor_link in model.actor_links:
        links.append(
            {
                "id": actor_link.id,
                "source": actor_link.source,
                "target": actor_link.target,
                "type": _ACTOR_LINK_TYPE_NAMES[actor_link.kind],
            }
        )

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
