"""Shared test machinery: an independent propagation oracle, a reference
``validate``, a random model generator and a breaker of its models, DOT
scanners, single-bit mutators, a fixture variant with needed-by links, a
runner for the CLI, a mutator of piStar documents, and a reference
presentation check.

The oracle deliberately recomputes every label from the previous full
assignment (Jacobi style) while the library updates in place, so agreement
between the two is meaningful.  The generator only wires elements so that
every label reads from strictly later elements, which keeps the dataflow
acyclic and the fixpoint unique.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import random
import re
from pathlib import Path

from ssiforge.cli import main
from ssiforge.credentials import VerificationOutcome, canonical_bytes, decode_did, proof_message, verify_signature
from ssiforge.model import (
    Actor,
    ActorKind,
    ActorLink,
    ActorLinkKind,
    ContributionLabel,
    Dependency,
    Element,
    ElementKind,
    Identifier,
    InternalLink,
    LinkKind,
    Model,
    REFINEMENT_KINDS,
    ValidationIssue,
    ValidationReport,
)
from ssiforge.pistar import parse_model
from ssiforge.propagation import LabelState

U = LabelState.UNKNOWN
S = LabelState.SATISFIED
D = LabelState.DENIED
PS = LabelState.PARTIALLY_SATISFIED
PD = LabelState.PARTIALLY_DENIED

_FLIP = {S: D, D: S, PS: PD, PD: PS, U: U}
_SOFT = {S: PS, PS: PS, D: PD, PD: PD, U: U}


def _through(polarity: ContributionLabel, label: LabelState) -> LabelState:
    if polarity is ContributionLabel.MAKE:
        return label
    if polarity is ContributionLabel.BREAK:
        return _FLIP[label]
    if polarity is ContributionLabel.HELP:
        return _SOFT[label]
    return _SOFT[_FLIP[label]]


def label_oracle(model: Model, outcomes: dict) -> dict:
    """Brute-force label assignment: iterate a frozen snapshot to fixpoint."""
    order: list[str] = []
    parents: dict[str, tuple[LinkKind, list[str]]] = {}
    contribs: dict[str, list[tuple[ContributionLabel, str]]] = {}
    qualities: set[str] = set()
    dep_in: dict[str, list[str]] = {}
    for actor in model.actors:
        local = {e.id for e in actor.elements}
        for elem in actor.elements:
            order.append(elem.id)
            if elem.kind is ElementKind.QUALITY:
                qualities.add(elem.id)
        for link in actor.links:
            if link.source not in local or link.target not in local:
                continue
            if link.kind in REFINEMENT_KINDS:
                parents.setdefault(link.target, (link.kind, ()))
                mode, kids = parents[link.target]
                parents[link.target] = (mode, (*kids, link.source))
            elif link.kind is LinkKind.CONTRIBUTION and link.contribution is not None:
                contribs.setdefault(link.target, []).append((link.contribution, link.source))
    for dep in model.dependencies:
        if dep.depender_element is not None and dep.dependee_element is not None:
            dep_in.setdefault(dep.depender_element, []).append(dep.dependee_element)

    seeds = {e: outcomes[e] for e in order if e in outcomes and e not in parents}
    state = {e: seeds.get(e, U) for e in order}
    for _ in range(4 * len(order) + 8):
        nxt: dict[str, LabelState] = {}
        for e in order:
            if e in seeds:
                nxt[e] = seeds[e]
            elif e in parents:
                mode, kids = parents[e]
                vals = [state[k] for k in kids]
                if mode is LinkKind.AND_REFINEMENT:
                    nxt[e] = D if D in vals else (S if vals and all(v is S for v in vals) else U)
                else:
                    nxt[e] = S if S in vals else (D if vals and all(v is D for v in vals) else U)
            elif e in qualities and e in contribs:
                vals = [_through(pol, state[src]) for pol, src in contribs[e]]
                known = [v for v in vals if v is not U]
                positive = any(v in (S, PS) for v in known)
                negative = any(v in (D, PD) for v in known)
                if not known or (positive and negative):
                    nxt[e] = U
                elif S in known:
                    nxt[e] = S
                elif D in known:
                    nxt[e] = D
                else:
                    nxt[e] = known[0]
            elif e in dep_in:
                vals = [state[s] for s in dep_in[e]]
                nxt[e] = D if D in vals else (S if vals and all(v is S for v in vals) else U)
            else:
                nxt[e] = U
        if nxt == state:
            break
        state = nxt
    return state


_GEN_KINDS = (
    ElementKind.GOAL,
    ElementKind.TASK,
    ElementKind.TASK,
    ElementKind.RESOURCE,
    ElementKind.QUALITY,
)


def make_random_model(rng: random.Random, max_elements: int = 10) -> Model:
    """A small validate-clean model with acyclic label dataflow.

    Refinement parents, contribution targets, and dependers always read from
    elements created after them, so the propagation fixpoint is unique.
    """
    n_actors = rng.randint(1, 3)
    budget = rng.randint(n_actors, max_elements)
    counts = [1] * n_actors
    for _ in range(budget - n_actors):
        counts[rng.randrange(n_actors)] += 1

    link_no = 0
    eidx = 0
    actors: list[Actor] = []
    for ai in range(n_actors):
        elements: list[Element] = []
        links: list[InternalLink] = []
        parent_mode: dict[str, LinkKind] = {}
        for _ in range(counts[ai]):
            kind = rng.choice(_GEN_KINDS)
            note = {"note": f"n{eidx}"} if rng.random() < 0.2 else {}
            elem = Element(f"e{eidx}", f"Node {eidx}", kind, note)
            eidx += 1
            refinable = [p for p in elements if p.kind in (ElementKind.GOAL, ElementKind.TASK)]
            if refinable and rng.random() < 0.6:
                parent = rng.choice(refinable)
                mode = parent_mode.setdefault(
                    parent.id, rng.choice((LinkKind.AND_REFINEMENT, LinkKind.OR_REFINEMENT))
                )
                links.append(InternalLink(f"l{link_no}", mode, elem.id, parent.id))
                link_no += 1
            elements.append(elem)
        for j, elem in enumerate(elements):
            if elem.kind is not ElementKind.QUALITY:
                continue
            later = elements[j + 1:]
            for src in rng.sample(later, min(len(later), rng.randint(0, 2))):
                links.append(
                    InternalLink(
                        f"l{link_no}",
                        LinkKind.CONTRIBUTION,
                        src.id,
                        elem.id,
                        rng.choice(tuple(ContributionLabel)),
                    )
                )
                link_no += 1
        resources = [e for e in elements if e.kind is ElementKind.RESOURCE]
        tasks = [e for e in elements if e.kind is ElementKind.TASK]
        if resources and tasks and rng.random() < 0.3:
            links.append(
                InternalLink(f"l{link_no}", LinkKind.NEEDED_BY, rng.choice(resources).id, rng.choice(tasks).id)
            )
            link_no += 1
        actors.append(
            Actor(
                f"a{ai}",
                f"Actor {ai}",
                rng.choice(tuple(ActorKind)),
                tuple(elements),
                tuple(links),
                {"team": "blue"} if rng.random() < 0.2 else {},
            )
        )

    deps: list[Dependency] = []
    if n_actors >= 2:
        for di in range(rng.randint(0, 3)):
            i = rng.randrange(n_actors - 1)
            j = rng.randrange(i + 1, n_actors)
            depender, dependee = actors[i], actors[j]
            de = rng.choice(depender.elements).id if rng.random() < 0.8 else None
            ee = rng.choice(dependee.elements).id if rng.random() < 0.8 else None
            deps.append(
                Dependency(
                    f"d{di}",
                    f"Item {di}",
                    rng.choice(_GEN_KINDS),
                    depender.id,
                    dependee.id,
                    de,
                    ee,
                    {"ssi.purpose": "why"} if rng.random() < 0.1 else {},
                )
            )

    actor_links: list[ActorLink] = []
    if n_actors >= 2 and rng.random() < 0.3:
        actor_links.append(
            ActorLink("al0", rng.choice(tuple(ActorLinkKind)), actors[0].id, actors[1].id)
        )

    metadata = {"saveDate": "2026-08-23", "tool": "modelgen"} if rng.random() < 0.5 else {}
    return Model(tuple(actors), tuple(deps), tuple(actor_links), metadata)


def _oracle_ids(model: Model) -> list[Identifier]:
    ids: list[Identifier] = []
    for actor in model.actors:
        ids.append(actor.id)
        ids.extend(e.id for e in actor.elements)
        ids.extend(l.id for l in actor.links)
    ids.extend(d.id for d in model.dependencies)
    ids.extend(l.id for l in model.actor_links)
    return ids


def validate_oracle(model: Model) -> ValidationReport:
    """A reference ``model.validate``, written the plain way: it lists every
    id before it checks one, and finds refinement cycles by scanning each
    actor's elements and links again, peeling from every element.
    ``validate`` must give the same report, findings in the same order."""
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    seen: set[Identifier] = set()
    for node_id in _oracle_ids(model):
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
                if dst.kind not in (ElementKind.GOAL, ElementKind.TASK):
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

        cyclic = _oracle_cycle_members(actor)
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


def _oracle_cycle_members(actor: Actor) -> set[Identifier]:
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


def break_model(model: Model, rng: random.Random) -> Model:
    """``model`` with one to four structural faults of the kinds ``validate``
    reports: refinement links among an actor's own elements (cycles, chains
    of children refining into them, mixed And and Or, several parents), a
    link of any kind between any two ids, one from another actor or none,
    a copy of an element under an id another node has, or an element with
    an empty name or another kind."""
    actors = list(model.actors)
    elements = [e.id for a in actors for e in a.elements] + ["zz"]
    refinements = (LinkKind.AND_REFINEMENT, LinkKind.OR_REFINEMENT)
    for fault in range(rng.randint(1, 4)):
        i = rng.randrange(len(actors))
        actor = actors[i]
        own, links = [e.id for e in actor.elements], list(actor.links)
        op = rng.randrange(4)
        if op == 0:
            for n in range(rng.randint(1, 5)):
                links.append(InternalLink(f"r{fault}-{n}", rng.choice(refinements), rng.choice(own), rng.choice(own)))
        elif op == 1:
            label = rng.choice((None, *ContributionLabel))
            source, target = rng.choice(elements), rng.choice(elements)
            links.append(InternalLink(f"k{fault}", rng.choice(tuple(LinkKind)), source, target, label))
        elif op == 2:
            nodes = [actor.id, *own, *(l.id for l in links), *(d.id for d in model.dependencies)]
            taken = rng.choice(nodes)
            j = rng.randrange(len(actor.elements))
            renamed = actor.elements[j].replace(id=taken)
            actor = actor.replace(elements=actor.elements[:j] + (renamed,) + actor.elements[j:])
        else:
            j = rng.randrange(len(actor.elements))
            element = actor.elements[j]
            if rng.random() < 0.3:
                element = element.replace(name="")
            else:
                element = element.replace(kind=rng.choice(tuple(ElementKind)))
            actor = actor.replace(elements=actor.elements[:j] + (element,) + actor.elements[j + 1:])
        actors[i] = actor.replace(links=tuple(links))
    return model.replace(actors=tuple(actors))


def random_outcomes(rng: random.Random, model: Model) -> dict:
    out = {}
    for actor in model.actors:
        for elem in actor.elements:
            if rng.random() < 0.55:
                out[elem.id] = rng.choice(tuple(LabelState))
    return out


_EDGE = re.compile(r'"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"')
_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*\[', re.MULTILINE)


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def dot_edges(text: str) -> list[tuple[str, str]]:
    return [(_unescape(a), _unescape(b)) for a, b in _EDGE.findall(text)]


def dot_nodes(text: str) -> list[str]:
    return [_unescape(m) for m in _NODE.findall(text)]


def flip_bit_bytes(raw: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(raw) * 8)
    out = bytearray(raw)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


def flip_bit_text(text: str, rng: random.Random) -> str:
    # ASCII only: toggling one of the low seven bits stays a character.
    pos = rng.randrange(len(text))
    char = chr(ord(text[pos]) ^ (1 << rng.randrange(7)))
    return text[:pos] + char + text[pos + 1:]


def mutate_presentation(pres, rng: random.Random):
    """Flip one random bit in one field of a presentation or its credential."""
    cred = pres.credential
    field = rng.choice(
        ("claims", "type", "issuer", "subject", "holder", "issued_at", "id",
         "signature", "presenter", "nonce", "holder_proof")
    )
    if field == "claims":
        key = rng.choice(sorted(cred.claims))
        claims = dict(cred.claims)
        claims[key] = flip_bit_text(claims[key], rng)
        cred = cred.replace(claims=claims)
    elif field == "issued_at":
        cred = cred.replace(issued_at=cred.issued_at ^ (1 << rng.randrange(31)))
    elif field == "signature":
        cred = cred.replace(signature=flip_bit_bytes(cred.signature, rng))
    elif field in ("type", "issuer", "subject", "holder", "id"):
        cred = cred.replace(**{field: flip_bit_text(getattr(cred, field), rng)})
    elif field == "presenter":
        return pres.replace(presenter=flip_bit_text(pres.presenter, rng)), field
    elif field == "nonce":
        return pres.replace(nonce=flip_bit_bytes(pres.nonce, rng)), field
    else:
        return pres.replace(holder_proof=flip_bit_bytes(pres.holder_proof, rng)), field
    return pres.replace(credential=cred), field


def rename_element(model: Model, element_id: str, new_name: str) -> Model:
    """``model`` with the element ``element_id`` renamed, in whichever actor owns it."""
    actors = tuple(
        actor.replace(
            elements=tuple(e.replace(name=new_name) if e.id == element_id else e for e in actor.elements),
        )
        for actor in model.actors
    )
    return model.replace(actors=actors)


def licensed_registrar_model(model: Model, seal: bool = False) -> Model:
    """The fixture with the Registrar licensed: the ID Agency issues it a
    Registrar Licence, which it awaits on a resource element needed by its
    task that issues the birth certificate.  With ``seal``, a Registrar Seal
    element, which nothing issues, is needed by that task too, through a
    link placed before the licence's though the element comes after it."""
    needs = [InternalLink("needed-licence", LinkKind.NEEDED_BY, "registrar-licence", "registrar-issue-cert")]
    extra = [Element("registrar-licence", "Registrar Licence", ElementKind.RESOURCE)]
    if seal:
        needs.insert(0, InternalLink("needed-seal", LinkKind.NEEDED_BY, "registrar-seal", "registrar-issue-cert"))
        extra.append(Element("registrar-seal", "Registrar Seal", ElementKind.RESOURCE))
    actors = []
    for actor in model.actors:
        if actor.id == "Registrar":
            actor = actor.replace(elements=actor.elements + tuple(extra), links=actor.links + tuple(needs))
        elif actor.id == "ID Agency":
            issue = Element("agency-issue-licence", "Issue Registrar Licence", ElementKind.TASK)
            actor = actor.replace(elements=actor.elements + (issue,))
        actors.append(actor)
    licence = Dependency(
        "dep-licence-registrar", "Registrar Licence", ElementKind.RESOURCE, "Registrar", "ID Agency",
        "registrar-licence", "agency-issue-licence",
    )
    return model.replace(actors=tuple(actors), dependencies=model.dependencies + (licence,))


@dataclasses.dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None


class _Terminal(io.StringIO):
    def isatty(self) -> bool:
        return True


def invoke(args: list[str], tty: bool = False) -> CliResult:
    """Run ``ssiforge ARGS`` in this process, capturing both streams.

    With ``tty`` stdout claims to be a terminal.  Any exception other than
    ``SystemExit`` propagates, so a traceback fails the calling test.
    """
    stdout, stderr = (_Terminal() if tty else io.StringIO()), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args, prog_name="ssiforge")
        except SystemExit as exc:
            code, exception = exc.code or 0, exc
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), exception)


_DOC_KEYS = (
    "id", "text", "type", "source", "target", "label", "nodes", "customProperties",
    "istar", "actors", "links", "dependencies", "tool", "saveDate", "diagram", "ssi.subject", "colorScheme",
)
_DOC_VALUES = (None, True, 0, 2.5, "", "zz", [], {}, [1], {"k": 3}, {"k": "v"})
_FIELD_VALUES = {
    "type": (
        "istar.Actor", "istar.Agent", "istar.Role", "istar.Thing",
        "istar.Goal", "istar.Task", "istar.Resource", "istar.Quality", "istar.Belief",
        "istar.AndRefinementLink", "istar.OrRefinementLink", "istar.ContributionLink", "istar.QualificationLink",
        "istar.NeededByLink", "istar.IsALink", "istar.ParticipatesInLink", "istar.FancyLink",
    ),
    "label": ("make", "Hurt", "break", "boost", 3),
    "istar": ("2.0", "1.0", 2.0),
}


def _containers(node, out: list) -> list:
    """Every object and array in ``node``, itself one, in document order."""
    out.append(node)
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            _containers(child, out)
    return out


def mutate_document(doc, rng: random.Random):
    """Apply one to three random edits to a parsed piStar document.

    Edits delete, set, duplicate, swap or replace object fields and array
    entries, or retype a node.  A field's new value is mostly one its name
    suggests (a dialect type name, a contribution label, one of the
    document's ids) and otherwise one of the wrong JSON type.  Objects with a
    ``type`` are picked five times as often as other objects and arrays, and
    half of the follow-up edits hit the object or array edited last, so one
    node collects several faults.  No key it writes contains ``/`` or ``~``.
    """
    ids = sorted({c["id"] for c in _containers(doc, []) if isinstance(c, dict) and isinstance(c.get("id"), str)})
    ids.append("zz")
    actors = doc.get("actors") if isinstance(doc, dict) else None
    actor_ids = [a["id"] for a in actors if isinstance(a, dict) and "id" in a] if isinstance(actors, list) else []
    actor_ids.append("zz")
    target = None
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.01:
            return rng.choice(_DOC_VALUES)
        if target is None or rng.random() < 0.5:
            nodes = _containers(doc, [])
            target = rng.choices(nodes, [5 if isinstance(n, dict) and "type" in n else 1 for n in nodes])[0]
        if isinstance(target, dict):
            keys = list(target)
            op = rng.randrange(4 if "type" in target else 3) if keys else 2
            if op == 0:
                del target[rng.choice(keys)]
            elif op == 3:
                # Retype, and mostly give the fields the new type reads.
                target["type"] = value = rng.choice(_FIELD_VALUES["type"])
                if value == "istar.ContributionLink" and rng.random() < 0.7:
                    target["label"] = rng.choice(_FIELD_VALUES["label"])
                if value in ("istar.IsALink", "istar.ParticipatesInLink") and rng.random() < 0.7:
                    target[rng.choice(("source", "target"))] = rng.choice(actor_ids)
            else:
                key = rng.choice(keys) if op == 1 else rng.choice(_DOC_KEYS)
                if rng.random() < 0.3:
                    value = rng.choice(_DOC_VALUES)
                else:
                    pool = ids if key in ("id", "source", "target") else _FIELD_VALUES.get(key, _DOC_VALUES)
                    value = rng.choice(pool)
                target[key] = copy.deepcopy(value)
        elif target:
            i, j = rng.randrange(len(target)), rng.randrange(len(target))
            op = rng.randrange(4)
            if op == 0:
                del target[i]
            elif op == 1:
                target.insert(j, copy.deepcopy(target[i]))
            elif op == 2:
                target[i], target[j] = target[j], target[i]
            else:
                target[i] = copy.deepcopy(rng.choice(_DOC_VALUES))
        else:
            target.append(copy.deepcopy(rng.choice(_DOC_VALUES)))
    return doc


def verify_presentation_reference(presentation, directory, trust, verifier: str, expected_nonce: bytes):
    """The four checks with every Ed25519 verification always made: the
    holder proof is verified whatever the presenter and the nonce, and no
    check is memoized.  ``verify_presentation`` must give the same flags."""
    credential = presentation.credential
    raw = canonical_bytes(credential.payload())
    issuer_key = directory.get(credential.issuer)
    try:
        presenter_key = decode_did(presentation.presenter)
        proof_ok = verify_signature(
            presenter_key,
            proof_message(credential.id, presentation.nonce),
            presentation.holder_proof,
        )
    except ValueError:
        proof_ok = False
    return VerificationOutcome(
        integrity=hashlib.sha256(raw).hexdigest() == credential.id,
        issuer_signature=issuer_key is not None and verify_signature(issuer_key, raw, credential.signature),
        subject_binding=(
            proof_ok and presentation.presenter == credential.holder and presentation.nonce == expected_nonce
        ),
        issuer_trusted=trust.is_trusted(verifier, credential.type, credential.issuer),
    )


def load_scaled():
    """``bench/scaled.py``, the generator of the benchmark's multi-copy fixtures."""
    path = Path(__file__).resolve().parent.parent / "bench" / "scaled.py"
    spec = importlib.util.spec_from_file_location("scaled", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scaled_model(birth_path, copies):
    """The fixture at ``birth_path`` copied ``copies`` times, as the benchmark scales it."""
    doc = load_scaled().scale_document(json.loads(birth_path.read_text(encoding="utf-8")), copies)
    return parse_model(json.dumps(doc).encode("utf-8")).model
