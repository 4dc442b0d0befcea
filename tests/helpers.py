"""Shared test machinery: an independent propagation oracle, a random model
generator, DOT scanners, single-bit mutators, a runner for the CLI, a
mutator of piStar documents, and a reference presentation check.

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
    InternalLink,
    LinkKind,
    Model,
    REFINEMENT_KINDS,
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
