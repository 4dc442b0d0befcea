"""Credential-ecosystem overlay on top of a goal model.

Actors never declare Issuer, Holder, or Verifier anywhere in the model; the
overlay reads those roles out of the rationale.  Resource dependums name
credential types, and task names carry the intent: a task whose (normalized)
name starts with an issue verb and mentions a credential type marks its actor
as that type's Issuer, provide verbs mark Holders, check verbs mark
Verifiers.  An actor that receives a credential through an issuance also
holds it, whether or not a task says so.  A "send ... copy" task mails
each issuance's digest to the actor it names; when it names several, to
the one with the longest name, and ``lint_ssi`` warns when two longest
names tie.  Every name reading matches whole words of
the normalized name: the alias "ID" is not in "valid", nor "Registrar 1"
in "Registrar 12".

Dependency annotations refine the picture:

- ``ssi``: force the flow classification, value ``issue`` or ``present``
- ``ssi.alias``: comma-separated alternative spellings for the dependum
- ``ssi.subject``: names a non-actor subject (the fixture's is ``child``);
  each distinct name gets its own subject DID, else the holder is the subject
- ``ssi.purpose``: free-form note carried through to proof requests
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Mapping, Sequence

from .model import ElementKind, Identifier, LinkKind, Model, Record, ValidationIssue

_PUNCT = re.compile(r"[^a-z0-9 ]+")


def normalize_name(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(_PUNCT.sub("", text.lower().replace("-", " ")).split())


class SsiRole(enum.Enum):
    ISSUER = "Issuer"
    HOLDER = "Holder"
    VERIFIER = "Verifier"


# Each role's place in the order of their names, as ``infer_roles`` sorts them.
_ROLE_ORDER = {role: rank for rank, role in enumerate(sorted(SsiRole, key=lambda r: r.value))}


class VerbLexicon(Record):
    """Leading task-name words that signal credential handling intent."""

    issue_verbs: frozenset[str] = frozenset({"issue"})
    provide_verbs: frozenset[str] = frozenset({"provide", "present"})
    check_verbs: frozenset[str] = frozenset({"check", "verify"})
    _verbs: dict[str, list[tuple[str, SsiRole]]]  # by first word: (verb + " ", its role), issue verbs first

    def __post_init__(self) -> None:
        groups = (self.issue_verbs, self.provide_verbs, self.check_verbs)
        normalized = tuple(frozenset(normalize_name(v) for v in g) for g in groups)
        for g in normalized:
            if not g or "" in g:
                raise ValueError("verb sets must be non-empty")
        if len(normalized[0] | normalized[1] | normalized[2]) != sum(len(g) for g in normalized):
            raise ValueError("verb sets must be pairwise disjoint")
        object.__setattr__(self, "issue_verbs", normalized[0])
        object.__setattr__(self, "provide_verbs", normalized[1])
        object.__setattr__(self, "check_verbs", normalized[2])
        object.__setattr__(self, "_verbs", {})
        for verbs, role in zip(normalized, (SsiRole.ISSUER, SsiRole.HOLDER, SsiRole.VERIFIER)):
            for verb in verbs:
                self._verbs.setdefault(verb.split(" ", 1)[0], []).append((verb + " ", role))


DEFAULT_LEXICON = VerbLexicon()


class RoleAssignment(Record):
    """One role of an actor for one credential type.

    ``tasks`` lists, in element order, the actor's tasks whose names show
    the role; it is empty for a Holder that only receives an issuance.
    """

    actor: Identifier
    credential_type: str
    role: SsiRole
    tasks: tuple[Identifier, ...] = ()


class FlowKind(enum.Enum):
    ISSUANCE = "Issuance"
    PRESENTATION = "Presentation"


class EvidenceKind(enum.Enum):
    ANNOTATION = "Annotation"
    VERB = "Verb"
    UNRESOLVED = "Unresolved"


class Evidence(Record):
    kind: EvidenceKind
    element: Identifier | None = None


class CredentialFlow(Record):
    """One dependency read as a credential movement between two actors.

    ``sender`` is always the dependee and ``receiver`` the depender: an
    issuance delivers a new credential to the depender, a presentation sends
    proof of an existing one to the depender.  An issuance whose issuer has a
    "send ... copy" task also mails the credential digest to ``copy_to``; a
    presentation whose verifier has a check task with the word "copy" sets
    ``require_copy``.

    The rest is what the agents act on, set by kind.  An issuance's
    ``issue_task`` turns Satisfied when the credential is issued, which
    waits for every one of its ``gate_tasks``; the depender awaits the
    credential on ``await_task``, its element of the dependency; and
    ``subject`` is the ``ssi.subject`` annotation.  A presentation's
    ``check_tasks`` take the label of its verification; its verdict labels
    ``verdict_task``, the dependee's element of the dependency; and
    ``purpose`` is the ``ssi.purpose`` annotation.
    """

    dependency: Identifier
    kind: FlowKind
    credential_type: str
    sender: Identifier
    receiver: Identifier
    evidence: Evidence
    copy_to: Identifier | None = None
    copy_task: Identifier | None = None
    require_copy: bool = False
    issue_task: Identifier | None = None
    gate_tasks: tuple[Identifier, ...] = ()
    await_task: Identifier | None = None
    subject: str | None = None
    check_tasks: tuple[Identifier, ...] = ()
    verdict_task: Identifier | None = None
    purpose: str | None = None


class TrustPolicyError(ValueError):
    code = "E_TRUST_NOT_VERIFIER"


class TrustOverride(Record):
    verifier: Identifier
    credential_type: str
    issuer_did: str
    action: str = "add"

    def __post_init__(self) -> None:
        if self.action not in ("add", "remove"):
            raise ValueError(f"override action must be 'add' or 'remove', got {self.action!r}")


class TrustRegistry(Record):
    """Per-verifier accepted issuer DIDs, keyed by (verifier, credential type)."""

    accepted: Mapping[tuple[Identifier, str], frozenset[str]]

    def is_trusted(self, verifier: Identifier, credential_type: str, issuer_did: str) -> bool:
        return issuer_did in self.accepted.get((verifier, credential_type), frozenset())


class _SpellingIndex:
    """The owners with a spelling among the words of a text, in the order they
    were given: a trie over the spellings' words, walked from each word of the
    text, so a spelling counts only where it starts and ends on a word
    boundary ("id" is not in "valid", "registrar 1" not in "registrar 12"),
    and the cost grows with the text's length, not with the number of
    spellings.  Spellings and texts are normalized names."""

    def __init__(self, owners: Iterable[tuple[str, Iterable[str]]]) -> None:
        self.root: dict = {}
        for position, (owner, spellings) in enumerate(owners):
            for spelling in spellings:
                words = spelling.split()
                if not words:  # an empty spelling names nothing
                    continue
                node = self.root
                for word in words:
                    node = node.setdefault(word, {})
                node.setdefault("", []).append((position, owner))  # key "": owners of spellings ending here

    def owners_in(self, text: str) -> list[str]:
        root, words = self.root, text.split()
        found: set[tuple[int, str]] | None = None
        for start, word in enumerate(words):
            node, end = root.get(word), start + 1
            while node is not None:
                if "" in node:
                    if found is None:
                        found = set()
                    found.update(node[""])
                node = node.get(words[end]) if end < len(words) else None
                end += 1
        return [] if found is None else [owner for _, owner in sorted(found)]


class CredentialCatalog:
    """Credential types named by resource dependums, with alias spellings."""

    def __init__(self, model: Model) -> None:
        self.canonical: dict[str, str] = {}  # normalized spelling -> display name
        self.dependum_types: dict[str, str] = {}  # resource dependum name -> its type, as resolve() gives it
        for dep in model.dependencies:
            if dep.kind is not ElementKind.RESOURCE:
                continue
            norm = normalize_name(dep.name)
            if not norm:
                self.dependum_types[dep.name] = dep.name
                continue
            display = self.dependum_types[dep.name] = self.canonical.setdefault(norm, dep.name)
            for alias in dep.annotations.get("ssi.alias", "").split(","):
                alias_norm = normalize_name(alias)
                if alias_norm:
                    self.canonical.setdefault(alias_norm, display)
        self.patterns: dict[str, list[str]] = {}
        for norm, display in self.canonical.items():
            self.patterns.setdefault(display, []).append(norm)
        self._index = _SpellingIndex(self.patterns.items())

    def resolve(self, dependum_name: str) -> str:
        known = self.dependum_types.get(dependum_name)
        if known is not None:
            return known
        return self.canonical.get(normalize_name(dependum_name), dependum_name)

    def types_in(self, name_norm: str) -> list[str]:
        """Types with a spelling among the words of the normalized name ``name_norm``, in catalog order."""
        return self._index.owners_in(name_norm)


def _verb_class(name_norm: str, lexicon: VerbLexicon) -> SsiRole | None:
    # Verbs match whole words: "checkout bnd" does not start with "check".
    words = name_norm + " "
    for verb, role in lexicon._verbs.get(name_norm.split(" ", 1)[0], ()):
        if words.startswith(verb):
            return role
    return None


class _Names:
    """What the overlay reads from a model's names, read on first use and
    kept with the model: each task's normalized name, the credential
    catalog, and the actors by normalized name, for the copy tasks."""

    __slots__ = ("tasks", "catalog", "actor_names", "actor_index")

    def __init__(self, model: Model) -> None:
        task = ElementKind.TASK
        # ((actor, task), normalized name) of every task, in element order.
        self.tasks = tuple(
            ((a.id, e.id), normalize_name(e.name)) for a in model.actors for e in a.elements if e.kind is task
        )
        self.catalog = CredentialCatalog(model)
        self.actor_names = {a.id: normalize_name(a.name) for a in model.actors}
        self.actor_index = _SpellingIndex((actor, [name]) for actor, name in self.actor_names.items())

    @staticmethod
    def of(model: Model) -> _Names:
        if model._overlay_names is None:
            object.__setattr__(model, "_overlay_names", _Names(model))
        return model._overlay_names

    def copy_candidates(self, sender: Identifier, task_norm: str) -> list[Identifier]:
        """The other actors a copy task of ``sender`` names with the longest name, in actor order."""
        others = [o for o in self.actor_index.owners_in(task_norm) if o != sender]
        longest = max((len(self.actor_names[o]) for o in others), default=0)
        return [o for o in others if len(self.actor_names[o]) == longest]


def infer_roles(model: Model, lexicon: VerbLexicon = DEFAULT_LEXICON) -> tuple[RoleAssignment, ...]:
    """Derive Issuer/Holder/Verifier assignments from task names and issuances.

    Deterministic and total: unknown verbs simply contribute nothing.  The
    result is deduplicated and sorted by (actor, credential type, role).
    """
    names = _Names.of(model)
    found: dict[tuple[Identifier, str, SsiRole], list[Identifier]] = {}
    for (actor, task), norm in names.tasks:
        role = _verb_class(norm, lexicon)
        if role is None:
            continue
        for ctype in names.catalog.types_in(norm):
            found.setdefault((actor, ctype, role), []).append(task)

    # Receiving an issuance makes the depender a holder even without a task.
    for dep in model.dependencies:
        if dep.kind is not ElementKind.RESOURCE:
            continue
        ctype = names.catalog.resolve(dep.name)
        forced = dep.annotations.get("ssi")
        if forced == "issue" or (dep.dependee, ctype, SsiRole.ISSUER) in found:
            found.setdefault((dep.depender, ctype, SsiRole.HOLDER), [])

    assignments = [RoleAssignment(actor, ctype, role, tuple(tasks)) for (actor, ctype, role), tasks in found.items()]
    assignments.sort(key=lambda a: (a.actor, a.credential_type, _ROLE_ORDER[a.role]))
    return tuple(assignments)


def _copy_readings(
    model: Model,
) -> tuple[dict[Identifier, tuple[Identifier, Identifier]], set[tuple[Identifier, Identifier]]]:
    """Read the office-copy tasks: per actor, the target and task of its first
    "send ... copy" task that names another actor; and every (actor, task)
    whose name has the word "copy".  A task naming several other actors
    sends to the one with the longest name ("Registrar Office" over
    "Registrar"), the first in actor order on a tie."""
    names = _Names.of(model)
    targets: dict[Identifier, tuple[Identifier, Identifier]] = {}
    copy_tasks: set[tuple[Identifier, Identifier]] = set()
    for (actor, task), norm in names.tasks:
        words = norm.split()  # whole words, as for verbs: "copyright" is no "copy"
        if "copy" not in words:
            continue
        copy_tasks.add((actor, task))
        if "send" in words and actor not in targets:
            candidates = names.copy_candidates(actor, norm)
            if candidates:
                targets[actor] = (candidates[0], task)
    return targets, copy_tasks


def derive_flows(model: Model, roles: Sequence[RoleAssignment]) -> tuple[CredentialFlow, ...]:
    """Classify each resource dependency as an issuance or a presentation.

    Precedence per dependency: an ``ssi`` annotation wins outright; else a
    dependee that issues the dependum type makes it an issuance; else a
    dependee that holds it facing a depender that verifies it makes it a
    presentation; anything left is recorded as a presentation with
    unresolved evidence, to be surfaced by :func:`lint_ssi`.  Evidence
    elements and the task ids the agents act on come from the roles' tasks
    and the model's links, read here once.
    """
    catalog = _Names.of(model).catalog
    role_tasks = {(a.actor, a.credential_type, a.role): a.tasks for a in roles}
    copy_targets, copy_tasks = _copy_readings(model)
    # An issuer's gates are all of its Verifier tasks, in element order, plus
    # the sources of the needed-by links into the issue task, in link order.
    verifier_tasks = {(a.actor, t) for a in roles if a.role is SsiRole.VERIFIER for t in a.tasks}
    gates: dict[Identifier, tuple[Identifier, ...]] = {}
    needed_by: dict[tuple[Identifier, Identifier], list[Identifier]] = {}
    for actor in model.actors:
        gates[actor.id] = tuple(e.id for e in actor.elements if (actor.id, e.id) in verifier_tasks)
        for link in actor.links:
            if link.kind is LinkKind.NEEDED_BY:
                needed_by.setdefault((actor.id, link.target), []).append(link.source)
    flows: list[CredentialFlow] = []
    for dep in model.dependencies:
        if dep.kind is not ElementKind.RESOURCE:
            continue
        ctype = catalog.resolve(dep.name)
        forced = dep.annotations.get("ssi")
        issuer = role_tasks.get((dep.dependee, ctype, SsiRole.ISSUER))
        holder = role_tasks.get((dep.dependee, ctype, SsiRole.HOLDER))
        verifier = role_tasks.get((dep.depender, ctype, SsiRole.VERIFIER))
        if forced in ("issue", "present"):
            kind = FlowKind.ISSUANCE if forced == "issue" else FlowKind.PRESENTATION
            evidence = Evidence(EvidenceKind.ANNOTATION)
        elif issuer is not None:
            kind = FlowKind.ISSUANCE
            evidence = Evidence(EvidenceKind.VERB, issuer[0] if issuer else None)
        elif holder is not None and verifier is not None:
            kind = FlowKind.PRESENTATION
            evidence = Evidence(EvidenceKind.VERB, holder[0] if holder else verifier[0] if verifier else None)
        else:
            kind = FlowKind.PRESENTATION
            evidence = Evidence(EvidenceKind.UNRESOLVED)
        if kind is FlowKind.ISSUANCE:
            issue_task = issuer[0] if issuer else None
            copy_to, copy_task = copy_targets.get(dep.dependee, (None, None))
            gate_tasks = gates.get(dep.dependee, ()) + tuple(needed_by.get((dep.dependee, issue_task), ()))
            flow = CredentialFlow(
                dep.id, kind, ctype, dep.dependee, dep.depender, evidence, copy_to=copy_to, copy_task=copy_task,
                issue_task=issue_task, gate_tasks=gate_tasks, await_task=dep.depender_element,
                subject=dep.annotations.get("ssi.subject"),
            )
        else:
            checks = verifier or ()
            flow = CredentialFlow(
                dep.id, kind, ctype, dep.dependee, dep.depender, evidence,
                require_copy=any((dep.depender, t) in copy_tasks for t in checks), check_tasks=checks,
                verdict_task=dep.dependee_element, purpose=dep.annotations.get("ssi.purpose"),
            )
        flows.append(flow)
    return tuple(flows)


def lint_ssi(
    model: Model,
    roles: Sequence[RoleAssignment],
    flows: Sequence[CredentialFlow],
    overrides: Iterable[TrustOverride] = (),
) -> tuple[ValidationIssue, ...]:
    """Surface overlay blind spots; returns warnings only, sorted (code, subject)."""
    findings: list[ValidationIssue] = []
    for flow in flows:
        if flow.evidence.kind is EvidenceKind.UNRESOLVED:
            findings.append(
                ValidationIssue(
                    "W_FLOW_AMBIGUOUS",
                    flow.dependency,
                    f"cannot tell whether {flow.credential_type!r} is issued or presented here",
                )
            )

    override_types = {o.credential_type for o in overrides if o.action == "add"}
    issuers: dict[str, list[Identifier]] = {}
    task_types: dict[tuple[Identifier, Identifier], list[str]] = {}
    for assignment in roles:
        if assignment.role is SsiRole.ISSUER:
            issuers.setdefault(assignment.credential_type, []).append(assignment.actor)
        for task in assignment.tasks:
            task_types.setdefault((assignment.actor, task), []).append(assignment.credential_type)
    presented = sorted({f.credential_type for f in flows if f.kind is FlowKind.PRESENTATION})
    for ctype in presented:
        if ctype not in issuers and ctype not in override_types:
            findings.append(
                ValidationIssue("W_NO_ISSUER", ctype, f"{ctype!r} is presented but nobody issues it")
            )
        elif len(issuers.get(ctype, ())) > 1:
            names, first = ", ".join(issuers[ctype]), issuers[ctype][0]
            message = f"{ctype!r} has several issuers ({names}): bootstrap uses {first}'s, a wallet keeps one per type"
            findings.append(ValidationIssue("W_MULTI_ISSUER", ctype, message))
    for (_, task), types in task_types.items():
        if len(types) > 1:
            message = f"names the credential types {', '.join(map(repr, types))}, so it is read as one role for each"
            findings.append(ValidationIssue("W_TASK_MULTI_TYPE", task, message))

    # Only the copy tasks the flows carry are read again, for a tie between their longest actor names.
    copy_reads = sorted({(f.sender, f.copy_task, f.copy_to) for f in flows if f.copy_task is not None})
    names = _Names.of(model)
    task_names = dict(reversed(names.tasks)) if copy_reads else {}  # the first of duplicate ids wins
    for sender, task, picked in copy_reads:
        norm = task_names.get((sender, task))
        if norm is None:  # a flow built by hand may name a task the model lacks
            continue
        candidates = names.copy_candidates(sender, norm)
        if len(candidates) > 1:
            message = f"names {', '.join(candidates)}, whose names are equally long: the copy goes to {picked}"
            findings.append(ValidationIssue("W_COPY_AMBIGUOUS", task, message))

    flow_targets = {(f.receiver, f.credential_type) for f in flows}
    for assignment in roles:
        if assignment.role is SsiRole.VERIFIER and (assignment.actor, assignment.credential_type) not in flow_targets:
            findings.append(
                ValidationIssue(
                    "W_ORPHAN_VERIFIER",
                    assignment.actor,
                    f"verifies {assignment.credential_type!r} but no such credential flows to it",
                )
            )

    findings.sort(key=lambda i: (i.code, i.offending_id))
    return tuple(findings)


def build_trust_registry(
    roles: Sequence[RoleAssignment],
    flows: Sequence[CredentialFlow],
    did_of: Mapping[Identifier, str],
    overrides: Iterable[TrustOverride] = (),
) -> TrustRegistry:
    """Assemble per-verifier accepted-issuer sets.

    Default policy: a verifier of T accepts exactly the DIDs of the model's
    issuers of T.  Overrides then add or remove specific DIDs, which is how
    issuers outside the model enter.  An override naming a pair that is not
    a Verifier assignment raises :class:`TrustPolicyError`.
    """
    for flow in flows:
        if flow.kind is FlowKind.ISSUANCE and flow.sender not in did_of:
            raise ValueError(f"didOf is missing issuer actor {flow.sender!r}")
    issuers_by_type: dict[str, list[Identifier]] = {}
    verifier_pairs: set[tuple[Identifier, str]] = set()
    for assignment in roles:
        if assignment.role is SsiRole.ISSUER:
            if assignment.actor not in did_of:
                raise ValueError(f"didOf is missing issuer actor {assignment.actor!r}")
            issuers_by_type.setdefault(assignment.credential_type, []).append(assignment.actor)
        elif assignment.role is SsiRole.VERIFIER:
            verifier_pairs.add((assignment.actor, assignment.credential_type))

    accepted: dict[tuple[Identifier, str], set[str]] = {
        pair: {did_of[a] for a in issuers_by_type.get(pair[1], [])} for pair in sorted(verifier_pairs)
    }
    _apply_overrides(accepted, overrides)
    return TrustRegistry({pair: frozenset(dids) for pair, dids in accepted.items()})


def trust_noops(
    roles: Sequence[RoleAssignment],
    flows: Sequence[CredentialFlow],
    did_of: Mapping[Identifier, str],
    overrides: Iterable[TrustOverride],
) -> tuple[ValidationIssue, ...]:
    """A ``W_TRUST_NOOP`` warning for each override that changes nothing.

    Overrides apply in order, as in :func:`build_trust_registry`: one that
    removes a DID its pair does not accept, or adds one it already accepts,
    is a no-op.  DIDs depend on the seed, so such an override is usually a
    policy written for another seed.
    """
    defaults = build_trust_registry(roles, flows, did_of).accepted
    return tuple(_apply_overrides({pair: set(dids) for pair, dids in defaults.items()}, overrides))


def _apply_overrides(
    accepted: dict[tuple[Identifier, str], set[str]], overrides: Iterable[TrustOverride]
) -> list[ValidationIssue]:
    """Apply ``overrides`` to ``accepted`` in order; return a warning for each no-op."""
    noops = []
    for override in overrides:
        pair = (override.verifier, override.credential_type)
        if pair not in accepted:
            raise TrustPolicyError(
                f"{override.verifier!r} holds no Verifier role for {override.credential_type!r}"
            )
        dids = accepted[pair]
        if (override.issuer_did in dids) == (override.action == "add"):
            state = "already accepts" if override.action == "add" else "does not accept"
            noops.append(
                ValidationIssue(
                    "W_TRUST_NOOP",
                    override.verifier,
                    f"{override.action} of {override.issuer_did} for {override.credential_type!r} changes "
                    f"nothing: the verifier {state} it",
                )
            )
        if override.action == "add":
            dids.add(override.issuer_did)
        else:
            dids.discard(override.issuer_did)
    return noops
