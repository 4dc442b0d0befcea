"""Credential-ecosystem overlay on top of a goal model.

Actors never declare Issuer, Holder, or Verifier anywhere in the model; the
overlay reads those roles out of the rationale.  Resource dependums name
credential types, and task names carry the intent: a task whose (normalized)
name starts with an issue verb and mentions a credential type marks its actor
as that type's Issuer, provide verbs mark Holders, check verbs mark
Verifiers.  One rule decides which resource dependencies are issuances,
for the flows and the roles alike: an ``ssi`` annotation of ``issue`` or
``present`` decides outright, else a dependee that issues the type makes
one.  An actor that receives a credential through an issuance also holds
it, whether or not a task says so.  A "send ... copy" task mails
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

``build_trust_registry`` gives the default trust policy, in which a
verifier accepts the model's issuers of the type, and
``apply_trust_overrides`` adjusts it and reports the overrides that change
nothing.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Mapping, Sequence

from .model import Dependency, ElementKind, Identifier, LinkKind, Model, Record, ValidationIssue

# Of the ASCII in a lowercased name, a hyphen reads as a space, and all but a-z, 0-9 and the space is dropped.
_HYPHEN_AS_SPACE = bytes.maketrans(b"-", b" ")
_DROPPED = bytes(c for c in range(128) if c not in b"abcdefghijklmnopqrstuvwxyz0123456789 -")


def normalize_name(text: str) -> str:
    """Lowercase, strip punctuation and every character outside ASCII, collapse whitespace."""
    kept = text.lower().encode("ascii", "ignore").translate(_HYPHEN_AS_SPACE, _DROPPED)
    return " ".join(kept.decode("ascii").split())


class SsiRole(enum.Enum):
    ISSUER = "Issuer"
    HOLDER = "Holder"
    VERIFIER = "Verifier"


# Role tables key a role by its value: on Python 3.11 an enum member's hash is a Python-level call.
_ROLES = {role.value: role for role in SsiRole}
_ISSUER, _HOLDER, _VERIFIER = SsiRole.ISSUER.value, SsiRole.HOLDER.value, SsiRole.VERIFIER.value


class VerbLexicon(Record):
    """Leading task-name words that signal credential handling intent."""

    issue_verbs: frozenset[str] = frozenset({"issue"})
    provide_verbs: frozenset[str] = frozenset({"provide", "present"})
    check_verbs: frozenset[str] = frozenset({"check", "verify"})
    _verbs: dict[str, list[tuple[str, str]]]  # by first word: (verb + " ", its role's value), issue verbs first

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
        for verbs, role in zip(normalized, (_ISSUER, _HOLDER, _VERIFIER)):
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


# Read once: on Python 3.11 an enum member read is a descriptor call.
_ISSUANCE, _PRESENTATION = FlowKind.ISSUANCE, FlowKind.PRESENTATION
_ANNOTATION, _VERB, _UNRESOLVED = EvidenceKind.ANNOTATION, EvidenceKind.VERB, EvidenceKind.UNRESOLVED


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
    _frames: dict | None  # ``simulator``'s fixed summary text of each message kind sent on the flow


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
        words.append(" ")  # ends every walk: no word of a spelling is " "
        found: list[tuple[int, str]] = []
        for end, word in enumerate(words, 1):
            node = root.get(word)
            while node is not None:
                owners = node.get("")
                if owners is not None:
                    found += owners
                node = node.get(words[end])
                end += 1
        return [owner for _, owner in sorted(set(found))] if found else []


class CredentialCatalog:
    """Credential types named by resource dependums, with alias spellings, and
    each resource dependency with its type, in model order."""

    def __init__(self, model: Model) -> None:
        self.canonical: dict[str, str] = {}  # normalized spelling -> display name
        self.resources: list[tuple[Dependency, str]] = []
        for dep in model.dependencies:
            if dep.kind is not ElementKind.RESOURCE:
                continue
            norm = normalize_name(dep.name)
            if not norm:  # a name with no letter or digit is a type of its own, with no alias
                self.resources.append((dep, dep.name))
                continue
            display = self.canonical.setdefault(norm, dep.name)
            self.resources.append((dep, display))
            for alias in filter(None, dep.annotations.get("ssi.alias", "").split(",")):
                alias_norm = normalize_name(alias)
                if alias_norm:
                    self.canonical.setdefault(alias_norm, display)
        self.patterns: dict[str, list[str]] = {}
        for norm, display in self.canonical.items():
            self.patterns.setdefault(display, []).append(norm)
        self._index = _SpellingIndex(self.patterns.items())

    def types_in(self, name_norm: str) -> list[str]:
        """Types with a spelling among the words of the normalized name ``name_norm``, in catalog order."""
        return self._index.owners_in(name_norm)


def _verb_class(name_norm: str, lexicon: VerbLexicon) -> str | None:
    """The value of the role whose verb starts ``name_norm``, in whole words: "checkout bnd" has no "check"."""
    words = name_norm + " "
    for verb, role in lexicon._verbs.get(name_norm.partition(" ")[0], ()):
        if words.startswith(verb):
            return role
    return None


class _Names:
    """What the overlay reads from a model's names, read on first use and
    kept with the model: each task's normalized name, the credential
    catalog, and the office-copy tasks."""

    __slots__ = ("tasks", "catalog", "copy_sends", "copy_tasks")

    def __init__(self, model: Model) -> None:
        task = ElementKind.TASK
        # ((actor, task), normalized name) of every task, in element order.
        self.tasks = tuple(
            ((a.id, e.id), normalize_name(e.name)) for a in model.actors for e in a.elements if e.kind is task
        )
        self.catalog = CredentialCatalog(model)
        actor_names = {a.id: normalize_name(a.name) for a in model.actors}
        actor_index = _SpellingIndex((actor, [name]) for actor, name in actor_names.items())
        # Per actor, its first "send ... copy" task that names another actor, and the other actors
        # it names with the longest name, in actor order: the copy goes to the first.
        self.copy_sends: dict[Identifier, tuple[Identifier, list[Identifier]]] = {}
        self.copy_tasks: set[tuple[Identifier, Identifier]] = set()  # every (actor, task) named with "copy"
        for (actor, task_id), norm in self.tasks:
            # Whole words, as for verbs: "copyright" is no "copy".
            if "copy" not in norm or "copy" not in (words := norm.split()):
                continue
            self.copy_tasks.add((actor, task_id))
            if "send" in words and actor not in self.copy_sends:
                others = [o for o in actor_index.owners_in(norm) if o != actor]
                if others:
                    longest = max(len(actor_names[o]) for o in others)
                    self.copy_sends[actor] = (task_id, [o for o in others if len(actor_names[o]) == longest])

    @staticmethod
    def of(model: Model) -> _Names:
        if model._overlay_names is None:
            object.__setattr__(model, "_overlay_names", _Names(model))
        return model._overlay_names


def _is_issuance(forced: str | None, dependee_issues: bool) -> bool:
    """The issuance rule, which ``infer_roles`` and ``derive_flows`` both read:
    a resource dependency's ``ssi`` annotation ``forced`` of ``issue`` or
    ``present`` decides outright; else it is an issuance if its dependee
    issues its type."""
    return forced == "issue" if forced in ("issue", "present") else dependee_issues


def role_tasks(roles: Iterable[RoleAssignment]) -> dict[tuple[Identifier, str, str], tuple[Identifier, ...]]:
    """The tasks of each role assignment, by (actor, credential type, role value)."""
    return {(a.actor, a.credential_type, a.role._value_): a.tasks for a in roles}


def issuers_by_type(roles: Iterable[RoleAssignment]) -> dict[str, list[Identifier]]:
    """The issuers of each credential type, in role order; bootstrap takes the first."""
    issuers: dict[str, list[Identifier]] = {}
    issuer = SsiRole.ISSUER
    for a in roles:
        if a.role is issuer:
            issuers.setdefault(a.credential_type, []).append(a.actor)
    return issuers


def unmet_role(flow: CredentialFlow, tasks: Mapping[tuple[Identifier, str, str], object]) -> str | None:
    """Why ``compile_agents`` rejects ``flow``, given the :func:`role_tasks` of the roles: an actor of
    it lacks the role its kind needs (issuer, or verifier and holder).  None when none does."""
    ctype = flow.credential_type
    if flow.kind is _ISSUANCE:
        if (flow.sender, ctype, _ISSUER) not in tasks:
            return f"{flow.sender!r} is not an issuer of {ctype!r}"
    elif (flow.receiver, ctype, _VERIFIER) not in tasks:
        return f"{flow.receiver!r} is not a verifier of {ctype!r}"
    elif (flow.sender, ctype, _HOLDER) not in tasks:
        return f"{flow.sender!r} is not a holder of {ctype!r}"
    return None


def infer_roles(model: Model, lexicon: VerbLexicon = DEFAULT_LEXICON) -> tuple[RoleAssignment, ...]:
    """Derive Issuer/Holder/Verifier assignments from task names and issuances.

    Deterministic and total: unknown verbs simply contribute nothing.  The
    result is deduplicated and sorted by (actor, credential type, role).
    """
    names = _Names.of(model)
    found: dict[tuple[Identifier, str, str], list[Identifier]] = {}  # as ``role_tasks`` keys them
    for (actor, task), norm in names.tasks:
        role = _verb_class(norm, lexicon)
        if role is None:
            continue
        for ctype in names.catalog.types_in(norm):
            found.setdefault((actor, ctype, role), []).append(task)

    # Receiving an issuance makes the depender a holder even without a task.
    for dep, ctype in names.catalog.resources:
        if _is_issuance(dep.annotations.get("ssi"), (dep.dependee, ctype, _ISSUER) in found):
            found.setdefault((dep.depender, ctype, _HOLDER), [])

    # Roles sort by their values, so the keys sort as the assignments do.
    return tuple(
        RoleAssignment(actor, ctype, _ROLES[role], tuple(found[actor, ctype, role]))
        for actor, ctype, role in sorted(found)
    )


def derive_flows(model: Model, roles: Sequence[RoleAssignment]) -> tuple[CredentialFlow, ...]:
    """Classify each resource dependency as an issuance or a presentation.

    The issuance rule decides each issuance, as it decides
    holder-by-issuance in :func:`infer_roles`: an ``ssi`` annotation wins
    outright, else a dependee that issues the dependum type makes it one.
    The rest are presentations: with verb evidence where the dependee holds
    the type and the depender verifies it, else with unresolved evidence,
    to be surfaced by :func:`lint_ssi`.  Evidence
    elements and the task ids the agents act on come from the roles' tasks
    and the model's links, read here once.
    """
    names = _Names.of(model)
    copy_sends, copy_tasks = names.copy_sends, names.copy_tasks
    tasks = role_tasks(roles)
    # An issuer's gates are all of its Verifier tasks, in element order, plus
    # the sources of the needed-by links into the issue task, in link order.
    verifier, needs = SsiRole.VERIFIER, LinkKind.NEEDED_BY
    verifier_tasks = {(a.actor, t) for a in roles if a.role is verifier for t in a.tasks}
    gates: dict[Identifier, tuple[Identifier, ...]] = {}
    needed_by: dict[tuple[Identifier, Identifier], list[Identifier]] = {}
    for actor in model.actors:
        gates[actor.id] = tuple(e.id for e in actor.elements if (actor.id, e.id) in verifier_tasks)
        for link in actor.links:
            if link.kind is needs:
                needed_by.setdefault((actor.id, link.target), []).append(link.source)
    flows: list[CredentialFlow] = []
    for dep, ctype in names.catalog.resources:
        forced = dep.annotations.get("ssi")
        issuer = tasks.get((dep.dependee, ctype, _ISSUER))
        holder = tasks.get((dep.dependee, ctype, _HOLDER))
        verifier = tasks.get((dep.depender, ctype, _VERIFIER))
        issuance = _is_issuance(forced, issuer is not None)
        if forced in ("issue", "present"):
            evidence = Evidence(_ANNOTATION)
        elif issuance:
            evidence = Evidence(_VERB, issuer[0] if issuer else None)
        elif holder is not None and verifier is not None:
            evidence = Evidence(_VERB, holder[0] if holder else verifier[0] if verifier else None)
        else:
            evidence = Evidence(_UNRESOLVED)
        if issuance:
            issue_task = issuer[0] if issuer else None
            copy_task, copy_candidates = copy_sends.get(dep.dependee, (None, (None,)))  # sent to the first
            gate_tasks = gates.get(dep.dependee, ()) + tuple(needed_by.get((dep.dependee, issue_task), ()))
            flow = CredentialFlow(
                dep.id, _ISSUANCE, ctype, dep.dependee, dep.depender, evidence, copy_to=copy_candidates[0],
                copy_task=copy_task, issue_task=issue_task, gate_tasks=gate_tasks, await_task=dep.depender_element,
                subject=dep.annotations.get("ssi.subject"),
            )
        else:
            checks = verifier or ()
            flow = CredentialFlow(
                dep.id, _PRESENTATION, ctype, dep.dependee, dep.depender, evidence,
                require_copy=any((dep.depender, t) in copy_tasks for t in checks), check_tasks=checks,
                verdict_task=dep.dependee_element, purpose=dep.annotations.get("ssi.purpose"),
            )
        flows.append(flow)
    return tuple(flows)


def lint_ssi(
    model: Model, roles: Sequence[RoleAssignment], flows: Sequence[CredentialFlow]
) -> tuple[ValidationIssue, ...]:
    """Surface overlay blind spots; returns warnings only, sorted (code, subject)."""
    findings: list[ValidationIssue] = []
    tasks = role_tasks(roles)
    for flow in flows:
        if flow.evidence.kind is _UNRESOLVED:
            message = f"cannot tell whether {flow.credential_type!r} is issued or presented here"
            findings.append(ValidationIssue("W_FLOW_AMBIGUOUS", flow.dependency, message))
        elif (unmet := unmet_role(flow, tasks)) is not None:
            message = f"{unmet}, so the {flow.kind.value.lower()} cannot be simulated"
            findings.append(ValidationIssue("W_FLOW_ROLE_MISSING", flow.dependency, message))
        side, task = ("depender", flow.await_task) if flow.kind is _ISSUANCE else ("dependee", flow.verdict_task)
        if task is None and flow.evidence.kind is not _UNRESOLVED:
            message = f"its {side} side is an actor, not an element, so the run labels no {side} task from it"
            findings.append(ValidationIssue("W_FLOW_UNANCHORED", flow.dependency, message))

    issuers = issuers_by_type(roles)
    task_types: dict[tuple[Identifier, Identifier], list[str]] = {}
    for assignment in roles:
        for task in assignment.tasks:
            task_types.setdefault((assignment.actor, task), []).append(assignment.credential_type)
    presented = sorted({f.credential_type for f in flows if f.kind is _PRESENTATION})
    for ctype in presented:
        if ctype not in issuers:
            findings.append(ValidationIssue("W_NO_ISSUER", ctype, f"{ctype!r} is presented but nobody issues it"))
        elif len(issuers[ctype]) > 1:
            names, first = ", ".join(issuers[ctype]), issuers[ctype][0]
            message = f"{ctype!r} has several issuers ({names}): bootstrap uses {first}'s, a wallet keeps one per type"
            findings.append(ValidationIssue("W_MULTI_ISSUER", ctype, message))
    for (_, task), types in task_types.items():
        if len(types) > 1:
            message = f"names the credential types {', '.join(map(repr, types))}, so it is read as one role for each"
            findings.append(ValidationIssue("W_TASK_MULTI_TYPE", task, message))

    # A tie between the longest actor names of a copy task the flows carry, as the names were read.
    copy_sends = _Names.of(model).copy_sends
    for sender, task, picked in sorted({(f.sender, f.copy_task, f.copy_to) for f in flows if f.copy_task is not None}):
        read_task, candidates = copy_sends.get(sender, (None, ()))
        if read_task == task and len(candidates) > 1:
            message = f"names {', '.join(candidates)}, whose names are equally long: the copy goes to {picked}"
            findings.append(ValidationIssue("W_COPY_AMBIGUOUS", task, message))

    flow_targets = {(f.receiver, f.credential_type) for f in flows}
    verifier = SsiRole.VERIFIER
    for assignment in roles:
        if assignment.role is verifier and (assignment.actor, assignment.credential_type) not in flow_targets:
            message = f"verifies {assignment.credential_type!r} but no such credential flows to it"
            findings.append(ValidationIssue("W_ORPHAN_VERIFIER", assignment.actor, message))

    findings.sort(key=lambda i: (i.code, i.offending_id))
    return tuple(findings)


def build_trust_registry(
    roles: Sequence[RoleAssignment], flows: Sequence[CredentialFlow], did_of: Mapping[Identifier, str]
) -> TrustRegistry:
    """Assemble the default per-verifier accepted-issuer sets.

    A verifier of T accepts exactly the DIDs of the model's issuers of T;
    :func:`apply_trust_overrides` then adjusts them.
    """
    issuers = issuers_by_type(roles)
    senders = [f.sender for f in flows if f.kind is _ISSUANCE]
    for actor in itertools.chain(senders, *issuers.values()):
        if actor not in did_of:
            raise ValueError(f"didOf is missing issuer actor {actor!r}")
    verifier = SsiRole.VERIFIER
    verifier_pairs = {(a.actor, a.credential_type) for a in roles if a.role is verifier}
    return TrustRegistry(
        {pair: frozenset(did_of[a] for a in issuers.get(pair[1], ())) for pair in sorted(verifier_pairs)}
    )


def apply_trust_overrides(
    registry: TrustRegistry, overrides: Iterable[TrustOverride]
) -> tuple[TrustRegistry, tuple[ValidationIssue, ...]]:
    """Apply ``overrides`` to ``registry`` in order, in one pass.

    Each adds or removes one DID of one (verifier, credential type) pair,
    which is how issuers outside the model enter.  Returns the new registry
    and a ``W_TRUST_NOOP`` warning for each override that changes nothing:
    one that removes a DID its pair does not accept, or adds one it already
    accepts.  DIDs depend on the seed, so such an override is usually a
    policy written for another seed.  An override naming a pair that is not
    a Verifier assignment raises :class:`TrustPolicyError`.
    """
    accepted = dict(registry.accepted)
    noops = []
    for override in overrides:
        verifier, ctype, did = override.verifier, override.credential_type, override.issuer_did
        add = override.action == "add"
        if (verifier, ctype) not in accepted:
            raise TrustPolicyError(f"{verifier!r} holds no Verifier role for {ctype!r}")
        dids = accepted[verifier, ctype]
        if (did in dids) == add:
            state = "already accepts" if add else "does not accept"
            message = f"{override.action} of {did} for {ctype!r} changes nothing: the verifier {state} it"
            noops.append(ValidationIssue("W_TRUST_NOOP", verifier, message))
        accepted[verifier, ctype] = dids | {did} if add else dids - {did}
    return TrustRegistry(accepted), tuple(noops)
