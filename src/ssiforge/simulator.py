"""Deterministic message-passing execution of a credential ecosystem.

Each actor becomes an agent with an Ed25519 keypair (derived from the run
seed and the actor id), a wallet, and the derived credential flows it takes
part in, which carry every task id it acts on:

- the depender of an issuance asks for the credential at tick 0 and retries
  on a timer until it arrives or retries are exhausted;
- an issuer answers once every one of its own check tasks is Satisfied, and
  activates those checks (sending nonce-fresh proof requests) when a request
  arrives; an issuer with a "send copy" task also mails the credential
  digest to the named actor;
- a holder answers proof requests from its wallet with a ``Presentation``,
  deferring the answer until the credential arrives if it must; the run
  signs only what it built, once, when first read: a presentation by its
  holder when a verification in progress reads it on its current nonce (or
  an ``intercept`` reads it), a credential issued in the run by its issuer;
- a verifier that issues nothing sends its proof requests at tick 0; it
  runs the four cryptographic checks on each presentation in one
  ``credentials.verify_presentation`` call, plus a digest comparison
  against its record store when a "check ... copy" task exists, then
  reports the verdict back to the presenter;
- each distinct issuer signature is verified with Ed25519 once per run,
  through a memo keyed on the bytes verified that the run keeps and drops
  with itself; it starts with each agent's DID and key, and adds the key
  any other presenter DID decodes to; a holder proof answering a
  superseded nonce is not verified;
- a request or verification still unanswered after its last retry Denies
  the tasks waiting on it.

A message is its kind, its flow, its two ends and one payload.  One rule,
``_Simulation._DELIVERY``, gives each message kind the flow kind it travels
on, its ends and the payload its handler reads, such as a credential of the
flow's type; a run sends each message between those ends, and the agent
addressed acts on it.  ``intercept``, a test hook, sees each message at
delivery, signed, and returns None for a drop or a substitute, which no key
of the run signs and the rule checks there: one off its flow or with another
payload is ignored, and its summary writes a kind, flow or end that is not a
string as null.

Task labels move as the run progresses (Denied is terminal), and the final
labels come from propagating them through the goal model.  Time is a tick
counter driven by a single delivery queue; randomness (message drops, nonce
bytes) comes from one SplitMix64 stream, whose drop draw advances it at
every delivery, drop 0 included, so a (model, agents, config) triple always
reproduces the same trace, byte for byte.  Each event is encoded once, when
it happens, into the canonical JSON line a trace keeps; its ``seq`` is its
index among those lines.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from json.encoder import encode_basestring
from operator import attrgetter

from .credentials import (
    Credential,
    KeyPair,
    Presentation,
    VerificationMemo,
    VerificationOutcome,
    canonical_text,
    create_presentation,
    did_from_public_key,
    generate_keypair,
    issue_credential,
    mint_credential,
    verify_presentation,
)
from .model import Identifier, Model, Record
from .overlay import (
    CredentialFlow, FlowKind, RoleAssignment, SsiRole, TrustRegistry, issuers_by_type, role_tasks, unmet_role,
)
from .propagation import LabelState, evaluate_goals

_MASK64 = (1 << 64) - 1

# The labels a run sets and their texts, read once: on Python 3.11 enum member and ``.value`` reads are slow.
_SATISFIED, _DENIED = LabelState.SATISFIED, LabelState.DENIED
_SATISFIED_TEXT, _DENIED_TEXT = _SATISFIED.value, _DENIED.value


class SplitMix64:
    """Tiny deterministic PRNG; the only randomness source in a run."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:  # ``next_u64`` inline: one per delivery
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def next_nonce(self) -> bytes:
        return self.next_u64().to_bytes(8, "big") + self.next_u64().to_bytes(8, "big")


def actor_key_seed(seed: int, actor_id: Identifier) -> bytes:
    return hashlib.sha256((seed & _MASK64).to_bytes(8, "big") + actor_id.encode("utf-8")).digest()


def subject_key_seed(seed: int, subject: str) -> bytes:
    # NUL separates the namespace from actor ids, which never contain it.
    return hashlib.sha256((seed & _MASK64).to_bytes(8, "big") + b"\x00subject:" + subject.encode("utf-8")).digest()


class SimConfig(Record):
    seed: int = 0
    latency: Mapping[tuple[Identifier, Identifier], int] = {}
    default_latency: int = 1
    drop_probability: float = 0.0
    max_retries: int = 3
    retry_timeout: int = 10
    max_ticks: int = 10000

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must be within [0, 2^64)")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")
        if self.default_latency < 0 or any(v < 0 for v in self.latency.values()):
            raise ValueError("latencies must be non-negative")
        if self.max_retries < 0 or self.retry_timeout <= 0 or self.max_ticks <= 0:
            raise ValueError("retry and tick bounds must be positive")

    def as_trace_dict(self) -> dict:
        return {
            "defaultLatency": self.default_latency,
            "dropProbability": self.drop_probability,
            "latency": {f"{a}->{b}": v for (a, b), v in sorted(self.latency.items())},
            "maxRetries": self.max_retries,
            "maxTicks": self.max_ticks,
            "retryTimeout": self.retry_timeout,
            "seed": self.seed,
        }


class BootstrapCredential(Record):
    credential_type: str
    issuer: Identifier
    holder: Identifier


class AgentSpec(Record):
    actor: Identifier
    did: str
    keys: KeyPair
    wallet: tuple[Credential, ...]
    verifies: tuple[CredentialFlow, ...]  # the presentations it receives
    issues: tuple[CredentialFlow, ...]  # the issuances it sends
    requests: tuple[CredentialFlow, ...]  # the issuances it receives
    trust: TrustRegistry
    prelabeled: tuple[Identifier, ...] = ()


class CompileError(ValueError):
    code = "E_COMPILE_ROLE"


def derive_bootstrap(
    model: Model,
    roles: Sequence[RoleAssignment],
    flows: Sequence[CredentialFlow],
) -> tuple[BootstrapCredential, ...]:
    """Pre-issue whatever presented credentials no in-run issuance provides."""
    issuance, presentation = FlowKind.ISSUANCE, FlowKind.PRESENTATION
    issuance_targets = {(f.credential_type, f.receiver) for f in flows if f.kind is issuance}
    first_issuer = {ctype: actors[0] for ctype, actors in issuers_by_type(roles).items()}
    out: list[BootstrapCredential] = []
    seen: set[tuple[str, Identifier]] = set()
    for flow in flows:
        if flow.kind is not presentation:
            continue
        key = (flow.credential_type, flow.sender)
        if key in issuance_targets or key in seen:
            continue
        issuer = first_issuer.get(flow.credential_type)
        if issuer is None or issuer == flow.sender:
            continue
        seen.add(key)
        out.append(BootstrapCredential(flow.credential_type, issuer, flow.sender))
    return tuple(out)


def _claims_for(credential_type: str, issuer: Identifier, holder: Identifier, subject: str | None) -> dict[str, str]:
    return {
        "credentialType": credential_type,
        "holderActor": holder,
        "issuerActor": issuer,
        "subjectActor": holder if subject is None else subject,
    }


def compile_agents(
    model: Model,
    roles: Sequence[RoleAssignment],
    flows: Sequence[CredentialFlow],
    trust: TrustRegistry,
    bootstrap: Iterable[BootstrapCredential] = (),
    seed: int = 0,
) -> tuple[AgentSpec, ...]:
    """Turn actors plus derived flows into ready-to-run agent specs.

    Binds each actor's keys, DID and wallet, and hands it the flows it acts
    on; every task id comes from the flows, so no name or element is read
    here.  Raises :class:`CompileError` when a flow references an actor that
    lacks the role the flow requires (issuer for issuances, holder and
    verifier for presentations) or that the model lacks.
    """
    tasks = role_tasks(roles)
    keys = {actor.id: generate_keypair(actor_key_seed(seed, actor.id)) for actor in model.actors}
    dids = {actor_id: did_from_public_key(pair.public_key) for actor_id, pair in keys.items()}
    # Lists by actor id; an actor with nothing to list is in no table.
    verifies, issues, requests, wallets, prelabeled = ({} for _ in range(5))

    for flow in flows:
        unmet = unmet_role(flow, tasks)
        if unmet is not None:
            raise CompileError(unmet)
        if flow.kind is FlowKind.ISSUANCE:
            issues.setdefault(flow.sender, []).append(flow)
            requests.setdefault(flow.receiver, []).append(flow)
        else:
            verifies.setdefault(flow.receiver, []).append(flow)
        if flow.sender not in keys or flow.receiver not in keys:
            raise CompileError(f"flow {flow.dependency!r} joins an actor the model lacks")

    for entry in bootstrap:
        if entry.issuer not in keys or entry.holder not in keys:
            raise CompileError(f"bootstrap references unknown actor {entry.issuer!r} or {entry.holder!r}")
        holder_did = dids[entry.holder]
        claims = _claims_for(entry.credential_type, entry.issuer, entry.holder, None)
        credential = issue_credential(
            keys[entry.issuer],
            mint_credential(dids[entry.issuer], holder_did, holder_did, entry.credential_type, claims, issued_at=0),
        )
        wallets.setdefault(entry.holder, []).append(credential)
        issuer_tasks = tasks.get((entry.issuer, entry.credential_type, SsiRole.ISSUER.value))
        if issuer_tasks:
            prelabeled.setdefault(entry.issuer, []).append(issuer_tasks[0])

    return tuple(
        AgentSpec(
            actor=actor.id,
            did=dids[actor.id],
            keys=keys[actor.id],
            wallet=tuple(wallets.get(actor.id, ())),
            verifies=tuple(verifies.get(actor.id, ())),
            issues=tuple(issues.get(actor.id, ())),
            requests=tuple(requests.get(actor.id, ())),
            trust=trust,
            prelabeled=tuple(prelabeled.get(actor.id, ())),
        )
        for actor in model.actors
    )


class Message(Record):
    kind: str
    flow: Identifier | None
    from_actor: Identifier
    to_actor: Identifier
    payload: bytes | Credential | str | Presentation | bool | None = None  # the one its kind carries


def _summarize(msg: Message, flow: CredentialFlow | None) -> str:
    """A message's trace summary, as canonical JSON written from a fixed
    template, keys in canonical (sorted) order: its payload by its class, its
    kind, flow and ends (null if not strings), and the credential type, and a
    proof request's purpose, of ``flow``, the flow it names (None if none)."""
    payload, kind, flow_id, from_actor, to_actor = msg.payload, msg.kind, msg.flow, msg.from_actor, msg.to_actor
    head = digest = nonce = purpose = verdict = ""
    if isinstance(payload, bytes):
        nonce = f',"nonce":"{payload.hex()}"'  # hex digits need no escaping
    elif isinstance(payload, str):
        digest = ',"digest":' + encode_basestring(payload)
    elif isinstance(payload, bool):
        verdict = ',"verdict":true' if payload else ',"verdict":false'
    elif isinstance(payload, Presentation):
        head, nonce = f'"credentialId":{encode_basestring(payload.credential.id)},', f',"nonce":"{payload.nonce.hex()}"'
    elif isinstance(payload, Credential):
        head = f'"credentialId":{encode_basestring(payload.id)},'
    if flow is not None and flow.purpose is not None and kind == "ProofRequest":
        purpose = ',"purpose":' + encode_basestring(flow.purpose)
    return (
        f'{{{head}"credentialType":{"null" if flow is None else encode_basestring(flow.credential_type)}{digest}'
        f',"flow":{encode_basestring(flow_id) if isinstance(flow_id, str) else "null"}'
        f',"from":{encode_basestring(from_actor) if isinstance(from_actor, str) else "null"}{nonce}{purpose}'
        f',"to":{encode_basestring(to_actor) if isinstance(to_actor, str) else "null"}'
        f',"type":{encode_basestring(kind) if isinstance(kind, str) else "null"}{verdict}}}'
    )


_JSON_BOOL = {True: "true", False: "false"}


def _issue_event(seq: int, tick: int, flow: CredentialFlow, credential: Credential) -> str:
    """The Issue event of ``credential`` on ``flow``, as canonical JSON written from a fixed template."""
    return (
        f'{{"credentialId":{encode_basestring(credential.id)},'
        f'"credentialType":{encode_basestring(flow.credential_type)},"flow":{encode_basestring(flow.dependency)},'
        f'"holder":{encode_basestring(flow.receiver)},"issuer":{encode_basestring(flow.sender)},"kind":"Issue",'
        f'"seq":{seq},"subject":{encode_basestring(credential.subject)},"tick":{tick}}}'
    )


def _verify_event(
    seq: int, tick: int, flow: CredentialFlow, presenter: Identifier, credential_id: str,
    outcome: VerificationOutcome, copy_ok: bool | None,
) -> tuple[str, bool]:
    """The Verify event of a presentation on ``flow`` to its receiver, as
    canonical JSON written from a fixed template, and its verdict: the four
    checks, and the office copy when ``copy_ok`` is not None."""
    verdict = outcome.verdict and copy_ok is not False
    fail_reason = "" if verdict else outcome.fail_reason or "officeCopy"  # ``fail_reason`` builds ``flags``
    return (
        ("{" if copy_ok is None else f'{{"copyOk":{_JSON_BOOL[copy_ok]},')
        + f'"credentialId":{encode_basestring(credential_id)},'
        f'"credentialType":{encode_basestring(flow.credential_type)},'
        + (f'"failReason":{encode_basestring(fail_reason)},' if fail_reason else "")
        + f'"flow":{encode_basestring(flow.dependency)},"integrity":{_JSON_BOOL[outcome.integrity]},'
        f'"issuerSignature":{_JSON_BOOL[outcome.issuer_signature]},'
        f'"issuerTrusted":{_JSON_BOOL[outcome.issuer_trusted]},'
        f'"kind":"Verify","presenter":{encode_basestring(presenter)},"seq":{seq},'
        f'"subjectBinding":{_JSON_BOOL[outcome.subject_binding]},"tick":{tick},"verdict":{_JSON_BOOL[verdict]},'
        f'"verifier":{encode_basestring(flow.receiver)}}}'
    ), verdict


def _goal_update(seq: int, tick: int, element: Identifier, label: str) -> str:
    """A GoalUpdate event, as canonical JSON written from a fixed template."""
    return (
        f'{{"element":{encode_basestring(element)},"kind":"GoalUpdate",'
        f'"label":{encode_basestring(label)},"seq":{seq},"tick":{tick}}}'
    )


class _Events(Sequence):
    """A trace's events, each parsed from its line when it is read: an index
    or a slice gives new dicts, and nothing parsed is kept."""

    __slots__ = ("_lines",)

    def __init__(self, lines: Sequence[str]) -> None:
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [json.loads(line) for line in self._lines[index]]
        return json.loads(self._lines[index])

    def __iter__(self):
        return map(json.loads, self._lines)


class Trace(Record):
    """A run's outcome; each event is held only as its canonical JSON line."""

    config: Mapping[str, object]
    event_lines: tuple[str, ...]
    final_labels: Mapping[Identifier, str]
    termination: str
    final_tick: int

    @property
    def events(self) -> _Events:
        """The events as dicts, parsed from ``event_lines`` each time one is read."""
        return _Events(self.event_lines)

    def lines(self) -> list[str]:
        head = {"config": dict(self.config)}
        tail = {"finalLabels": dict(self.final_labels), "finalTick": self.final_tick, "termination": self.termination}
        return [canonical_text(head), *self.event_lines, canonical_text(tail)]

    def text(self) -> str:
        lines = self.lines()
        lines.append("")  # the final newline, so the text is joined once, not copied again
        return "\n".join(lines)


def _of_type(credential: object, flow: CredentialFlow) -> bool:
    """Whether ``credential`` is a credential of ``flow``'s type."""
    return isinstance(credential, Credential) and credential.type == flow.credential_type


class _RetryState:
    """A verification or an issuance request, which the receiver of ``flow``
    sends, then resends on a timer until it resolves; when the retries run
    out, ``tasks`` are Denied."""

    def __init__(self, flow: CredentialFlow, tasks: tuple[Identifier | None, ...]) -> None:
        self.flow = flow  # a presentation to verify, or an issuance to request
        self.tasks = tasks
        self.nonce: bytes | None = None  # a verification's latest nonce; None until it starts
        self.attempt = 0
        self.resolved = False


class _AgentState:
    def __init__(self, spec: AgentSpec) -> None:
        self.spec = spec
        self.wallet: dict[str, Credential] = {credential.type: credential for credential in spec.wallet}
        self.record_store: dict[str, list[str]] = {}
        self.deferred: list[tuple[CredentialFlow, bytes | None]] = []  # proof requests waiting for a credential
        self.verifications = {f.dependency: _RetryState(f, f.check_tasks) for f in spec.verifies}
        self.requests = {f.dependency: _RetryState(f, (f.await_task,)) for f in spec.requests}
        self.pending_issue: dict[Identifier, CredentialFlow] = {}  # the requested flows, in request order
        self.issued: dict[Identifier, Credential] = {}


class _Simulation:
    def __init__(
        self, model: Model, agents: Sequence[AgentSpec], config: SimConfig,
        intercept: Callable[[Message, int], Message | None] | None,
    ) -> None:
        self.model = model
        self.config = config
        self.intercept = intercept
        self.prng = SplitMix64(config.seed)
        self.agents = {spec.actor: _AgentState(spec) for spec in agents}
        self.directory = {spec.did: spec.keys.public_key for spec in agents}
        # Every flow by its dependency id: each issuance its sender issues, each presentation its receiver verifies.
        self.flows = {f.dependency: f for spec in agents for f in (*spec.issues, *spec.verifies)}
        self.subject_dids: dict[str, str] = {}
        self.verified: VerificationMemo = dict(self.directory)  # signature checks and DID keys, agents' first
        # By object identity, each credential and presentation the run built unsigned (held,
        # so no other takes its identity), the keys that sign it, and the signed one once read.
        self.built: dict[int, list] = {}
        self.labels: dict[Identifier, LabelState] = {}
        self.event_lines: list[str] = []
        self.heap: list[tuple] = []  # (tick, order, message, summary), or a timer's (tick, order, state, None)
        self.order = itertools.count()  # orders the heap's entries of one tick as they were pushed
        self.tick = 0

    # -- event plumbing ---------------------------------------------------

    def _send(self, kind: str, flow: CredentialFlow, payload=None) -> None:
        """Send a ``kind`` message carrying ``payload`` on ``flow`` between the ends ``_DELIVERY``
        admits it on: record its Send and schedule its delivery after its route's latency."""
        to_actor, from_actor = self._DELIVERY[kind][1](flow)
        msg = Message(kind, flow.dependency, from_actor, to_actor, payload)
        encoded = _summarize(msg, flow)
        lines, tick, latency, default = self.event_lines, self.tick, self.config.latency, self.config.default_latency
        # The keys in canonical (sorted) order.
        lines.append(f'{{"kind":"Send","message":{encoded},"seq":{len(lines)},"tick":{tick}}}')
        tick += latency.get((from_actor, to_actor), default) if latency else default
        heapq.heappush(self.heap, (tick, next(self.order), msg, encoded))

    def _set_label(self, element_id: Identifier | None, satisfied: bool) -> None:
        """Label ``element_id`` Satisfied or Denied, unless it is None, has that label or is Denied."""
        if element_id is None:
            return
        label = _SATISFIED if satisfied else _DENIED
        current = self.labels.get(element_id)
        if current is label or current is _DENIED:
            return
        self.labels[element_id] = label
        lines = self.event_lines
        lines.append(_goal_update(len(lines), self.tick, element_id, _SATISFIED_TEXT if satisfied else _DENIED_TEXT))

    # -- flow activation --------------------------------------------------

    def _subject_did(self, subject: str | None, holder_did: str) -> str:
        if subject is None:
            return holder_did
        if subject not in self.subject_dids:
            keys = generate_keypair(subject_key_seed(self.config.seed, subject))
            self.subject_dids[subject] = did_from_public_key(keys.public_key)
        return self.subject_dids[subject]

    def _send_attempt(self, state: _RetryState) -> None:
        """Send a proof request (with a fresh nonce) or an issuance request, and arm the retry timer."""
        flow = state.flow
        if flow.kind is FlowKind.PRESENTATION:
            state.nonce = self.prng.next_nonce()
            self._send("ProofRequest", flow, state.nonce)
        else:
            self._send("IssuanceRequest", flow)
        heapq.heappush(self.heap, (self.tick + self.config.retry_timeout, next(self.order), state, None))

    def _try_issue(self, agent: _AgentState) -> None:
        for flow in list(agent.pending_issue.values()):
            if any(self.labels.get(t) is not _SATISFIED for t in flow.gate_tasks):
                continue
            holder_did = self.agents[flow.receiver].spec.did
            claims = _claims_for(flow.credential_type, agent.spec.actor, flow.receiver, flow.subject)
            credential = mint_credential(
                agent.spec.did, self._subject_did(flow.subject, holder_did), holder_did, flow.credential_type, claims,
                issued_at=self.tick,
            )
            self.built[id(credential)] = [credential, agent.spec.keys, None]
            agent.issued[flow.dependency] = credential
            del agent.pending_issue[flow.dependency]
            self.event_lines.append(_issue_event(len(self.event_lines), self.tick, flow, credential))
            self._set_label(flow.issue_task, True)
            self._send("CredentialIssuance", flow, credential)
            if flow.copy_to is not None:
                self._send("RecordCopy", flow, credential.id)

    def _activate_gates(self, agent: _AgentState, flow: CredentialFlow) -> None:
        unsatisfied = {t for t in flow.gate_tasks if self.labels.get(t) is not _SATISFIED}
        for state in agent.verifications.values():
            if state.nonce is None and set(state.tasks) & unsatisfied:
                self._send_attempt(state)

    # -- message handlers -------------------------------------------------
    # Each takes the agent a message is delivered to, the flow that the
    # delivery rule (``_DELIVERY``) matched it to, and its payload.

    def _on_issuance_request(self, agent: _AgentState, flow: CredentialFlow, payload: None) -> None:
        credential = agent.issued.get(flow.dependency)
        if credential is not None:
            self._send("CredentialIssuance", flow, credential)
        else:
            agent.pending_issue[flow.dependency] = flow
            self._activate_gates(agent, flow)
            self._try_issue(agent)

    def _present(self, holder: AgentSpec, flow: CredentialFlow, nonce: bytes, credential: Credential) -> None:
        """Send ``holder``'s presentation of ``credential`` on ``nonce``, its holder proof empty until read."""
        presentation = Presentation(credential, holder.did, nonce, b"")
        self.built[id(presentation)] = [presentation, holder.keys, None]
        self._send("ProofPresentation", flow, presentation)

    def _on_proof_request(self, agent: _AgentState, flow: CredentialFlow, nonce: bytes) -> None:
        credential = agent.wallet.get(flow.credential_type)
        if credential is None:
            agent.deferred.append((flow, nonce))
        else:
            self._present(agent.spec, flow, nonce, credential)

    def _signed(self, value, proof: bool = True):
        """``value`` signed once, when first read, if the run built it: a credential
        by its issuer, a presentation by its holder after its credential or, without
        ``proof``, its credential only.  Anything else, such as an ``intercept``'s, is
        as it is.  Ed25519 is deterministic, so signing late gives the same bytes."""
        entry = self.built.get(id(value))
        if entry is None:
            return value
        _, keys, signed = entry
        if signed is None:
            if value.__class__ is Credential:
                signed = entry[2] = issue_credential(keys, value)
            else:
                credential = self._signed(value.credential)
                if not proof:
                    return value.replace(credential=credential)
                signed = entry[2] = create_presentation(keys, value.presenter, credential, value.nonce)
        return signed

    def _on_proof_presentation(self, agent: _AgentState, flow: CredentialFlow, presentation: Presentation) -> None:
        state = agent.verifications[flow.dependency]
        if state.resolved or state.nonce is None:  # answered already, or never asked
            return
        # A proof answering a superseded nonce is not verified, so not signed.
        presentation = self._signed(presentation, proof=presentation.nonce == state.nonce)
        outcome = verify_presentation(
            presentation,
            self.directory,
            agent.spec.trust,
            verifier=flow.receiver,
            expected_nonce=state.nonce,
            memo=self.verified,
        )
        copy_ok: bool | None = None
        if flow.require_copy:
            copy_ok = presentation.credential.id in agent.record_store.get(flow.credential_type, [])
        line, overall = _verify_event(
            len(self.event_lines), self.tick, flow, flow.sender, presentation.credential.id, outcome, copy_ok
        )
        self.event_lines.append(line)
        state.resolved = True
        for task_id in state.tasks:
            self._set_label(task_id, overall)
        self._send("PresentationVerdict", flow, overall)
        self._try_issue(agent)

    def _on_presentation_verdict(self, agent: _AgentState, flow: CredentialFlow, verdict: bool) -> None:
        self._set_label(flow.verdict_task, verdict)

    def _on_credential_issuance(self, agent: _AgentState, flow: CredentialFlow, credential: Credential) -> None:
        agent.wallet[credential.type] = credential
        state = agent.requests[flow.dependency]
        if not state.resolved:
            state.resolved = True
            self._set_label(flow.await_task, True)
        deferred, agent.deferred = agent.deferred, []
        for request in deferred:
            if request[0].credential_type == credential.type:
                self._present(agent.spec, *request, credential)
            else:
                agent.deferred.append(request)

    def _on_record_copy(self, agent: _AgentState, flow: CredentialFlow, digest: str) -> None:
        agent.record_store.setdefault(flow.credential_type, []).append(digest)
        self._set_label(flow.copy_task, True)

    # The delivery rule: for each message kind, the kind of flow it travels on, the
    # ends of that flow that receive and send it (a ``copy_to`` of None admits no
    # copy), whether its payload is the one its handler reads on that flow, and its handler.
    _DELIVERY = {
        "IssuanceRequest": (FlowKind.ISSUANCE, attrgetter("sender", "receiver"), lambda p, f: p is None,
                            _on_issuance_request),
        "CredentialIssuance": (FlowKind.ISSUANCE, attrgetter("receiver", "sender"), _of_type,
                               _on_credential_issuance),
        "RecordCopy": (FlowKind.ISSUANCE, attrgetter("copy_to", "sender"), lambda p, f: isinstance(p, str),
                       _on_record_copy),
        "ProofRequest": (FlowKind.PRESENTATION, attrgetter("sender", "receiver"),
                         lambda p, f: isinstance(p, bytes) and len(p) == 16, _on_proof_request),
        "ProofPresentation": (FlowKind.PRESENTATION, attrgetter("receiver", "sender"),
                              lambda p, f: isinstance(p, Presentation) and _of_type(p.credential, f),
                              _on_proof_presentation),
        "PresentationVerdict": (FlowKind.PRESENTATION, attrgetter("sender", "receiver"),
                                lambda p, f: isinstance(p, bool), _on_presentation_verdict),
    }

    def _intercepted(self, msg: Message, encoded: str) -> None:
        """Deliver what ``intercept`` makes of ``msg`` by the delivery rule, or drop it for None."""
        signed = msg.replace(payload=self._signed(msg.payload))  # the hook sees it signed
        msg, lines = self.intercept(signed, self.tick), self.event_lines
        flow = self.flows.get(msg.flow) if msg is not None and isinstance(msg.flow, str) else None
        if msg is not None and msg is not signed:
            encoded = _summarize(msg, flow)
        lines.append(f'{{"kind":"{"Drop" if msg is None else "Deliver"}","message":{encoded},"seq":{len(lines)},'
                     f'"tick":{self.tick}}}')
        rule = self._DELIVERY.get(msg.kind) if flow is not None and isinstance(msg.kind, str) else None
        if rule is None or msg.to_actor is None:
            return
        flow_kind, ends, carries, handler = rule
        if flow.kind is flow_kind and ends(flow) == (msg.to_actor, msg.from_actor) and carries(msg.payload, flow):
            handler(self, self.agents[msg.to_actor], flow, msg.payload)

    # -- timers -----------------------------------------------------------

    def _on_timer(self, state: _RetryState) -> None:
        if state.resolved:
            return
        if state.attempt < self.config.max_retries:
            state.attempt += 1
            self._send_attempt(state)
        else:
            state.resolved = True
            for task_id in state.tasks:
                self._set_label(task_id, False)

    # -- main loop --------------------------------------------------------

    def run(self) -> Trace:
        for agent in self.agents.values():
            for task_id in agent.spec.prelabeled:
                self._set_label(task_id, True)
        for agent in self.agents.values():
            # An issuing agent's checks gate its issuances, so await a request; others' start at tick 0.
            if not agent.spec.issues:
                for state in agent.verifications.values():
                    if state.tasks:
                        self._send_attempt(state)
            for state in agent.requests.values():
                self._send_attempt(state)

        termination = "quiescence"
        heap, heappop, lines, flows, agents = self.heap, heapq.heappop, self.event_lines, self.flows, self.agents
        delivery, intercept, next_float = self._DELIVERY, self.intercept, self.prng.next_float
        max_ticks, drop_probability = self.config.max_ticks, self.config.drop_probability
        while heap:
            tick, _, msg, encoded = heappop(heap)
            if tick > max_ticks:
                termination = "timeout"
                self.tick = max_ticks
                break
            self.tick = tick
            if encoded is None:  # a timer, ``msg`` its retry state
                self._on_timer(msg)
                continue
            if next_float() < drop_probability:  # drawn at every delivery, drop 0 included
                lines.append(f'{{"kind":"Drop","message":{encoded},"seq":{len(lines)},"tick":{tick}}}')
            elif intercept is not None:
                self._intercepted(msg, encoded)
            else:  # admitted by construction: ``_send`` took its flow, ends and payload from one rule
                lines.append(f'{{"kind":"Deliver","message":{encoded},"seq":{len(lines)},"tick":{tick}}}')
                delivery[msg.kind][3](self, agents[msg.to_actor], flows[msg.flow], msg.payload)

        final = evaluate_goals(self.model, self.labels)
        return Trace(
            config=self.config.as_trace_dict(),
            event_lines=tuple(lines),
            final_labels={k: v._value_ for k, v in sorted(final.items())},  # ``_value_`` skips a descriptor
            termination=termination,
            final_tick=self.tick,
        )


def run(
    model: Model,
    agents: Sequence[AgentSpec],
    config: SimConfig,
    intercept: Callable[[Message, int], Message | None] | None = None,
) -> Trace:
    """Execute the compiled agents until quiescence or the tick bound.

    The run signs only what it built, when first read, and verifies each
    distinct issuer signature once; ``intercept`` is the test-harness hook
    of the module docstring.
    """
    return _Simulation(model, agents, config, intercept).run()


def write_trace(trace: Trace, path) -> None:
    from pathlib import Path

    Path(path).write_text(trace.text(), encoding="utf-8")
