import hashlib
import itertools
import json
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given, strategies as st

import helpers
import ssiforge.credentials as credentials
import ssiforge.simulator as simulator
from ssiforge.credentials import (
    CHECK_ORDER,
    Credential,
    Presentation,
    VerificationOutcome,
    canonical_bytes,
    canonical_text,
    create_presentation,
    did_from_public_key,
    generate_keypair,
)
from ssiforge.model import ElementKind
from ssiforge.overlay import (
    DEFAULT_LEXICON,
    CredentialFlow,
    Evidence,
    EvidenceKind,
    FlowKind,
    RoleAssignment,
    SsiRole,
    TrustOverride,
    TrustRegistry,
    VerbLexicon,
    apply_trust_overrides,
    build_trust_registry,
    infer_roles,
    derive_flows,
)
from ssiforge.propagation import LabelState, evaluate_goals, root_goals
from ssiforge.simulator import (
    BootstrapCredential,
    CompileError,
    Message,
    SimConfig,
    SplitMix64,
    Trace,
    actor_key_seed,
    compile_agents,
    derive_bootstrap,
    run,
    subject_key_seed,
    write_trace,
)

BND = "Birth Notification Document"
MID = "Mother's ID"
CERT = "Birth Certificate"


# -- deterministic plumbing -----------------------------------------------


def test_splitmix64_reference_sequence():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    gen = SplitMix64(0x123456789ABCDEF)
    assert [gen.next_u64() for _ in range(2)] == [0x157A3807A48FAA9D, 0xD573529B34A1D093]


def test_splitmix64_float_and_nonce():
    gen = SplitMix64(42)
    floats = [gen.next_float() for _ in range(100)]
    assert all(0.0 <= f < 1.0 for f in floats)
    nonce = gen.next_nonce()
    assert isinstance(nonce, bytes) and len(nonce) == 16
    assert gen.next_nonce() != nonce
    again = SplitMix64(42)
    assert [again.next_float() for _ in range(100)] == floats
    # A float is the top 53 bits of the draw ``next_u64`` makes at the same place in the stream.
    words = SplitMix64(42)
    assert floats == [(words.next_u64() >> 11) * 2.0**-53 for _ in range(100)]


def test_key_seeds_are_plain_hashes():
    assert actor_key_seed(42, "Mother") == hashlib.sha256((42).to_bytes(8, "big") + b"Mother").digest()
    assert subject_key_seed(7, "child") == hashlib.sha256((7).to_bytes(8, "big") + b"\x00subject:child").digest()
    assert actor_key_seed(1, "ab") != subject_key_seed(1, "ab")


def test_config_defaults_and_latency():
    # How a run applies the latencies is pinned by ``test_fixture_lossy_trace_is_pinned``.
    config = SimConfig(seed=5, latency={("A", "B"): 4})
    assert config.as_trace_dict() == {
        "defaultLatency": 1,
        "dropProbability": 0.0,
        "latency": {"A->B": 4},
        "maxRetries": 3,
        "maxTicks": 10000,
        "retryTimeout": 10,
        "seed": 5,
    }


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drop_probability": -0.1},
        {"drop_probability": 1.5},
        {"default_latency": -1},
        {"latency": {("A", "B"): -2}},
        {"max_retries": -1},
        {"retry_timeout": 0},
        {"max_ticks": 0},
        {"seed": -1},
        {"seed": 2**64},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


# -- compilation ----------------------------------------------------------


def fixture_agents(model, seed=42, overrides=(), lexicon=DEFAULT_LEXICON):
    roles = infer_roles(model, lexicon)
    flows = derive_flows(model, roles)
    keys = {a.id: generate_keypair(actor_key_seed(seed, a.id)) for a in model.actors}
    dids = {aid: did_from_public_key(k.public_key) for aid, k in keys.items()}
    trust, _ = apply_trust_overrides(build_trust_registry(roles, flows, dids), overrides)
    bootstrap = derive_bootstrap(model, roles, flows)
    agents = compile_agents(model, roles, flows, trust, bootstrap, seed=seed)
    return roles, flows, agents


def run_fixture(model, seed=42, overrides=(), config=None, intercept=None):
    _, _, agents = fixture_agents(model, seed=seed, overrides=overrides)
    return agents, run(model, agents, config or SimConfig(seed=seed), intercept)


def spec_of(agents, actor):
    return next(a for a in agents if a.actor == actor)


def test_bootstrap_covers_only_the_unissued_presented_type(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    assert derive_bootstrap(birth_model, roles, flows) == (
        BootstrapCredential(MID, "ID Agency", "Mother"),
    )


def test_bootstrap_skips_unknown_or_self_issuers():
    flow = CredentialFlow("d", FlowKind.PRESENTATION, "X", "A", "B", Evidence(EvidenceKind.UNRESOLVED))
    assert derive_bootstrap(None, [], [flow]) == ()
    roles = [RoleAssignment("A", "X", SsiRole.ISSUER)]
    assert derive_bootstrap(None, roles, [flow]) == ()


def test_compiled_fixture_agents(birth_model):
    _, flows, agents = fixture_agents(birth_model)
    assert [a.actor for a in agents] == ["Mother", "Midwife", "Registrar", "ID Agency"]
    by_actor = {a.actor: a for a in agents}

    mother = by_actor["Mother"]
    assert [f.dependency for f in mother.requests] == [
        "dep-bnd-mother",
        "dep-cert-mother",
    ]
    assert [c.type for c in mother.wallet] == [MID]
    assert mother.wallet[0].issuer == by_actor["ID Agency"].did
    assert mother.prelabeled == ()

    # Each agent acts on the flows it takes part in, as derive_flows wired them.
    assert by_actor["Midwife"].verifies == (flows[0],)
    assert by_actor["Midwife"].issues == (flows[1],)
    assert by_actor["Registrar"].verifies == (flows[2], flows[3])
    assert by_actor["Registrar"].issues == (flows[4],)
    assert mother.requests == (flows[1], flows[4])
    assert mother.verifies == mother.issues == ()

    agency = by_actor["ID Agency"]
    assert agency.verifies == agency.issues == agency.requests == ()
    assert agency.prelabeled == ("agency-issue-id",)


def ungated_midwife_model(birth_model):
    """The fixture with the Midwife's issuing task stripped, so its check gates nothing."""
    actors = []
    for actor in birth_model.actors:
        if actor.id == "Midwife":
            elements = tuple(e for e in actor.elements if e.kind is not ElementKind.TASK or e.id == "midwife-check-id")
            actor = actor.replace(elements=elements, links=())
        actors.append(actor)
    return birth_model.replace(
        actors=tuple(actors),
        dependencies=tuple(d for d in birth_model.dependencies if d.id == "dep-id-midwife"),
    )


def sent(trace, kind):
    return [e for e in trace.events if e["kind"] == "Send" and e["message"]["type"] == kind]


def test_ungated_verifier_kicks_off(birth_model):
    model = ungated_midwife_model(birth_model)
    _, _, agents = fixture_agents(model)
    assert spec_of(agents, "Midwife").issues == ()
    trace = run(model, agents, SimConfig(seed=42))
    first = sent(trace, "ProofRequest")[0]
    assert first["tick"] == 0
    assert (first["message"]["from"], first["message"]["flow"]) == ("Midwife", "dep-id-midwife")
    assert trace.final_labels["midwife-check-id"] == "Satisfied"


def test_gated_verifiers_wait_for_an_issuance_request(birth_model):
    _, trace = run_fixture(birth_model)
    asked: set[str] = set()
    for event in trace.events:
        message = event.get("message", {})
        if event["kind"] == "Deliver" and message["type"] == "IssuanceRequest":
            asked.add(message["to"])
        if event["kind"] == "Send" and message["type"] == "ProofRequest":
            assert message["from"] in asked, event
    assert {e["message"]["from"] for e in sent(trace, "ProofRequest")} == {"Midwife", "Registrar"}


def test_lost_proof_requests_are_retried_then_deny_the_checks(birth_model):
    model = ungated_midwife_model(birth_model)
    _, _, agents = fixture_agents(model)
    config = SimConfig(seed=42)
    trace = run(model, agents, config, intercept=lambda msg, tick: None if msg.kind == "ProofRequest" else msg)
    requests = sent(trace, "ProofRequest")
    assert len(requests) == 1 + config.max_retries
    assert [e["tick"] for e in requests] == [0, 10, 20, 30]
    assert len({e["message"]["nonce"] for e in requests}) == len(requests)  # each attempt draws a fresh nonce
    updates = [e for e in trace.events if e["kind"] == "GoalUpdate"]
    assert updates[-1] == {
        "kind": "GoalUpdate", "seq": updates[-1]["seq"], "tick": 40, "element": "midwife-check-id", "label": "Denied",
    }
    assert updates[-1]["seq"] > requests[-1]["seq"]
    assert "Verify" not in {e["kind"] for e in trace.events}


def test_prefix_verb_task_takes_only_its_role_class(birth_model):
    # "Check in BND" starts with the issue verb "check in" and with the check
    # verb "check"; it is the Midwife's issue task and never one of its gates.
    model = helpers.rename_element(birth_model, "midwife-issue-bnd", "Check in BND")
    lexicon = VerbLexicon(issue_verbs=frozenset({"issue", "check in"}))
    _, _, agents = fixture_agents(model, lexicon=lexicon)
    bnd_issue = spec_of(agents, "Midwife").issues[0]
    assert bnd_issue.issue_task == "midwife-issue-bnd"
    assert bnd_issue.gate_tasks == ("midwife-check-id",)
    trace = run(model, agents, SimConfig(seed=42))
    assert set(trace.final_labels.values()) == {"Satisfied"}


@pytest.mark.parametrize(
    "drop",
    [
        ("Midwife", SsiRole.ISSUER),  # issuance sender must issue
        ("Registrar", SsiRole.VERIFIER),  # presentation receiver must verify
        ("Mother", SsiRole.HOLDER),  # presentation sender must hold
    ],
)
def test_compile_requires_matching_roles(birth_model, drop):
    actor, role = drop
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    kept = [r for r in roles if not (r.actor == actor and r.role is role and r.credential_type == BND)]
    dids = {a.id: did_from_public_key(generate_keypair(actor_key_seed(0, a.id)).public_key) for a in birth_model.actors}
    trust = build_trust_registry(roles, flows, dids)
    with pytest.raises(CompileError) as err:
        compile_agents(birth_model, kept, flows, trust)
    assert err.value.code == "E_COMPILE_ROLE"
    assert BND in str(err.value)


def test_compile_rejects_a_flow_to_an_unknown_actor(birth_model):
    """A flow whose actors hold the roles it needs but that joins an actor the model lacks."""
    roles = infer_roles(birth_model)
    ghost = RoleAssignment("Ghost", "Permit", SsiRole.ISSUER, ("ghost-issue",))
    flow = CredentialFlow(
        "dep-permit", FlowKind.ISSUANCE, "Permit", "Ghost", "Mother", Evidence(EvidenceKind.ANNOTATION)
    )
    with pytest.raises(CompileError, match="flow 'dep-permit' joins an actor the model lacks"):
        compile_agents(birth_model, (*roles, ghost), (flow,), TrustRegistry({}))


def test_compile_rejects_unknown_bootstrap_actor(birth_model):
    roles = infer_roles(birth_model)
    flows = derive_flows(birth_model, roles)
    dids = {a.id: did_from_public_key(generate_keypair(actor_key_seed(0, a.id)).public_key) for a in birth_model.actors}
    trust = build_trust_registry(roles, flows, dids)
    with pytest.raises(CompileError):
        compile_agents(birth_model, roles, flows, trust, [BootstrapCredential("X", "Nobody", "Mother")])


# -- the honest run -------------------------------------------------------


def verify_events(trace):
    return [e for e in trace.events if e["kind"] == "Verify"]


def issue_types(trace):
    return [e["credentialType"] for e in trace.events if e["kind"] == "Issue"]


def test_honest_run_reaches_quiescence_satisfied(birth_model):
    _, trace = run_fixture(birth_model)
    assert trace.termination == "quiescence"
    assert trace.final_tick == 11
    assert Counter(e["kind"] for e in trace.events) == Counter(
        {"Send": 14, "Deliver": 14, "GoalUpdate": 12, "Verify": 3, "Issue": 2}
    )
    checks = verify_events(trace)
    assert [e["flow"] for e in checks] == ["dep-id-midwife", "dep-id-registrar", "dep-bnd-registrar"]
    for event in checks:
        assert all(event[flag] for flag in CHECK_ORDER)
        assert event["verdict"] is True
        assert "failReason" not in event
    assert [e.get("copyOk") for e in checks] == [None, None, True]
    assert issue_types(trace) == [BND, CERT]
    assert set(trace.final_labels.values()) == {"Satisfied"}
    assert len(trace.final_labels) == 15


def with_subject(model, dependency, subject):
    """``model`` with the ``ssi.subject`` of ``dependency`` set to ``subject``, or removed for None."""
    def annotate(dep):
        annotations = {k: v for k, v in dep.annotations.items() if k != "ssi.subject"}
        if subject is not None:
            annotations["ssi.subject"] = subject
        return dep.replace(annotations=annotations) if dep.id == dependency else dep

    return model.replace(dependencies=tuple(annotate(d) for d in model.dependencies))


def subject_did(name, seed=42):
    return did_from_public_key(generate_keypair(subject_key_seed(seed, name)).public_key)


def test_each_subject_name_gets_its_own_did(birth_model, monkeypatch):
    # The Mother's ID is issued signed at compile time; the run mints the others.
    signed = counted_calls(monkeypatch, simulator, "issue_credential")
    minted = counted_calls(monkeypatch, simulator, "mint_credential")
    agents, trace = run_fixture(with_subject(birth_model, "dep-cert-mother", "device"))
    assert spec_of(agents, "Registrar").issues[0].subject == "device"
    child, device = subject_did("child"), subject_did("device")
    assert len({child, device, spec_of(agents, "Mother").did}) == 3
    issued = {e["credentialType"]: e["subject"] for e in trace.events if e["kind"] == "Issue"}
    assert issued == {BND: child, CERT: device}
    claims = {args[3]: args[4]["subjectActor"] for args in minted}
    claims.update((args[1].type, args[1].claims["subjectActor"]) for args in signed)
    assert claims == {MID: "Mother", BND: "child", CERT: "device"}
    assert trace.final_labels == run_fixture(birth_model)[1].final_labels


def test_an_unnamed_subject_is_the_holder(birth_model):
    agents, trace = run_fixture(with_subject(birth_model, "dep-cert-mother", None))
    assert spec_of(agents, "Registrar").issues[0].subject is None
    issued = {e["credentialType"]: e["subject"] for e in trace.events if e["kind"] == "Issue"}
    assert issued[CERT] == spec_of(agents, "Mother").did


def test_honest_run_is_reproducible(birth_model):
    _, first = run_fixture(birth_model)
    _, second = run_fixture(birth_model)
    assert first.text() == second.text()


def test_run_signs_with_the_loaded_keys(birth_model, monkeypatch):
    """No key is loaded to sign: during a run the only key load is the
    "child" subject key the run derives."""
    _, _, agents = fixture_agents(birth_model, seed=42)
    credentials._derive_keypair.cache_clear()  # an earlier test may have derived the "child" key
    real_key = credentials.Ed25519PrivateKey
    signing: list[str] = []
    loads: list[tuple[str, ...]] = []  # per key load, the signing calls open at the time

    class CountingKey:
        @staticmethod
        def from_private_bytes(data):
            loads.append(tuple(signing))
            return real_key.from_private_bytes(data)

    def signs(fn):
        def wrapper(*args, **kwargs):
            signing.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                signing.pop()

        return wrapper

    monkeypatch.setattr(credentials, "Ed25519PrivateKey", CountingKey)
    monkeypatch.setattr(simulator, "issue_credential", signs(simulator.issue_credential))
    monkeypatch.setattr(simulator, "create_presentation", signs(simulator.create_presentation))
    trace = run(birth_model, agents, SimConfig(seed=42))
    assert Counter(e["kind"] for e in trace.events)["Issue"] == 2
    assert len(verify_events(trace)) == 3
    assert loads == [()]


def test_pipeline_loads_each_key_once(birth_model, monkeypatch):
    """The caller's DIDs and compile_agents derive the same four actor keys;
    only the first derivation loads them, and the run adds the "child" key."""
    credentials._derive_keypair.cache_clear()
    real_key = credentials.Ed25519PrivateKey
    loads: list[bytes] = []

    class CountingKey:
        @staticmethod
        def from_private_bytes(data):
            loads.append(bytes(data))
            return real_key.from_private_bytes(data)

    monkeypatch.setattr(credentials, "Ed25519PrivateKey", CountingKey)
    _, trace = run_fixture(birth_model, seed=9_001)
    assert set(trace.final_labels.values()) == {"Satisfied"}
    assert len(loads) == len(set(loads)) == 5


def test_different_seed_changes_keys_not_outcome(birth_model):
    _, a = run_fixture(birth_model, seed=42)
    _, b = run_fixture(birth_model, seed=43)
    assert a.final_labels == b.final_labels
    assert a.text() != b.text()  # DIDs and nonces differ


def test_events_are_ordered(birth_model):
    _, trace = run_fixture(birth_model)
    assert [e["seq"] for e in trace.events] == list(range(len(trace.events)))
    ticks = [e["tick"] for e in trace.events]
    assert ticks == sorted(ticks)
    assert max(ticks) <= trace.final_tick


def test_every_send_is_delivered_or_dropped(birth_model):
    for drop in (0.0, 0.3):
        _, trace = run_fixture(birth_model, config=SimConfig(seed=42, drop_probability=drop))
        kinds = Counter(e["kind"] for e in trace.events)
        assert kinds["Send"] == kinds["Deliver"] + kinds["Drop"], drop
        assert trace.termination == "quiescence"


def test_presentations_echo_a_previously_requested_nonce(birth_model):
    _, trace = run_fixture(birth_model, config=SimConfig(seed=42, drop_probability=0.2))
    requested = {}
    for event in trace.events:
        message = event.get("message", {})
        if event["kind"] == "Send" and message.get("type") == "ProofRequest":
            requested.setdefault(message["flow"], set()).add(message["nonce"])
        if event["kind"] == "Deliver" and message.get("type") == "ProofPresentation":
            assert message["nonce"] in requested.get(message["flow"], set())


def test_all_drops_deny_the_root(birth_model):
    _, trace = run_fixture(birth_model, config=SimConfig(seed=42, drop_probability=1.0))
    kinds = Counter(e["kind"] for e in trace.events)
    assert kinds["Drop"] == 8  # two request flows, each initial send plus 3 retries
    assert kinds["Deliver"] == 0
    assert "Verify" not in kinds
    assert trace.termination == "quiescence"
    assert trace.final_tick == 40
    assert trace.final_labels["mother-goal"] == "Denied"


def test_timeout_termination(birth_model):
    _, trace = run_fixture(birth_model, config=SimConfig(seed=42, max_ticks=5))
    assert trace.termination == "timeout"
    assert trace.final_tick == 5


# -- adversarial deliveries -----------------------------------------------


MALLORY_SEED = b"\x99" * 32


def bnd_presentation_intercept(mutate):
    def intercept(msg, tick):
        if msg.kind == "ProofPresentation" and msg.flow == "dep-bnd-registrar":
            return mutate(msg)
        return msg

    return intercept


def failed_bnd_check(trace):
    events = [e for e in verify_events(trace) if e["flow"] == "dep-bnd-registrar"]
    assert len(events) == 1
    assert events[0]["verdict"] is False
    return events[0]


def assert_no_certificate(trace):
    assert issue_types(trace) == [BND]
    assert trace.final_labels["mother-goal"] == "Denied"
    assert trace.termination == "quiescence"
    assert trace.final_tick == 40


def test_mutated_claim_fails_integrity(birth_model):
    def mutate(msg):
        credential = msg.payload.credential
        claims = dict(credential.claims, subjectActor="someone else")
        tampered = credential.replace(claims=claims)
        return msg.replace(payload=msg.payload.replace(credential=tampered))

    _, trace = run_fixture(birth_model, intercept=bnd_presentation_intercept(mutate))
    event = failed_bnd_check(trace)
    assert event["integrity"] is False
    assert event["failReason"] == "integrity"
    assert_no_certificate(trace)


def test_foreign_resign_fails_issuer_signature(birth_model):
    mallory = generate_keypair(MALLORY_SEED)

    def mutate(msg):
        credential = msg.payload.credential
        forged = credential.replace(
            signature=mallory.signing_key.sign(canonical_bytes(credential.payload())),
        )
        return msg.replace(payload=msg.payload.replace(credential=forged))

    _, trace = run_fixture(birth_model, intercept=bnd_presentation_intercept(mutate))
    event = failed_bnd_check(trace)
    assert (event["integrity"], event["issuerSignature"], event["subjectBinding"], event["issuerTrusted"]) == (
        True,
        False,
        True,
        True,
    )
    assert event["failReason"] == "issuerSignature"
    assert_no_certificate(trace)


def test_replayed_nonce_fails_subject_binding(birth_model):
    mother_keys = generate_keypair(actor_key_seed(42, "Mother"))

    def mutate(msg):
        stale = create_presentation(mother_keys, msg.payload.presenter, msg.payload.credential, bytes(16))
        return msg.replace(payload=stale)

    _, trace = run_fixture(birth_model, intercept=bnd_presentation_intercept(mutate))
    event = failed_bnd_check(trace)
    assert event["subjectBinding"] is False
    assert event["integrity"] is True and event["issuerSignature"] is True and event["issuerTrusted"] is True
    assert event["failReason"] == "subjectBinding"
    assert_no_certificate(trace)
    # Deliver summarizes the replacement; Send keeps the original nonce.
    sent, delivered = (
        e["message"]
        for e in trace.events
        if e["kind"] in ("Send", "Deliver")
        and e["message"]["type"] == "ProofPresentation"
        and e["message"]["flow"] == "dep-bnd-registrar"
    )
    assert delivered["nonce"] == bytes(16).hex() != sent["nonce"]
    assert dict(sent, nonce=None) == dict(delivered, nonce=None)


def test_impostor_presenter_fails_subject_binding(birth_model):
    mallory = generate_keypair(MALLORY_SEED)
    mallory_did = did_from_public_key(mallory.public_key)

    def mutate(msg):
        hijacked = create_presentation(mallory, mallory_did, msg.payload.credential, msg.payload.nonce)
        return msg.replace(payload=hijacked)

    _, trace = run_fixture(birth_model, intercept=bnd_presentation_intercept(mutate))
    event = failed_bnd_check(trace)
    assert event["subjectBinding"] is False
    assert event["failReason"] == "subjectBinding"
    assert_no_certificate(trace)


def test_untrusted_issuer_fails_last_check(birth_model):
    midwife_did = did_from_public_key(generate_keypair(actor_key_seed(42, "Midwife")).public_key)
    overrides = [TrustOverride("Registrar", BND, midwife_did, action="remove")]
    _, trace = run_fixture(birth_model, overrides=overrides)
    event = failed_bnd_check(trace)
    assert (event["integrity"], event["issuerSignature"], event["subjectBinding"], event["issuerTrusted"]) == (
        True,
        True,
        True,
        False,
    )
    assert event["failReason"] == "issuerTrusted"
    assert_no_certificate(trace)


def test_suppressed_copy_fails_office_check(birth_model):
    def intercept(msg, tick):
        return None if msg.kind == "RecordCopy" else msg

    _, trace = run_fixture(birth_model, intercept=intercept)
    event = failed_bnd_check(trace)
    assert all(event[flag] for flag in CHECK_ORDER)
    assert event["copyOk"] is False
    assert event["failReason"] == "officeCopy"
    assert trace.final_labels["registrar-check-bnd"] == "Denied"
    assert_no_certificate(trace)


def test_lost_issuance_is_retried(birth_model):
    seen = {"dropped": False}

    def intercept(msg, tick):
        if msg.kind == "CredentialIssuance" and msg.payload.type == CERT and not seen["dropped"]:
            seen["dropped"] = True
            return None
        return msg

    _, trace = run_fixture(birth_model, intercept=intercept)
    assert issue_types(trace) == [BND, CERT]  # issued once, re-sent from cache
    sends = [
        e["message"]["credentialId"]
        for e in trace.events
        if e["kind"] in ("Send", "Drop")
        and e["message"]["type"] == "CredentialIssuance"
        and e["message"]["credentialType"] == CERT
    ]
    assert len(sends) == 3 and len(set(sends)) == 1  # initial send, its drop, one resend
    assert set(trace.final_labels.values()) == {"Satisfied"}
    assert trace.termination == "quiescence"
    assert trace.final_tick == 20


def test_an_issuance_waits_for_the_resources_its_task_needs(birth_model):
    model = helpers.licensed_registrar_model(birth_model)
    _, trace = run_fixture(model)
    events = list(trace.events)
    licensed = next(
        e["seq"] for e in events
        if e["kind"] == "GoalUpdate" and e["element"] == "registrar-licence" and e["label"] == "Satisfied"
    )
    issued = next(e["seq"] for e in events if e["kind"] == "Issue" and e["flow"] == "dep-cert-mother")
    assert licensed < issued
    assert set(trace.final_labels.values()) == {"Satisfied"}


def test_a_lost_licence_keeps_the_certificate_unissued(birth_model):
    model = helpers.licensed_registrar_model(birth_model)

    def intercept(msg, tick):
        if msg.kind == "CredentialIssuance" and msg.flow == "dep-licence-registrar":
            return None
        return msg

    _, trace = run_fixture(model, intercept=intercept)
    dropped = [
        e for e in trace.events
        if e["kind"] == "Drop" and e["message"]["type"] == "CredentialIssuance"
        and e["message"]["flow"] == "dep-licence-registrar"
    ]
    assert len(dropped) == 1 + SimConfig().max_retries  # the first send and one resend per retried request
    assert issue_types(trace) == ["Registrar Licence", BND]  # issued once; no certificate
    assert trace.final_labels["registrar-licence"] == "Denied"
    assert trace.final_labels["registrar-check-bnd"] == "Satisfied"
    assert trace.final_labels["mother-obtain-cert"] == "Denied"
    assert trace.termination == "quiescence"


def test_starved_verifier_gives_up(birth_model):
    def intercept(msg, tick):
        if msg.kind == "ProofPresentation" and msg.flow == "dep-id-midwife":
            return None
        return msg

    _, trace = run_fixture(birth_model, intercept=intercept)
    assert issue_types(trace) == []
    assert trace.final_labels["midwife-check-id"] == "Denied"
    assert trace.final_labels["mother-goal"] == "Denied"
    assert trace.termination == "quiescence"
    assert trace.final_tick == 41


def test_single_lost_deliveries_that_deny_a_root_are_pinned(birth_model):
    """A known defect, pinned so that it cannot grow unnoticed: losing one
    delivery of the seed-42 run can leave a root goal un-Satisfied despite
    the retries.  Losing delivery 0, 2, 5 or 8 delays the Mother's BND and a
    superseded BND request is answered; losing 9 loses the office copy, sent
    once; losing 12 loses the BND verdict, sent once."""
    agents, _ = run_fixture(birth_model)
    roots = [goal.id for _, goal in root_goals(birth_model)]
    unsatisfied = {}
    for lost in range(40):
        seen = itertools.count()
        trace = run(birth_model, agents, SimConfig(seed=42), lambda msg, tick: None if next(seen) == lost else msg)
        left = tuple(goal for goal in roots if trace.final_labels[goal] != LabelState.SATISFIED.value)
        if left:
            unsatisfied[lost] = left
    # ROADMAP item 1's fix must empty this map.
    assert unsatisfied == {
        0: ("mother-goal", "registrar-goal"),
        2: ("mother-goal", "registrar-goal"),
        5: ("mother-goal", "registrar-goal"),
        8: ("mother-goal", "registrar-goal"),
        9: ("mother-goal", "midwife-goal", "registrar-goal"),
        12: ("mother-goal",),
    }


def test_events_do_not_share_message_summaries(birth_model):
    _, trace = run_fixture(birth_model, config=SimConfig(seed=42, drop_probability=0.3))
    messages = [e["message"] for e in trace.events if "message" in e]
    assert {"Send", "Deliver", "Drop"} <= {e["kind"] for e in trace.events}
    assert len({id(m) for m in messages}) == len(messages)
    before = [dict(m) for m in messages]
    messages[0]["flow"] = "tampered"
    assert [dict(m) for m in messages[1:]] == before[1:]


@pytest.mark.parametrize(
    "copies,config",
    [
        *((None, SimConfig(seed=seed)) for seed in (42, 1, 2, 3)),
        (3, SimConfig(seed=7, drop_probability=0.3, latency={("Mother-c2", "Registrar-c2"): 3})),
    ],
    ids=["fixture-42", "fixture-1", "fixture-2", "fixture-3", "scaled-lossy-latency"],
)
def test_identity_intercept_changes_nothing(birth_model, birth_path, copies, config):
    """A run admits each message it built by construction, and a hook puts every
    message through the full delivery rule: an identity hook, which forces the
    rule on every delivery, writes the plain run's bytes."""
    model = birth_model if copies is None else helpers.scaled_model(birth_path, copies)
    _, plain = run_fixture(model, seed=config.seed, config=config)
    _, hooked = run_fixture(model, seed=config.seed, config=config, intercept=lambda msg, tick: msg)
    assert plain.text() == hooked.text()
    if config.drop_probability:
        routes = {(e["message"]["from"], e["message"]["to"]) for e in plain.events if e["kind"] == "Deliver"}
        assert any(e["kind"] == "Drop" for e in plain.events) and set(config.latency) <= routes


# -- the delivery rule ----------------------------------------------------


def counting_handlers(monkeypatch) -> list:
    """Record the kind of each delivered message that the delivery rule hands to its handler."""
    handled: list = []

    def counting(kind, handler):
        def wrapper(sim, agent, flow, payload):
            handled.append(kind)
            return handler(sim, agent, flow, payload)

        return wrapper

    rules = {kind: (*rule[:-1], counting(kind, rule[-1])) for kind, rule in simulator._Simulation._DELIVERY.items()}
    monkeypatch.setattr(simulator._Simulation, "_DELIVERY", rules)
    return handled


def run_with_state(model, intercept, monkeypatch):
    """The fixture run under ``intercept``, its labels, and each agent's wallet, record store and verifications."""
    sims = []
    real = simulator._Simulation.run

    def keeping(sim):
        sims.append(sim)
        return real(sim)

    monkeypatch.setattr(simulator._Simulation, "run", keeping)
    _, trace = run_fixture(model, intercept=intercept)
    sim = sims.pop()
    state = {
        actor: (
            {ctype: c.id for ctype, c in agent.wallet.items()},
            agent.record_store,
            {dep: (v.resolved, v.nonce) for dep, v in agent.verifications.items()},
        )
        for actor, agent in sim.agents.items()
    }
    return trace, sim.labels, state


def first_of(kind, rewrite):
    """An intercept that passes ``rewrite`` the first delivered ``kind`` message and returns what it gives."""
    seen = []

    def intercept(msg, tick):
        if msg.kind == kind and not seen:
            seen.append(msg)
            return rewrite(msg)
        return msg

    return intercept


def assert_delivered_and_ignored(model, kind, rewrite, monkeypatch):
    """The first ``kind`` message, rewritten, is delivered and ignored: the run
    equals the one that drops it, labels, wallets, record stores and
    verifications alike, but for the Deliver line.  Returns the run and the
    summary its Deliver line holds."""
    handled = counting_handlers(monkeypatch)
    ignored, labels, state = run_with_state(model, first_of(kind, rewrite), monkeypatch)
    delivered = sum(e["kind"] == "Deliver" for e in ignored.events)
    assert len(handled) == delivered - 1
    dropped, dropped_labels, dropped_state = run_with_state(model, first_of(kind, lambda msg: None), monkeypatch)
    assert (labels, state) == (dropped_labels, dropped_state)
    assert ignored.final_labels == dropped.final_labels and ignored.termination == dropped.termination
    changed = [(a, b) for a, b in zip(ignored.event_lines, dropped.event_lines) if a != b]
    assert len(ignored.event_lines) == len(dropped.event_lines) and len(changed) == 1
    deliver, drop = (json.loads(line) for line in changed[0])
    assert (deliver["kind"], drop["kind"], drop["message"]["type"]) == ("Deliver", "Drop", kind)
    return ignored, deliver["message"]


def stub_presentation() -> Presentation:
    return Presentation(credential_with_id("stub"), "did:sim:h", bytes(16), b"")


FOREIGN_MESSAGES = [
    ("PresentationVerdict", lambda msg: msg.replace(to_actor="Registrar")),
    ("CredentialIssuance", lambda msg: msg.replace(to_actor="Registrar")),
    ("ProofRequest", lambda msg: msg.replace(flow="dep-cert-mother", from_actor="Mother", to_actor="Registrar")),
    ("RecordCopy", lambda msg: msg.replace(to_actor="Mother")),
    ("RecordCopy", lambda msg: msg.replace(flow="dep-cert-mother")),
    ("RecordCopy", lambda msg: msg.replace(flow="dep-cert-mother", from_actor="Registrar", to_actor=None)),
    ("ProofRequest", lambda msg: msg.replace(payload=bytes(3))),
    ("ProofRequest", lambda msg: msg.replace(payload=None)),
    ("CredentialIssuance", lambda msg: msg.replace(payload=None)),
    ("ProofPresentation", lambda msg: msg.replace(payload=None)),
    ("ProofPresentation", lambda msg: msg.replace(payload=(msg.payload.credential, msg.payload.nonce))),
    ("PresentationVerdict", lambda msg: msg.replace(payload=None)),
    ("RecordCopy", lambda msg: msg.replace(payload=None)),
    ("RecordCopy", lambda msg: msg.replace(payload=True)),
    ("CredentialIssuance", lambda msg: msg.replace(payload=bytes(16))),
    ("PresentationVerdict", lambda msg: msg.replace(payload=credential_with_id("stub"))),
    ("ProofRequest", lambda msg: msg.replace(payload=stub_presentation())),
    ("IssuanceRequest", lambda msg: msg.replace(payload=bytes(16))),
]


@pytest.mark.parametrize(
    "kind,rewrite", FOREIGN_MESSAGES,
    ids=[
        "verdict-to-registrar", "issuance-to-registrar", "request-on-issuance", "copy-to-mother", "copy-on-cert",
        "copy-to-none-on-cert", "request-short-nonce", "request-no-nonce", "issuance-no-credential",
        "presentation-none", "presentation-as-credential-and-nonce", "verdict-none", "copy-no-digest",
        "copy-with-verdict", "issuance-with-nonce", "verdict-with-credential", "request-with-presentation",
        "issuance-request-with-nonce",
    ],
)
def test_a_message_off_its_flow_is_delivered_and_ignored(birth_model, monkeypatch, kind, rewrite):
    """A message counts only on its flow, between the ends the delivery rule
    gives its kind, and carrying the payload its handler reads: a verdict or
    an issuance sent to an actor other than the flow's, a proof request
    moved onto an issuance flow, even between that flow's ends, an office
    copy sent to an actor other than its flow's ``copy_to`` or on a flow
    that mails none, even to no one, and a request whose nonce is not 16
    bytes, an issuance without a credential, a presentation without one, a
    credential and a nonce in place of a presentation, a verdict that is not
    a bool or a copy without a digest, is delivered and ignored.  So is a
    payload of another kind's class: a verdict as an office copy, a nonce as
    an issuance or in an issuance request, a credential as a verdict and a
    presentation as a proof request.  The honest copy still labels the
    Midwife's copy task when it arrives.

    A message on its own flow is still taken as it comes: the forged verdict
    of ROADMAP item 12, the real verifier's verdict rewritten to true, stays
    open until verdicts carry a MAC."""
    _, message = assert_delivered_and_ignored(birth_model, kind, rewrite, monkeypatch)
    assert message["type"] == kind
    if kind == "RecordCopy":
        _, honest = run_fixture(birth_model)
        events = list(honest.events)
        at = next(i for i, e in enumerate(events) if e["kind"] == "Deliver" and e["message"]["type"] == kind)
        assert (events[at + 1]["kind"], events[at + 1]["element"]) == ("GoalUpdate", "midwife-send-copy")
        assert "midwife-send-copy" not in {e.get("element") for e in honest.events if e["seq"] < at}


def test_a_copy_addressed_to_no_actor_is_delivered_and_ignored(birth_model, monkeypatch):
    """An office copy re-addressed to an actor the model lacks once made the run raise ``KeyError``."""
    trace, message = assert_delivered_and_ignored(
        birth_model, "RecordCopy", lambda msg: msg.replace(to_actor="Nobody"), monkeypatch
    )
    assert message["to"] == "Nobody"
    assert trace.termination == "quiescence"
    assert "midwife-send-copy" not in {e.get("element") for e in trace.events}
    assert failed_bnd_check(trace)["copyOk"] is False


def test_an_issuance_of_another_type_is_delivered_and_ignored(birth_model):
    """An intercept that puts the Mother's own BND in every ``CredentialIssuance``
    of her birth certificate once made her obtain the certificate; the delivery
    rule now turns the BND away on the certificate's flow, so her request runs
    out of retries."""
    bnds = []

    def intercept(msg, tick):
        if msg.kind == "CredentialIssuance" and msg.payload.type == BND:
            bnds.append(msg.payload)
        elif msg.kind == "CredentialIssuance" and msg.payload.type == CERT:
            return msg.replace(payload=bnds[0])
        return msg

    _, trace = run_fixture(birth_model, intercept=intercept)
    assert trace.final_labels["mother-obtain-cert"] == "Denied"
    assert trace.final_labels["mother-goal"] != "Satisfied" and trace.termination == "quiescence"
    swapped = [e for e in trace.events if e["kind"] == "Deliver" and e["message"]["flow"] == "dep-cert-mother"
               and e["message"]["type"] == "CredentialIssuance"]
    assert len(swapped) > 1 and {e["message"]["credentialId"] for e in swapped} == {bnds[0].id}


def test_a_presentation_moved_to_another_flow_is_delivered_and_ignored(birth_model):
    """An intercept that gives the Registrar's BND request the nonce of its ID
    request, drops the Mother's first ID presentation and moves her BND
    presentation onto the ID flow once made the ID check pass on the BND.  The
    delivery rule now turns the BND away on the ID flow, and the ID check
    passes only on a later presentation of the Mother's real ID."""
    nonces, dropped, moved = {}, [], []

    def intercept(msg, tick):
        if msg.kind == "ProofRequest" and msg.flow == "dep-id-registrar":
            nonces.setdefault(msg.flow, msg.payload)
        elif msg.kind == "ProofRequest" and msg.flow == "dep-bnd-registrar" and msg.flow not in nonces:
            nonces[msg.flow] = msg.payload
            return msg.replace(payload=nonces["dep-id-registrar"])
        elif msg.kind == "ProofPresentation" and msg.flow == "dep-id-registrar" and not dropped:
            dropped.append(msg)
            return None
        elif msg.kind == "ProofPresentation" and msg.flow == "dep-bnd-registrar" and not moved:
            moved.append(msg)
            return msg.replace(flow="dep-id-registrar")
        return msg

    _, trace = run_fixture(birth_model, intercept=intercept)
    assert moved and moved[0].payload.nonce == nonces["dep-id-registrar"]
    real_id = next(e["credentialId"] for e in trace.events if e["kind"] == "Verify" and e["flow"] == "dep-id-midwife")
    checks = [e for e in trace.events if e["kind"] == "Verify" and e["flow"] == "dep-id-registrar"]
    assert [(e["credentialId"], e["verdict"]) for e in checks] == [(real_id, True)]
    delivered = next(
        e for e in trace.events if e["kind"] == "Deliver" and e["message"]["flow"] == "dep-id-registrar"
        and e["message"].get("credentialId") == moved[0].payload.credential.id
    )
    assert checks[0]["seq"] > delivered["seq"]
    assert delivered["message"]["credentialType"] == MID  # the type of the flow it names, not of its credential
    assert trace.final_labels["registrar-check-id"] == "Satisfied"


@pytest.mark.parametrize(
    "copies,seeds,drop",
    [(None, (42, 43), 0.0), (8, (1, 2), 0.0), (8, (1, 2, 3, 4), 0.3)],
    ids=["fixture", "scaled", "scaled-lossy"],
)
def test_honest_runs_handle_every_delivery(birth_model, birth_path, monkeypatch, copies, seeds, drop):
    """The delivery rule turns away no honest message: every Deliver line of
    a run without an intercept reaches its handler, so no delivery is lost
    where a trace would not show it."""
    model = birth_model if copies is None else helpers.scaled_model(birth_path, copies)
    handled = counting_handlers(monkeypatch)
    for seed in seeds:
        handled.clear()
        _, trace = run_fixture(model, seed=seed, config=SimConfig(seed=seed, drop_probability=drop))
        delivered = [e["message"]["type"] for e in trace.events if e["kind"] == "Deliver"]
        assert handled == delivered, seed
        assert len(set(delivered)) == 6 and (drop == 0.0 or any(e["kind"] == "Drop" for e in trace.events)), seed


SUMMARY_KEYS = {"kind": "type", "flow": "flow", "from_actor": "from", "to_actor": "to"}


def test_a_single_field_adversary_never_makes_the_run_raise(birth_model):
    """A network adversary in the manner of Dolev and Yao that rewrites one
    field of one delivered message never makes ``run`` raise.  Each of the
    seed-42 fixture run's 14 deliveries gets each field set to every value
    that field takes among the run's delivered messages, to None, and its
    payload to a 3-byte nonce, so each message also carries the payload of
    every other kind; its kind, flow and ends are also set to values of
    other classes: a list, an int and bytes, which its summary writes as
    null.  Each run ends in quiescence within its tick bound, and its final
    labels are ``evaluate_goals`` over its own GoalUpdates.  This is the
    single-field half of ROADMAP item 12's adversary, without its MAC."""
    _, _, agents = fixture_agents(birth_model, seed=42)
    config = SimConfig(seed=42)
    delivered: list = []

    def recording(msg, tick):
        delivered.append(msg)
        return msg

    run(birth_model, agents, config, recording)
    assert len(delivered) == 14
    values: dict[str, list] = {name: [None] for name in Message._fields}
    values["payload"].append(bytes(3))
    for msg in delivered:
        for name, found in values.items():
            if getattr(msg, name) not in found:
                found.append(getattr(msg, name))
    for name in ("kind", "flow", "from_actor", "to_actor"):
        values[name] += [[values[name][1]], 5, values[name][1].encode("utf-8")]

    def rewriting(at, name, value):
        seen = itertools.count()
        return lambda msg, tick: msg.replace(**{name: value}) if next(seen) == at else msg

    runs, crashes = 0, Counter()
    for at, (name, found) in itertools.product(range(len(delivered)), values.items()):
        for value in found:
            runs += 1
            try:
                trace = run(birth_model, agents, config, rewriting(at, name, value))
            except Exception as exc:  # each crash class is counted, so one failure shows them all
                crashes[f"{type(exc).__name__}: {exc}"] += 1
                continue
            assert trace.termination == "quiescence" and trace.final_tick <= config.max_ticks, (at, name, value)
            updates = {e["element"]: LabelState(e["label"]) for e in trace.events if e["kind"] == "GoalUpdate"}
            propagated = {k: v.value for k, v in evaluate_goals(birth_model, updates).items()}
            assert dict(trace.final_labels) == propagated, (at, name, value)
            if name != "payload" and not isinstance(value, (str, type(None))):  # written as null
                rewritten = [e["message"] for e in trace.events if e["kind"] == "Deliver"][at]
                assert rewritten[SUMMARY_KEYS[name]] is None, (at, name, value)
    # 14 deliveries times 45 values: 7 kinds, 6 flows, 4 senders and 4 recipients, each with 3 of other
    # classes, and 12 payloads.
    assert {type(p) for p in values["payload"]} == {type(None), bytes, Credential, str, Presentation, bool}
    assert runs == 630 and not crashes, crashes


def test_each_credential_is_encoded_once(birth_path, monkeypatch):
    """Minting encodes a credential's payload and signing reuses those bytes:
    a run encodes one payload per bootstrap credential and per issuance,
    also when an intercept reads, and so signs, every credential."""
    model = helpers.scaled_model(birth_path, 8)
    calls = counted_calls(monkeypatch, credentials, "canonical_bytes")
    for seed, intercept in ((1, None), (2, lambda msg, tick: msg)):
        calls.clear()
        config = SimConfig(seed=seed, drop_probability=0.3)
        agents, trace = run_fixture(model, seed=seed, config=config, intercept=intercept)
        wallets = sum(len(spec.wallet) for spec in agents)
        assert len(calls) == wallets + len(issue_types(trace)) > wallets > 0, seed


# -- trace format ---------------------------------------------------------


# Text with what JSON must escape, non-ASCII and astral characters.
TRICKY_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é😀'), st.characters()), max_size=12)


def optional(strategy):
    return st.none() | strategy


def credential_with_id(credential_id: str) -> Credential:
    return Credential(credential_id, "T", "did:sim:i", "did:sim:s", "did:sim:h", {}, 0, b"")


def flows_of(kind):
    return st.builds(
        CredentialFlow, TRICKY_TEXT, st.just(kind), TRICKY_TEXT, TRICKY_TEXT, TRICKY_TEXT,
        st.just(Evidence(EvidenceKind.VERB)), purpose=optional(TRICKY_TEXT),
    )


PAYLOADS = st.one_of(
    st.none(),
    st.binary(min_size=16, max_size=16),
    TRICKY_TEXT.map(credential_with_id),
    TRICKY_TEXT,
    st.booleans(),
    st.builds(
        Presentation, TRICKY_TEXT.map(credential_with_id), TRICKY_TEXT, st.binary(min_size=16, max_size=16),
        st.just(b""),
    ),
)


# A value of another class than a string or None, such as an ``intercept`` may write in any field.
NOT_TEXT = st.lists(TRICKY_TEXT, max_size=2) | st.integers() | st.binary(max_size=4)


@st.composite
def messages(draw) -> Message:
    kind = draw(optional(st.sampled_from(sorted(simulator._Simulation._DELIVERY)) | TRICKY_TEXT) | NOT_TEXT)
    return Message(
        kind=kind,
        flow=draw(optional(TRICKY_TEXT) | NOT_TEXT),
        from_actor=draw(optional(TRICKY_TEXT) | NOT_TEXT),
        to_actor=draw(optional(TRICKY_TEXT) | NOT_TEXT),
        payload=draw(PAYLOADS),
    )


def summary_oracle(msg: Message, flow: CredentialFlow | None) -> dict:
    """The summary of ``msg`` naming ``flow``, field by field as docs/trace.md lists it."""
    # A kind, flow or end that is not a string is null.
    text = {name: value if isinstance(value := getattr(msg, name), str) else None for name in Message._fields}
    summary = {
        "credentialType": None if flow is None else flow.credential_type, "flow": text["flow"],
        "from": text["from_actor"], "to": text["to_actor"], "type": text["kind"],
    }
    payload = msg.payload
    if isinstance(payload, Presentation):
        summary["credentialId"] = payload.credential.id
        summary["nonce"] = payload.nonce.hex()
    elif isinstance(payload, Credential):
        summary["credentialId"] = payload.id
    elif isinstance(payload, bytes):
        summary["nonce"] = payload.hex()
    elif isinstance(payload, bool):
        summary["verdict"] = payload
    elif isinstance(payload, str):
        summary["digest"] = payload
    if msg.kind == "ProofRequest" and flow is not None and flow.purpose is not None:
        summary["purpose"] = flow.purpose
    return summary


@given(messages(), optional(flows_of(FlowKind.PRESENTATION) | flows_of(FlowKind.ISSUANCE)))
def test_summary_template_is_canonical_json(msg, flow):
    encoded, summary = simulator._summarize(msg, flow), summary_oracle(msg, flow)
    assert json.loads(encoded) == summary
    assert encoded == canonical_text(summary)


def test_a_reused_model_runs_as_a_fresh_one(birth_path):
    """Runs of one model, across seeds, drops and an intercept, write run by
    run the bytes that a freshly parsed model writes for the same run:
    whatever a run leaves on the model changes no later run."""
    model = helpers.scaled_model(birth_path, 2)
    runs = [(3, 0.3, None), (5, 0.3, None), (3, 0.0, rewriting_intercept), (3, 0.3, None), (42, 0.0, None),
            (5, 0.3, rewriting_intercept)]
    for seed, drop, hook in runs:
        config = SimConfig(seed=seed, drop_probability=drop)
        reused, fresh = (
            run_fixture(m, seed=seed, config=config, intercept=hook and hook())[1]
            for m in (model, helpers.scaled_model(birth_path, 2))
        )
        assert reused.text() == fresh.text()
        if hook is not None:
            assert any("rewritten" in (e["message"]["to"] or "") for e in reused.events if e["kind"] == "Deliver")


@given(st.integers(0, 10**6), st.integers(0, 10**6), flows_of(FlowKind.ISSUANCE), TRICKY_TEXT, TRICKY_TEXT)
def test_issue_template_is_canonical_json(seq, tick, flow, credential_id, subject):
    credential = credential_with_id(credential_id).replace(subject=subject)
    line = simulator._issue_event(seq, tick, flow, credential)
    event = {
        "kind": "Issue", "seq": seq, "tick": tick, "credentialId": credential_id,
        "credentialType": flow.credential_type, "flow": flow.dependency, "holder": flow.receiver,
        "issuer": flow.sender, "subject": subject,
    }
    assert json.loads(line) == event
    assert line == canonical_text(event)


@given(
    st.integers(0, 10**6), st.integers(0, 10**6), flows_of(FlowKind.PRESENTATION), TRICKY_TEXT, TRICKY_TEXT,
    st.builds(VerificationOutcome, st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    optional(st.booleans()),
)
def test_verify_template_is_canonical_json(seq, tick, flow, presenter, credential_id, outcome, copy_ok):
    line, verdict = simulator._verify_event(seq, tick, flow, presenter, credential_id, outcome, copy_ok)
    flags = dict(zip(CHECK_ORDER, (outcome.integrity, outcome.issuer_signature, outcome.subject_binding,
                                   outcome.issuer_trusted)))
    assert verdict == (all(flags.values()) and copy_ok is not False)
    expected = {
        "kind": "Verify", "seq": seq, "tick": tick, "credentialId": credential_id,
        "credentialType": flow.credential_type, "flow": flow.dependency, **flags, "presenter": presenter,
        "verdict": verdict, "verifier": flow.receiver,
    }
    if copy_ok is not None:
        expected["copyOk"] = copy_ok
    failed = [name for name, ok in flags.items() if not ok] + (["officeCopy"] if copy_ok is False else [])
    if failed:
        expected["failReason"] = failed[0]
    assert json.loads(line) == expected
    assert line == canonical_text(expected)


@given(
    st.integers(0, 10**6), st.integers(0, 10**6), TRICKY_TEXT,
    st.sampled_from([label.value for label in LabelState]) | TRICKY_TEXT,
)
def test_goal_update_template_is_canonical_json(seq, tick, element, label):
    line = simulator._goal_update(seq, tick, element, label)
    event = {"kind": "GoalUpdate", "seq": seq, "tick": tick, "element": element, "label": label}
    assert json.loads(line) == event
    assert line == canonical_text(event)


def test_trace_lines_are_canonical_json(birth_model):
    _, trace = run_fixture(birth_model)
    lines = trace.lines()
    assert json.loads(lines[0]) == {"config": SimConfig(seed=42).as_trace_dict()}
    for line in lines:
        assert canonical_bytes(json.loads(line)).decode("utf-8") == line
    tail = json.loads(lines[-1])
    assert set(tail) == {"finalLabels", "finalTick", "termination"}
    assert tail["finalTick"] == trace.final_tick
    assert tail["finalLabels"] == dict(trace.final_labels)
    assert len(lines) == len(trace.events) + 2
    assert trace.text() == "\n".join(lines) + "\n"


def test_events_parse_a_line_each_time_they_are_read(birth_model):
    """``Trace.events`` is a read-only view of the event lines: each read
    parses the lines it reads into new dicts, so editing one changes no
    other read and no byte of the trace."""
    _, trace = run_fixture(birth_model, config=SimConfig(seed=42, drop_probability=0.3))
    lines, text = trace.lines(), trace.text()
    events = trace.events
    assert isinstance(events, Sequence)
    assert len(events) == len(lines) - 2 == len(trace.event_lines) > 3
    for i in range(len(events)):
        assert events[i] == json.loads(lines[i + 1])
    assert events[-1] == json.loads(lines[-2]) and events[-len(events)] == json.loads(lines[1])
    assert events[2:5] == [json.loads(line) for line in lines[3:6]]
    assert events[::-2] == [json.loads(line) for line in lines[-2:0:-2]]
    assert list(events) == [json.loads(line) for line in lines[1:-1]]
    with pytest.raises(IndexError):
        events[len(events)]
    with pytest.raises(TypeError):
        events[0] = {}

    read = [events[0], events[-1], events[:2][1], next(iter(events))]
    assert read[0] is not events[0] and read[0] is not read[3]
    for event in read:
        event["kind"], event["tick"] = "Edited", -1
    assert events[0] == json.loads(lines[1]) != read[0]
    assert events[1] == json.loads(lines[2]) and events[-1] == json.loads(lines[-2])
    assert trace.text() == text


# sha256 of the 3-copy scaled fixture's trace at seed 7, drop 0.3: a run with drops.
SCALED_LOSSY_TRACE_SHA256 = "f657090a4dceaacbdc7bb1b7cafd775f3ec661e638273a35bef334c84caf7a11"


def per_event_oracle(trace) -> bytes:
    """The trace text from one ``canonical_bytes`` call per line."""
    lines = [
        canonical_bytes({"config": dict(trace.config)}),
        *(canonical_bytes(dict(e)) for e in trace.events),
        canonical_bytes(
            {"finalLabels": dict(trace.final_labels), "finalTick": trace.final_tick, "termination": trace.termination}
        ),
    ]
    return b"\n".join(lines) + b"\n"


def rewriting_intercept():
    """Replace every third delivered message with a differently summarized one, and drop every seventh."""
    calls = itertools.count(1)

    def intercept(msg, tick):
        n = next(calls)
        if n % 7 == 0:
            return None
        if n % 3 == 0:
            return msg.replace(to_actor=f"rewritten {n}")
        return msg

    return intercept


def test_scaled_lossy_trace_is_pinned(birth_path):
    _, trace = run_fixture(helpers.scaled_model(birth_path, 3), seed=7, config=SimConfig(seed=7, drop_probability=0.3))
    assert hashlib.sha256(trace.text().encode("utf-8")).hexdigest() == SCALED_LOSSY_TRACE_SHA256


# sha256 of the fixture's trace at seed 7, drop 0.3: a run that drops a presentation; and of the same
# run with a latency of 3 ticks from the Mother to the Registrar and of 2 from the Midwife to the Mother.
FIXTURE_LOSSY_TRACES = [
    (SimConfig(seed=7, drop_probability=0.3), "1055e9f1703bdcfe874c2fe0b8a1b42e3eb2ff3474ac10e90f1e96739b1d9042"),
    (
        SimConfig(seed=7, drop_probability=0.3, latency={("Mother", "Registrar"): 3, ("Midwife", "Mother"): 2}),
        "bf7eec51ab8d8372b3278739c38b46e356a3aca7b09df13f15efc417fbb4285f",
    ),
]


@pytest.mark.parametrize("config,sha256", FIXTURE_LOSSY_TRACES, ids=["default-latency", "pair-latency"])
def test_fixture_lossy_trace_is_pinned(birth_model, config, sha256):
    _, trace = run_fixture(birth_model, seed=7, config=config)
    assert hashlib.sha256(trace.text().encode("utf-8")).hexdigest() == sha256
    # Each message is delivered or dropped after its route's latency, the default on a route the config does
    # not name; identical messages share a route, so they settle in the order they were sent.
    sent: dict[bytes, list[int]] = {}
    delays = set()
    for event in trace.events:
        if event["kind"] == "Send":
            sent.setdefault(canonical_bytes(event["message"]), []).append(event["tick"])
        elif event["kind"] in ("Deliver", "Drop"):
            message = event["message"]
            delay = event["tick"] - sent[canonical_bytes(message)].pop(0)
            assert delay == config.latency.get((message["from"], message["to"]), config.default_latency)
            delays.add(delay)
    assert delays == {*config.latency.values(), config.default_latency}


def counted_calls(monkeypatch, module, name) -> list:
    """Record the arguments of each call to ``module.name`` during the test."""
    calls: list = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_nothing_is_signed_when_every_message_drops(birth_model, monkeypatch):
    calls = counted_calls(monkeypatch, simulator, "create_presentation")
    run_fixture(birth_model, config=SimConfig(seed=42, drop_probability=1.0))
    assert calls == []


def verified_presentations(trace) -> list[tuple[str, str, str]]:
    """Per Verify event, in order: the credential id and nonce of the
    presentation it checks, and the nonce of the latest proof request on its
    flow, the verification's current nonce."""
    current: dict[str, str] = {}
    out = []
    for before, event in zip(trace.events, trace.events[1:]):
        if event["kind"] == "Send" and event["message"]["type"] == "ProofRequest":
            current[event["message"]["flow"]] = event["message"]["nonce"]
        if event["kind"] == "Verify":
            # The Deliver of the presentation is the event just before its Verify.
            assert before["kind"] == "Deliver" and before["message"]["type"] == "ProofPresentation"
            out.append((before["message"]["credentialId"], before["message"]["nonce"], current[event["flow"]]))
    return out


def test_each_read_presentation_is_signed_once(birth_model, monkeypatch):
    """A holder proof is signed only when it is read: by a verification in
    progress, when the presentation answers its current nonce, or by an
    intercept, which sees every delivered presentation signed.  A dropped
    presentation, one that reaches a verification already resolved, or one
    answering a superseded nonce costs no signature."""
    calls = counted_calls(monkeypatch, simulator, "create_presentation")
    dropped = unread = stale = 0
    for seed in range(1, 12):
        config = SimConfig(seed=seed, drop_probability=0.3)
        calls.clear()
        _, trace = run_fixture(birth_model, seed=seed, config=config)
        kinds = Counter((e["kind"], e["message"]["type"]) for e in trace.events if "message" in e)
        verified = verified_presentations(trace)
        current = [(credential_id, nonce) for credential_id, nonce, latest in verified if nonce == latest]
        assert [(args[2].id, args[3].hex()) for args in calls] == current, seed
        binding = [e["subjectBinding"] for e in trace.events if e["kind"] == "Verify"]
        assert [nonce == latest for _, nonce, latest in verified] == binding, seed
        dropped += kinds["Drop", "ProofPresentation"]
        unread += kinds["Deliver", "ProofPresentation"] - len(verified)
        stale += len(verified) - len(current)

        calls.clear()
        seen = []

        def identity(msg, tick):
            if msg.kind == "ProofPresentation":
                seen.append(msg.payload.holder_proof)
            return msg

        _, hooked = run_fixture(birth_model, seed=seed, config=config, intercept=identity)
        assert hooked.text() == trace.text(), seed
        delivered = sum(e["kind"] == "Deliver" and e["message"]["type"] == "ProofPresentation" for e in hooked.events)
        assert len(calls) == len(seen) == delivered, seed
        assert all(isinstance(proof, bytes) and len(proof) == 64 for proof in seen), seed
    assert dropped > 0 and unread > 0 and stale > 0


def test_a_credential_is_signed_when_first_read(birth_model, monkeypatch):
    """The run signs the Birth Notification Document, which the Registrar
    verifies, and not the birth certificate, which nobody reads.  An
    intercept reads every credential issued, so under the identity intercept
    both are signed, and the trace is the same."""
    _, _, agents = fixture_agents(birth_model, seed=42)
    calls = counted_calls(monkeypatch, simulator, "issue_credential")
    trace = run(birth_model, agents, SimConfig(seed=42))
    assert issue_types(trace) == [BND, CERT]
    assert [args[1].type for args in calls] == [BND]

    calls.clear()
    issued = []

    def identity(msg, tick):
        if msg.kind == "CredentialIssuance":
            issued.append(msg.payload)
        return msg

    hooked = run(birth_model, agents, SimConfig(seed=42), intercept=identity)
    assert hooked.text() == trace.text()
    assert [args[1].type for args in calls] == [c.type for c in issued] == [BND, CERT]
    midwife, registrar = spec_of(agents, "Midwife"), spec_of(agents, "Registrar")
    for credential, issuer in zip(issued, (midwife, registrar)):
        payload = canonical_bytes(credential.payload())
        assert credential.signature == issuer.keys.signing_key.sign(payload)


def test_every_credential_a_run_builds_carries_its_payload_bytes(birth_model, monkeypatch):
    """Bootstrap, minted and signed credentials carry the bytes their issuer
    encoded; an equal copy an intercept rebuilds with ``replace`` encodes its
    own when the verifier reads them, and the run is the one without it."""
    built = []
    for name in ("issue_credential", "mint_credential"):
        real = getattr(simulator, name)

        def building(*args, _real=real, **kwargs):
            built.append(_real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(simulator, name, building)
    rebuilt = []

    def intercept(msg, tick):
        if msg.kind == "ProofPresentation" and msg.flow == "dep-bnd-registrar":
            credential = msg.payload.credential
            rebuilt.append(credential.replace(claims=dict(credential.claims)))
            return msg.replace(payload=msg.payload.replace(credential=rebuilt[-1]))
        return msg

    _, trace = run_fixture(birth_model, intercept=intercept)
    # The bootstrap ID, minted and signed; the minted BND and certificate, and both signed when the
    # intercept reads them.
    assert sorted(c.type for c in built) == sorted([MID, MID, BND, BND, CERT, CERT])
    for credential in built:
        assert credential._payload_bytes is not None
        assert credential.payload_bytes() == canonical_bytes(credential.payload())
    (credential,) = rebuilt
    assert credential._payload_bytes == canonical_bytes(credential.payload())  # encoded when verified
    (signed_bnd,) = [c for c in built if c.type == BND and c.signature]
    assert credential is not signed_bnd and credential == signed_bnd
    assert trace.text() == run_fixture(birth_model)[1].text()


def test_fixture_verifies_each_distinct_signature_once(birth_model, monkeypatch):
    """Three holder proofs plus two distinct credentials: the Mother's ID,
    presented to the Midwife and to the Registrar, is verified once.  A
    second run verifies as much again, so no check outlives its run."""
    calls = counted_calls(monkeypatch, credentials, "verify_signature")
    for _ in range(2):
        calls.clear()
        _, trace = run_fixture(birth_model, seed=42)
        assert sum(e["kind"] == "Verify" for e in trace.events) == 3
        assert len(calls) == 5
        assert len(set(calls)) == 5


def test_a_run_decodes_no_did_of_its_agents(birth_path, monkeypatch):
    """The run's memo starts with each agent's DID mapped to its key, the key
    that DID decodes to, so a run whose presenters are its agents decodes no
    DID and still binds each holder proof to its presenter."""
    model = helpers.scaled_model(birth_path, 3)
    _, _, agents = fixture_agents(model, seed=7)
    assert all(credentials.decode_did(spec.did) == spec.keys.public_key for spec in agents)
    calls = counted_calls(monkeypatch, credentials, "decode_did")
    trace = run(model, agents, SimConfig(seed=7, drop_probability=0.3))
    bound = [e["subjectBinding"] for e in trace.events if e["kind"] == "Verify"]
    assert calls == [] and bound.count(True) > 0 and any(e["kind"] == "Drop" for e in trace.events)


@pytest.mark.parametrize("copies", range(1, 11))
def test_scaled_copies_verify_five_signatures_each(birth_path, monkeypatch, copies):
    model = helpers.scaled_model(birth_path, copies)
    calls = counted_calls(monkeypatch, credentials, "verify_signature")
    _, trace = run_fixture(model, seed=1, config=SimConfig(seed=1))
    assert sum(e["kind"] == "Verify" for e in trace.events) == 3 * copies
    assert len(calls) == len(set(calls)) == 5 * copies


def test_each_scaled_copy_sends_its_office_copy_to_its_own_registrar(birth_path):
    # From 11 copies on, "Registrar 1" is a prefix of "Registrar 10", "11" and "12".
    model = helpers.scaled_model(birth_path, 12)
    flows = derive_flows(model, infer_roles(model))
    targets = {f.sender: f.copy_to for f in flows if f.copy_to is not None}
    assert targets == {f"Midwife-c{i}": f"Registrar-c{i}" for i in range(1, 13)}


def copy_counts(model, trace, copy_of):
    """The roles, flows, passing Verify events and Satisfied root goals of each copy."""
    roles = infer_roles(model)
    counts = Counter()
    counts.update((copy_of(a.actor), "roles") for a in roles)
    counts.update((copy_of(f.dependency), "flows") for f in derive_flows(model, roles))
    counts.update((copy_of(e["flow"]), "verified") for e in trace.events if e["kind"] == "Verify" and e["verdict"])
    counts.update(
        (copy_of(goal.id), "satisfied") for _, goal in root_goals(model) if trace.final_labels[goal.id] == "Satisfied"
    )
    return counts


@pytest.mark.parametrize("copies", [1, 11, 12])
def test_k_copies_behave_as_k_fixtures(birth_path, birth_model, copies):
    """Names that prefix each other ("Registrar 1", "Registrar 12") must not
    mix copies up: each copy has the roles, flows and passing checks of the
    fixture, and all its root goals end Satisfied."""
    _, single = run_fixture(birth_model, seed=1)
    one = copy_counts(birth_model, single, lambda _: 0)
    assert one[0, "satisfied"] == len(root_goals(birth_model)) > 0
    model = helpers.scaled_model(birth_path, copies)
    _, trace = run_fixture(model, seed=1)
    expected = Counter({(i, key): n for i in range(1, copies + 1) for (_, key), n in one.items()})
    assert copy_counts(model, trace, helpers.load_scaled().copy_of) == expected


def test_trace_text_equals_per_event_canonical_bytes(birth_path):
    model = helpers.scaled_model(birth_path, 3)
    config = SimConfig(seed=7, drop_probability=0.3)
    _, trace = run_fixture(model, seed=7, config=config)
    assert Counter(e["kind"] for e in trace.events)["Drop"] > 0
    assert trace.text().encode("utf-8") == per_event_oracle(trace)
    # A trace built by hand is given its lines, and writes them as they are.
    by_hand = Trace(
        dict(trace.config), trace.lines()[1:-1], dict(trace.final_labels), trace.termination, trace.final_tick
    )
    assert by_hand.text() == trace.text()

    # Replaced messages are summarized and encoded again at delivery.
    _, hooked = run_fixture(model, seed=7, config=config, intercept=rewriting_intercept())
    delivered = [e["message"] for e in hooked.events if e["kind"] == "Deliver"]
    assert any("rewritten" in (m["to"] or "") for m in delivered)
    assert hooked.text().encode("utf-8") == per_event_oracle(hooked)


def test_write_trace_round_trips(birth_model, tmp_path):
    _, trace = run_fixture(birth_model)
    path = tmp_path / "run.jsonl"
    write_trace(trace, path)
    assert path.read_text(encoding="utf-8") == trace.text()
