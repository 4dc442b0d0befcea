"""End-to-end checks over the birth registration fixture and random sweeps.

Each test here exercises one externally visible guarantee of the package;
the terminal summary lists their verdicts one per line.
"""

import json
import random
import string
from collections import defaultdict

import pytest

import helpers
from ssiforge.credentials import (
    canonical_bytes,
    create_presentation,
    did_from_public_key,
    generate_keypair,
    issue_credential,
    mint_credential,
    verify_presentation,
)
from ssiforge.model import validate
from ssiforge.overlay import (
    EvidenceKind,
    FlowKind,
    SsiRole,
    TrustRegistry,
    build_trust_registry,
    derive_flows,
    infer_roles,
    lint_ssi,
)
from ssiforge.pistar import parse_model, serialize_model
from ssiforge.propagation import evaluate_goals
from ssiforge.simulator import (
    SimConfig,
    actor_key_seed,
    compile_agents,
    derive_bootstrap,
    run,
)

BND = "Birth Notification Document"
MID = "Mother's ID"
CERT = "Birth Certificate"


def simulate_fixture(model, seed=42, intercept=None):
    roles = infer_roles(model)
    flows = derive_flows(model, roles)
    dids = {
        a.id: did_from_public_key(generate_keypair(actor_key_seed(seed, a.id)).public_key)
        for a in model.actors
    }
    trust = build_trust_registry(roles, flows, dids)
    agents = compile_agents(model, roles, flows, trust, derive_bootstrap(model, roles, flows), seed=seed)
    return run(model, agents, SimConfig(seed=seed), intercept)


def test_fixture_validates_and_roles_form_the_trust_triangle(birth_model):
    assert validate(birth_model).errors == ()
    by_actor = defaultdict(set)
    for assignment in infer_roles(birth_model):
        by_actor[assignment.actor].add((assignment.credential_type, assignment.role))
    assert by_actor["Midwife"] == {(MID, SsiRole.VERIFIER), (BND, SsiRole.ISSUER)}
    assert by_actor["Registrar"] == {
        (MID, SsiRole.VERIFIER),
        (BND, SsiRole.VERIFIER),
        (CERT, SsiRole.ISSUER),
    }
    assert by_actor["Mother"] == {(MID, SsiRole.HOLDER), (BND, SsiRole.HOLDER), (CERT, SsiRole.HOLDER)}


def test_fixture_flows_are_classified_with_evidence(birth_path, birth_model):
    roles = infer_roles(birth_model)
    flows = {f.dependency: f for f in derive_flows(birth_model, roles)}
    assert flows["dep-bnd-mother"].kind is FlowKind.ISSUANCE
    assert flows["dep-bnd-mother"].credential_type == BND
    assert flows["dep-cert-mother"].kind is FlowKind.ISSUANCE
    assert flows["dep-cert-mother"].credential_type == CERT
    assert flows["dep-id-midwife"].kind is FlowKind.PRESENTATION
    assert flows["dep-id-registrar"].kind is FlowKind.PRESENTATION
    assert all(f.evidence.kind is not EvidenceKind.UNRESOLVED for f in flows.values())

    # a verb outside the lexicon leaves exactly one flow ambiguous
    doc = json.loads(birth_path.read_text(encoding="utf-8"))
    for actor in doc["actors"]:
        for node in actor["nodes"]:
            if node["id"] == "midwife-issue-bnd":
                node["text"] = "Arrange BND"
    renamed = parse_model(json.dumps(doc).encode("utf-8")).model
    renamed_roles = infer_roles(renamed)
    renamed_flows = derive_flows(renamed, renamed_roles)
    findings = lint_ssi(renamed, renamed_roles, renamed_flows)
    assert [w.offending_id for w in findings if w.code == "W_FLOW_AMBIGUOUS"] == ["dep-bnd-mother"]


def test_honest_run_satisfies_the_mother_deterministically(birth_model):
    trace = simulate_fixture(birth_model)
    assert trace.termination == "quiescence"
    assert trace.final_tick < 200
    assert trace.final_labels["mother-goal"] == "Satisfied"
    checks = [e for e in trace.events if e["kind"] == "Verify"]
    assert checks
    for event in checks:
        assert event["integrity"] and event["issuerSignature"]
        assert event["subjectBinding"] and event["issuerTrusted"]
    assert trace.text() == simulate_fixture(birth_model).text()


def _claim_tamper(msg):
    credential = msg.presentation.credential
    tampered = credential.replace(claims=dict(credential.claims, subjectActor="intruder"))
    return msg.replace(presentation=msg.presentation.replace(credential=tampered))


def _resign_tamper(msg):
    mallory = generate_keypair(b"\x99" * 32)
    credential = msg.presentation.credential
    forged = credential.replace(
        signature=mallory.signing_key.sign(canonical_bytes(credential.payload())),
    )
    return msg.replace(presentation=msg.presentation.replace(credential=forged))


def _stale_nonce_tamper(msg):
    mother = generate_keypair(actor_key_seed(42, "Mother"))
    stale = create_presentation(mother, msg.presentation.presenter, msg.presentation.credential, bytes(16))
    return msg.replace(presentation=stale)


def _impostor_tamper(msg):
    mallory = generate_keypair(b"\x99" * 32)
    hijacked = create_presentation(
        mallory, did_from_public_key(mallory.public_key), msg.presentation.credential, msg.presentation.nonce
    )
    return msg.replace(presentation=hijacked)


@pytest.mark.parametrize(
    "tamper,failed_flag",
    [
        (_claim_tamper, "integrity"),
        (_resign_tamper, "issuerSignature"),
        (_stale_nonce_tamper, "subjectBinding"),
        (_impostor_tamper, "subjectBinding"),
    ],
    ids=["mutated-claim", "foreign-signature", "stale-nonce", "wrong-presenter"],
)
def test_tampered_presentations_trip_their_check(birth_model, tamper, failed_flag):
    def intercept(msg, tick):
        if msg.kind == "ProofPresentation" and msg.flow == "dep-bnd-registrar":
            return tamper(msg)
        return msg

    trace = simulate_fixture(birth_model, intercept=intercept)
    event = next(e for e in trace.events if e["kind"] == "Verify" and e["flow"] == "dep-bnd-registrar")
    assert event[failed_flag] is False
    certificate_messages = [
        e
        for e in trace.events
        if e.get("message", {}).get("type") == "CredentialIssuance"
        and e["message"]["credentialType"] == CERT
    ]
    assert certificate_messages == []
    assert trace.final_labels["mother-goal"] == "Denied"


@pytest.mark.parametrize("tamper", [_claim_tamper, _resign_tamper], ids=["mutated-claim", "foreign-signature"])
def test_a_run_never_reuses_a_check_for_other_bytes(birth_model, tamper):
    """The Midwife verifies the honest Mother's ID first; the copy the
    Registrar gets later in the same run keeps its ``id`` but not its bytes,
    and gets the flags a memo-free check gives."""
    tampered = []

    def intercept(msg, tick):
        if msg.kind == "ProofPresentation" and msg.flow == "dep-id-registrar":
            tampered.append(tamper(msg).presentation)
            return msg.replace(presentation=tampered[-1])
        return msg

    trace = simulate_fixture(birth_model, intercept=intercept)
    verifies = [e for e in trace.events if e["kind"] == "Verify"]
    honest = next(e for e in verifies if e["flow"] == "dep-id-midwife")
    event = next(e for e in verifies if e["flow"] == "dep-id-registrar")
    assert honest["verdict"] and honest["seq"] < event["seq"]
    assert honest["credentialId"] == event["credentialId"] == tampered[0].credential.id

    issuer = tampered[0].credential.issuer
    directory = {issuer: generate_keypair(actor_key_seed(42, "ID Agency")).public_key}
    trust = TrustRegistry({("Registrar", MID): frozenset({issuer})})
    fresh = verify_presentation(tampered[0], directory, trust, "Registrar", tampered[0].nonce)
    flags = ("integrity", "issuerSignature", "subjectBinding", "issuerTrusted")
    assert tuple(event[f] for f in flags) == (
        fresh.integrity, fresh.issuer_signature, fresh.subject_binding, fresh.issuer_trusted
    )
    assert not fresh.verdict


def _unsigned_copy(credential):
    return credential


def _foreign_signed_copy(credential):
    mallory = generate_keypair(b"\x99" * 32)
    return credential.replace(signature=mallory.signing_key.sign(canonical_bytes(credential.payload())))


@pytest.mark.parametrize("sign", [_unsigned_copy, _foreign_signed_copy], ids=["empty-signature", "foreign-signature"])
def test_a_run_never_signs_a_credential_an_intercept_returned(birth_model, sign):
    """The run signs the credentials it minted when they are first read.  A
    claim-mutated copy that an intercept puts in a ``CredentialIssuance``,
    its id recomputed so that integrity holds, keeps the signature it came
    with, and the Registrar finds no issuer signature on it."""
    copies = []

    def intercept(msg, tick):
        if msg.kind == "CredentialIssuance" and msg.credential_type == BND:
            honest = msg.credential
            claims = dict(honest.claims, subjectActor="changeling")
            minted = mint_credential(honest.issuer, honest.subject, honest.holder, honest.type, claims, honest.issued_at)
            copies.append(sign(minted))
            return msg.replace(credential=copies[-1])
        return msg

    trace = simulate_fixture(birth_model, intercept=intercept)
    assert len(copies) == 1
    event = next(e for e in trace.events if e["kind"] == "Verify" and e["flow"] == "dep-bnd-registrar")
    assert event["credentialId"] == copies[0].id
    assert event["integrity"] is True and event["issuerSignature"] is False
    assert event["failReason"] == "issuerSignature"
    assert trace.final_labels["mother-goal"] == "Denied"


def test_untrusted_issuer_blocks_the_certificate(birth_path, tmp_path):
    midwife_did = did_from_public_key(generate_keypair(actor_key_seed(42, "Midwife")).public_key)
    trust_path = tmp_path / "trust.json"
    trust_path.write_text(
        json.dumps(
            [{"verifier": "Registrar", "credentialType": BND, "issuerDid": midwife_did, "action": "remove"}]
        ),
        encoding="utf-8",
    )
    trace_path = tmp_path / "run.jsonl"
    result = helpers.invoke(
        ["simulate", str(birth_path), "--seed", "42", "--trust", str(trust_path), "--trace", str(trace_path)]
    )
    assert result.exit_code == 1
    lines = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    event = next(e for e in lines[1:-1] if e.get("kind") == "Verify" and e["flow"] == "dep-bnd-registrar")
    assert event["issuerTrusted"] is False
    assert event["verdict"] is False
    assert lines[-1]["finalLabels"]["mother-goal"] == "Denied"


def test_suppressed_office_copy_denies_the_bnd_check(birth_model):
    def intercept(msg, tick):
        return None if msg.kind == "RecordCopy" else msg

    trace = simulate_fixture(birth_model, intercept=intercept)
    assert trace.final_labels["registrar-check-bnd"] == "Denied"


def test_goal_evaluation_matches_brute_force_oracle():
    mismatches = 0
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        model = helpers.make_random_model(rng)
        outcomes = helpers.random_outcomes(rng, model)
        if evaluate_goals(model, outcomes) != helpers.label_oracle(model, outcomes):
            mismatches += 1
    assert mismatches == 0


def test_serialization_round_trip_on_generated_models():
    for seed in range(100):
        model = helpers.make_random_model(random.Random(20_000 + seed))
        result = parse_model(serialize_model(model).encode("utf-8"))
        assert result.ok, seed
        assert result.model == model, seed


def _honest_presentation(rng):
    issuer = generate_keypair(rng.randbytes(32))
    holder = generate_keypair(rng.randbytes(32))
    issuer_did = did_from_public_key(issuer.public_key)
    holder_did = did_from_public_key(holder.public_key)
    size = rng.randint(1, 5)
    claims = {
        "".join(rng.choices(string.ascii_lowercase, k=8)): "".join(rng.choices(string.printable[:95], k=12))
        for _ in range(size)
    }
    credential = issue_credential(
        issuer, mint_credential(issuer_did, holder_did, holder_did, "Permit", claims, issued_at=rng.randrange(1000))
    )
    nonce = rng.randbytes(16)
    presentation = create_presentation(holder, holder_did, credential, nonce)
    directory = {issuer_did: issuer.public_key}
    trust = TrustRegistry({("Gate", "Permit"): frozenset({issuer_did})})
    return presentation, directory, trust, nonce


def test_single_bit_mutations_never_verify():
    rng = random.Random(31_337)
    presentation, directory, trust, nonce = _honest_presentation(rng)
    # A memo warmed by the honest presentation, as a run keeps one.
    memo = {}
    assert verify_presentation(presentation, directory, trust, verifier="Gate", expected_nonce=nonce, memo=memo).verdict
    for i in range(1000):
        mutated, _field = helpers.mutate_presentation(presentation, rng)
        outcome = verify_presentation(mutated, directory, trust, verifier="Gate", expected_nonce=nonce)
        assert not outcome.verdict, (i, _field)
        memoized = verify_presentation(mutated, directory, trust, verifier="Gate", expected_nonce=nonce, memo=memo)
        assert memoized == outcome, (i, _field)


def test_honest_presentations_always_verify():
    rng = random.Random(271_828)
    for i in range(100):
        presentation, directory, trust, nonce = _honest_presentation(rng)
        outcome = verify_presentation(presentation, directory, trust, verifier="Gate", expected_nonce=nonce)
        assert outcome.verdict, i
        assert outcome.integrity and outcome.issuer_signature
        assert outcome.subject_binding and outcome.issuer_trusted
