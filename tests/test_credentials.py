import copy
import hashlib
import itertools
import json
import pickle
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import helpers
import ssiforge.credentials as credentials

from ssiforge.credentials import (
    CHECK_ORDER,
    NONCE_LENGTH,
    SelfIssueError,
    VerificationOutcome,
    base58_decode,
    base58_encode,
    canonical_bytes,
    create_presentation,
    credential_payload,
    decode_did,
    did_from_public_key,
    generate_keypair,
    issue_credential,
    mint_credential,
    proof_message,
    verify_presentation,
    verify_signature,
)
from ssiforge.overlay import TrustRegistry

# Ed25519 reference vectors (seed, public key, message, signature), RFC 8032.
ED25519_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


@pytest.mark.parametrize("seed,public,message,signature", ED25519_VECTORS)
def test_ed25519_reference_vectors(seed, public, message, signature):
    pair = generate_keypair(bytes.fromhex(seed))
    assert pair.public_key.hex() == public
    assert pair.signing_key.sign(bytes.fromhex(message)).hex() == signature
    assert verify_signature(pair.public_key, bytes.fromhex(message), bytes.fromhex(signature))


def test_scheme_rejects_bad_material():
    with pytest.raises(ValueError):
        generate_keypair(b"short")
    pair = generate_keypair(bytes(32))
    assert not verify_signature(b"not-a-key", b"m", b"s")
    assert not verify_signature(pair.public_key, b"m", b"bogus")


def test_keypair_is_derived_once_per_seed():
    seed = bytes(range(32))
    pair = generate_keypair(seed)
    assert generate_keypair(bytes(range(32))) is pair
    assert generate_keypair(bytearray(seed)) is pair  # an unhashable seed still derives
    with pytest.raises(ValueError):
        generate_keypair(bytearray(31))


def test_base58_known_values():
    assert base58_encode(b"hello world") == "StV1DL6CwTryKyV"
    assert base58_encode(b"") == ""
    assert base58_encode(b"\x00") == "1"
    assert base58_encode(b"\x00\x00abc") == "11ZiCa"
    assert base58_decode("11ZiCa") == b"\x00\x00abc"


@given(st.binary(max_size=64))
def test_base58_round_trip(raw):
    assert base58_decode(base58_encode(raw)) == raw


def base58_by_digit(raw: bytes) -> str:
    """Base58, one digit per ``divmod``: the oracle for the two-digit encoder."""
    zeros = len(raw) - len(raw.lstrip(b"\x00"))
    value = int.from_bytes(raw, "big")
    digits = []
    while value:
        value, rem = divmod(value, 58)
        digits.append(credentials._B58_ALPHABET[rem])
    return "1" * zeros + "".join(reversed(digits))


@given(st.integers(0, 4), st.binary(max_size=48), st.booleans())
def test_base58_encode_matches_digit_by_digit(zeros, body, all_zero):
    raw = b"\x00" * zeros + (bytes(len(body)) if all_zero else body)
    assert base58_encode(raw) == base58_by_digit(raw)


def test_base58_encode_pair_boundaries():
    # Values whose top pair starts with a zero digit, and digit counts of both parities.
    for value in (1, 57, 58, 3363, 3364, 3364 * 58 - 1, 3364 * 58, 3364**2):
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        for prefix in (b"", b"\x00", b"\x00\x00"):
            assert base58_encode(prefix + raw) == base58_by_digit(prefix + raw)


def test_base58_rejects_foreign_characters():
    for char in "0OIl+/":
        with pytest.raises(ValueError):
            base58_decode(char)


@given(st.binary(min_size=32, max_size=32))
def test_did_round_trip(key):
    did = did_from_public_key(key)
    assert did.startswith("did:sim:")
    assert decode_did(did) == key


def test_did_guards():
    with pytest.raises(ValueError):
        did_from_public_key(b"\x01" * 31)
    with pytest.raises(ValueError):
        decode_did("did:web:foo")
    with pytest.raises(ValueError):
        decode_did("did:sim:" + base58_encode(b"\x01" * 31))


def test_canonical_bytes_shape():
    assert canonical_bytes({"b": 1, "a": "é"}) == b'{"a":"\xc3\xa9","b":1}'
    assert canonical_bytes([1, {"z": None, "a": True}]) == b'[1,{"a":true,"z":null}]'
    nested = {
        "z": {"b": "tab\there\nnew", "a": "Zo\u00eb \u2028 \u65e5"},
        "a": ["\x00\x1f\x7f", '"q"\\', 1.5, None, True, -0, 10**20],
        "\u00c9": {},
    }
    assert canonical_bytes(nested) == (
        b'{"a":["\\u0000\\u001f\x7f","\\"q\\"\\\\",1.5,null,true,0,100000000000000000000],'
        b'"z":{"a":"Zo\xc3\xab \xe2\x80\xa8 \xe6\x97\xa5","b":"tab\\there\\nnew"},"\xc3\x89":{}}'
    )


def test_prebuilt_encoder_matches_the_json_encoder(monkeypatch):
    values = [
        {"b": 1, "a": "é", "c": [1.5, -0.0, float("inf"), None, False, {"z": {}, "y": []}]},
        {3: "int key", 1: True},
        "tab\tand \u2028",
        10**20,
        [],
    ]
    for value in values:
        assert credentials.canonical_text(value) == credentials.CANONICAL_JSON.encode(value)
    with pytest.raises(TypeError):
        credentials.canonical_text({"raw": b"bytes"})
    monkeypatch.setattr(credentials, "c_make_encoder", None)
    assert credentials._build_canonical_encoder() == credentials.CANONICAL_JSON.encode


def test_canonical_bytes_distinguishes_payloads():
    payloads = [
        {"a": "x"},
        {"a": "y"},
        {"a": "x", "b": "x"},
        {"b": "x"},
        {"a": ""},
        {"": "x"},
        {"a": {"b": "x"}},
        {"a": "x", "b": ""},
    ]
    images = [canonical_bytes(p) for p in payloads]
    assert len(set(images)) == len(images)


def test_frozen_key_vectors(vectors):
    for entry in vectors["keys"]:
        pair = generate_keypair(bytes.fromhex(entry["seed"]))
        assert pair.public_key.hex() == entry["publicKey"]
        assert did_from_public_key(pair.public_key) == entry["did"]


def test_frozen_credential_vector(vectors):
    spec = vectors["credential"]
    issuer = generate_keypair(bytes.fromhex(spec["issuerSeed"]))
    issuer_did = did_from_public_key(issuer.public_key)
    holder = generate_keypair(bytes.fromhex(spec["holderSeed"]))
    holder_did = did_from_public_key(holder.public_key)
    assert issuer_did == spec["issuer"]
    assert holder_did == spec["holder"]

    credential = issue_credential(
        issuer, mint_credential(issuer_did, spec["subject"], holder_did, spec["type"], spec["claims"], spec["issuedAt"])
    )
    assert credential.id == spec["id"]
    assert credential.signature.hex() == spec["signature"]
    assert canonical_bytes(credential.payload()).decode() == spec["canonicalPayload"]
    assert credential.id == hashlib.sha256(spec["canonicalPayload"].encode()).hexdigest()


def test_a_credential_carries_its_payload_bytes(vectors):
    """The issuer hands its credential the bytes it hashed and signed; a
    copy made with ``replace`` encodes its own when they are first read."""
    spec = vectors["credential"]
    issuer = generate_keypair(bytes.fromhex(spec["issuerSeed"]))
    credential = issue_credential(
        issuer,
        mint_credential(
            spec["issuer"], spec["subject"], spec["holder"], spec["type"], spec["claims"], spec["issuedAt"]
        ),
    )
    assert credential._payload_bytes is not None  # handed over, not encoded again
    assert credential.payload_bytes() == spec["canonicalPayload"].encode("utf-8")
    assert credential.payload_bytes() == canonical_bytes(credential.payload())

    moved = credential.replace(claims={**spec["claims"], "place": "Ward 4"})
    assert moved._payload_bytes is None
    assert moved.payload_bytes() == canonical_bytes(moved.payload()) != credential.payload_bytes()
    assert credential.replace(issued_at=8).payload_bytes() == canonical_bytes({**credential.payload(), "issuedAt": 8})


def test_claims_are_read_only(vectors):
    spec = vectors["credential"]
    issuer = generate_keypair(bytes.fromhex(spec["issuerSeed"]))
    credential = issue_credential(
        issuer,
        mint_credential(
            spec["issuer"], spec["subject"], spec["holder"], spec["type"], spec["claims"], spec["issuedAt"]
        ),
    )
    made = credentials.Credential(
        credential.id, credential.type, credential.issuer, credential.subject, credential.holder,
        dict(spec["claims"]), credential.issued_at, credential.signature,
    )
    assert made == credential
    copies = (copy.copy(credential.claims), pickle.loads(pickle.dumps(made.claims)))
    for claims in (credential.claims, made.claims, *copies):
        with pytest.raises(TypeError):
            claims["place"] = "Ward 4"
        with pytest.raises(TypeError):
            del claims["place"]
        with pytest.raises(TypeError):
            claims.update(place="Ward 4")
        for change in ("clear", "popitem"):
            with pytest.raises(TypeError):
                getattr(claims, change)()
        with pytest.raises(TypeError):
            claims.pop("place")
        with pytest.raises(TypeError):
            claims.setdefault("x", "y")
        with pytest.raises(TypeError):
            claims |= {"place": "Ward 4"}
        # It still compares, prints and copies as the dict it holds.
        assert claims == spec["claims"] and repr(claims) == repr(spec["claims"])
        assert dict(claims) == copy.deepcopy(claims) == spec["claims"]
    assert credential.payload_bytes() == spec["canonicalPayload"].encode("utf-8")
    assert pickle.loads(pickle.dumps(credential)) == credential


def test_frozen_presentation_vector(vectors):
    spec = vectors["credential"]
    pspec = vectors["presentation"]
    issuer = generate_keypair(bytes.fromhex(spec["issuerSeed"]))
    holder = generate_keypair(bytes.fromhex(spec["holderSeed"]))
    issuer_did, holder_did = spec["issuer"], spec["holder"]
    credential = issue_credential(
        issuer, mint_credential(issuer_did, spec["subject"], holder_did, spec["type"], spec["claims"], spec["issuedAt"])
    )
    nonce = bytes.fromhex(pspec["nonce"])
    presentation = create_presentation(holder, holder_did, credential, nonce)
    assert presentation.presenter == pspec["presenter"]
    assert presentation.holder_proof.hex() == pspec["holderProof"]

    directory = {issuer_did: issuer.public_key, holder_did: holder.public_key}
    trust = TrustRegistry({("Gate", spec["type"]): frozenset({issuer_did})})
    outcome = verify_presentation(presentation, directory, trust, "Gate", nonce)
    assert outcome.verdict
    assert outcome.fail_reason == ""


def lifecycle(claims=None, trust_issuers=None):
    issuer = generate_keypair(bytes([0x11]) * 32)
    holder = generate_keypair(bytes([0x22]) * 32)
    issuer_did = did_from_public_key(issuer.public_key)
    holder_did = did_from_public_key(holder.public_key)
    credential = issue_credential(
        issuer, mint_credential(issuer_did, holder_did, holder_did, "Permit", claims or {"zone": "3"}, issued_at=1)
    )
    nonce = bytes(NONCE_LENGTH)
    presentation = create_presentation(holder, holder_did, credential, nonce)
    directory = {issuer_did: issuer.public_key}
    accepted = frozenset({issuer_did} if trust_issuers is None else trust_issuers)
    trust = TrustRegistry({("Gate", "Permit"): accepted})
    return issuer, holder, presentation, directory, trust, nonce


def test_honest_lifecycle_passes_all_checks():
    _, _, presentation, directory, trust, nonce = lifecycle()
    outcome = verify_presentation(presentation, directory, trust, "Gate", nonce)
    assert (outcome.integrity, outcome.issuer_signature, outcome.subject_binding, outcome.issuer_trusted) == (
        True, True, True, True,
    )


def test_self_issue_rejected():
    issuer = generate_keypair(bytes([0x11]) * 32)
    did = did_from_public_key(issuer.public_key)
    with pytest.raises(SelfIssueError):
        issue_credential(issuer, mint_credential(did, did, did, "Permit", {}, issued_at=0))


def test_claims_must_be_string_pairs():
    issuer = generate_keypair(bytes([0x11]) * 32)
    issuer_did = did_from_public_key(issuer.public_key)
    holder_did = did_from_public_key(generate_keypair(bytes([0x22]) * 32).public_key)
    with pytest.raises(ValueError):
        issue_credential(issuer, mint_credential(issuer_did, holder_did, holder_did, "Permit", {"n": 3}, 0))
    with pytest.raises(ValueError):
        issue_credential(issuer, mint_credential(issuer_did, holder_did, holder_did, "Permit", {"": "x"}, 0))


def test_claims_are_copied():
    issuer = generate_keypair(bytes([0x11]) * 32)
    issuer_did = did_from_public_key(issuer.public_key)
    holder_did = did_from_public_key(generate_keypair(bytes([0x22]) * 32).public_key)
    claims = {"zone": "3"}
    credential = issue_credential(issuer, mint_credential(issuer_did, holder_did, holder_did, "Permit", claims, 0))
    claims["zone"] = "9"
    assert credential.claims == {"zone": "3"}


def test_payload_field_order_is_canonical():
    payload = credential_payload("T", "did:sim:i", "did:sim:s", "did:sim:h", {"a": "b"}, 4)
    raw = canonical_bytes(payload)
    assert raw.startswith(b'{"claims":')
    assert json.loads(raw) == payload


def test_unregistered_issuer_fails_signature_check():
    _, _, presentation, _, trust, nonce = lifecycle()
    outcome = verify_presentation(presentation, {}, trust, "Gate", nonce)
    assert outcome.integrity and not outcome.issuer_signature
    assert outcome.fail_reason == "issuerSignature"


def test_claim_tamper_breaks_integrity():
    _, _, presentation, directory, trust, nonce = lifecycle()
    tampered = presentation.credential.replace(claims={"zone": "4"})
    outcome = verify_presentation(
        presentation.replace(credential=tampered), directory, trust, "Gate", nonce
    )
    assert not outcome.integrity
    assert outcome.fail_reason == "integrity"


def test_foreign_signature_fails_issuer_check():
    _, _, presentation, directory, trust, nonce = lifecycle()
    mallory = generate_keypair(bytes([0x33]) * 32)
    resigned = presentation.credential.replace(
        signature=mallory.signing_key.sign(canonical_bytes(presentation.credential.payload())),
    )
    outcome = verify_presentation(
        presentation.replace(credential=resigned), directory, trust, "Gate", nonce
    )
    assert (outcome.integrity, outcome.issuer_signature, outcome.subject_binding, outcome.issuer_trusted) == (
        True, False, True, True,
    )


def test_memo_gives_the_flags_of_a_memo_free_check(monkeypatch):
    """A memo warmed by an honest presentation must not vouch for a copy
    with a mutated claim (same ``id``) or with a foreign signature."""
    _, _, presentation, directory, trust, nonce = lifecycle()
    credential = presentation.credential
    mutated = credential.replace(claims={"zone": "4"})
    mallory = generate_keypair(bytes([0x33]) * 32)
    foreign = credential.replace(signature=mallory.signing_key.sign(canonical_bytes(credential.payload())))
    assert mutated.id == foreign.id == credential.id

    memo = {}
    honest = verify_presentation(presentation, directory, trust, "Gate", nonce, memo=memo)
    assert honest.verdict
    for copy in (mutated, foreign):
        tampered = presentation.replace(credential=copy)
        memoized = verify_presentation(tampered, directory, trust, "Gate", nonce, memo=memo)
        assert memoized == verify_presentation(tampered, directory, trust, "Gate", nonce)
        assert not memoized.verdict
    # Three issuer signature checks, and the presenter's key, decoded once.
    assert sorted(v for k, v in memo.items() if isinstance(k, tuple)) == [False, False, True]
    presenter = presentation.presenter
    assert {k: v for k, v in memo.items() if isinstance(k, str)} == {presenter: decode_did(presenter)}

    # Again: the issuer signature comes from the memo, the holder proof is verified.
    calls = []
    real = credentials.verify_signature
    monkeypatch.setattr(credentials, "verify_signature", lambda *args: calls.append(args) or real(*args))
    assert verify_presentation(presentation, directory, trust, "Gate", nonce, memo=memo) == honest
    assert calls == [(decode_did(presentation.presenter), proof_message(credential.id, nonce), presentation.holder_proof)]


def test_memo_skips_unregistered_issuers():
    _, _, presentation, _, trust, nonce = lifecycle()
    memo = {}
    outcome = verify_presentation(presentation, {}, trust, "Gate", nonce, memo=memo)
    assert outcome == verify_presentation(presentation, {}, trust, "Gate", nonce)
    # No issuer signature check is kept; the memo holds only the presenter's decoded key.
    assert not outcome.issuer_signature and memo == {presentation.presenter: decode_did(presentation.presenter)}


def test_wrong_presenter_fails_binding():
    _, _, presentation, directory, trust, nonce = lifecycle()
    mallory = generate_keypair(bytes([0x33]) * 32)
    mallory_did = did_from_public_key(mallory.public_key)
    stolen = create_presentation(mallory, mallory_did, presentation.credential, nonce)
    outcome = verify_presentation(stolen, directory, trust, "Gate", nonce)
    assert (outcome.integrity, outcome.issuer_signature, outcome.subject_binding, outcome.issuer_trusted) == (
        True, True, False, True,
    )


def test_stale_nonce_fails_binding():
    _, holder, presentation, directory, trust, nonce = lifecycle()
    stale = create_presentation(
        holder, presentation.presenter, presentation.credential, b"\xaa" * NONCE_LENGTH
    )
    outcome = verify_presentation(stale, directory, trust, "Gate", nonce)
    assert (outcome.integrity, outcome.issuer_signature, outcome.subject_binding, outcome.issuer_trusted) == (
        True, True, False, True,
    )


# A DID whose key part is not base58: "0" is no base58 digit.
UNDECODABLE_DID = "did:sim:0Il"


@given(
    holder_decodes=st.booleans(),
    presenter=st.sampled_from(("holder", "mallory", "undecodable", "no DID")),
    nonce=st.sampled_from(("expected", "stale")),
    proof=st.sampled_from(("holder", "mallory", "corrupted", "empty")),
    bit=st.integers(0, 511),
    stale_nonce=st.binary(min_size=NONCE_LENGTH, max_size=NONCE_LENGTH).filter(lambda n: n != bytes(NONCE_LENGTH)),
)
def test_short_circuit_gives_the_always_verify_flags(holder_decodes, presenter, nonce, proof, bit, stale_nonce):
    """``verify_presentation`` equals the reference that always verifies the
    holder proof, and verifies no holder proof when the presenter is not
    the holder or the nonce is not the expected one; also through a memo
    that already holds the holder's DID key and the issuer signature check."""
    issuer, holder, _, directory, trust, expected = lifecycle()
    mallory = generate_keypair(bytes([0x33]) * 32)
    issuer_did = next(iter(directory))
    holder_did = did_from_public_key(holder.public_key) if holder_decodes else UNDECODABLE_DID
    credential = issue_credential(
        issuer, mint_credential(issuer_did, holder_did, holder_did, "Permit", {"zone": "3"}, issued_at=1)
    )
    presenter_did = {
        "holder": holder_did,
        "mallory": did_from_public_key(mallory.public_key),
        "undecodable": UNDECODABLE_DID,
        "no DID": "zz",
    }[presenter]
    presented_nonce = expected if nonce == "expected" else stale_nonce
    message = proof_message(credential.id, presented_nonce)
    honest = holder.signing_key.sign(message)
    holder_proof = {
        "holder": honest,
        "mallory": mallory.signing_key.sign(message),
        "corrupted": honest[: bit // 8] + bytes([honest[bit // 8] ^ 1 << bit % 8]) + honest[bit // 8 + 1:],
        "empty": b"",
    }[proof]
    presentation = credentials.Presentation(credential, presenter_did, presented_nonce, holder_proof)

    # A memo that has verified an honest presentation of the credential: its issuer signature check and
    # the holder's DID, decoded or not, are memo hits.
    memo = {}
    honest_proof = holder.signing_key.sign(proof_message(credential.id, expected))
    warm = credentials.Presentation(credential, holder_did, expected, honest_proof)
    assert verify_presentation(warm, directory, trust, "Gate", expected, memo=memo).subject_binding == holder_decodes
    issuer_check = (directory[issuer_did], canonical_bytes(credential.payload()), credential.signature)
    assert set(memo) == {holder_did, issuer_check}

    reference = helpers.verify_presentation_reference(presentation, directory, trust, "Gate", expected)
    # The holder proof is read only when the presenter is the holder, the nonce is expected and the DID decodes.
    read = presenter_did == credential.holder and presented_nonce == expected and holder_decodes
    for run_memo in (None, memo):
        with mock.patch.object(credentials, "verify_signature", wraps=credentials.verify_signature) as spy, \
                mock.patch.object(credentials, "decode_did", wraps=credentials.decode_did) as decode:
            outcome = verify_presentation(presentation, directory, trust, "Gate", expected, memo=run_memo)
        assert outcome == reference
        proof_checks = [c.args for c in spy.call_args_list if c.args[1] == message]
        assert proof_checks == ([(holder.public_key, message, holder_proof)] if read else [])
        assert outcome.subject_binding == (
            presenter == "holder" and nonce == "expected" and holder_decodes and proof == "holder"
        )
        if run_memo is not None:  # nothing is decoded or checked again
            assert decode.call_args_list == [] and len(spy.call_args_list) == len(proof_checks)


def test_untrusted_issuer_fails_last_check():
    _, _, presentation, directory, trust, nonce = lifecycle(trust_issuers=frozenset())
    outcome = verify_presentation(presentation, directory, trust, "Gate", nonce)
    assert (outcome.integrity, outcome.issuer_signature, outcome.subject_binding, outcome.issuer_trusted) == (
        True, True, True, False,
    )
    assert outcome.fail_reason == "issuerTrusted"


def test_fail_reason_names_first_failing_check():
    for flags in itertools.product((True, False), repeat=4):
        outcome = VerificationOutcome(*flags)
        expected = ""
        for name, ok in zip(CHECK_ORDER, flags):
            if not ok:
                expected = name
                break
        assert outcome.fail_reason == expected
        assert outcome.verdict == all(flags)
        assert list(outcome.flags.items()) == list(zip(CHECK_ORDER, flags))


def test_proof_message_layout():
    assert proof_message("abc", b"\x00\x01") == b"abc\x00\x01"


def test_presentation_nonce_length_enforced():
    issuer, holder, presentation, _, _, _ = lifecycle()
    with pytest.raises(ValueError):
        create_presentation(holder, presentation.presenter, presentation.credential, b"short")
