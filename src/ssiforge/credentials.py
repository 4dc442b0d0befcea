"""Credential lifecycle primitives: keys, DIDs, issuance, presentation, checks.

Everything here is real cryptography, not simulation bookkeeping.  A
credential is a canonically serialized claim payload, content-addressed by
SHA-256 and signed by its issuer; a presentation wraps a credential together
with a holder-signed proof of possession bound to a verifier-chosen nonce.

Verification is one call, ``verify_presentation``, that runs four
independent checks, always in this order:

1. ``integrity``: the credential id equals the hash of its payload
2. ``issuerSignature``: the issuer's signature verifies under the key the
   directory maps the issuer DID to (an unregistered issuer fails here)
3. ``subjectBinding``: the presenter is the credential's holder, the nonce
   matches the one the verifier handed out, and, tested only if both hold,
   so that neither failure costs an Ed25519 call, the holder proof verifies
   under the presenter's own DID key
4. ``issuerTrusted``: the issuer DID is in the verifier's accepted set

The first failing check names the failure reason; later checks still run so
callers always see all four flags.

``verify_presentation`` takes an optional memo, a dict that one caller keeps
for one run (the simulator keeps one per run): it maps an issuer signature
check, keyed on the issuer key, the payload bytes recomputed from the
credential and the signature, to its result.  A credential presented to
several verifiers is then checked with Ed25519 once.  This is sound because
Ed25519 verification is a pure function of key, message and signature: the
key holds exactly the bytes verified, so a credential with a changed claim
or a foreign signature misses the memo even when its ``id`` is unchanged.
The holder proof is never memoized; each one signs a fresh nonce.
"""

from __future__ import annotations

import functools
import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring
from typing import Mapping

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from .model import Record
from .overlay import TrustRegistry

DID_PREFIX = "did:sim:"
NONCE_LENGTH = 16
SEED_LENGTH = 32
# Derived key pairs kept for reuse, least recently used evicted first: a
# simulation derives every actor's pair once for its DIDs and again to
# compile its agents.  1,024 pairs cover two simulations of 512 actors and
# hold well under 1 MB (a pair is a few hundred bytes resident).
KEY_CACHE_SIZE = 1024

CHECK_ORDER = ("integrity", "issuerSignature", "subjectBinding", "issuerTrusted")

# Issuer signature checks already run: (issuer key, payload bytes, signature) -> valid.
SignatureMemo = dict[tuple[bytes, bytes, bytes], bool]


class SelfIssueError(ValueError):
    code = "E_SELF_ISSUE"


_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}
# Every two-digit string, indexed by its value below 58 * 58.
_B58_PAIRS = [high + low for high in _B58_ALPHABET for low in _B58_ALPHABET]


def base58_encode(raw: bytes) -> str:
    zeros = len(raw) - len(raw.lstrip(b"\x00"))
    value = int.from_bytes(raw, "big")
    pairs = []
    while value:
        value, rem = divmod(value, 58 * 58)
        pairs.append(_B58_PAIRS[rem])
    # The top pair may start with a zero digit, which the number does not have.
    return "1" * zeros + "".join(reversed(pairs)).lstrip("1")


def base58_decode(text: str) -> bytes:
    value = 0
    for char in text:
        if char not in _B58_INDEX:
            raise ValueError(f"invalid base58 character {char!r}")
        value = value * 58 + _B58_INDEX[char]
    zeros = len(text) - len(text.lstrip("1"))
    body = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    return b"\x00" * zeros + body


class KeyPair(Record):
    """An Ed25519 key pair; ``signing_key`` is loaded once, when the pair is derived."""

    public_key: bytes
    signing_key: Ed25519PrivateKey
    _hidden = frozenset({"signing_key"})


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 key pair from a 32-byte seed.

    The last ``KEY_CACHE_SIZE`` pairs are memoized on their seed, so a seed
    derived again returns the same (immutable) pair without loading its key.
    """
    if len(seed) != SEED_LENGTH:
        raise ValueError(f"seed must be {SEED_LENGTH} bytes, got {len(seed)}")
    return _derive_keypair(bytes(seed))


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _derive_keypair(seed: bytes) -> KeyPair:
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(
        public_key=private.public_key().public_bytes_raw(),
        signing_key=private,
    )


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True when ``signature`` is a valid Ed25519 signature of ``message``."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def did_from_public_key(public_key: bytes) -> str:
    if len(public_key) != 32:
        raise ValueError("expected a 32-byte public key")
    return DID_PREFIX + base58_encode(public_key)


def decode_did(did: str) -> bytes:
    if not did.startswith(DID_PREFIX):
        raise ValueError(f"not a {DID_PREFIX!r} DID: {did!r}")
    raw = base58_decode(did[len(DID_PREFIX):])
    if len(raw) != 32:
        raise ValueError("DID does not encode a 32-byte key")
    return raw


# Canonical JSON: sorted keys, no whitespace, non-ASCII text left as is.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _build_canonical_encoder():
    """``CANONICAL_JSON.encode`` with its C encoder built once, not per call.

    The encoder keeps no circular-reference markers: every value encoded
    here is a tree ssiforge built itself.  Without the C accelerator this is
    ``CANONICAL_JSON.encode``.
    """
    if c_make_encoder is None:
        return CANONICAL_JSON.encode
    j = CANONICAL_JSON
    # The arguments ``json.JSONEncoder.iterencode`` passes, with None for the markers.
    c_encode = c_make_encoder(
        None, j.default, encode_basestring, j.indent, j.key_separator, j.item_separator, j.sort_keys, j.skipkeys,
        j.allow_nan
    )

    def encode(value) -> str:
        return "".join(c_encode(value, 0))

    return encode


canonical_text = _build_canonical_encoder()


def canonical_bytes(value) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, raw UTF-8."""
    return canonical_text(value).encode("utf-8")


class Credential(Record):
    id: str
    type: str
    issuer: str
    subject: str
    holder: str
    claims: Mapping[str, str]
    issued_at: int
    signature: bytes

    def payload(self) -> dict:
        return credential_payload(self.type, self.issuer, self.subject, self.holder, self.claims, self.issued_at)


class Presentation(Record):
    credential: Credential
    presenter: str
    nonce: bytes
    holder_proof: bytes


class VerificationOutcome(Record):
    integrity: bool
    issuer_signature: bool
    subject_binding: bool
    issuer_trusted: bool

    @property
    def flags(self) -> dict[str, bool]:
        """Each check's result, by its name in ``CHECK_ORDER``."""
        values = (self.integrity, self.issuer_signature, self.subject_binding, self.issuer_trusted)
        return dict(zip(CHECK_ORDER, values))

    @property
    def verdict(self) -> bool:
        return self.integrity and self.issuer_signature and self.subject_binding and self.issuer_trusted

    @property
    def fail_reason(self) -> str:
        return next((name for name, ok in self.flags.items() if not ok), "")


def credential_payload(
    credential_type: str,
    issuer: str,
    subject: str,
    holder: str,
    claims: Mapping[str, str],
    issued_at: int,
) -> dict:
    return {
        "claims": dict(claims),
        "holder": holder,
        "issuedAt": issued_at,
        "issuer": issuer,
        "subject": subject,
        "type": credential_type,
    }


def _check_claims(claims: Mapping[str, str]) -> None:
    for key, value in claims.items():
        if not isinstance(key, str) or not key:
            raise ValueError("claim keys must be non-empty strings")
        if not isinstance(value, str):
            raise ValueError(f"claim {key!r} must map to a string")


def mint_credential(
    issuer_did: str, subject_did: str, holder_did: str, credential_type: str, claims: Mapping[str, str], issued_at: int
) -> Credential:
    """The credential ``issue_credential`` creates, with an empty signature, for
    a caller that signs it, through ``issue_credential``, only if it is read."""
    return _credential(None, issuer_did, subject_did, holder_did, credential_type, claims, issued_at)


def issue_credential(
    issuer_keys: KeyPair,
    issuer_did: str,
    subject_did: str,
    holder_did: str,
    credential_type: str,
    claims: Mapping[str, str],
    issued_at: int,
) -> Credential:
    """Create a content-addressed, issuer-signed credential.

    Issuing to oneself is rejected: possession proofs would be vacuous.
    """
    return _credential(issuer_keys, issuer_did, subject_did, holder_did, credential_type, claims, issued_at)


def _credential(issuer_keys: KeyPair | None, issuer_did, subject_did, holder_did, credential_type, claims, issued_at):
    if holder_did == issuer_did:
        raise SelfIssueError(f"issuer {issuer_did} cannot hold its own credential")
    _check_claims(claims)
    payload = credential_payload(credential_type, issuer_did, subject_did, holder_did, claims, issued_at)
    raw = canonical_bytes(payload)
    return Credential(
        id=hashlib.sha256(raw).hexdigest(),
        type=credential_type,
        issuer=issuer_did,
        subject=subject_did,
        holder=holder_did,
        claims=dict(claims),
        issued_at=issued_at,
        signature=b"" if issuer_keys is None else issuer_keys.signing_key.sign(raw),
    )


def proof_message(credential_id: str, nonce: bytes) -> bytes:
    return credential_id.encode("utf-8") + nonce


def create_presentation(
    holder_keys: KeyPair,
    presenter_did: str,
    credential: Credential,
    nonce: bytes,
) -> Presentation:
    if len(nonce) != NONCE_LENGTH:
        raise ValueError(f"nonce must be {NONCE_LENGTH} bytes, got {len(nonce)}")
    return Presentation(
        credential=credential,
        presenter=presenter_did,
        nonce=nonce,
        holder_proof=holder_keys.signing_key.sign(proof_message(credential.id, nonce)),
    )


def verify_presentation(
    presentation: Presentation,
    directory: Mapping[str, bytes],
    trust: TrustRegistry,
    verifier: str,
    expected_nonce: bytes,
    memo: SignatureMemo | None = None,
) -> VerificationOutcome:
    """Run all four checks on a presentation.

    ``directory`` maps each registered issuer DID to its public key; the
    issuer signature is checked through ``memo`` when one is given (see the
    module docstring).  The holder proof, verified only when the presenter
    is the holder and the nonce is ``expected_nonce``, is checked against the
    key embedded in the presenter's own DID, since possession, not
    registration, is what it demonstrates.
    """
    credential = presentation.credential
    raw = canonical_bytes(credential.payload())
    memo = {} if memo is None else memo
    issuer_key = directory.get(credential.issuer)
    checked = (issuer_key, raw, credential.signature)
    if issuer_key is not None and checked not in memo:
        memo[checked] = verify_signature(*checked)

    bound = presentation.presenter == credential.holder and presentation.nonce == expected_nonce
    try:
        proof = proof_message(credential.id, presentation.nonce)
        bound = bound and verify_signature(decode_did(presentation.presenter), proof, presentation.holder_proof)
    except ValueError:
        bound = False

    return VerificationOutcome(
        integrity=hashlib.sha256(raw).hexdigest() == credential.id,
        issuer_signature=issuer_key is not None and memo[checked],
        subject_binding=bound,
        issuer_trusted=trust.is_trusted(verifier, credential.type, credential.issuer),
    )
