"""Goal models of credential ecosystems, compiled down to executable agents."""

from importlib import import_module as _import_module

from .model import (
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
    ValidationIssue,
    ValidationReport,
    validate,
)
from .pistar import ParseError, ParseResult, export_dot, parse_model, serialize_model
# The layers above the model and the parser load on first use, the credential
# layer with ``cryptography``: ``import ssiforge`` loads none of them, and each
# ``ssiforge`` command binds from this table only the layers it runs.
_LAZY = {
    "overlay": (
        "CredentialFlow",
        "Evidence",
        "EvidenceKind",
        "FlowKind",
        "RoleAssignment",
        "SsiRole",
        "TrustOverride",
        "TrustPolicyError",
        "TrustRegistry",
        "VerbLexicon",
        "DEFAULT_LEXICON",
        "apply_trust_overrides",
        "build_trust_registry",
        "derive_flows",
        "infer_roles",
        "lint_ssi",
        "normalize_name",
    ),
    "credentials": (
        "CHECK_ORDER",
        "Credential",
        "KeyPair",
        "Presentation",
        "SelfIssueError",
        "VerificationOutcome",
        "canonical_bytes",
        "create_presentation",
        "decode_did",
        "did_from_public_key",
        "generate_keypair",
        "issue_credential",
        "mint_credential",
        "verify_presentation",
    ),
    "propagation": ("LabelState", "evaluate_goals", "root_goals"),
    "simulator": (
        "AgentSpec",
        "BootstrapCredential",
        "CompileError",
        "Message",
        "SimConfig",
        "Trace",
        "actor_key_seed",
        "compile_agents",
        "derive_bootstrap",
        "run",
        "write_trace",
    ),
}
_LAZY_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _LAZY.keys() | _LAZY_MODULE_OF.keys())


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY_MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
