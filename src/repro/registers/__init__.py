"""Register protocol implementations.

The paper's contribution (:mod:`repro.registers.fast_crash`,
:mod:`repro.registers.fast_byzantine`) plus every protocol the paper
discusses as context: ABD, the decentralised max-min read, the fast
single-reader register, the fast regular register and the MWMR
baselines.
"""

from repro.registers.base import (
    AckSet,
    Cluster,
    ClusterConfig,
    ProtocolSpec,
    StorageServer,
)
from repro.registers.predicates import (
    seen_predicate,
    seen_predicate_bruteforce,
    witness_a,
)
from repro.registers.registry import PROTOCOLS, get_protocol
from repro.registers.timestamps import (
    INITIAL_MW_TAG,
    INITIAL_SIGNED_TAG,
    INITIAL_TAG,
    MWTimestamp,
    SignedValueTag,
    ValueTag,
    sign_tag,
    verify_tag,
)

__all__ = [
    "AckSet",
    "Cluster",
    "ClusterConfig",
    "INITIAL_MW_TAG",
    "INITIAL_SIGNED_TAG",
    "INITIAL_TAG",
    "MWTimestamp",
    "PROTOCOLS",
    "ProtocolSpec",
    "SignedValueTag",
    "StorageServer",
    "ValueTag",
    "get_protocol",
    "seen_predicate",
    "seen_predicate_bruteforce",
    "sign_tag",
    "verify_tag",
    "witness_a",
]
