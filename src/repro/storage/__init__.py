"""Storage subsystem (paper Sections II-C, IV-C, V).

Pluggable backends — provider-local encrypted storage, a Swarm-style
content-addressed network, and cloud storage with Shamir key keepers — plus
the metadata catalog and the semantic discovery layer.
"""

from repro.storage.base import (
    StorageBackend,
    StoredObject,
    TransferLog,
    content_address,
)
from repro.storage.catalog import DataCatalog, DataRecord
from repro.storage.cloud import CloudStore, KeyKeeper
from repro.storage.local import LocalEncryptedStore
from repro.storage.semantic import (
    AllOf,
    ConceptRequirement,
    Ontology,
    RangeRequirement,
    Requirement,
    SemanticAnnotation,
    annotation_leakage_bits,
    concept_leakage_bits,
    generalize_annotation,
    property_leakage_bits,
)
from repro.storage.swarm import SwarmNode, SwarmStore

__all__ = [
    "StorageBackend",
    "StoredObject",
    "TransferLog",
    "content_address",
    "DataCatalog",
    "DataRecord",
    "CloudStore",
    "KeyKeeper",
    "LocalEncryptedStore",
    "AllOf",
    "ConceptRequirement",
    "Ontology",
    "RangeRequirement",
    "Requirement",
    "SemanticAnnotation",
    "annotation_leakage_bits",
    "concept_leakage_bits",
    "generalize_annotation",
    "property_leakage_bits",
    "SwarmNode",
    "SwarmStore",
]
