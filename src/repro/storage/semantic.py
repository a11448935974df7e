"""Semantic data discovery and filtering (paper Section IV-C).

The paper proposes annotating data with ontology-based semantic metadata so
workloads can state machine-verifiable requirements, and identifies the core
tension: richer metadata enables more precise matching but leaks more
information to the storage subsystem.  This module implements all three
pieces:

* :class:`Ontology` — a concept taxonomy (a tree) with subsumption reasoning;
* :class:`Requirement` — a small predicate language over annotations
  (concept subsumption, numeric ranges, conjunction);
* :func:`annotation_leakage_bits` — an information-theoretic measure of what
  an annotation reveals, so experiment E10 can chart the precision/leakage
  trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import StorageError


class Ontology:
    """A rooted is-a taxonomy of concepts.

    A tree: every concept but the root has exactly one parent, held in
    :attr:`parent`, and :attr:`children` lists each concept's children.
    Concepts are strings; ``subsumes(general, specific)`` answers the
    reasoning queries requirements need.
    """

    def __init__(self, root: str = "thing"):
        self.root = root
        self.parent: dict[str, str | None] = {root: None}
        self.children: dict[str, list[str]] = {root: []}

    def add_concept(self, concept: str, parent: str) -> None:
        """Add ``concept`` as a child of an existing ``parent``."""
        if parent not in self.parent:
            raise StorageError(f"unknown parent concept {parent!r}")
        if concept in self.parent:
            raise StorageError(f"concept {concept!r} already defined")
        self.parent[concept] = parent
        self.children[concept] = []
        self.children[parent].append(concept)

    def has_concept(self, concept: str) -> bool:
        return concept in self.parent

    def subsumes(self, general: str, specific: str) -> bool:
        """True when ``specific`` is-a ``general`` (reflexive)."""
        if general not in self.parent or specific not in self.parent:
            return False
        node: str | None = specific
        while node is not None:
            if node == general:
                return True
            node = self.parent[node]
        return False

    def descendants(self, concept: str) -> set[str]:
        """All concepts subsumed by ``concept`` (excluding itself)."""
        if concept not in self.parent:
            raise StorageError(f"unknown concept {concept!r}")
        found: set[str] = set()
        frontier = list(self.children[concept])
        while frontier:
            node = frontier.pop()
            found.add(node)
            frontier += self.children[node]
        return found

    def leaves_under(self, concept: str) -> set[str]:
        """Leaf concepts subsumed by ``concept`` (including itself if leaf)."""
        subtree = self.descendants(concept) | {concept}
        return {node for node in subtree if not self.children[node]}

    @classmethod
    def iot_default(cls) -> "Ontology":
        """The IoT taxonomy used by the examples and benchmarks.

        A small SSN/SOSA-flavored sensor ontology: modality families with
        concrete sensor types as leaves.
        """
        onto = cls(root="thing")
        taxonomy = {
            "thing": ["sensor_data", "device_metadata"],
            "sensor_data": ["environmental", "physiological", "motion",
                            "energy"],
            "environmental": ["temperature", "humidity", "air_quality",
                              "noise_level"],
            "physiological": ["heart_rate", "blood_pressure", "spo2",
                              "step_count"],
            "motion": ["accelerometer", "gyroscope", "gps_trace"],
            "energy": ["power_consumption", "solar_output",
                       "battery_level"],
            "device_metadata": ["firmware_version", "device_model"],
        }
        for parent, children in taxonomy.items():
            for child in children:
                onto.add_concept(child, parent)
        return onto


@dataclass(frozen=True)
class SemanticAnnotation:
    """Machine-readable metadata attached to a registered dataset.

    ``concept`` places the data in the ontology; ``properties`` carry
    scalar/categorical facts (sampling rate, region, units...).  This is all
    the storage subsystem sees — never the data itself.
    """

    concept: str
    properties: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"concept": self.concept, "properties": dict(self.properties)}


# ---------------------------------------------------------------------------
# Requirement language
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Requirement:
    """Base class: a predicate over (ontology, annotation)."""

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The hashed form of the requirement inside a workload spec; only
        :class:`ConceptRequirement`, the kind every spec here carries, has
        one."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConceptRequirement(Requirement):
    """The annotation's concept must be subsumed by ``concept``."""

    concept: str

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        return ontology.subsumes(self.concept, annotation.concept)

    def to_dict(self) -> dict:
        return {"kind": "concept", "concept": self.concept}


@dataclass(frozen=True)
class RangeRequirement(Requirement):
    """A numeric property must lie in [minimum, maximum] (either optional)."""

    property_name: str
    minimum: float | None = None
    maximum: float | None = None

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        value = annotation.properties.get(self.property_name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True


@dataclass(frozen=True)
class AllOf(Requirement):
    """Conjunction of clauses."""

    clauses: tuple[Requirement, ...] = ()

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        return all(c.matches(ontology, annotation) for c in self.clauses)


# ---------------------------------------------------------------------------
# Metadata leakage quantification
# ---------------------------------------------------------------------------


def concept_leakage_bits(ontology: Ontology, concept: str) -> float:
    """Bits revealed by disclosing ``concept`` about the true leaf type.

    With a uniform prior over the ontology's leaves, naming a concept that
    covers ``k`` of ``n`` leaves reveals ``log2(n / k)`` bits.  Annotating
    at the root reveals 0 bits; a leaf annotation reveals the maximum.
    """
    total_leaves = len(ontology.leaves_under(ontology.root))
    covered = len(ontology.leaves_under(concept))
    if covered == 0:
        raise StorageError(f"concept {concept!r} covers no leaves")
    return math.log2(total_leaves / covered)


#: Flat leakage charge per disclosed scalar property: a 16-bucket
#: quantization.
BITS_PER_PROPERTY = 4.0


def property_leakage_bits(properties: dict[str, Any]) -> float:
    """Crude leakage charge for disclosed properties.

    Each scalar property is charged :data:`BITS_PER_PROPERTY` — enough
    resolution for the monotone trade-off experiment E10 needs without
    modeling full distributions.
    """
    return BITS_PER_PROPERTY * len(properties)


def annotation_leakage_bits(ontology: Ontology,
                            annotation: SemanticAnnotation) -> float:
    """Total metadata leakage of one annotation (concept + properties)."""
    return (
        concept_leakage_bits(ontology, annotation.concept)
        + property_leakage_bits(annotation.properties)
    )


def generalize_annotation(ontology: Ontology,
                          annotation: SemanticAnnotation,
                          levels: int,
                          drop_properties: Iterable[str] = ()) -> SemanticAnnotation:
    """Privacy knob: climb ``levels`` up the taxonomy and drop properties.

    This is the provider-side mitigation for the leakage trade-off: a
    coarser annotation leaks less but may miss matching workloads.
    """
    concept = annotation.concept
    if not ontology.has_concept(concept):
        raise StorageError(f"unknown concept {concept!r}")
    for _ in range(levels):
        parent = ontology.parent[concept]
        if parent is None:
            break
        concept = parent
    remaining = {
        key: value for key, value in annotation.properties.items()
        if key not in set(drop_properties)
    }
    return SemanticAnnotation(concept=concept, properties=remaining)
