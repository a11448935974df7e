"""Semantic data discovery and filtering (paper Section IV-C).

The paper proposes annotating data with ontology-based semantic metadata so
workloads can state machine-verifiable requirements, and identifies the core
tension: richer metadata enables more precise matching but leaks more
information to the storage subsystem.  This module implements all three
pieces:

* :class:`Ontology` — a concept taxonomy (DAG) with subsumption reasoning;
* :class:`Requirement` — a small predicate language over annotations
  (concept subsumption, numeric ranges, equality, set membership, and/or);
* :func:`annotation_leakage_bits` — an information-theoretic measure of what
  an annotation reveals, so experiment E10 can chart the precision/leakage
  trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

import networkx as nx

from repro.errors import StorageError


class Ontology:
    """A rooted is-a taxonomy of concepts.

    Implemented over a ``networkx.DiGraph`` with edges parent -> child.
    Concepts are strings; ``subsumes(general, specific)`` answers the
    reasoning queries requirements need.
    """

    def __init__(self, root: str = "thing"):
        self._graph = nx.DiGraph()
        self._graph.add_node(root)
        self.root = root

    def add_concept(self, concept: str, parent: str) -> None:
        """Add ``concept`` as a child of an existing ``parent``."""
        if parent not in self._graph:
            raise StorageError(f"unknown parent concept {parent!r}")
        if concept in self._graph:
            raise StorageError(f"concept {concept!r} already defined")
        self._graph.add_node(concept)
        self._graph.add_edge(parent, concept)

    def has_concept(self, concept: str) -> bool:
        return concept in self._graph

    def subsumes(self, general: str, specific: str) -> bool:
        """True when ``specific`` is-a ``general`` (reflexive)."""
        if general not in self._graph or specific not in self._graph:
            return False
        if general == specific:
            return True
        return nx.has_path(self._graph, general, specific)

    def ancestors(self, concept: str) -> set[str]:
        """All concepts subsuming ``concept`` (excluding itself)."""
        if concept not in self._graph:
            raise StorageError(f"unknown concept {concept!r}")
        return nx.ancestors(self._graph, concept)

    def descendants(self, concept: str) -> set[str]:
        """All concepts subsumed by ``concept`` (excluding itself)."""
        if concept not in self._graph:
            raise StorageError(f"unknown concept {concept!r}")
        return nx.descendants(self._graph, concept)

    def leaves_under(self, concept: str) -> set[str]:
        """Leaf concepts subsumed by ``concept`` (including itself if leaf)."""
        subtree = self.descendants(concept) | {concept}
        return {
            node for node in subtree if self._graph.out_degree(node) == 0
        }

    def depth(self, concept: str) -> int:
        """Shortest is-a distance from the root."""
        return nx.shortest_path_length(self._graph, self.root, concept)

    @property
    def concepts(self) -> list[str]:
        return sorted(self._graph.nodes)

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

    @classmethod
    def from_dict(cls, data: dict) -> "SemanticAnnotation":
        return cls(concept=data["concept"],
                   properties=dict(data.get("properties", {})))


# ---------------------------------------------------------------------------
# Requirement language
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Requirement:
    """Base class: a predicate over (ontology, annotation)."""

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        raise NotImplementedError

    def complexity(self) -> int:
        """Number of atomic predicates (E10's requirement-complexity axis)."""
        return 1

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "Requirement":
        """Deserialize any requirement node from its tagged dict form."""
        kind = data.get("kind")
        if kind == "concept":
            return ConceptRequirement(concept=data["concept"])
        if kind == "range":
            return RangeRequirement(
                property_name=data["property"],
                minimum=data.get("minimum"),
                maximum=data.get("maximum"),
            )
        if kind == "equals":
            return EqualsRequirement(property_name=data["property"],
                                     value=data["value"])
        if kind == "one_of":
            return OneOfRequirement(property_name=data["property"],
                                    values=tuple(data["values"]))
        if kind in ("all", "any"):
            clauses = tuple(Requirement.from_dict(c) for c in data["clauses"])
            return (AllOf(clauses) if kind == "all" else AnyOf(clauses))
        raise StorageError(f"unknown requirement kind {kind!r}")


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

    def to_dict(self) -> dict:
        return {"kind": "range", "property": self.property_name,
                "minimum": self.minimum, "maximum": self.maximum}


@dataclass(frozen=True)
class EqualsRequirement(Requirement):
    """A property must equal ``value`` exactly."""

    property_name: str
    value: Any = None

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        return annotation.properties.get(self.property_name) == self.value

    def to_dict(self) -> dict:
        return {"kind": "equals", "property": self.property_name,
                "value": self.value}


@dataclass(frozen=True)
class OneOfRequirement(Requirement):
    """A property must take one of an allowed set of values."""

    property_name: str
    values: tuple = ()

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        return annotation.properties.get(self.property_name) in self.values

    def to_dict(self) -> dict:
        return {"kind": "one_of", "property": self.property_name,
                "values": list(self.values)}


@dataclass(frozen=True)
class AllOf(Requirement):
    """Conjunction of clauses."""

    clauses: tuple[Requirement, ...] = ()

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        return all(c.matches(ontology, annotation) for c in self.clauses)

    def complexity(self) -> int:
        return sum(c.complexity() for c in self.clauses)

    def to_dict(self) -> dict:
        return {"kind": "all", "clauses": [c.to_dict() for c in self.clauses]}


@dataclass(frozen=True)
class AnyOf(Requirement):
    """Disjunction of clauses."""

    clauses: tuple[Requirement, ...] = ()

    def matches(self, ontology: Ontology,
                annotation: SemanticAnnotation) -> bool:
        return any(c.matches(ontology, annotation) for c in self.clauses)

    def complexity(self) -> int:
        return sum(c.complexity() for c in self.clauses)

    def to_dict(self) -> dict:
        return {"kind": "any", "clauses": [c.to_dict() for c in self.clauses]}


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
    for _ in range(levels):
        parents = list(ontology._graph.predecessors(concept))
        if not parents:
            break
        concept = parents[0]
    remaining = {
        key: value for key, value in annotation.properties.items()
        if key not in set(drop_properties)
    }
    return SemanticAnnotation(concept=concept, properties=remaining)
