"""Tests for the ontology, requirement language, and leakage metrics."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.errors import StorageError
from repro.storage.semantic import (
    AllOf,
    ConceptRequirement,
    Ontology,
    RangeRequirement,
    SemanticAnnotation,
    annotation_leakage_bits,
    concept_leakage_bits,
    generalize_annotation,
)


@pytest.fixture
def onto() -> Ontology:
    return Ontology.iot_default()


class TestOntology:
    def test_subsumption_reflexive(self, onto):
        assert onto.subsumes("temperature", "temperature")

    def test_subsumption_transitive(self, onto):
        assert onto.subsumes("sensor_data", "temperature")
        assert onto.subsumes("thing", "temperature")

    def test_non_subsumption(self, onto):
        assert not onto.subsumes("physiological", "temperature")
        assert not onto.subsumes("temperature", "environmental")

    def test_unknown_concepts(self, onto):
        assert not onto.subsumes("unknown", "temperature")
        assert not onto.subsumes("thing", "unknown")

    def test_add_concept_validation(self, onto):
        with pytest.raises(StorageError):
            onto.add_concept("x", "no-such-parent")
        with pytest.raises(StorageError):
            onto.add_concept("temperature", "thing")

    def test_leaves_under(self, onto):
        leaves = onto.leaves_under("environmental")
        assert leaves == {"temperature", "humidity", "air_quality",
                          "noise_level"}

    def test_ancestors_descendants(self, onto):
        assert "temperature" in onto.descendants("environmental")
        assert "environmental" not in onto.descendants("temperature")

    def test_tree_maps_agree_with_a_networkx_digraph(self, onto):
        """The parent and children maps answer every query the
        ``networkx.DiGraph`` they replaced answered, on every pair."""
        graph = nx.DiGraph()
        graph.add_node(onto.root)
        graph.add_edges_from((parent, child)
                             for child, parent in onto.parent.items()
                             if parent is not None)
        for general in graph:
            assert onto.descendants(general) == nx.descendants(graph, general)
            assert onto.leaves_under(general) == {
                node for node in nx.descendants(graph, general) | {general}
                if graph.out_degree(node) == 0}
            for specific in graph:
                assert onto.subsumes(general, specific) == (
                    general == specific
                    or nx.has_path(graph, general, specific))

    def test_generalizing_an_unknown_concept_is_a_storage_error(self, onto):
        with pytest.raises(StorageError):
            generalize_annotation(onto, SemanticAnnotation("unknown"), 1)


class TestRequirements:
    def test_concept_requirement(self, onto):
        req = ConceptRequirement("environmental")
        assert req.matches(onto, SemanticAnnotation("temperature"))
        assert not req.matches(onto, SemanticAnnotation("heart_rate"))

    def test_range_requirement(self, onto):
        req = RangeRequirement("rate_hz", 0.5, 2.0)
        assert req.matches(onto, SemanticAnnotation("temperature",
                                                    {"rate_hz": 1.0}))
        assert not req.matches(onto, SemanticAnnotation("temperature",
                                                        {"rate_hz": 5.0}))
        assert not req.matches(onto, SemanticAnnotation("temperature", {}))

    def test_range_rejects_non_numeric(self, onto):
        req = RangeRequirement("rate_hz", 0.5, 2.0)
        assert not req.matches(onto, SemanticAnnotation("temperature",
                                                        {"rate_hz": "fast"}))
        assert not req.matches(onto, SemanticAnnotation("temperature",
                                                        {"rate_hz": True}))

    def test_open_ended_ranges(self, onto):
        low = RangeRequirement("v", minimum=10)
        high = RangeRequirement("v", maximum=10)
        ann = SemanticAnnotation("temperature", {"v": 10})
        assert low.matches(onto, ann) and high.matches(onto, ann)

    def test_conjunction(self, onto):
        req = AllOf((ConceptRequirement("environmental"),
                     RangeRequirement("rate_hz", 0.5, 2.0)))
        assert req.matches(onto, SemanticAnnotation("humidity",
                                                    {"rate_hz": 1.0}))
        assert not req.matches(onto, SemanticAnnotation("humidity",
                                                        {"rate_hz": 5.0}))
        assert not req.matches(onto, SemanticAnnotation("heart_rate",
                                                        {"rate_hz": 1.0}))


class TestLeakage:
    def test_root_leaks_nothing(self, onto):
        assert concept_leakage_bits(onto, "thing") == pytest.approx(0.0)

    def test_leaf_leaks_maximum(self, onto):
        total_leaves = len(onto.leaves_under("thing"))
        expected = math.log2(total_leaves)
        assert concept_leakage_bits(onto, "temperature") == \
            pytest.approx(expected)

    def test_leakage_monotone_with_depth(self, onto):
        chain = ["thing", "sensor_data", "environmental", "temperature"]
        bits = [concept_leakage_bits(onto, c) for c in chain]
        assert bits == sorted(bits)
        assert bits[0] < bits[-1]

    def test_properties_add_leakage(self, onto):
        bare = SemanticAnnotation("temperature")
        rich = SemanticAnnotation("temperature",
                                  {"rate_hz": 1.0, "region": "EU"})
        assert annotation_leakage_bits(onto, rich) == \
            annotation_leakage_bits(onto, bare) + 8.0

    def test_generalization_reduces_leakage(self, onto):
        ann = SemanticAnnotation("temperature", {"region": "EU"})
        general = generalize_annotation(onto, ann, levels=2,
                                        drop_properties=["region"])
        assert general.concept == "sensor_data"
        assert annotation_leakage_bits(onto, general) < \
            annotation_leakage_bits(onto, ann)

    def test_generalization_stops_at_root(self, onto):
        ann = SemanticAnnotation("temperature")
        general = generalize_annotation(onto, ann, levels=10)
        assert general.concept == "thing"
