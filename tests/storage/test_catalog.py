"""Tests for the metadata catalog and workload matching."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage.catalog import DataCatalog, DataRecord
from repro.storage.semantic import (
    ConceptRequirement,
    Ontology,
    RangeRequirement,
    SemanticAnnotation,
)

OWNER_A = "0x" + "aa" * 20
OWNER_B = "0x" + "bb" * 20


def make_record(record_id: str, owner: str, concept: str,
                **properties) -> DataRecord:
    return DataRecord(
        record_id=record_id, owner=owner, backend_name="test",
        object_id="ab" * 32, content_hash="ab" * 32, size_bytes=100,
        created_at=0.0,
        annotation=SemanticAnnotation(concept, dict(properties)),
    )


def matched(catalog: DataCatalog, requirement) -> set[str]:
    """Ids of every owner's records matching ``requirement``."""
    return {record.record_id for owner in (OWNER_A, OWNER_B)
            for record in catalog.match_for_owner(requirement, owner)}


@pytest.fixture
def catalog() -> DataCatalog:
    catalog = DataCatalog(Ontology.iot_default())
    catalog.register(make_record("r1", OWNER_A, "temperature", rate_hz=1.0))
    catalog.register(make_record("r2", OWNER_A, "heart_rate", rate_hz=0.2))
    catalog.register(make_record("r3", OWNER_B, "humidity", rate_hz=2.0))
    return catalog


class TestRegistration:
    def test_register_and_get(self, catalog):
        (record,) = catalog.records_of(OWNER_B)
        assert (record.record_id, record.owner) == ("r3", OWNER_B)
        assert len(catalog.records_of(OWNER_A)) == 2

    def test_duplicate_id_rejected(self, catalog):
        with pytest.raises(StorageError):
            catalog.register(make_record("r1", OWNER_B, "humidity"))

    def test_unknown_concept_rejected(self, catalog):
        with pytest.raises(StorageError):
            catalog.register(make_record("r9", OWNER_A, "quantum_flux"))

    def test_records_of_owner(self, catalog):
        assert {r.record_id for r in catalog.records_of(OWNER_A)} == \
            {"r1", "r2"}
        assert catalog.records_of("0x" + "99" * 20) == []


class TestMatching:
    def test_concept_match(self, catalog):
        assert matched(catalog, ConceptRequirement("environmental")) == \
            {"r1", "r3"}

    def test_property_match(self, catalog):
        assert matched(catalog, RangeRequirement("rate_hz", 0.5, 1.5)) == \
            {"r1"}

    def test_match_for_owner(self, catalog):
        records = catalog.match_for_owner(
            ConceptRequirement("sensor_data"), OWNER_A
        )
        assert {r.record_id for r in records} == {"r1", "r2"}

    def test_no_match(self, catalog):
        assert matched(catalog, ConceptRequirement("energy")) == set()
