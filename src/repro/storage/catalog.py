"""The data catalog: metadata-only registry driving workload matching.

The storage subsystem's second duty (Section II-C) is to "match data against
available workloads" using only metadata, never the data itself.  The catalog
stores :class:`DataRecord` entries — ownership, location, content hash, size,
timestamp and a semantic annotation — and answers requirement queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ObjectNotFoundError, StorageError
from repro.storage.semantic import Ontology, Requirement, SemanticAnnotation


@dataclass(frozen=True)
class DataRecord:
    """Metadata for one registered dataset.

    ``content_hash`` is the hex content address of the (encrypted or plain)
    stored object; ``backend_name``/``object_id`` locate it; the annotation
    is what matching sees.
    """

    record_id: str
    owner: str
    backend_name: str
    object_id: str
    content_hash: str
    size_bytes: int
    created_at: float
    annotation: SemanticAnnotation

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "owner": self.owner,
            "backend_name": self.backend_name,
            "object_id": self.object_id,
            "content_hash": self.content_hash,
            "size_bytes": self.size_bytes,
            "created_at": self.created_at,
            "annotation": self.annotation.to_dict(),
        }


@dataclass
class DataCatalog:
    """In-memory metadata catalog bound to one ontology."""

    ontology: Ontology
    _records: dict[str, DataRecord] = field(default_factory=dict)
    _by_owner: dict[str, list[str]] = field(default_factory=dict)

    def register(self, record: DataRecord) -> None:
        """Add a record; concept must exist and record ids must be unique."""
        if record.record_id in self._records:
            raise StorageError(f"record {record.record_id!r} already exists")
        if not self.ontology.has_concept(record.annotation.concept):
            raise StorageError(
                f"annotation concept {record.annotation.concept!r} "
                "is not in the ontology"
            )
        if record.size_bytes < 0:
            raise StorageError("record size must be non-negative")
        self._records[record.record_id] = record
        self._by_owner.setdefault(record.owner, []).append(record.record_id)

    def deregister(self, record_id: str, owner: str) -> None:
        """Remove a record (owner-only) — the data-control requirement."""
        record = self.get(record_id)
        if record.owner != owner:
            raise StorageError("only the owner may deregister a record")
        del self._records[record_id]
        self._by_owner[owner].remove(record_id)

    def get(self, record_id: str) -> DataRecord:
        """Look up one record by id."""
        if record_id not in self._records:
            raise ObjectNotFoundError(f"no record {record_id!r}")
        return self._records[record_id]

    def __len__(self) -> int:
        return len(self._records)

    def records_of(self, owner: str) -> list[DataRecord]:
        """All records registered by ``owner``."""
        return [self._records[rid] for rid in self._by_owner.get(owner, [])]

    # -- matching -------------------------------------------------------------

    def match(self, requirement: Requirement) -> list[DataRecord]:
        """Records whose annotation satisfies ``requirement``."""
        return [
            record for record in self._records.values()
            if requirement.matches(self.ontology, record.annotation)
        ]

    def match_for_owner(self, requirement: Requirement,
                        owner: str) -> list[DataRecord]:
        """The owner's records matching ``requirement``.

        This is the notification path: when a new workload appears, each
        provider's storage subsystem runs this to decide whether to ask the
        provider to participate.
        """
        return [
            record for record in self.records_of(owner)
            if requirement.matches(self.ontology, record.annotation)
        ]
