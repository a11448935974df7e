"""Storage-backend interface (paper Section II-C, "storage subsystem").

PDS2 is storage-agnostic by design (Section II-F): providers may keep data on
their own hardware, in a decentralized swarm, or on third-party clouds, as
long as the backend exposes this interface:

* content-addressed ``put`` / ``get`` with integrity verification,
* owner-controlled access grants (the *data control* requirement),
* transfer accounting, so experiment E2 can compare the data-movement cost
  of the Fig. 3 hardware configurations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.crypto.hashing import keccak256
from repro.errors import AccessDeniedError
from repro.telemetry import metrics as _tm

_STORAGE_OPS = _tm.counter(
    "pds2_storage_ops_total", "Storage operations, by op and backend class",
    labelnames=("op", "backend"),
)
_STORAGE_BYTES = _tm.counter(
    "pds2_storage_bytes_total", "Bytes moved, by direction and backend class",
    labelnames=("direction", "backend"),
)
_OBJECT_BYTES = _tm.histogram(
    "pds2_storage_object_bytes", "Size distribution of stored/fetched blobs",
    buckets=_tm.BYTES_BUCKETS,
)


def content_address(data: bytes) -> str:
    """The content address of ``data``: hex Keccak-256 of the bytes."""
    return keccak256(data).hex()


@dataclass
class TransferLog:
    """Byte-level accounting of what a backend moved, and for whom."""

    bytes_in: int = 0
    bytes_out: int = 0
    reads: int = 0
    writes: int = 0

    def record_write(self, size: int) -> None:
        self.bytes_in += size
        self.writes += 1

    def record_read(self, size: int) -> None:
        self.bytes_out += size
        self.reads += 1


@dataclass
class StoredObject:
    """One stored blob plus its access-control list."""

    data: bytes
    owner: str
    grants: set[str] = field(default_factory=set)

    def readable_by(self, requester: str) -> bool:
        return requester == self.owner or requester in self.grants


class StorageBackend(abc.ABC):
    """Common behavior for all storage subsystems.

    Concrete backends override the private persistence hooks; the public
    methods implement the shared access-control and accounting logic so
    every backend enforces the same ownership rules.
    """

    def __init__(self) -> None:
        self.transfer_log = TransferLog()

    # -- persistence hooks ------------------------------------------------------

    @abc.abstractmethod
    def _store(self, object_id: str, obj: StoredObject) -> None:
        """Persist ``obj`` under ``object_id``."""

    @abc.abstractmethod
    def _load(self, object_id: str) -> StoredObject:
        """Load the object or raise :class:`ObjectNotFoundError`."""

    @abc.abstractmethod
    def _exists(self, object_id: str) -> bool:
        """True when an object is stored under ``object_id``."""

    # -- public API ----------------------------------------------------------------

    def put(self, data: bytes, owner: str) -> str:
        """Store ``data`` for ``owner``; returns its content address.

        Re-putting identical bytes is idempotent and keeps the original
        owner (content addressing deduplicates).
        """
        object_id = content_address(data)
        if not self._exists(object_id):
            self._store(object_id, StoredObject(data=data, owner=owner))
        self.transfer_log.record_write(len(data))
        backend = type(self).__name__
        _STORAGE_OPS.labels(op="put", backend=backend).inc()
        _STORAGE_BYTES.labels(direction="in", backend=backend).inc(len(data))
        _OBJECT_BYTES.observe(len(data))
        return object_id

    def get(self, object_id: str, requester: str) -> bytes:
        """Fetch a blob, enforcing the owner's access grants."""
        obj = self._load(object_id)
        if not obj.readable_by(requester):
            raise AccessDeniedError(
                f"{requester} may not read object {object_id[:12]}…"
            )
        self._verify_integrity(object_id, obj.data)
        self.transfer_log.record_read(len(obj.data))
        backend = type(self).__name__
        _STORAGE_OPS.labels(op="get", backend=backend).inc()
        _STORAGE_BYTES.labels(
            direction="out", backend=backend
        ).inc(len(obj.data))
        return obj.data

    def grant(self, object_id: str, owner: str, grantee: str) -> None:
        """Owner-only: authorize ``grantee`` to read the object."""
        obj = self._load(object_id)
        if obj.owner != owner:
            raise AccessDeniedError("only the owner may grant access")
        obj.grants.add(grantee)
        self._store(object_id, obj)

    # -- integrity -------------------------------------------------------------------

    @staticmethod
    def _verify_integrity(object_id: str, data: bytes) -> None:
        from repro.errors import IntegrityError

        if content_address(data) != object_id:
            raise IntegrityError(
                f"object {object_id[:12]}… failed its content-address check"
            )
