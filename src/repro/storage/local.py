"""Provider-owned encrypted storage (Fig. 3, configuration (a)).

The fully user-centered configuration: the provider's own hardware stores the
data, encrypted at rest under a key only the owner holds.  Reads by granted
parties (executors) transparently decrypt — modeling the provider's gateway
serving plaintext over a secure channel after checking authorization — while
the stored representation is always ciphertext, so device theft leaks
nothing.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.symmetric import Envelope, decrypt, encrypt, generate_key
from repro.errors import ObjectNotFoundError
from repro.storage.base import StorageBackend, StoredObject, content_address


class LocalEncryptedStore(StorageBackend):
    """An encrypted-at-rest store on hardware the owner controls."""

    def __init__(self, owner: str, rng: np.random.Generator):
        super().__init__()
        self.owner = owner
        self._master_key = generate_key(rng)
        self._rng = rng
        self._envelopes: dict[str, Envelope] = {}
        self._meta: dict[str, StoredObject] = {}

    # The at-rest representation is an Envelope; StoredObject.data in the
    # metadata map holds b"" to avoid a second plaintext copy.

    def _store(self, object_id: str, obj: StoredObject) -> None:
        if obj.data:
            self._envelopes[object_id] = encrypt(
                self._master_key, obj.data, self._rng
            )
            obj = StoredObject(data=b"", owner=obj.owner, grants=obj.grants)
        self._meta[object_id] = obj

    def _load(self, object_id: str) -> StoredObject:
        if object_id not in self._meta:
            raise ObjectNotFoundError(f"no object {object_id[:12]}…")
        meta = self._meta[object_id]
        plaintext = decrypt(self._master_key, self._envelopes[object_id])
        return StoredObject(data=plaintext, owner=meta.owner, grants=meta.grants)

    def _exists(self, object_id: str) -> bool:
        return object_id in self._meta

    # -- owner-only extras -------------------------------------------------------

    def at_rest_bytes(self, object_id: str) -> bytes:
        """The raw ciphertext on disk (what a thief would see)."""
        if object_id not in self._envelopes:
            raise ObjectNotFoundError(f"no object {object_id[:12]}…")
        return self._envelopes[object_id].to_bytes()

    def verify_at_rest_confidentiality(self, object_id: str) -> bool:
        """True when the at-rest bytes differ from (and hide) the plaintext."""
        stored = self.at_rest_bytes(object_id)
        plaintext = self._load(object_id).data
        return plaintext not in stored and content_address(stored) != object_id
