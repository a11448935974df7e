"""Cloud storage with key-keeper escrow (Section V, Zheng et al. 2018).

The paper's related work stores large datasets on untrusted clouds using
symmetric encryption whose key is Shamir-split across "Key Keeper" nodes.
This backend reproduces that construction:

* the cloud operator stores only ciphertext (it can never decrypt);
* the data key is split ``threshold``-of-``keepers``; each keeper releases
  its share only to readers the owner authorized;
* a reader must gather ``threshold`` shares to reconstruct the key, so up to
  ``threshold - 1`` colluding keepers (plus the cloud) learn nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.secret_sharing import (
    ShamirShare,
    shamir_reconstruct_bytes,
    shamir_share_bytes,
)
from repro.crypto.symmetric import Envelope, decrypt, encrypt, generate_key
from repro.errors import AccessDeniedError, ObjectNotFoundError, StorageError
from repro.storage.base import StorageBackend, StoredObject


@dataclass
class KeyKeeper:
    """Holds per-object key shares and enforces the owner's reader list."""

    keeper_id: str
    _shares: dict[str, list[ShamirShare]] = field(default_factory=dict)
    _authorized: dict[str, set[str]] = field(default_factory=dict)
    _owners: dict[str, str] = field(default_factory=dict)
    online: bool = True

    def deposit(self, object_id: str, owner: str,
                shares: list[ShamirShare]) -> None:
        """Store the owner's key share for one object."""
        self._shares[object_id] = shares
        self._owners[object_id] = owner
        self._authorized.setdefault(object_id, set())

    def authorize(self, object_id: str, owner: str, reader: str) -> None:
        """Owner-only: allow ``reader`` to collect this keeper's share."""
        if self._owners.get(object_id) != owner:
            raise AccessDeniedError("only the owner may authorize readers")
        self._authorized[object_id].add(reader)

    def release_share(self, object_id: str,
                      requester: str) -> list[ShamirShare]:
        """Hand the share to an authorized requester (or the owner)."""
        if not self.online:
            raise StorageError(f"key keeper {self.keeper_id} is offline")
        if object_id not in self._shares:
            raise ObjectNotFoundError(
                f"keeper {self.keeper_id} holds no share for this object"
            )
        is_owner = self._owners.get(object_id) == requester
        if not is_owner and requester not in self._authorized[object_id]:
            raise AccessDeniedError(
                f"keeper {self.keeper_id} has no authorization for {requester}"
            )
        return self._shares[object_id]


class CloudStore(StorageBackend):
    """Ciphertext-only cloud plus a ring of key keepers."""

    def __init__(self, keepers: int, threshold: int,
                 rng: np.random.Generator):
        super().__init__()
        if not 1 <= threshold <= keepers:
            raise StorageError("need 1 <= threshold <= keepers")
        self.keepers = [KeyKeeper(keeper_id=f"keeper-{i}") for i in range(keepers)]
        self.threshold = threshold
        self._rng = rng
        self._envelopes: dict[str, Envelope] = {}
        self._meta: dict[str, StoredObject] = {}

    # -- persistence hooks -----------------------------------------------------

    def _store(self, object_id: str, obj: StoredObject) -> None:
        if obj.data:
            data_key = generate_key(self._rng)
            self._envelopes[object_id] = encrypt(data_key, obj.data, self._rng)
            per_keeper = shamir_share_bytes(
                data_key, self.threshold, len(self.keepers), self._rng
            )
            for keeper, shares in zip(self.keepers, per_keeper):
                keeper.deposit(object_id, obj.owner, shares)
            obj = StoredObject(data=b"", owner=obj.owner, grants=obj.grants)
        self._meta[object_id] = obj

    def _load(self, object_id: str) -> StoredObject:
        if object_id not in self._meta:
            raise ObjectNotFoundError(f"no object {object_id[:12]}…")
        meta = self._meta[object_id]
        # Reconstruction path: the owner can always reassemble the key.
        data_key = self._collect_key(object_id, meta.owner)
        plaintext = decrypt(data_key, self._envelopes[object_id])
        return StoredObject(data=plaintext, owner=meta.owner, grants=meta.grants)

    def _exists(self, object_id: str) -> bool:
        return object_id in self._meta

    # -- the escrow protocol ------------------------------------------------------

    def grant(self, object_id: str, owner: str, grantee: str) -> None:
        """Grant access *and* authorize the grantee at every keeper."""
        super().grant(object_id, owner, grantee)
        for keeper in self.keepers:
            keeper.authorize(object_id, owner, grantee)

    def _collect_key(self, object_id: str, requester: str) -> bytes:
        """Gather >= threshold shares from online keepers; rebuild the key."""
        collected: list[list[ShamirShare]] = []
        errors: list[str] = []
        for keeper in self.keepers:
            if len(collected) >= self.threshold:
                break
            try:
                collected.append(keeper.release_share(object_id, requester))
            except (StorageError, AccessDeniedError, ObjectNotFoundError) as exc:
                errors.append(str(exc))
        if len(collected) < self.threshold:
            raise AccessDeniedError(
                "could not gather enough key shares: " + "; ".join(errors[:3])
            )
        return shamir_reconstruct_bytes(collected)

    def cloud_visible_bytes(self, object_id: str) -> bytes:
        """What the cloud operator actually stores (ciphertext only)."""
        if object_id not in self._envelopes:
            raise ObjectNotFoundError(f"no object {object_id[:12]}…")
        return self._envelopes[object_id].to_bytes()

    def fail_keepers(self, count: int) -> None:
        """Take the first ``count`` keepers offline (availability testing)."""
        if count > len(self.keepers):
            raise StorageError("cannot fail more keepers than exist")
        for keeper in self.keepers[:count]:
            keeper.online = False
