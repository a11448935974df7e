"""Swarm-style decentralized content-addressed storage.

Özyılmaz et al. (cited in Section V) use Ethereum Swarm as the marketplace
store; this module implements that flavor of storage: data is chunked, each
chunk is content-addressed, and chunks are placed on the ``replication``
nodes whose ids are XOR-closest to the chunk hash (Kademlia placement).
Retrieval survives node failures as long as one replica of every chunk
remains, and every chunk is integrity-checked against its address on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.hashing import keccak256
from repro.errors import ObjectNotFoundError, StorageError
from repro.storage.base import StorageBackend, StoredObject

DEFAULT_CHUNK_SIZE = 4096


@dataclass
class SwarmNode:
    """One storage node: an id in the hash keyspace plus its chunk store."""

    node_id: bytes
    chunks: dict[str, bytes] = field(default_factory=dict)
    online: bool = True

    def store_chunk(self, address: str, data: bytes) -> None:
        self.chunks[address] = data

    def fetch_chunk(self, address: str) -> bytes | None:
        if not self.online:
            return None
        return self.chunks.get(address)


def _xor_distance(a: bytes, b: bytes) -> int:
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


@dataclass(frozen=True)
class _Manifest:
    """Recipe to reassemble an object: ordered chunk addresses."""

    chunk_addresses: tuple[str, ...]
    total_size: int


class SwarmStore(StorageBackend):
    """A network of :class:`SwarmNode` instances with replicated chunks.

    The manifest map and ACLs model the thin coordination layer a real
    swarm keeps in its feeds/manifest structures.
    """

    def __init__(self, num_nodes: int, rng: np.random.Generator,
                 replication: int = 3,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        super().__init__()
        if num_nodes < 1:
            raise StorageError("swarm needs at least one node")
        if not 1 <= replication <= num_nodes:
            raise StorageError("replication must be within [1, num_nodes]")
        if chunk_size < 1:
            raise StorageError("chunk size must be positive")
        self.nodes = [
            SwarmNode(node_id=rng.bytes(32)) for _ in range(num_nodes)
        ]
        self.replication = replication
        self.chunk_size = chunk_size
        self._manifests: dict[str, _Manifest] = {}
        self._meta: dict[str, StoredObject] = {}

    # -- placement ------------------------------------------------------------

    def _nodes_for(self, chunk_address: str) -> list[SwarmNode]:
        """The ``replication`` nodes XOR-closest to the chunk address."""
        target = bytes.fromhex(chunk_address)
        ranked = sorted(
            self.nodes, key=lambda node: _xor_distance(node.node_id, target)
        )
        return ranked[: self.replication]

    # -- persistence hooks -----------------------------------------------------

    def _store(self, object_id: str, obj: StoredObject) -> None:
        if obj.data:
            addresses = []
            for offset in range(0, len(obj.data), self.chunk_size):
                chunk = obj.data[offset:offset + self.chunk_size]
                address = keccak256(chunk).hex()
                for node in self._nodes_for(address):
                    node.store_chunk(address, chunk)
                addresses.append(address)
            self._manifests[object_id] = _Manifest(
                chunk_addresses=tuple(addresses), total_size=len(obj.data)
            )
            obj = StoredObject(data=b"", owner=obj.owner, grants=obj.grants)
        self._meta[object_id] = obj

    def _load(self, object_id: str) -> StoredObject:
        if object_id not in self._meta:
            raise ObjectNotFoundError(f"no object {object_id[:12]}…")
        meta = self._meta[object_id]
        manifest = self._manifests[object_id]
        pieces = []
        for address in manifest.chunk_addresses:
            chunk = self._fetch_verified_chunk(address)
            if chunk is None:
                raise StorageError(
                    f"chunk {address[:12]}… unavailable (all replicas down)"
                )
            pieces.append(chunk)
        data = b"".join(pieces)
        return StoredObject(data=data, owner=meta.owner, grants=meta.grants)

    def _fetch_verified_chunk(self, address: str) -> bytes | None:
        for node in self._nodes_for(address):
            chunk = node.fetch_chunk(address)
            if chunk is not None and keccak256(chunk).hex() == address:
                return chunk
        return None

    def _exists(self, object_id: str) -> bool:
        return object_id in self._meta

    # -- operational controls -----------------------------------------------------

    def fail_nodes(self, count: int, rng: np.random.Generator) -> list[int]:
        """Take ``count`` random online nodes offline; returns their indexes."""
        online = [i for i, node in enumerate(self.nodes) if node.online]
        if count > len(online):
            raise StorageError("cannot fail more nodes than are online")
        chosen = rng.choice(len(online), size=count, replace=False)
        failed = [online[int(i)] for i in chosen]
        for index in failed:
            self.nodes[index].online = False
        return failed

    def chunk_availability(self, object_id: str) -> float:
        """Fraction of the object's chunks still retrievable right now."""
        manifest = self._manifests.get(object_id)
        if manifest is None:
            raise ObjectNotFoundError(f"no object {object_id[:12]}…")
        available = sum(
            1 for address in manifest.chunk_addresses
            if self._fetch_verified_chunk(address) is not None
        )
        return available / max(1, len(manifest.chunk_addresses))
