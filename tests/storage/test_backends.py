"""Tests for the storage backends: in-memory, local-encrypted, swarm, cloud."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    AccessDeniedError,
    IntegrityError,
    ObjectNotFoundError,
    StorageError,
)
from repro.storage.base import InMemoryBackend, content_address
from repro.storage.cloud import CloudStore
from repro.storage.local import LocalEncryptedStore
from repro.storage.swarm import SwarmStore

OWNER = "0x" + "aa" * 20
READER = "0x" + "bb" * 20
STRANGER = "0x" + "cc" * 20


def all_backends(rng):
    return [
        InMemoryBackend(),
        LocalEncryptedStore(OWNER, rng),
        SwarmStore(8, rng, replication=3, chunk_size=16),
        CloudStore(keepers=5, threshold=3, rng=rng),
    ]


class TestCommonBehavior:
    @pytest.mark.parametrize("index", range(4))
    def test_put_get_round_trip(self, rng, index):
        backend = all_backends(rng)[index]
        object_id = backend.put(b"some sensor rows", OWNER)
        assert backend.get(object_id, OWNER) == b"some sensor rows"

    @pytest.mark.parametrize("index", range(4))
    def test_content_addressing(self, rng, index):
        backend = all_backends(rng)[index]
        object_id = backend.put(b"data", OWNER)
        assert object_id == content_address(b"data")

    @pytest.mark.parametrize("index", range(4))
    def test_stranger_denied(self, rng, index):
        backend = all_backends(rng)[index]
        object_id = backend.put(b"data", OWNER)
        with pytest.raises(AccessDeniedError):
            backend.get(object_id, STRANGER)

    @pytest.mark.parametrize("index", range(4))
    def test_grant_and_revoke(self, rng, index):
        backend = all_backends(rng)[index]
        object_id = backend.put(b"data", OWNER)
        backend.grant(object_id, OWNER, READER)
        assert backend.get(object_id, READER) == b"data"
        backend.revoke(object_id, OWNER, READER)
        with pytest.raises(AccessDeniedError):
            backend.get(object_id, READER)

    @pytest.mark.parametrize("index", range(4))
    def test_only_owner_grants(self, rng, index):
        backend = all_backends(rng)[index]
        object_id = backend.put(b"data", OWNER)
        with pytest.raises(AccessDeniedError):
            backend.grant(object_id, STRANGER, READER)

    @pytest.mark.parametrize("index", range(4))
    def test_missing_object(self, rng, index):
        backend = all_backends(rng)[index]
        with pytest.raises(ObjectNotFoundError):
            backend.get("ab" * 32, OWNER)

    @pytest.mark.parametrize("index", range(4))
    def test_transfer_accounting(self, rng, index):
        backend = all_backends(rng)[index]
        object_id = backend.put(b"12345678", OWNER)
        backend.get(object_id, OWNER)
        backend.get(object_id, OWNER)
        assert backend.transfer_log.bytes_in == 8
        assert backend.transfer_log.bytes_out == 16
        assert backend.transfer_log.reads == 2

    def test_integrity_check(self, rng):
        backend = InMemoryBackend()
        object_id = backend.put(b"data", OWNER)
        backend._objects[object_id].data = b"tampered"
        with pytest.raises(IntegrityError):
            backend.get(object_id, OWNER)


class TestLocalEncryptedStore:
    def test_at_rest_is_ciphertext(self, rng):
        store = LocalEncryptedStore(OWNER, rng)
        object_id = store.put(b"plaintext-readings", OWNER)
        assert b"plaintext-readings" not in store.at_rest_bytes(object_id)
        assert store.verify_at_rest_confidentiality(object_id)


class TestSwarmStore:
    def test_chunking_and_reassembly(self, rng):
        store = SwarmStore(10, rng, replication=3, chunk_size=8)
        data = bytes(rng.integers(0, 256, 100, dtype=np.uint8))
        object_id = store.put(data, OWNER)
        assert store.get(object_id, OWNER) == data

    def test_chunks_distributed(self, rng):
        store = SwarmStore(10, rng, replication=2, chunk_size=8)
        store.put(bytes(100), OWNER)
        holding = [node for node in store.nodes if node.chunks]
        assert len(holding) >= 2

    def test_survives_replication_minus_one_failures(self, rng):
        store = SwarmStore(10, rng, replication=3, chunk_size=8)
        data = bytes(rng.integers(0, 256, 64, dtype=np.uint8))
        object_id = store.put(data, OWNER)
        store.fail_nodes(2, rng)
        assert store.get(object_id, OWNER) == data

    def test_total_outage_detected(self, rng):
        store = SwarmStore(6, rng, replication=3, chunk_size=8)
        object_id = store.put(bytes(32), OWNER)
        for node in store.nodes:
            node.online = False
        with pytest.raises(StorageError):
            store.get(object_id, OWNER)
        store.recover_all_nodes()
        assert store.get(object_id, OWNER) == bytes(32)

    def test_chunk_availability_metric(self, rng):
        store = SwarmStore(6, rng, replication=2, chunk_size=8)
        object_id = store.put(bytes(64), OWNER)
        assert store.chunk_availability(object_id) == 1.0
        for node in store.nodes:
            node.online = False
        assert store.chunk_availability(object_id) == 0.0

    def test_corrupted_chunk_skipped(self, rng):
        store = SwarmStore(6, rng, replication=3, chunk_size=8)
        data = bytes(rng.integers(0, 256, 24, dtype=np.uint8))
        object_id = store.put(data, OWNER)
        # Corrupt one replica of every chunk; the verified fetch skips it.
        corrupted_any = False
        for node in store.nodes:
            for address in list(node.chunks):
                node.chunks[address] = b"corrupted!"
                corrupted_any = True
                break
            if corrupted_any:
                break
        assert store.get(object_id, OWNER) == data

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(StorageError):
            SwarmStore(0, rng)
        with pytest.raises(StorageError):
            SwarmStore(3, rng, replication=5)


class TestCloudStore:
    def test_cloud_sees_only_ciphertext(self, rng):
        store = CloudStore(keepers=4, threshold=2, rng=rng)
        object_id = store.put(b"very-private-bytes", OWNER)
        assert b"very-private-bytes" not in store.cloud_visible_bytes(object_id)

    def test_reader_needs_keeper_quorum(self, rng):
        store = CloudStore(keepers=5, threshold=3, rng=rng)
        object_id = store.put(b"data", OWNER)
        store.grant(object_id, OWNER, READER)
        store.fail_keepers(2)  # 3 of 5 remain: exactly the threshold
        assert store.get(object_id, READER) == b"data"
        store.fail_keepers(3)
        with pytest.raises(AccessDeniedError):
            store.get(object_id, READER)
        store.recover_keepers()
        assert store.get(object_id, READER) == b"data"

    def test_unauthorized_reader_gets_no_shares(self, rng):
        store = CloudStore(keepers=4, threshold=2, rng=rng)
        object_id = store.put(b"data", OWNER)
        with pytest.raises(AccessDeniedError):
            store.get(object_id, STRANGER)

    def test_invalid_threshold_rejected(self, rng):
        with pytest.raises(StorageError):
            CloudStore(keepers=2, threshold=3, rng=rng)
