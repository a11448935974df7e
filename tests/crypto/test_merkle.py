"""Tests for Merkle trees and inclusion proofs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root


class TestConstruction:
    def test_empty_tree_root(self):
        assert MerkleTree([]).root == MerkleTree.EMPTY_ROOT

    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert len(tree) == 1
        proof = tree.proof(0)
        assert MerkleTree.verify_proof(tree.root, b"only", proof, 1)

    def test_root_depends_on_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_root_depends_on_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            MerkleTree(["not-bytes"])

    def test_merkle_root_helper(self):
        leaves = [b"x", b"y", b"z"]
        assert merkle_root(leaves) == MerkleTree(leaves).root


class TestProofs:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17])
    def test_all_leaves_provable(self, size):
        leaves = [bytes([i]) * 4 for i in range(size)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            proof = tree.proof(index)
            assert MerkleTree.verify_proof(tree.root, leaf, proof, size)

    def test_wrong_leaf_fails(self):
        leaves = [b"a", b"b", b"c"]
        tree = MerkleTree(leaves)
        proof = tree.proof(1)
        assert not MerkleTree.verify_proof(tree.root, b"x", proof, 3)

    def test_wrong_index_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        proof = tree.proof(1)
        moved = MerkleProof(leaf_index=2, siblings=proof.siblings)
        assert not MerkleTree.verify_proof(tree.root, b"b", moved, 4)

    def test_wrong_root_fails(self):
        tree = MerkleTree([b"a", b"b"])
        proof = tree.proof(0)
        assert not MerkleTree.verify_proof(b"\x00" * 32, b"a", proof, 2)

    def test_truncated_proof_fails(self):
        leaves = [bytes([i]) for i in range(8)]
        tree = MerkleTree(leaves)
        proof = tree.proof(3)
        short = MerkleProof(leaf_index=3, siblings=proof.siblings[:-1])
        assert not MerkleTree.verify_proof(tree.root, leaves[3], short, 8)

    def test_padded_proof_fails(self):
        leaves = [bytes([i]) for i in range(8)]
        tree = MerkleTree(leaves)
        proof = tree.proof(3)
        padded = MerkleProof(leaf_index=3,
                             siblings=proof.siblings + (b"\x00" * 32,))
        assert not MerkleTree.verify_proof(tree.root, leaves[3], padded, 8)

    def test_out_of_range_index_raises(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_invalid_tree_size_fails(self):
        tree = MerkleTree([b"a", b"b"])
        proof = tree.proof(0)
        assert not MerkleTree.verify_proof(tree.root, b"a", proof, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1,
                    max_size=24),
           st.data())
    def test_inclusion_property(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(0, len(leaves) - 1))
        proof = tree.proof(index)
        assert MerkleTree.verify_proof(tree.root, leaves[index], proof,
                                       len(leaves))


class TestHashCallCounts:
    """The level cache hashes each tree exactly once, lazily."""

    @staticmethod
    def _counting_keccak(monkeypatch):
        import repro.crypto.merkle as merkle_module
        from repro.crypto.hashing import keccak256 as real_keccak256

        counter = {"calls": 0}

        def counting(data: bytes) -> bytes:
            counter["calls"] += 1
            return real_keccak256(data)

        monkeypatch.setattr(merkle_module, "keccak256", counting)
        return counter

    def test_construction_hashes_nothing(self, monkeypatch):
        counter = self._counting_keccak(monkeypatch)
        MerkleTree([b"a", b"b", b"c", b"d"])
        assert counter["calls"] == 0

    def test_even_tree_hashes_once_then_lookups(self, monkeypatch):
        counter = self._counting_keccak(monkeypatch)
        tree = MerkleTree([bytes([i]) for i in range(8)])
        tree.root
        # 8 leaf hashes + 4 + 2 + 1 internal = 15, exactly once.
        assert counter["calls"] == 15
        for index in range(8):
            tree.proof(index)
        tree.root
        assert counter["calls"] == 15, "proof()/root replays re-hashed"

    def test_odd_tree_promotion_hash_count(self, monkeypatch):
        counter = self._counting_keccak(monkeypatch)
        tree = MerkleTree([bytes([i]) for i in range(5)])
        tree.proof(4)
        # 5 leaves; levels 5 -> 3 (2 nodes + promote) -> 2 (1 node +
        # promote) -> 1 (1 node): 5 + 2 + 1 + 1 = 9 hashes total.
        assert counter["calls"] == 9
        for index in range(5):
            tree.proof(index)
        assert counter["calls"] == 9
