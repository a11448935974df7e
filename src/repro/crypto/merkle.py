"""Merkle trees with inclusion proofs.

The governance layer commits to sets (transactions in a block, the data points
a provider submitted to an executor) by their Merkle root, and participants
later prove membership with logarithmic-size proofs.  The construction uses
domain-separated hashing (distinct prefixes for leaves and internal nodes) so
a leaf can never be confused with an inner node — the classic second-preimage
defence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import keccak256

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return keccak256(_LEAF_PREFIX + data)


def _hash_node(left: bytes, right: bytes) -> bytes:
    return keccak256(_NODE_PREFIX + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the leaf index plus sibling hashes bottom-up."""

    leaf_index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """A static Merkle tree over a list of byte-string leaves.

    Odd levels are handled by promoting the unpaired node unchanged (Bitcoin
    duplicates it instead; promotion avoids the CVE-2012-2459 ambiguity).
    An empty tree has the conventional root ``keccak256(b"")``.
    """

    EMPTY_ROOT = keccak256(b"")

    def __init__(self, leaves: list[bytes]):
        for leaf in leaves:
            if not isinstance(leaf, bytes):
                raise TypeError("Merkle leaves must be bytes")
        self._leaves = list(leaves)
        # Level hashes are built lazily on first use and then cached: a tree
        # over n leaves hashes exactly once (n leaf + ~n-1 node hashes), and
        # every subsequent root/proof access is pure lookups — repeated
        # ``proof(i)`` calls cost O(log n) with zero hash invocations.
        self._levels: list[list[bytes]] | None = None

    def _build_levels(self) -> list[list[bytes]]:
        if self._levels is None:
            if not self._leaves:
                self._levels = [[self.EMPTY_ROOT]]
                return self._levels
            level = [_hash_leaf(leaf) for leaf in self._leaves]
            levels = [level]
            while len(level) > 1:
                next_level = []
                for index in range(0, len(level) - 1, 2):
                    next_level.append(_hash_node(level[index], level[index + 1]))
                if len(level) % 2 == 1:
                    next_level.append(level[-1])
                level = next_level
                levels.append(level)
            self._levels = levels
        return self._levels

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        """The 32-byte Merkle root committing to all leaves in order."""
        return self._build_levels()[-1][0]

    def proof(self, leaf_index: int) -> MerkleProof:
        """Build the inclusion proof for the leaf at ``leaf_index``.

        After the first call (or any ``root`` access) this re-hashes
        nothing: siblings are read straight from the cached levels.
        """
        if not 0 <= leaf_index < len(self._leaves):
            raise IndexError(f"leaf index {leaf_index} out of range")
        siblings: list[bytes] = []
        index = leaf_index
        for level in self._build_levels()[:-1]:
            sibling_index = index ^ 1
            if sibling_index < len(level):
                siblings.append(level[sibling_index])
            # An unpaired node is promoted, contributing no sibling.
            index //= 2
        return MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings))

    @classmethod
    def verify_proof(cls, root: bytes, leaf: bytes, proof: MerkleProof,
                     tree_size: int) -> bool:
        """Check that ``leaf`` is the ``proof.leaf_index``-th leaf under ``root``.

        ``tree_size`` is required to disambiguate promoted (unpaired) nodes:
        the verifier replays the same pairing schedule the builder used.
        """
        if tree_size <= 0 or not 0 <= proof.leaf_index < tree_size:
            return False
        current = _hash_leaf(leaf)
        index = proof.leaf_index
        level_size = tree_size
        sibling_iter = iter(proof.siblings)
        consumed = 0
        while level_size > 1:
            sibling_index = index ^ 1
            if sibling_index < level_size:
                try:
                    sibling = next(sibling_iter)
                except StopIteration:
                    return False
                consumed += 1
                if index % 2 == 0:
                    current = _hash_node(current, sibling)
                else:
                    current = _hash_node(sibling, current)
            # Unpaired node: promoted unchanged, no sibling consumed.
            index //= 2
            level_size = (level_size + 1) // 2
        if consumed != len(proof.siblings):
            return False
        return current == root


def merkle_root(leaves: list[bytes]) -> bytes:
    """Convenience: the root of a one-shot tree over ``leaves``."""
    return MerkleTree(leaves).root
