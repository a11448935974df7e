"""Participation certificates (paper Section II-D).

When a provider sends data to an executor it attaches a certificate
"confirming that they have indeed accepted to participate in the workload".
The executor forwards the certificate hash to the governance layer, which
uses it to (a) prove the executor was granted access and (b) track provider
contributions for rewarding.

A certificate binds: workload id, provider address, executor address, the
Merkle root of the submitted data items, the item count, and a timestamp —
all signed by the provider's account key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ecdsa import PrivateKey, PublicKey, Signature
from repro.crypto.hashing import hash_object
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import CertificateError
from repro.utils.serialization import canonical_json_bytes


@dataclass(frozen=True)
class ParticipationCertificate:
    """A provider's signed consent to use specific data in one workload."""

    workload_id: str
    provider: str
    executor: str
    data_root: bytes
    item_count: int
    issued_at: float
    provider_public_key: PublicKey
    signature: Signature

    def signed_payload(self) -> dict:
        return {
            "workload_id": self.workload_id,
            "provider": self.provider,
            "executor": self.executor,
            "data_root": self.data_root,
            "item_count": self.item_count,
            "issued_at": self.issued_at,
        }

    @property
    def certificate_hash(self) -> bytes:
        """The identifier recorded on-chain."""
        return hash_object(self.signed_payload())

    def verify(self) -> None:
        """Check signature validity and key/address consistency."""
        if self.item_count < 1:
            raise CertificateError("certificate covers no data items")
        if self.provider_public_key.address != self.provider:
            raise CertificateError(
                "certificate key does not control the provider address"
            )
        message = canonical_json_bytes(self.signed_payload())
        if not self.provider_public_key.verify(message, self.signature):
            raise CertificateError("certificate signature invalid")

    def verify_item(self, item: bytes, proof: MerkleProof) -> None:
        """Check one data item is covered by this certificate's consent."""
        MerkleTree.require_proof(self.data_root, item, proof,
                                 self.item_count)


def issue_certificate(provider_key: PrivateKey, workload_id: str,
                      executor: str, tree: MerkleTree,
                      issued_at: float) -> ParticipationCertificate:
    """Provider-side: sign consent over an exact set of data items.

    ``tree`` is the Merkle tree over the items, which a provider keeps
    across sessions.  Its root pins the certificate to *these* bytes: an
    executor substituting or adding items can no longer match the root.
    """
    if not len(tree):
        raise CertificateError("cannot certify an empty data set")
    payload = {
        "workload_id": workload_id,
        "provider": provider_key.address,
        "executor": executor,
        "data_root": tree.root,
        "item_count": len(tree),
        "issued_at": issued_at,
    }
    signature = provider_key.sign(canonical_json_bytes(payload))
    return ParticipationCertificate(
        workload_id=workload_id,
        provider=provider_key.address,
        executor=executor,
        data_root=tree.root,
        item_count=len(tree),
        issued_at=issued_at,
        provider_public_key=provider_key.public_key,
        signature=signature,
    )
