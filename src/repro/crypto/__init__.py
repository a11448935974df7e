"""Cryptographic substrate: hashing, signatures, Merkle trees, HE, SMC.

This package implements — from scratch, on the standard library and numpy —
every cryptographic building block the PDS2 architecture needs:

* :mod:`repro.crypto.hashing` — Keccak-style digests and address derivation;
* :mod:`repro.crypto.ecdsa` — secp256k1 ECDSA (accounts, devices, quotes);
* :mod:`repro.crypto.merkle` — Merkle commitments with inclusion proofs;
* :mod:`repro.crypto.paillier` — additively homomorphic encryption (the HE
  baseline of Section III-B);
* :mod:`repro.crypto.secret_sharing` — additive and Shamir sharing;
* :mod:`repro.crypto.smc` — Beaver-triple multiparty computation (the SMC
  baseline of Section III-B);
* :mod:`repro.crypto.symmetric` — authenticated encryption for storage.
"""

from repro.crypto.hashing import (
    address_from_public_key,
    hash_object,
    hash_to_int,
    is_address,
    keccak256,
    sha256,
)
from repro.crypto.ecdsa import (
    PrivateKey,
    PublicKey,
    Signature,
    batch_verify,
    shared_secret,
)
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.crypto.paillier import (
    FixedPointCodec,
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    encrypted_dot,
    generate_keypair,
    generate_prime,
)
from repro.crypto.secret_sharing import (
    DEFAULT_PRIME,
    ShamirShare,
    additive_reconstruct,
    additive_share,
    shamir_reconstruct,
    shamir_reconstruct_bytes,
    shamir_share,
    shamir_share_bytes,
)
from repro.crypto.smc import (
    BeaverTriple,
    CommunicationLog,
    SMCEngine,
    SharedValue,
    TripleDealer,
)
from repro.crypto.symmetric import Envelope, decrypt, encrypt, generate_key

__all__ = [
    "address_from_public_key",
    "hash_object",
    "hash_to_int",
    "is_address",
    "keccak256",
    "sha256",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "batch_verify",
    "shared_secret",
    "MerkleProof",
    "MerkleTree",
    "merkle_root",
    "FixedPointCodec",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "encrypted_dot",
    "generate_keypair",
    "generate_prime",
    "DEFAULT_PRIME",
    "ShamirShare",
    "additive_reconstruct",
    "additive_share",
    "shamir_reconstruct",
    "shamir_reconstruct_bytes",
    "shamir_share",
    "shamir_share_bytes",
    "BeaverTriple",
    "CommunicationLog",
    "SMCEngine",
    "SharedValue",
    "TripleDealer",
    "Envelope",
    "decrypt",
    "encrypt",
    "generate_key",
]
