"""Cryptographic substrate: hashing, signatures, Merkle trees, HE, SMC.

Built from scratch on the standard library and numpy, except what OpenSSL
runs: in ``cryptography`` one secp256k1 check, X25519, P-256 and AES-GCM,
and in the interpreter's own libcrypto the batch signature equation.

* :mod:`repro.crypto.hashing` — Keccak-style digests and address derivation;
* :mod:`repro.crypto.ecdsa` — secp256k1 ECDSA (accounts, seals, devices);
* :mod:`repro.crypto.libcrypto` — the batch equation's ``ctypes`` binding;
* :mod:`repro.crypto.hpke` — RFC 9180 HPKE: the provider → enclave channel;
* :mod:`repro.crypto.merkle` — Merkle commitments with inclusion proofs;
* :mod:`repro.crypto.paillier` — additively homomorphic encryption (the HE
  baseline of Section III-B);
* :mod:`repro.crypto.secret_sharing` — additive and Shamir sharing;
* :mod:`repro.crypto.smc` — additive-sharing multiparty computation (the SMC
  baseline of Section III-B);
* :mod:`repro.crypto.symmetric` — AES-256-GCM for storage at rest.
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
    additive_share,
    shamir_reconstruct,
    shamir_reconstruct_bytes,
    shamir_share,
    shamir_share_bytes,
)
from repro.crypto.smc import (
    CommunicationLog,
    SMCEngine,
    SharedValue,
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
    "additive_share",
    "shamir_reconstruct",
    "shamir_reconstruct_bytes",
    "shamir_share",
    "shamir_share_bytes",
    "CommunicationLog",
    "SMCEngine",
    "SharedValue",
    "Envelope",
    "decrypt",
    "encrypt",
    "generate_key",
]
