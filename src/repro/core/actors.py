"""Marketplace actors: providers, consumers, executors (paper Section II-A).

Each actor couples a blockchain wallet with its off-chain resources:

* a :class:`ProviderActor` owns a dataset, a storage backend, a semantic
  annotation, and (optionally) the IoT devices that signed the data;
* a :class:`ConsumerActor` authors workload specs and decrypts results;
* an :class:`ExecutorActor` owns a TEE platform and runs attested enclaves.

Actors hold *policy* too: providers decide whether to join a workload via a
pluggable participation policy, the user-centered control knob of
Section II-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

from repro.chain.blockchain import Wallet
from repro.crypto import hpke
from repro.crypto.hashing import sha256
from repro.crypto.merkle import MerkleTree
from repro.errors import MarketplaceError
from repro.governance.certificates import (
    ParticipationCertificate,
    issue_certificate,
)
from repro.ml.datasets import Dataset
from repro.storage.base import StorageBackend
from repro.storage.semantic import Ontology, SemanticAnnotation
from repro.tee.attestation import AttestationService, Quote
from repro.tee.enclave import Enclave, EnclaveCode, TEEPlatform
from repro.core.workload import (
    WorkloadSpec,
    enclave_entry_point,
    join_rows,
    serialize_partition,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.lifecycle import WorkloadKind

#: A provider policy: (workload kind, own matching record count) ->
#: participate?  The match phase asks it for every kind of workload.
ParticipationPolicy = Callable[["WorkloadKind", int], bool]


def accept_all_policy(kind: "WorkloadKind", matching_records: int) -> bool:
    """The default policy: join every workload with eligible data."""
    return matching_records > 0


def _channel_info(workload_id: str, provider_address: str) -> bytes:
    """HPKE ``info``: a blob sealed for another workload or provider fails."""
    return f"pds2/partition/{workload_id}/{provider_address}".encode()


@dataclass
class ProviderActor:
    """A data provider: wallet + dataset + storage + annotation + policy."""

    name: str
    wallet: Wallet
    dataset: Dataset
    annotation: SemanticAnnotation
    store: StorageBackend
    policy: ParticipationPolicy = accept_all_policy
    record_id: str = ""
    stored_object_id: str = ""
    rewards_received: int = 0
    #: ``(dataset, its serialized rows, their Merkle tree)``: a ``Dataset`` is
    #: frozen, so both stay valid until ``dataset`` is rebound to another one.
    _encoded: Optional[tuple[Dataset, list[bytes], MerkleTree]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def address(self) -> str:
        return self.wallet.address

    @cached_property
    def channel_key(self) -> X25519PrivateKey:
        """Static X25519 key it seals to enclaves with, from its wallet secret."""
        secret = self.wallet.key.secret.to_bytes(32, "big")
        return X25519PrivateKey.from_private_bytes(sha256(b"pds2/channel-key/x25519" + secret))

    def _encode(self) -> tuple[Dataset, list[bytes], MerkleTree]:
        if self._encoded is None or self._encoded[0] is not self.dataset:
            dataset = self.dataset
            rows = serialize_partition(dataset.features, dataset.targets)
            self._encoded = (dataset, rows, MerkleTree(rows))
        return self._encoded

    def partition_rows(self) -> list[bytes]:
        """The packed float64 rows (Merkle leaves), encoded once.

        Storage, every session's certificate and envelope, and every fault
        re-match commit to these same bytes.
        """
        return self._encode()[1]

    def partition_tree(self) -> MerkleTree:
        """The Merkle tree over :meth:`partition_rows`, hashed once: every
        certificate this provider issues commits to its root."""
        return self._encode()[2]

    def partition_payload(self) -> bytes:
        """The partition document: row width, then the rows
        (:func:`~repro.core.workload.join_rows`)."""
        return join_rows(self.partition_rows())

    def store_dataset(self) -> str:
        """Persist the serialized partition into the provider's backend."""
        self.stored_object_id = self.store.put(
            self.partition_payload(), self.address
        )
        return self.stored_object_id

    def wants_to_participate(self, kind: "WorkloadKind",
                             ontology: Ontology) -> bool:
        """Apply the participation policy to one advertised workload."""
        matches = int(kind.requirement.matches(ontology, self.annotation))
        return self.policy(kind, matches)

    def prepare_submission_for(self, workload_id: str, executor_address: str,
                               enclave_key: X25519PublicKey, issued_at: float,
                               rng: np.random.Generator
                               ) -> tuple[bytes, ParticipationCertificate]:
        """Build the sealed data blob and the participation certificate.

        The certificate Merkle-commits to the exact serialized rows; the
        blob carries the same rows sealed (HPKE) to the *attested* enclave
        key, so only the measured code can read them.  Kind-agnostic: both
        ML-training and aggregate workloads submit data this way.
        """
        certificate = issue_certificate(
            self.wallet.key, workload_id, executor_address,
            self.partition_tree(), issued_at=issued_at,
        )
        blob = hpke.seal(enclave_key, self.channel_key, self.partition_payload(),
                         _channel_info(workload_id, self.address), rng)
        return blob, certificate


@dataclass
class ConsumerActor:
    """A data consumer: authors specs, pays escrow, collects results."""

    name: str
    wallet: Wallet
    validation: Optional[Dataset] = None

    @property
    def address(self) -> str:
        return self.wallet.address

    def evaluate_result(self, spec: WorkloadSpec,
                        params: np.ndarray) -> float:
        """Score the purchased model on the consumer's validation data."""
        if self.validation is None:
            raise MarketplaceError(f"consumer {self.name} has no validation set")
        model = spec.model.build(seed=spec.training.seed)
        model.set_params(np.asarray(params, dtype=float))
        return model.score(self.validation.features,
                           self.validation.targets)


@dataclass
class ExecutorActor:
    """An executor: wallet + TEE platform + per-workload enclaves."""

    name: str
    wallet: Wallet
    platform: TEEPlatform
    enclaves: dict[str, Enclave] = field(default_factory=dict)

    @property
    def address(self) -> str:
        return self.wallet.address

    @staticmethod
    def code_for(spec: WorkloadSpec) -> EnclaveCode:
        """The enclave code unit for a workload.

        Version-bound to the spec hash: two workloads with different specs
        have different measurements even though they share the entry point.
        """
        return EnclaveCode(
            name=f"pds2-workload-{spec.workload_id}",
            version=spec.spec_hash,
            entry_point=enclave_entry_point,
        )

    def launch_enclave_for(self, workload_id: str,
                           code: EnclaveCode) -> Enclave:
        """Launch (or return) the enclave for one workload by id + code.

        This is the kind-agnostic primitive both ML-training and aggregate
        workloads use.
        """
        if workload_id not in self.enclaves:
            self.enclaves[workload_id] = self.platform.launch(code)
        return self.enclaves[workload_id]

    def quote_for_workload(self, workload_id: str, code: EnclaveCode) -> Quote:
        """Attestation quote for an arbitrary workload's enclave."""
        return AttestationService.produce_quote(
            self.launch_enclave_for(workload_id, code)
        )

    def accept_data_for(self, workload_id: str, code: EnclaveCode,
                        provider_address: str, blob: bytes,
                        provider_key: X25519PublicKey) -> None:
        """Provision one provider's sealed partition into the enclave."""
        enclave = self.launch_enclave_for(workload_id, code)
        enclave.provision_input(
            f"provider:{provider_address}", blob, provider_key,
            _channel_info(workload_id, provider_address),
        )

    def execute_for(self, workload_id: str, code: EnclaveCode,
                    **run_kwargs: object) -> dict:
        """Run the measured enclave code and return its (plain) output.

        In the real deployment the output would stay encrypted end-to-end;
        the orchestration layer treats this dict as enclave output and only
        publishes its hash on-chain.
        """
        enclave = self.launch_enclave_for(workload_id, code)
        enclave.run(**run_kwargs)
        return enclave.extract_output()


def result_hash_of(params: np.ndarray, weights_bps: dict[str, int]) -> str:
    """Canonical hash executors vote on: parameters + payout weights.

    Parameters are rounded to 9 decimals so numerically identical runs
    produce identical hashes across executors.
    """
    from repro.crypto.hashing import hash_object

    payload = {
        "params": [round(float(v), 9) for v in params],
        "weights": {k: int(v) for k, v in sorted(weights_bps.items())},
    }
    return hash_object(payload).hex()
