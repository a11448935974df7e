"""The PDS2 marketplace facade: the paper's Fig. 1/Fig. 2 wired together.

:class:`Marketplace` owns one instance of every substrate — blockchain +
governance contracts, attestation service, data catalog, manufacturer
registry — plus the structured :class:`~repro.core.events.EventBus` every
layer reports into.  The Fig. 2 workload lifecycle itself lives in
:mod:`repro.core.lifecycle`: :meth:`Marketplace.run_workload` and
:meth:`Marketplace.run_aggregate_workload` are thin drivers that build a
:class:`~repro.core.lifecycle.WorkloadKind` strategy and hand it to one
:class:`~repro.core.lifecycle.WorkloadSession`, which walks the phase
state machine:

1. **deploy** — the consumer deploys a workload contract escrowing the
   reward;
2. **match** — storage subsystems match the spec's semantic requirement
   against each provider's catalog records; willing providers (per their
   policies) join;
3. **register_executors** — executors launch measured enclaves and
   register on-chain;
4. **attest_and_submit** — each participating provider verifies the
   executor's attestation quote against the on-chain code measurement,
   then sends its encrypted data plus a signed participation certificate;
5. **start_execution** — once the consumer's conditions hold, execution
   starts;
6. **execute / aggregate** — enclaves run; executors all-reduce their
   outputs and agree on payout weights;
7. **settle** — quorum-confirmed results trigger the contract payout;
8. **audit** — anyone re-derives the history and cross-checks it against
   the session's event trail.

Everything is deterministic under the marketplace seed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.chain.block import Block
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.chain.transaction import Receipt
from repro.chain.vm import VM
from repro.core.actors import (
    ConsumerActor,
    ExecutorActor,
    ParticipationPolicy,
    ProviderActor,
    accept_all_policy,
)
from repro.core.events import EventBus, LifecycleEvent, RingBufferSink
from repro.core.lifecycle import (
    AggregateWorkloadKind,
    MLTrainingKind,
    WorkloadSession,
)
from repro.core.workload import WorkloadSpec
from repro.errors import ChainError, MarketplaceError
from repro.governance import register_governance_contracts
from repro.governance.audit import AuditReport
from repro.identity.device import ManufacturerRegistry
from repro.ml.datasets import Dataset
from repro.storage.base import StorageBackend, content_address
from repro.storage.catalog import DataCatalog, DataRecord
from repro.storage.local import LocalEncryptedStore
from repro.storage.semantic import Ontology, SemanticAnnotation
from repro.tee.attestation import AttestationService, Quote
from repro.tee.enclave import Enclave, TEEPlatform
from repro import telemetry
from repro.utils.rng import derive_rng

#: Genesis balance granted to every actor wallet (covers gas + escrows).
DEFAULT_FUNDING = 10**12


@dataclass
class WorkloadRunReport:
    """Everything observable about one completed workload run."""

    workload_address: str
    spec: WorkloadSpec
    participants: list[str]
    executors: list[str]
    final_params: np.ndarray
    result_hash: str
    consumer_score: Optional[float]
    payouts: dict[str, int]
    weights_bps: dict[str, int]
    gas_used: int
    blocks_mined: int
    achieved_epsilon: Optional[float]
    audit: AuditReport
    #: Executors that actually received data and executed (a subset of
    #: ``executors``, which lists every registered executor — with more
    #: executors than providers, round-robin leaves some idle).
    active_executors: list[str] = field(default_factory=list)
    session_id: str = ""
    #: True when the session finished on a partial quorum (one or more
    #: executors lost mid-run, payouts reweighted over the survivors).
    degraded: bool = False
    #: Recovery actions the lifecycle engine applied, in order.
    recoveries: list[dict] = field(default_factory=list)
    #: Executors blacklisted for this session after crashing.
    blacklisted: list[str] = field(default_factory=list)

    @property
    def total_paid(self) -> int:
        return sum(self.payouts.values())


class Marketplace:
    """A complete, self-contained PDS2 deployment."""

    def __init__(self, seed: int = 0, validators: int = 3,
                 mint_deeds: bool = True):
        self.seed = seed
        self._rng = derive_rng(seed, "marketplace")
        self.ontology = Ontology.iot_default()
        self.catalog = DataCatalog(self.ontology)
        self.attestation = AttestationService()
        self.manufacturers = ManufacturerRegistry()
        self.clock = 0.0

        # Structured observability: every layer reports into this bus; the
        # ring buffer keeps the recent history queryable in-process.
        self.events = EventBus()
        self.event_log = RingBufferSink()
        self.events.attach(self.event_log)
        self._active: Optional[WorkloadSession] = None
        self._session_counter = 0

        # Telemetry: this marketplace drives the process tracer's sim clock
        # and publishes every finished span as a `span.end` event, which is
        # how spans reach JSONL traces and `python -m repro spans`.  The
        # tracer clock follows whichever marketplace was constructed last —
        # one simulation at a time, like the sim itself.
        self.tracer = telemetry.tracer()
        self.tracer.sim_clock = lambda: self.clock
        self.tracer.on_finish = self._record_span

        consensus = ProofOfAuthority.with_generated_validators(
            validators, derive_rng(seed, "validators")
        )
        registry = default_registry()
        register_governance_contracts(registry)
        self.chain = Blockchain(consensus, registry=registry)
        self.chain.block_observers.append(self._record_block)
        self.attestation.on_verified = self._record_attestation

        # Platform operator wallet deploys the shared registries.
        self.operator = self._new_wallet("operator")
        self.actor_registry = self.operator.deploy_and_mine("actor_registry")
        if mint_deeds:
            deed_minter = VM.contract_address_for(
                self.operator.address,
                self.chain.state.nonce_of(self.operator.address) + 1,
            )
            deed_tx = self.operator.deploy("erc721", name="PDS2 Data Deed",
                                           symbol="DEED", minter=deed_minter)
            self.chain.mine_block(self._tick())
            self.deed_token: Optional[str] = self.operator.deployed_address(
                deed_tx
            )
            self.data_registry = self.operator.deploy_and_mine(
                "data_registry", deed_token=self.deed_token
            )
        else:
            self.deed_token = None
            self.data_registry = self.operator.deploy_and_mine(
                "data_registry", deed_token=None
            )

        self.providers: list[ProviderActor] = []
        self.consumers: list[ConsumerActor] = []
        self.executors: list[ExecutorActor] = []

    # -- clock / wallet helpers ----------------------------------------------------

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def advance_clock(self, seconds: float) -> float:
        """Advance the sim clock without mining (retry backoff waits).

        Recovery policies sleep on *this* clock — never wall time — so
        injected runs stay deterministic.
        """
        if not math.isfinite(seconds) or seconds < 0:
            raise MarketplaceError(
                f"clock can only advance by a finite non-negative amount, "
                f"got {seconds!r}"
            )
        self.clock += float(seconds)
        return self.clock

    def mine_and_read(self, awaited: list[tuple[bytes, str, str]], *,
                      required: bool, drain: bool) -> list[Receipt]:
        """The one place ``repro.core`` mines and reads receipts.

        Mines one block — also when nothing is pooled — and empties
        ``awaited`` of every ``(tx_hash, sender, method)`` entry that block
        decided.  One the block deferred (still pooled: the block gas limit
        was reached) stays for the caller's next block, unless the caller
        cannot go on without it (``drain``: a deployment, the start gate,
        an abort, a registration): then the seam mines on until the pool
        stops shrinking.  A transaction that reverted, is neither mined nor
        pooled (forged: dropped at block entry) or can never be mined is
        published as a ``chain.tx_reverted`` event, and if the sends were
        ``required`` the first such one raises with the chain's reason.

        The block is timed by the marketplace clock (not ``mine_block``'s
        head-timestamp + 1): a run failing right after a block would
        otherwise leave the clock behind the head timestamp and the *next*
        session would mine a non-monotonic block.
        """
        receipts: list[Receipt] = []
        failure = ""
        while True:
            depth = len(self.chain.mempool)
            self.chain.mine_block(self._tick())
            stuck = len(self.chain.mempool) == depth
            pooled = []
            for entry in awaited:
                tx_hash, sender, method = entry
                try:
                    receipt = self.chain.receipt_for(tx_hash)
                except ChainError:
                    if tx_hash not in self.chain.mempool:
                        reason = "dropped at block entry: no receipt"
                    elif drain and stuck:
                        reason = "still pooled: no block can take it"
                    else:
                        pooled.append(entry)
                        continue
                else:
                    receipts.append(receipt)
                    if receipt.status:
                        continue
                    reason = receipt.error
                self.publish_event("chain.tx_reverted", actor=sender,
                                   data={"method": method, "reason": reason})
                failure = failure or f"{method} from {sender} failed: {reason}"
            awaited[:] = pooled
            if required and failure:
                raise MarketplaceError(failure)
            if not (drain and pooled):
                return receipts

    @staticmethod
    def send(awaited: list[tuple[bytes, str, str]], wallet: Wallet,
             contract: str, method: str, **args) -> None:
        """Queue one contract call on ``awaited``, for the seam to read."""
        awaited.append(
            (wallet.call(contract, method, **args), wallet.address, method))

    def _register(self, wallet: Wallet, role: str) -> None:
        """Claim ``role`` on-chain; raises before anything is recorded
        off-chain when the registry refuses."""
        sent: list[tuple[bytes, str, str]] = []
        self.send(sent, wallet, self.actor_registry, "register", role=role)
        self.mine_and_read(sent, required=True, drain=True)

    def _new_wallet(self, label: str) -> Wallet:
        wallet = Wallet.generate(
            self.chain, derive_rng(self.seed, f"wallet-{label}"), label
        )
        self.chain.state.credit(wallet.address, DEFAULT_FUNDING)
        return wallet

    # -- event plumbing ------------------------------------------------------------

    def next_session_id(self, workload_id: str) -> str:
        self._session_counter += 1
        return f"session-{self._session_counter:04d}-{workload_id}"

    @contextmanager
    def active_session(self, session: WorkloadSession) -> Iterator[None]:
        """Attribute chain/TEE events to ``session`` while it runs.

        Beyond event attribution, every span opened inside (chain, TEE,
        storage — not just lifecycle) inherits a ``session_id`` attribute
        via the tracer context, so span and profiler output can be filtered
        per session.  Metrics carry no session dimension.
        """
        if self._active is not None:
            raise MarketplaceError(
                f"session {self._active.session_id} is already running"
            )
        self._active = session
        try:
            with self.tracer.scoped_context(session_id=session.session_id):
                yield
        finally:
            self._active = None

    def publish_event(self, name: str, *,
                      session: Optional[WorkloadSession] = None,
                      gas_delta: int = 0, block_height: int = -1,
                      actor: str = "",
                      data: Optional[dict] = None) -> LifecycleEvent:
        """Emit one event on the bus, attributed to the given (or active)
        session's current phase; platform-level events (onboarding,
        out-of-session mining) carry an empty session id."""
        session = session if session is not None else self._active
        event = self.events.emit(
            session_id=session.session_id if session else "",
            phase=session.state if session else "platform",
            name=name,
            sim_clock=self.clock,
            gas_delta=gas_delta,
            block_height=block_height,
            actor=actor,
            data=data,
        )
        if session is not None:
            session.trail.append(event)
        return event

    def _record_block(self, block: Block) -> None:
        """Chain hook: one event per mined block (carrying the gas delta)
        plus one per contract log, so session gas accounting and the
        audit-trail cross-check both derive from the event stream."""
        self.publish_event(
            "chain.block_mined",
            gas_delta=block.header.gas_used,
            block_height=block.header.number,
            actor=block.header.validator,
            data={"transactions": len(block.transactions)},
        )
        for log in self.chain.logs_of(block):
            self.publish_event(
                "chain.log",
                block_height=block.header.number,
                actor=log.address,
                data={"log_name": log.name, "log_address": log.address},
            )

    def _record_span(self, span: "telemetry.Span") -> None:
        """Tracer hook: every finished span becomes a ``span.end`` event
        (attributed to the active session, so a session's trace carries
        its own span tree)."""
        self.publish_event("span.end", data=span.to_dict())

    def _record_attestation(self, quote: Quote) -> None:
        """Attestation hook: a quote passed verification."""
        self.publish_event(
            "tee.attestation_verified",
            actor=quote.platform_id,
            data={"measurement": quote.measurement.hex()},
        )

    def _record_enclave_launch(self, enclave: Enclave) -> None:
        """TEE hook: a platform launched a measured enclave."""
        self.publish_event(
            "tee.enclave_launched",
            actor=enclave.platform.platform_id,
            data={"code": enclave.code.name,
                  "measurement": enclave.measurement.hex()},
        )

    # -- actor onboarding --------------------------------------------------------------

    def add_provider(self, name: str, dataset: Dataset,
                     annotation: SemanticAnnotation,
                     store: Optional[StorageBackend] = None,
                     policy: ParticipationPolicy = accept_all_policy,
                     ) -> ProviderActor:
        """Onboard a provider: wallet, role, storage, catalog + registry."""
        wallet = self._new_wallet(f"provider-{name}")
        if store is None:
            store = LocalEncryptedStore(
                wallet.address, derive_rng(self.seed, f"store-{name}")
            )
        provider = ProviderActor(
            name=name, wallet=wallet, dataset=dataset,
            annotation=annotation, store=store, policy=policy,
            record_id=f"record-{name}",
        )
        sent: list[tuple[bytes, str, str]] = []
        self.send(sent, wallet, self.actor_registry, "register",
                  role="provider")
        object_id = provider.store_dataset()
        payload_hash = content_address(provider.partition_payload())
        from repro.crypto.hashing import hash_object

        annotation_hash = hash_object(annotation.to_dict()).hex()
        self.send(
            sent, wallet, self.data_registry, "register_dataset",
            record_id=provider.record_id, content_hash=payload_hash,
            annotation_hash=annotation_hash,
            size_bytes=len(provider.partition_payload()),
        )
        # Nothing is recorded off-chain until the chain accepted both.
        self.mine_and_read(sent, required=True, drain=True)
        self.catalog.register(DataRecord(
            record_id=provider.record_id,
            owner=wallet.address,
            backend_name=type(store).__name__,
            object_id=object_id,
            content_hash=payload_hash,
            size_bytes=len(provider.partition_payload()),
            created_at=self.clock,
            annotation=annotation,
        ))
        self.providers.append(provider)
        return provider

    def add_consumer(self, name: str,
                     validation: Optional[Dataset] = None) -> ConsumerActor:
        """Onboard a consumer with an optional private validation set."""
        wallet = self._new_wallet(f"consumer-{name}")
        self._register(wallet, "consumer")
        consumer = ConsumerActor(name=name, wallet=wallet,
                                 validation=validation)
        self.consumers.append(consumer)
        return consumer

    def add_executor(self, name: str) -> ExecutorActor:
        """Onboard an executor: wallet, role, provisioned TEE platform."""
        wallet = self._new_wallet(f"executor-{name}")
        self._register(wallet, "executor")
        platform = TEEPlatform(
            platform_id=f"platform-{name}",
            rng=derive_rng(self.seed, f"platform-{name}"),
        )
        platform.on_launch = self._record_enclave_launch
        self.attestation.provision_platform(platform)
        executor = ExecutorActor(name=name, wallet=wallet, platform=platform)
        self.executors.append(executor)
        return executor

    # -- the lifecycle -------------------------------------------------------------------

    def matching_providers(self, spec: WorkloadSpec) -> list[ProviderActor]:
        """Phase 2: storage-subsystem matching + provider consent."""
        willing = []
        for provider in self.providers:
            records = self.catalog.match_for_owner(
                spec.requirement, provider.address
            )
            if records and provider.wants_to_participate(spec,
                                                         self.ontology):
                willing.append(provider)
        return willing

    def session_for(self, consumer: ConsumerActor, kind,
                    **session_kwargs) -> WorkloadSession:
        """Build a lifecycle session over this marketplace's substrates."""
        return WorkloadSession(self, consumer, kind, **session_kwargs)

    def run_workload(self, consumer: ConsumerActor,
                     spec: WorkloadSpec) -> WorkloadRunReport:
        """Run the complete Fig. 2 sequence and return the full report."""
        return self.session_for(consumer, MLTrainingKind(spec)).run()

    def run_aggregate_workload(self, consumer: ConsumerActor,
                               workload_id: str, requirement,
                               agg_spec, reward_pool: int = 100_000,
                               min_providers: int = 1,
                               min_samples: int = 1,
                               required_confirmations: int = 1):
        """Run a *statistical aggregate* workload through the full lifecycle.

        The paper generalizes PDS2 beyond ML training; this is that other
        workload class on exactly the same engine: the same contract,
        certificates, attestation and quorum — only the enclave entry point
        (and the result: a statistic, not a model) differ.  Returns
        ``(AggregateResult, AuditReport, workload_address)``.
        """
        kind = AggregateWorkloadKind(
            workload_id, requirement, agg_spec,
            reward_pool=reward_pool, min_providers=min_providers,
            min_samples=min_samples,
            required_confirmations=required_confirmations,
        )
        return self.session_for(consumer, kind).run()
