"""The PDS2 marketplace facade: the paper's Fig. 1/Fig. 2 wired together.

:class:`Marketplace` owns one instance of every substrate — blockchain +
governance contracts, attestation service, data catalog — plus the
structured :class:`~repro.core.events.EventBus` every layer reports into.
The Fig. 2 workload lifecycle itself lives in :mod:`repro.core.lifecycle`:
:meth:`Marketplace.run_workload` and
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
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

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
from repro.core.events import EventBus, LifecycleEvent
from repro.core.lifecycle import (
    AWAIT,
    AggregateWorkloadKind,
    MLTrainingKind,
    WorkloadSession,
)
from repro.core.workload import WorkloadSpec
from repro.errors import ChainError, MarketplaceError
from repro.governance import register_governance_contracts
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


def _weakly(method: Callable[..., None]) -> Callable[..., None]:
    """``method`` as a hook that does not keep its object alive (a dropped
    marketplace is freed by reference counting, not the cyclic collector)."""
    ref, function = weakref.ref(method.__self__), method.__func__

    def hook(*args: Any) -> None:
        owner = ref()
        if owner is not None:
            function(owner, *args)
    return hook


class Marketplace:
    """A complete, self-contained PDS2 deployment."""

    def __init__(self, seed: int = 0, validators: int = 3,
                 mint_deeds: bool = True):
        self.seed = seed
        self._rng = derive_rng(seed, "marketplace")
        self.ontology = Ontology.iot_default()
        self.catalog = DataCatalog(self.ontology)
        self.attestation = AttestationService()
        self.clock = 0.0

        # Structured observability: every layer reports into this bus.  It
        # keeps nothing: a session's events live in ``session.trail``, and
        # any other reader attaches a sink.
        self.events = EventBus()
        #: Where chain, TEE and span events go: the session :meth:`drive`
        #: resumed.
        self._resumed: Optional[WorkloadSession] = None
        self._session_counter = 0

        # Telemetry: this marketplace drives the process tracer's sim clock
        # and publishes every finished span as a `span.end` event, which is
        # how spans reach a run's events.jsonl and `python -m repro spans`.  The
        # tracer clock follows whichever marketplace was constructed last —
        # one simulation at a time — while it lives (then it reads 0.0).
        self.tracer = telemetry.tracer()
        market = weakref.ref(self)
        self.tracer.sim_clock = lambda: getattr(market(), "clock", 0.0)
        self.tracer.on_finish = _weakly(self._record_span)

        consensus = ProofOfAuthority.with_generated_validators(
            validators, derive_rng(seed, "validators")
        )
        registry = default_registry()
        register_governance_contracts(registry)
        self.chain = Blockchain(consensus, registry=registry)
        self.attestation.on_verified = _weakly(self._record_attestation)

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

    def drive(self, steps: Generator[Any, None, Any],
              session: Optional[WorkloadSession]) -> Iterator[str]:
        """The one loop that runs a session and the one place ``repro.core``
        mines (besides ``__init__``): resumes ``steps`` with ``session``'s
        context installed (the session events go to, its span stack and its
        ``session_id``; onboarding passes None), mines a block on the
        marketplace clock per :data:`AWAIT` it yields, and hands the caller
        each boundary's next phase.  Closing it closes ``steps`` in that
        context, so a dropped session ends its spans on its own stack."""
        try:
            while True:
                with self._resumed_as(session):
                    step = next(steps, None)
                    while step is AWAIT:
                        self.chain.mine_block(self._tick())
                        if session is not None:
                            session.blocks_mined += 1
                        step = next(steps, None)
                if step is None:
                    return
                yield step
        finally:
            with self._resumed_as(session):
                steps.close()

    @contextmanager
    def _resumed_as(self, session: Optional[WorkloadSession]
                    ) -> Iterator[None]:
        if session is None:
            yield
            return
        outer, self._resumed = self._resumed, session
        try:
            with self.tracer.installed(session.spans, session.span_context):
                yield
        finally:
            self._resumed = outer

    def seam(self, session: Optional[WorkloadSession],
             awaited: list[tuple[bytes, str, str]], *,
             required: Iterable[tuple[bytes, str, str]], drain: bool
             ) -> Generator[object, None, list[Receipt]]:
        """Yield :data:`AWAIT` (one block, also an empty one), then empty
        ``awaited`` of each ``(tx_hash, sender, method)`` it decided and
        return their receipts.  One the block gas limit deferred stays for
        the next block unless the caller ``drain``s (a deployment, the
        start gate, an abort, onboarding): then it waits on until the pool
        stops shrinking.  One that reverted, was dropped at block entry
        (forged) or can never be mined becomes a ``chain.tx_reverted``
        event; the first among ``required`` raises with the chain's reason.
        """
        required = set(required)
        receipts: list[Receipt] = []
        failure = ""
        while True:
            depth = len(self.chain.mempool)
            yield AWAIT
            stuck = len(self.chain.mempool) == depth
            self._record_block(session, awaited)
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
                self.publish_event("chain.tx_reverted", session=session,
                                   actor=sender,
                                   data={"method": method, "reason": reason})
                if entry in required and not failure:
                    failure = f"{method} from {sender} failed: {reason}"
            awaited[:] = pooled
            if failure:
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
        self._onboard(sent)

    def _onboard(self, sent: list[tuple[bytes, str, str]]) -> None:
        """Drive the seam with no session until every send succeeded."""
        for _ in self.drive(self.seam(None, sent, required=sent, drain=True),
                            None):
            pass

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

    def publish_event(self, name: str, *,
                      session: Optional[WorkloadSession] = None,
                      gas_delta: int = 0, block_height: int = -1,
                      actor: str = "",
                      data: Optional[dict] = None) -> LifecycleEvent:
        """Emit one event on the bus, attributed to the given (or resumed)
        session's current phase; platform-level events (onboarding) carry
        an empty session id."""
        session = session if session is not None else self._resumed
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

    def _record_block(self, session: Optional[WorkloadSession],
                      awaited: list[tuple[bytes, str, str]]) -> None:
        """The head block as ``session`` sees it: ``chain.block_mined`` with
        its own receipts' gas (added to its counter), their ``chain.log``s."""
        block = self.chain.head
        sent = {tx_hash for tx_hash, _, _ in awaited}
        own = [self.chain.receipt_for(tx.tx_hash)
               for tx in block.transactions if tx.tx_hash in sent]
        gas = sum(receipt.gas_used for receipt in own)
        if session is not None:
            session.gas_used += gas
        self.publish_event(
            "chain.block_mined", session=session, gas_delta=gas,
            block_height=block.header.number, actor=block.header.validator,
            data={"transactions": len(own)},
        )
        for receipt in own:
            for log in receipt.logs if receipt.status else ():
                self.publish_event(
                    "chain.log", session=session,
                    block_height=block.header.number, actor=log.address,
                    data={"log_name": log.name, "log_address": log.address},
                )

    def _record_span(self, span: "telemetry.Span") -> None:
        """Tracer hook: every finished span becomes a ``span.end`` event
        (attributed to the resumed session, so a session's trace carries
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
        # Encoding validates the rows, so a bad dataset sends nothing.
        payload = provider.partition_payload()
        sent: list[tuple[bytes, str, str]] = []
        self.send(sent, wallet, self.actor_registry, "register",
                  role="provider")
        object_id = provider.store_dataset()
        payload_hash = content_address(payload)
        from repro.crypto.hashing import hash_object

        annotation_hash = hash_object(annotation.to_dict()).hex()
        self.send(
            sent, wallet, self.data_registry, "register_dataset",
            record_id=provider.record_id, content_hash=payload_hash,
            annotation_hash=annotation_hash, size_bytes=len(payload),
        )
        # Nothing is recorded off-chain until the chain accepted both.
        self._onboard(sent)
        self.catalog.register(DataRecord(
            record_id=provider.record_id,
            owner=wallet.address,
            backend_name=type(store).__name__,
            object_id=object_id,
            content_hash=payload_hash,
            size_bytes=len(payload),
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
        platform.on_launch = _weakly(self._record_enclave_launch)
        self.attestation.provision_platform(platform)
        executor = ExecutorActor(name=name, wallet=wallet, platform=platform)
        self.executors.append(executor)
        return executor

    # -- the lifecycle -------------------------------------------------------------------

    def run_workload(self, consumer: ConsumerActor,
                     spec: WorkloadSpec) -> WorkloadSession:
        """Run the complete Fig. 2 sequence; returns the finished session."""
        return WorkloadSession(self, consumer, MLTrainingKind(spec)).run()

    def run_aggregate_workload(self, consumer: ConsumerActor,
                               workload_id: str, requirement,
                               agg_spec, reward_pool: int,
                               min_providers: int, min_samples: int,
                               required_confirmations: int
                               ) -> WorkloadSession:
        """Run a *statistical aggregate* workload through the full lifecycle.

        The paper generalizes PDS2 beyond ML training; this is that other
        workload class on exactly the same engine: the same contract,
        certificates, attestation and quorum — only the enclave entry point
        (and the result: a statistic, not a model) differ.  Returns the
        finished session: the statistic is ``ctx.extra["combined"]``, the
        per-provider counts ``ctx.extra["sample_counts"]``.
        """
        kind = AggregateWorkloadKind(
            workload_id, requirement, agg_spec,
            reward_pool=reward_pool, min_providers=min_providers,
            min_samples=min_samples,
            required_confirmations=required_confirmations,
        )
        return WorkloadSession(self, consumer, kind).run()
