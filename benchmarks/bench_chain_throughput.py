"""E23: chain throughput — mempool packing and batch verification.

The paper's governance layer settles every workload session on-chain; at
marketplace scale the chain itself becomes the bottleneck.  This experiment
drives full governance sessions at the E12 scale (32 providers each, one
deploy + 35-transaction executor chain per session) through two regimes:

* **baseline** — the historical usage pattern: one block mined per protocol
  phase;
* **batched** — all sessions submitted up front into the nonce-ordered,
  fee-prioritized mempool, blocks mined until the pool drains.

Both regimes batch-verify signatures at block entry (one multi-scalar
multiplication per block); they differ only in how many transactions a
block holds.

Gated: settled sessions per block (packing is deterministic) and the ≥5×
improvement over the baseline.  Wall-clock amortization of batch signature
verification rides along and is claimed loosely (≥1.4×).
The batched workload runs twice at one seed: every session settles, no
transaction fails, the auditor checks every block clean, and the two
runs' state roots and receipts are byte-identical.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import Experiment, format_table, higher_is_better, info
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.chain.transaction import CREATE, Transaction
from repro.crypto import ecdsa
from repro.governance import register_governance_contracts

#: E12 scale: providers paid per workload session.
PROVIDERS_PER_SESSION = 32
#: Sessions in the full / quick runs (36 txs each: 1 deploy + 35 calls).
SESSION_COUNT = 28
QUICK_SESSION_COUNT = 14

#: Measured phase gas (deploy 143k, register 29k, participation ≤42k,
#: start 29k, result 274k) plus headroom; tight limits are what lets the
#: gas-reservation packer fit many whole sessions per 30M block.
GAS_DEPLOY = 200_000
GAS_REGISTER = 50_000
GAS_PARTICIPATION = 60_000
GAS_START = 50_000
GAS_RESULT = 400_000

_MEASUREMENT = "a1" * 16
_SPEC_HASH = "f0" * 16
_BPS = 10_000


def _make_chain(seed: int) -> tuple[Blockchain, np.random.Generator]:
    rng = np.random.default_rng(seed)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    registry = default_registry()
    register_governance_contracts(registry)
    return Blockchain(consensus, registry=registry), rng


def _session_actors(chain: Blockchain, rng: np.random.Generator,
                    count: int) -> list[tuple[Wallet, Wallet, list[str]]]:
    """Distinct consumer, executor, and provider set per session."""
    sessions = []
    for index in range(count):
        consumer = Wallet.generate(chain, rng, f"c{index}")
        executor = Wallet.generate(chain, rng, f"e{index}")
        chain.state.credit(consumer.address, 10**12)
        chain.state.credit(executor.address, 10**12)
        providers = [
            "0x" + f"{index * PROVIDERS_PER_SESSION + i + 1:040x}"
            for i in range(PROVIDERS_PER_SESSION)
        ]
        sessions.append((consumer, executor, providers))
    return sessions


def _weights(providers: list[str]) -> dict[str, int]:
    share = _BPS // len(providers)
    weights = {p: share for p in providers}
    weights[providers[0]] += _BPS - share * len(providers)
    return weights


def _submit_session(chain: Blockchain, consumer: Wallet, executor: Wallet,
                    providers: list[str], index: int,
                    mine_per_phase: bool = False) -> tuple[str, list[bytes]]:
    """Queue one full session; optionally mine a block per protocol phase.

    After the deploy, every transaction comes from the executor, so the
    mempool's per-sender nonce queue alone enforces the phase order —
    participations can never overtake registration, nor the result vote
    its participations, no matter how blocks are packed.  The deploy comes
    from another sender, so it outbids the executor's calls: at equal
    prices a deploy the block cannot fit is deferred while a cheaper
    executor call slips in ahead of the contract it calls (one session in
    28 failed that way).
    """
    deploy = Transaction(
        sender=consumer.address, nonce=0, to=CREATE,
        value=PROVIDERS_PER_SESSION * 1_000, gas_limit=GAS_DEPLOY,
        gas_price=2, payload={"contract": "workload", "args": {
            "spec_hash": _SPEC_HASH, "code_measurement": _MEASUREMENT,
            "min_providers": PROVIDERS_PER_SESSION,
            "min_samples": PROVIDERS_PER_SESSION,
            "required_confirmations": 1,
        }},
    )
    hashes = [chain.submit(deploy.sign(consumer.key))]
    workload = chain.vm.contract_address_for(consumer.address, 0)
    if mine_per_phase:
        chain.mine_block()
    hashes.append(executor.call(workload, "register_executor",
                                gas_limit=GAS_REGISTER,
                                claimed_measurement=_MEASUREMENT))
    if mine_per_phase:
        chain.mine_block()
    for i, provider in enumerate(providers):
        hashes.append(executor.call(
            workload, "submit_participation", gas_limit=GAS_PARTICIPATION,
            provider=provider, certificate_hash=f"cert-{index}-{i}",
            data_root=f"root-{index}-{i}", item_count=1,
        ))
    if mine_per_phase:
        chain.mine_block()
    hashes.append(executor.call(workload, "start_execution",
                                gas_limit=GAS_START))
    if mine_per_phase:
        chain.mine_block()
    hashes.append(executor.call(
        workload, "submit_result", gas_limit=GAS_RESULT,
        result_hash=f"res-{index}", provider_weights_bps=_weights(providers),
    ))
    if mine_per_phase:
        chain.mine_block()
    return workload, hashes


def _settled(chain: Blockchain, workloads: list[str]) -> int:
    caller = "0x" + "01" * 20
    return sum(
        1 for address in workloads
        if chain.view(caller, address, "state") == "complete"
    )


def _receipt_key(receipt) -> tuple:
    return (
        receipt.tx_hash, receipt.status, receipt.gas_used,
        tuple(repr(log.to_dict()) for log in receipt.logs),
        repr(receipt.return_value), receipt.error,
        receipt.contract_address, receipt.block_number,
    )


def _run_baseline(count: int) -> dict:
    """One block per protocol phase, per-transaction verification."""
    chain, rng = _make_chain(2300)
    sessions = _session_actors(chain, rng, count)
    start_height = chain.height
    workloads = []
    t0 = time.perf_counter()
    for index, (consumer, executor, providers) in enumerate(sessions):
        workload, _ = _submit_session(chain, consumer, executor, providers,
                                      index, mine_per_phase=True)
        workloads.append(workload)
    wall = time.perf_counter() - t0
    blocks = chain.height - start_height
    return {"blocks": blocks, "settled": _settled(chain, workloads),
            "wall": wall, "chain": chain}


def _run_batched(count: int) -> dict:
    """Submit everything, then mine until the mempool drains."""
    chain, rng = _make_chain(2300)
    sessions = _session_actors(chain, rng, count)
    start_height = chain.height
    workloads = []
    all_hashes = []
    t0 = time.perf_counter()
    for index, (consumer, executor, providers) in enumerate(sessions):
        workload, hashes = _submit_session(chain, consumer, executor,
                                           providers, index)
        workloads.append(workload)
        all_hashes.extend(hashes)
    while len(chain.mempool):
        chain.mine_block()
    wall = time.perf_counter() - t0
    blocks = chain.height - start_height
    receipts = tuple(_receipt_key(chain.receipt_for(h)) for h in all_hashes)
    return {
        "blocks": blocks, "settled": _settled(chain, workloads),
        "wall": wall, "chain": chain, "tx_count": len(all_hashes),
        "state_root": chain.state.state_root(), "receipts": receipts,
        "failures": sum(1 for h in all_hashes
                        if not chain.receipt_for(h).status),
    }


def _verify_amortization(chain: Blockchain, sample: int = 128,
                         repeats: int = 3) -> float:
    """Wall ratio: per-signature verification vs one batch.

    Best-of-``repeats``: the single-run ratio jitters ±0.2x from GC
    timing on shared runners.
    """
    items = []
    for block in chain.blocks:
        for tx in block.transactions:
            items.append((tx.public_key, tx.signing_bytes(), tx.signature))
            if len(items) >= sample:
                break
        if len(items) >= sample:
            break
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        individual = [key.verify(message, sig) for key, message, sig in items]
        individual_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched = ecdsa.batch_verify(items)
        batch_wall = time.perf_counter() - t0
        assert individual == batched
        ratio = individual_wall / batch_wall if batch_wall else 1.0
        best = max(best, ratio)
    return best


def run_bench(quick: bool = False) -> dict:
    count = QUICK_SESSION_COUNT if quick else SESSION_COUNT
    baseline = _run_baseline(count)
    batched = _run_batched(count)
    replay = _run_batched(count)
    runs = (batched, replay)

    sessions_per_block_base = baseline["settled"] / baseline["blocks"]
    sessions_per_block = batched["settled"] / batched["blocks"]
    speedup = sessions_per_block / sessions_per_block_base
    amortization = _verify_amortization(batched["chain"])

    rows = [
        ["baseline", baseline["settled"], baseline["blocks"],
         f"{sessions_per_block_base:.2f}", f"{baseline['wall']:.1f}"],
        ["batched", batched["settled"], batched["blocks"],
         f"{sessions_per_block:.2f}", f"{batched['wall']:.1f}"],
    ]
    lines = format_table(
        ["regime", "settled", "blocks", "sessions/block", "wall s"], rows
    )
    lines.append("")
    lines.append(f"txs per regime           {batched['tx_count']}")
    lines.append(f"sessions/block speedup   {speedup:.1f}x")
    lines.append(f"verify amortization      {amortization:.2f}x (wall)")

    metrics = {
        # Packing and settlement are gas-deterministic: safe to gate.
        "sessions_per_block": higher_is_better(sessions_per_block,
                                               unit="sessions"),
        "sessions_per_block_speedup_x": higher_is_better(
            speedup, unit="x", threshold_pct=20.0
        ),
        "sessions_settled": higher_is_better(batched["settled"],
                                             unit="sessions",
                                             threshold_pct=1.0),
        # Wall-clock ratios stay ungated on shared runners.
        "verify_amortization_x": info(amortization, unit="x"),
        "baseline_sessions_per_block": info(sessions_per_block_base,
                                            unit="sessions"),
    }
    audits = [run["chain"].auditor.summary() for run in runs]
    claims = {
        "all_settled": all(run["settled"] == count for run in runs),
        # 1.0 when no transaction failed (the name predates claims).
        "tx_failures": not any(run["failures"] for run in runs),
        # The batched pipeline settles ≥5x more sessions per block than the
        # block-per-phase baseline (both sides are gas-deterministic).
        "packing_5x": speedup >= 5.0,
        # Batch signature verification amortizes (generous: the gap
        # widens with block size).
        "verify_amortizes": amortization >= 1.4,
        "replay_identical": (batched["state_root"] == replay["state_root"]
                             and batched["receipts"] == replay["receipts"]),
        "audit_clean": not any(a["violation_count"] for a in audits),
        "audit_coverage": all(a["blocks_checked"] == run["blocks"]
                              for a, run in zip(audits, runs)),
    }
    return {"metrics": metrics, "lines": lines, "claims": claims}


EXPERIMENT = Experiment("E23", "chain throughput: mempool + batch verify",
                        run_bench)
