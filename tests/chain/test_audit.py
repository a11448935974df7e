"""Continuous invariant auditor: clean runs, seeded corruption, forensics.

The corruption scenarios always fund a *bystander* account that never
transacts — under ``corrupt_state`` it is a candidate victim, and the
forensic bundle must then name it in ``suspect_accounts``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chain.audit import install_fault_plan, install_state_corruption
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.core.resilience import FaultKind, FaultPlan
from repro.errors import ChainAuditError
from tests.chain.test_journal_root import recompute_state_root

BYSTANDER = "0x" + "b7" * 20


def _build_chain(seed: int, wallets: int = 4, **chain_kwargs):
    rng = np.random.default_rng(seed)
    consensus = ProofOfAuthority.with_generated_validators(1, rng)
    chain = Blockchain(consensus, registry=default_registry(),
                       **chain_kwargs)
    out = []
    for index in range(wallets):
        wallet = Wallet.generate(chain, rng, f"w{index}")
        chain.state.credit(wallet.address, 10**12)
        out.append(wallet)
    chain.state.credit(BYSTANDER, 10**9)
    return chain, out


def _mine_traffic(chain, wallets, blocks: int = 3):
    sink = "0x" + "ee" * 20
    for _ in range(blocks):
        for wallet in wallets:
            wallet.transfer(sink, 100)
        chain.mine_block()


class TestCleanRuns:
    def test_every_block_audited_zero_violations(self):
        chain, wallets = _build_chain(31)
        _mine_traffic(chain, wallets, blocks=5)
        summary = chain.auditor.summary()
        assert summary["blocks_checked"] == 5
        assert summary["violation_count"] == 0
        assert summary["violations"] == []

    def test_contract_traffic_stays_clean(self):
        chain, wallets = _build_chain(31)
        token = wallets[0].deploy_and_mine("erc20", initial_supply=10**9)
        for wallet in wallets[1:]:
            wallets[0].call(token, "transfer", to=wallet.address,
                            amount=10**6)
        chain.mine_block()
        assert chain.auditor.summary()["violation_count"] == 0

    def test_audit_opt_out(self):
        """The auditor is always on; both build-time switches are gone."""
        for switch in ("audit", "audit_strict"):
            with pytest.raises(TypeError):
                _build_chain(31, **{switch: False})


class TestSeededCorruption:
    def test_corruption_is_detected_at_its_block(self):
        chain, wallets = _build_chain(37)
        install_state_corruption(chain, block_number=2, seed=37)
        _mine_traffic(chain, wallets, blocks=4)
        summary = chain.auditor.summary()
        assert summary["violation_count"] > 0
        blocks = {v["block"] for v in summary["violations"]}
        assert blocks == {2}
        kinds = {v["kind"] for v in summary["violations"]}
        # A silent balance flip breaks both conservation and the header's
        # state-root commitment.
        assert "conservation" in kinds
        assert "state_root" in kinds

    def test_forensic_bundle_names_the_victim(self):
        chain, wallets = _build_chain(37)
        install_state_corruption(chain, block_number=2, seed=37)
        _mine_traffic(chain, wallets, blocks=3)
        assert len(chain.auditor.bundles) == 1
        bundle = chain.auditor.bundles[0]
        assert bundle["block"]["number"] == 2
        # The bystander never transacts, so its flipped balance shows up
        # as a changed-but-untouched account.
        assert bundle["suspect_accounts"] == [BYSTANDER]
        diff = bundle["account_diffs"][BYSTANDER]
        assert diff["touched"] is False
        assert diff["delta"] != 0
        assert bundle["mempool"]["depth"] == 0
        assert bundle["recent_spans"]  # the span window came along

    def test_bundle_is_written_to_forensics_dir(self, tmp_path):
        chain, wallets = _build_chain(37)
        chain.auditor.forensics_dir = str(tmp_path / "forensics")
        install_state_corruption(chain, block_number=1, seed=1)
        _mine_traffic(chain, wallets, blocks=1)
        path = tmp_path / "forensics" / "block-1.json"
        assert path.exists()
        bundle = json.loads(path.read_text(encoding="utf-8"))
        assert bundle["violations"]

    def test_strict_mode_raises(self):
        chain, wallets = _build_chain(37)
        chain.auditor.strict = True
        install_state_corruption(chain, block_number=1, seed=1)
        for wallet in wallets:
            wallet.transfer("0x" + "ee" * 20, 100)
        with pytest.raises(ChainAuditError):
            chain.mine_block()

    def test_matched_seeds_pick_the_same_victim(self):
        victims = []
        for _ in range(2):
            chain, wallets = _build_chain(37)
            install_state_corruption(chain, block_number=2, seed=99)
            _mine_traffic(chain, wallets, blocks=2)
            victims.append(chain.auditor.bundles[0]["suspect_accounts"])
        assert victims[0] == victims[1]


class TestFaultPlanIntegration:
    def test_corrupt_state_fault_kind_arms_the_seam(self):
        chain, wallets = _build_chain(41)
        plan = FaultPlan.single(FaultKind.CORRUPT_STATE, target="block:2")
        assert install_fault_plan(chain, plan, seed=41) == 1
        _mine_traffic(chain, wallets, blocks=3)
        summary = chain.auditor.summary()
        assert summary["violation_count"] > 0
        assert {v["block"] for v in summary["violations"]} == {2}

    def test_other_fault_kinds_are_ignored(self):
        chain, wallets = _build_chain(41)
        plan = FaultPlan.single(FaultKind.CRASH_EXECUTE, target="exec-0")
        assert install_fault_plan(chain, plan, seed=41) == 0
        _mine_traffic(chain, wallets, blocks=2)
        assert chain.auditor.summary()["violation_count"] == 0

    def test_unparsable_target_defaults_to_block_one(self):
        chain, wallets = _build_chain(41)
        plan = FaultPlan.single(FaultKind.CORRUPT_STATE, target="")
        assert install_fault_plan(chain, plan, seed=41) == 1
        _mine_traffic(chain, wallets, blocks=2)
        assert {v["block"] for v in
                chain.auditor.summary()["violations"]} == {1}


class TestOtherInvariants:
    def test_contract_invariant_violation(self):
        chain, wallets = _build_chain(43)
        token = wallets[0].deploy_and_mine("erc20", initial_supply=10**9)

        def tamper(chain_, block):
            # Mint out of thin air, bypassing the VM entirely.
            storage = chain_.state.contracts[token].storage
            storage["balances"][wallets[0].address] += 777

        chain.tamper_hooks.append(tamper)
        _mine_traffic(chain, wallets, blocks=1)
        violations = chain.auditor.summary()["violations"]
        kinds = {v["kind"] for v in violations}
        assert "contract_invariant" in kinds
        flagged = [v for v in violations
                   if v["kind"] == "contract_invariant"]
        assert any(v["account"] == token for v in flagged)
        assert any("supply mismatch" in v["detail"] for v in flagged)

    @pytest.mark.parametrize(
        "height,touched", [(2, False), (2, True), (64, False), (64, True)],
        ids=["lo", "lo-w", "hi", "hi-w"])  # -w: the block wrote it too
    def test_direct_storage_write_is_a_state_root_violation(
            self, height, touched):
        """Flagged on the block it happens and on every later block, until
        the VM next writes the contract — whether or not the block wrote the
        contract too, and however long ago the auditor last encoded it."""
        chain, wallets = _build_chain(43)
        token = wallets[0].deploy_and_mine("erc20", initial_supply=10**9)
        while chain.height < height - 1:
            chain.mine_block()

        def vm_write():
            wallets[0].call(token, "transfer", recipient=wallets[1].address,
                            amount=1)

        def tamper(chain_, block):
            # Breaks no token invariant; only the root commits to it.
            if block.header.number == height:
                chain_.state.contracts[token].storage["ghost"] = 1

        chain.tamper_hooks.append(tamper)
        if touched:
            vm_write()
        _mine_traffic(chain, wallets, blocks=2)
        violations = chain.auditor.summary()["violations"]
        assert [(v["block"], v["kind"]) for v in violations] == [
            (height, "state_root"), (height + 1, "state_root")]
        # The incremental root never saw the write — which is why the
        # auditor looks for itself instead of asking it.
        assert chain.state.state_root() == chain.head.header.state_root
        assert recompute_state_root(chain.state) != \
            chain.head.header.state_root
        assert chain.auditor.state_root() == recompute_state_root(chain.state)
        # A sanctioned write makes the chain encode the contract again,
        # ghost included: from here on the two agree.
        vm_write()
        _mine_traffic(chain, wallets, blocks=1)
        assert chain.state.contracts[token].storage["balances"][
            wallets[1].address] == 1 + touched
        assert len(chain.auditor.violations) == 2
        assert chain.head.header.state_root == \
            recompute_state_root(chain.state)

    def test_mempool_overlap_violation(self):
        chain, wallets = _build_chain(43)

        def tamper(chain_, block):
            # Simulate a pool that failed to evict a mined transaction.
            chain_.mempool._hashes.add(block.transactions[0].tx_hash)

        chain.tamper_hooks.append(tamper)
        _mine_traffic(chain, wallets, blocks=1)
        kinds = {v["kind"] for v in chain.auditor.summary()["violations"]}
        assert "mempool_overlap" in kinds

    def test_nonce_regression_violation(self):
        chain, wallets = _build_chain(43)

        def tamper(chain_, block):
            chain_.state.nonces[wallets[0].address] = 0

        _mine_traffic(chain, wallets, blocks=1)  # advance nonces first
        chain.tamper_hooks.append(tamper)
        _mine_traffic(chain, wallets, blocks=1)
        violations = chain.auditor.summary()["violations"]
        assert any(v["kind"] == "nonce" for v in violations)
