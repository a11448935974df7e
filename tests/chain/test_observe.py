"""Chain ops plane: block records, rendering, run directory.

Also covers the telemetry satellite — mempool/verify counters carrying
``trace_id`` exemplars and ``fault_kind`` annotations picked up from the
ambient tracer context at increment time.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.chain import mempool as mempool_mod
from repro.chain.blockchain import Blockchain, Wallet
from repro.chain.consensus import ProofOfAuthority
from repro.chain.contract import default_registry
from repro.chain.observe import (
    ChainRunRecorder,
    read_chain_run,
    render_chain_top,
)
from repro.chain.transaction import Transaction
from repro.crypto.ecdsa import Signature
from repro.errors import ChainError
from repro.telemetry.tracing import tracer


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
    return chain, out


def _mine_traffic(chain, wallets, blocks: int = 3):
    sink = "0x" + "ee" * 20
    for _ in range(blocks):
        for wallet in wallets:
            wallet.transfer(sink, 100)
        chain.mine_block()


class TestBlockRecords:
    def test_one_record_per_block_with_core_fields(self):
        chain, wallets = _build_chain(7)
        _mine_traffic(chain, wallets, blocks=3)
        records = chain.observer.records
        assert [r["number"] for r in records] == [1, 2, 3]
        record = records[-1]
        assert record["v"] == 2
        assert record["txs"] == len(wallets)
        assert record["gas_used"] > 0
        assert 0 < record["utilization_pct"] <= 100
        assert record["tx_mix"] == {"transfer": len(wallets), "call": 0,
                                    "deploy": 0}
        assert set(record["fees"]) == {"p50", "p95", "p99"}
        assert record["verify"]["invalid"] == 0
        assert record["execution"] == {"rejected": 0, "deferred": 0}
        # Records must be JSON-safe and key-stable.
        assert json.loads(json.dumps(record, sort_keys=True)) == record

    def test_records_carry_no_wall_clock_values(self):
        chain, wallets = _build_chain(7)
        _mine_traffic(chain, wallets, blocks=1)
        record = chain.observer.records[-1]
        ages = record["mempool"]["ages"]
        # Ages are admission-sequence distances, not seconds.
        assert all(isinstance(age, int) for age in ages)
        assert len(ages) == record["mempool"]["selected"]

    def test_observe_opt_out(self):
        """The observer is always on; the build-time switch is gone."""
        with pytest.raises(TypeError):
            _build_chain(7, observe=False)


class TestMempoolSelectionStats:
    def test_selection_snapshot_depth_and_ages(self):
        chain, wallets = _build_chain(11)
        for wallet in wallets:
            wallet.transfer("0x" + "ee" * 20, 5)
        chain.mine_block()
        selection = chain.mempool.last_selection
        assert selection["depth_before"] == len(wallets)
        assert selection["depth_after"] == 0
        assert selection["selected"] == len(wallets)
        assert selection["deferred"] == 0

    def test_gas_pressure_defers_and_is_counted(self):
        chain, wallets = _build_chain(11, block_gas_limit=120_000)
        for wallet in wallets:
            wallet.transfer("0x" + "ee" * 20, 5, gas_limit=50_000)
        chain.mine_block()
        selection = chain.mempool.last_selection
        assert selection["selected"] == 2
        assert selection["deferred"] == len(wallets) - 2
        assert selection["depth_after"] == len(wallets) - 2
        assert chain.mempool.deferrals == len(wallets) - 2
        record = chain.observer.records[-1]
        assert record["mempool"]["deferrals_total"] == len(wallets) - 2

    def test_replace_by_fee_is_counted(self):
        chain, wallets = _build_chain(11)
        wallet = wallets[0]
        wallet.transfer("0x" + "ee" * 20, 5)
        bumped = Transaction(
            sender=wallet.address, nonce=0, to="0x" + "ee" * 20,
            value=7, payload={}, gas_limit=50_000, gas_price=3,
        ).sign(wallet.key)
        chain.submit(bumped)
        assert chain.mempool.replacements == 1
        chain.mine_block()
        record = chain.observer.records[-1]
        assert record["mempool"]["replacements_total"] == 1


class TestRenderChainTop:
    def test_panel_renders_core_sections(self):
        chain, wallets = _build_chain(17, wallets=8)
        _mine_traffic(chain, wallets, blocks=2)
        # Last block: one forged transaction among the honest traffic, so
        # the verify row shows non-zero singles and bad.
        forged = Transaction(
            sender=wallets[3].address, nonce=2, to="0x" + "ee" * 20, value=1,
        ).sign(wallets[3].key)
        sig = forged.signature
        forged.signature = Signature(r=sig.r ^ 1, s=sig.s, v=sig.v)
        chain.submit(forged)
        _mine_traffic(chain, wallets[:3] + wallets[4:], blocks=1)
        verify = chain.observer.records[-1]["verify"]
        assert verify["invalid"] == 1 and verify["singles"] >= 1
        panel = render_chain_top(chain.observer.records,
                                 audit=chain.auditor.summary())
        assert "PDS2 CHAIN" in panel
        assert "utilization" in panel
        assert "mempool" in panel
        [row] = [line for line in panel.splitlines()
                 if line.startswith("  verify")]
        assert row.split() == [
            "verify", "batched", str(verify["batched"]),
            "singles", str(verify["singles"]),
            "bisect", f"{verify['subchecks']}/{verify['depth']}",
            "bad", "1",
        ]
        assert "audit: OK" in panel
        # Deterministic width discipline: no line exceeds the panel.
        assert max(len(line) for line in panel.splitlines()) <= 74

    def test_verify_row_fits_at_block_capacity(self):
        record = {"txs": 1428, "verify": {
            "batched": 1428, "singles": 1428, "subchecks": 2855,
            "depth": 11, "invalid": 1428}}
        panel = render_chain_top([record])
        assert max(len(line) for line in panel.splitlines()) <= 74

    def test_empty_run_renders(self):
        panel = render_chain_top([])
        assert "no blocks recorded yet" in panel


class TestRunDirectory:
    def test_round_trip(self, tmp_path):
        root = str(tmp_path / "run")
        recorder = ChainRunRecorder(root)
        chain, wallets = _build_chain(19)
        recorder.attach(chain)
        _mine_traffic(chain, wallets, blocks=3)
        recorder.close(chain)
        data = read_chain_run(root)
        assert len(data["records"]) == 3
        assert data["audit"]["violation_count"] == 0
        assert data["audit"]["blocks_checked"] == 3

    def test_torn_tail_is_tolerated(self, tmp_path):
        root = str(tmp_path / "run")
        recorder = ChainRunRecorder(root)
        chain, wallets = _build_chain(19)
        recorder.attach(chain)
        _mine_traffic(chain, wallets, blocks=2)
        with open(os.path.join(root, "blocks.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write('{"v": 1, "number": 3, "tru')  # writer died mid-record
        data = read_chain_run(root)
        assert len(data["records"]) == 2
        assert data["audit"] is None  # never finalized

    def test_v1_directory_with_stale_attribution_reads_back(self, tmp_path):
        # A run recorded before the parallel engine was deleted: version-1
        # records with engine attribution, plus an attribution.json.
        root = tmp_path / "run"
        root.mkdir()
        old = {"v": 1, "number": 1, "txs": 3, "gas_used": 63000,
               "utilization_pct": 0.2, "tx_mix": {"transfer": 3},
               "execution": {"engine": "parallel", "groups": 3,
                             "lane_txs": {"0": 2, "1": 1},
                             "serial_cause": "", "rejected": 0,
                             "deferred": 0}}
        (root / "blocks.jsonl").write_text(json.dumps(old) + "\n")
        (root / "attribution.json").write_text("{not json")
        data = read_chain_run(str(root))
        assert data == {"records": [old], "audit": None}
        panel = render_chain_top(data["records"], data["audit"])
        assert "blocks      1   txs       3" in panel

    def test_mid_file_corruption_raises(self, tmp_path, capsys):
        """One damaged record in the middle must not hide the blocks
        behind it from ``chain top`` / ``chain audit`` with exit 0."""
        from repro.cli import main

        root = str(tmp_path / "run")
        recorder = ChainRunRecorder(root)
        chain, wallets = _build_chain(19)
        recorder.attach(chain)
        _mine_traffic(chain, wallets, blocks=3)
        recorder.close(chain)
        path = os.path.join(root, "blocks.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[1] = lines[1][:20] + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(ChainError, match="line 2"):
            read_chain_run(root)
        for command in ("top", "audit"):
            assert main(["chain", command, root]) == 2
            assert "cannot read chain run" in capsys.readouterr().err

    def test_truncated_audit_json_raises(self, tmp_path, capsys):
        """A finalized run whose ``audit.json`` was cut short is damaged,
        not "still running": ``chain audit`` must not say "not finalized"
        and ``chain top --watch`` must not wait for ever."""
        from repro.cli import main

        root = str(tmp_path / "run")
        recorder = ChainRunRecorder(root)
        chain, wallets = _build_chain(19)
        recorder.attach(chain)
        _mine_traffic(chain, wallets, blocks=2)
        recorder.close(chain)
        path = os.path.join(root, "audit.json")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:len(text) // 2])
        with pytest.raises(ChainError, match="audit.json"):
            read_chain_run(root)
        for command in (["top"], ["top", "--watch", "0.01"], ["audit"]):
            assert main(["chain", *command, root]) == 2
            err = capsys.readouterr().err
            assert "audit.json" in err and "not finalized" not in err


class TestExemplarSatellite:
    def test_admission_counter_picks_up_trace_context(self):
        chain, wallets = _build_chain(23)
        with tracer().scoped_context(trace_id="trace-obs-1"):
            wallets[0].transfer("0x" + "ee" * 20, 5)
        child = mempool_mod._POOL_ADMITTED.labels(kind="new")
        assert child.exemplar == {"trace_id": "trace-obs-1"}

    def test_fault_kind_annotation_rides_along(self):
        chain, wallets = _build_chain(23)
        with tracer().scoped_context(trace_id="trace-obs-2"):
            with tracer().span("fault.window", fault_kind="corrupt_state"):
                wallets[0].transfer("0x" + "ee" * 20, 5)
        child = mempool_mod._POOL_ADMITTED.labels(kind="new")
        assert child.exemplar == {"trace_id": "trace-obs-2",
                                  "fault_kind": "corrupt_state"}

    def test_verify_batch_counter_annotated(self):
        chain, wallets = _build_chain(23)
        from repro.chain import blockchain as blockchain_mod
        with tracer().scoped_context(trace_id="trace-obs-3"):
            wallets[0].transfer("0x" + "ee" * 20, 5)
            chain.mine_block()
        child = blockchain_mod._VERIFY_BATCH.labels(outcome="clean")
        assert child.exemplar == {"trace_id": "trace-obs-3"}
