"""Regenerate the committed gossip-engine flame profiles in ``docs/``.

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/profile_gossip_engines.py

Profiles the same 64-node, 600 s-simulated gossip run on the kernels and
on the per-node test oracle (``tests/kernels/gossip_oracle.py``) with the
deterministic calls-mode sampler and writes collapsed stacks
(flamegraph.pl input) to ``docs/profile_gossip_objects.collapsed`` and
``docs/profile_gossip_kernel.collapsed``.  The oracle's samples
concentrate under ``GossipNode.on_wake`` inside ``span:gossip.run``
(per-node python), the kernel engine's under ``region:kernel.round`` /
``kernel.merge`` / ``kernel.train`` / ``kernel.push`` (stacked array
ops) — the total sample counts are themselves a rough speedup witness,
since calls-mode sampling is proportional to interpreter work.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent))  # tests/ (the oracle)

from bench_e20_kernel_scale import build  # noqa: E402
from harness import har_problem  # noqa: E402
from repro.kernels.gossip_kernel import GossipKernelTrainer  # noqa: E402
from repro.ml.gossip import GossipConfig  # noqa: E402
from repro.telemetry import Profiler, profile_to_collapsed  # noqa: E402
from tests.kernels.gossip_oracle import GossipNodeTrainer  # noqa: E402


def main() -> int:
    docs = Path(__file__).parent.parent / "docs"
    parts, test = har_problem(nodes=64, samples=3000)
    for name, engine in (("objects", GossipNodeTrainer),
                         ("kernel", GossipKernelTrainer)):
        profiler = Profiler(mode="calls", call_interval=64)
        with profiler:
            trainer = build(engine, parts, test,
                            GossipConfig(batch_size=8), seed=11)
            trainer.run(600.0, eval_interval_s=300.0)
        profile = profiler.result()
        path = docs / f"profile_gossip_{name}.collapsed"
        path.write_text(profile_to_collapsed(profile))
        print(f"{name}: {profile.total_samples} samples -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
