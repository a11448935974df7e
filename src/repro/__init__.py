"""PDS2: a user-centered decentralized marketplace for privacy preserving
data processing — a complete reproduction of Giaretta et al. (ICDE 2021).

The paper defines an architecture; this package is the implementation its
Section VI calls for.  Subpackages map to the paper's subsystems:

* :mod:`repro.crypto`  — hashing, ECDSA, Merkle, Paillier, SMC, symmetric;
* :mod:`repro.chain`   — Ethereum-style ledger with contracts and tokens;
* :mod:`repro.governance` — actor/data registries, workload contracts, audit;
* :mod:`repro.tee`     — simulated enclaves, attestation, cost models;
* :mod:`repro.storage` — local / swarm / cloud backends, semantic discovery;
* :mod:`repro.net`     — link model, overlays and churn timelines;
* :mod:`repro.ml`      — models, datasets, gossip learning, FedAvg;
* :mod:`repro.privacy` — DP-SGD, RDP accounting, membership inference;
* :mod:`repro.rewards` — Shapley valuation, pricing, distribution;
* :mod:`repro.identity` — device keys, signed readings, authenticity;
* :mod:`repro.core`    — the marketplace facade and workload lifecycle.

Quickstart::

    from repro.core import Marketplace, ModelSpec, WorkloadSpec
    from repro.storage import ConceptRequirement

    market = Marketplace(seed=7)
    # ... add providers / a consumer / executors, then:
    # session = market.run_workload(consumer, spec)
    # session.ctx.payouts, session.ctx.audit.clean, session.gas_used
"""

from repro.core import Marketplace, ModelSpec, TrainingSpec, WorkloadSpec

__version__ = "1.0.0"

__all__ = ["Marketplace", "ModelSpec", "TrainingSpec", "WorkloadSpec",
           "__version__"]
