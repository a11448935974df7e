"""Gossip learning (paper Section III-C, the selected aggregation method).

Implements the Ormándi-style protocol: every node periodically wakes, merges
the models that arrived in its mailbox, trains on local data, and pushes the
parameters to a random overlay neighbor.  There is no coordinator, no global
barrier — the properties the paper values for PDS2 (no bottleneck, no
aggregation black box, churn tolerance).

:func:`GossipTrainer` runs the protocol on the flat-array round kernels
(:class:`repro.kernels.gossip_kernel.GossipKernelTrainer`), which hold the
whole population in stacked arrays.  The protocol is defined so that a
round is a set of stacked matrix ops, and ``tests/kernels`` holds the
kernels byte-identical to a per-node reference engine (one object and one
simulator callback per node and per message) at matched seeds:

* **mailbox semantics** — received models are queued and merged at the
  receiver's next wake, not on receipt; a message sent from its sender's
  wake ``k`` is only mergeable at a receiver wake with index ``> k`` *and*
  time after its delivery.  This removes intra-round cross-node data
  dependencies;
* **single-draw streams** — each online wake consumes exactly one
  ``rng.random(D)`` vector (``D = (merges + local_steps) * take +
  push_count``) covering minibatch indices (floor-sampled with
  replacement) and peer picks, then one ``rng.normal`` block when DP noise
  is on, then one ``rng.choice`` of coordinates per push when messages are
  subsampled;
* wake timelines, link latencies, churn toggles, and evaluation sampling
  all come from shared helpers (:mod:`repro.kernels.ops`,
  :func:`repro.net.topology.edge_latencies`,
  :meth:`repro.net.churn.ChurnModel.precompute_timeline`).

A run records an accuracy-versus-time history plus full traffic
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import MLError
from repro.ml.compression import CompressionConfig
from repro.ml.datasets import Dataset
from repro.ml.merge import MergeStrategy
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.telemetry import metrics as _tm

#: Fixed per-message envelope overhead (headers, age, sample count).
MESSAGE_OVERHEAD_BYTES = 64

_WAKES = _tm.counter(
    "pds2_gossip_wakes_total", "Gossip node wake cycles that ran"
)
_MERGES = _tm.counter(
    "pds2_gossip_merges_total", "Model merges performed at wake time"
)
_PUSH_BYTES = _tm.histogram(
    "pds2_gossip_push_bytes", "Serialized size of pushed model messages",
    buckets=_tm.BYTES_BUCKETS,
)


@dataclass
class GossipConfig:
    """Protocol hyperparameters."""

    wake_interval_s: float = 10.0
    local_steps: int = 4
    batch_size: int = 16
    learning_rate: float = 0.1
    merge_strategy: MergeStrategy = MergeStrategy.AGE_WEIGHTED
    push_count: int = 1
    overlay_degree: int = 4
    compression: CompressionConfig = field(
        default_factory=CompressionConfig
    )
    dp_noise_std: float = 0.0  # Gaussian noise on every *shared* model

    def __post_init__(self) -> None:
        if self.wake_interval_s <= 0:
            raise MLError("wake interval must be positive")
        if self.local_steps < 1 or self.push_count < 1:
            raise MLError("local steps and push count must be >= 1")
        if self.batch_size < 1:
            raise MLError("batch size must be >= 1")
        if self.dp_noise_std < 0:
            raise MLError("dp noise std must be non-negative")


@dataclass
class GossipResult:
    """Outcome of one gossip run."""

    history: list[tuple[float, float]]          # (sim time, mean accuracy)
    final_mean_score: float
    final_online_score: float                   # mean over online nodes only
    bytes_delivered: int
    messages_delivered: int
    messages_dropped: int
    max_node_bytes: int                          # heaviest single node load
    per_node_scores: list[float] = field(default_factory=list)
    events_processed: int = 0                    # simulator events that ran
    wakes: int = 0                               # online wake cycles
    merges: int = 0                              # models merged at wakes


def eval_checkpoints(duration_s: float, eval_interval_s: float) -> np.ndarray:
    """The simulated times a trainer's ``run`` scores at: every
    ``eval_interval_s`` up to ``duration_s``.  Both must be finite and
    positive; anything else raises :class:`~repro.errors.MLError`."""
    for name, value in (("duration", duration_s),
                        ("eval interval", eval_interval_s)):
        if not (math.isfinite(value) and value > 0):
            raise MLError(f"{name} must be finite and positive, got {value}")
    return np.arange(eval_interval_s, duration_s + 1e-9, eval_interval_s)


def GossipTrainer(model_factory: Callable[[], Model],
                  partitions: list[Dataset], test_set: Dataset,
                  config: Optional[GossipConfig] = None, seed: int = 0,
                  churn: Optional[ChurnModel] = None,
                  upload_bytes_per_s: "float | list[float]" = 1_250_000.0):
    """Build a full gossip-learning deployment — the one public constructor.

    Returns a :class:`~repro.kernels.gossip_kernel.GossipKernelTrainer`
    (``run``, ``mean_score``, ``final_params``, ``final_ages``); a model
    with no vectorized family (:func:`repro.kernels.ops.family_of`) raises
    :class:`~repro.errors.MLError`.

    ``model_factory`` is called exactly once per partition, in index order
    (factories may be stateful).  Every partition needs at least one
    sample.  ``upload_bytes_per_s`` may be a single rate or one per node —
    the heterogeneous-devices setting of Section III-C; every rate must be
    positive and finite.
    """
    # Local import: the kernel module imports this one for the
    # config/result types, so the dependency must stay one-way at import
    # time.
    from repro.kernels.gossip_kernel import GossipKernelTrainer

    if len(partitions) < 2:
        raise MLError("gossip needs at least two providers")
    if any(len(part) == 0 for part in partitions):
        raise MLError("every provider needs at least one sample")
    if isinstance(upload_bytes_per_s, (int, float)):
        uplinks = [float(upload_bytes_per_s)] * len(partitions)
    else:
        uplinks = [float(rate) for rate in upload_bytes_per_s]
        if len(uplinks) != len(partitions):
            raise MLError("need one uplink rate per provider")
    if not all(math.isfinite(rate) and rate > 0 for rate in uplinks):
        raise MLError("uplink rates must be positive and finite")
    config = config if config is not None else GossipConfig()
    models = [model_factory() for _ in partitions]
    return GossipKernelTrainer(models, partitions, test_set, config,
                               seed=seed, churn=churn, uplinks=uplinks)
