"""Gossip learning (paper Section III-C, the selected aggregation method).

Implements the Ormándi-style protocol: every node periodically wakes, merges
the models that arrived in its mailbox, trains on local data, and pushes the
parameters to a random overlay neighbor.  There is no coordinator, no global
barrier — the properties the paper values for PDS2 (no bottleneck, no
aggregation black box, churn tolerance).

Two engines implement the identical protocol, and :func:`GossipTrainer`
picks one from its inputs — there is no engine option:

* the flat-array round kernels over the whole population
  (:class:`repro.kernels.gossip_kernel.GossipKernelTrainer`) run whenever
  they can: the model has a vectorized family
  (:func:`repro.kernels.ops.family_of`) and messages are not subsampled.
  Byte-identical to the per-node engine at matched seeds and ≥10× faster
  at hundreds of nodes;
* :class:`GossipNodeTrainer` — one :class:`GossipNode` per participant on
  the discrete-event :class:`~repro.net.simulator.Network` (this module) —
  runs everything else (SUBSAMPLE compression draws coordinates per
  message; every model but softmax regression has no stacked kernels),
  and is the reference ``tests/kernels`` compares the kernels against.

Determinism discipline (shared by both engines, enforced by
``tests/kernels``):

* **mailbox semantics** — received models are queued and merged at the
  receiver's next wake, not on receipt; a message sent from its sender's
  wake ``k`` is only mergeable at a receiver wake with index ``> k`` *and*
  time after its delivery.  This removes intra-round cross-node data
  dependencies, which is what lets the kernel engine compute a whole round
  as stacked matrix ops;
* **single-draw streams** — each online wake consumes exactly one
  ``rng.random(D)`` vector (``D = (merges + local_steps) * take +
  push_count``) covering minibatch indices (floor-sampled with
  replacement) and peer picks, plus one ``rng.normal`` block when DP noise
  is on.  Both engines issue the same calls at the same stream positions;
* wake timelines, link latencies, churn toggles, and evaluation sampling
  all come from shared helpers (:mod:`repro.kernels.ops`,
  :func:`repro.net.topology.edge_latencies`,
  :meth:`repro.net.churn.ChurnModel.precompute_timeline`).

Either trainer runs the protocol for simulated time and records an
accuracy-versus-time history plus full traffic accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import MLError
from repro.kernels.ops import (
    clamped_floor_indices,
    family_of,
    sample_eval_indices,
    wake_schedule,
)
from repro.ml.compression import (
    CompressedUpdate,
    CompressionConfig,
    CompressionKind,
    compress,
    merge_compressed_into,
)
from repro.ml.datasets import Dataset
from repro.ml.merge import MergeStrategy, TrackedModel
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.net.simulator import Network, Simulator
from repro.net.topology import (
    assign_latencies,
    neighbors_map,
    random_regular_overlay,
)
from repro.telemetry import metrics as _tm
from repro.telemetry.profiler import profiled_function
from repro.telemetry.tracing import tracer as _tracer
from repro.utils.rng import derive_rng

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
        if self.dp_noise_std < 0:
            raise MLError("dp noise std must be non-negative")


class GossipEnvelope:
    """A wire message: the compressed update plus its sender's wake index.

    The wake index implements the round-tag eligibility rule (see module
    docstring): receivers only merge envelopes whose ``sender_round`` is
    strictly less than their own current wake index.
    """

    __slots__ = ("update", "sender_round")

    def __init__(self, update: CompressedUpdate, sender_round: int) -> None:
        self.update = update
        self.sender_round = sender_round


class GossipNode:
    """One gossip participant: local data, a tracked model, a wake loop."""

    def __init__(self, address: str, model: Model, data: Dataset,
                 config: GossipConfig, simulator: Simulator,
                 network: Network, peers: list[str],
                 rng: np.random.Generator):
        self.address = address
        self.tracked = TrackedModel(model=model, age=0, samples=len(data))
        self.data = data
        self.config = config
        self.simulator = simulator
        self.network = network
        self.peers = list(peers)
        self.rng = rng
        self.merges_performed = 0
        self.wakes = 0
        #: (delivery_time, envelope) pairs in delivery order.
        self.mailbox: list[tuple[float, GossipEnvelope]] = []
        self.family = family_of(model)
        self._features = np.asarray(data.features, dtype=float)
        self._targets = (np.asarray(data.targets, dtype=np.int64)
                         if self.family is not None
                         else np.asarray(data.targets))
        self._take = min(config.batch_size, len(data))
        self._limits = np.full(self._take, len(data), dtype=np.int64)

    # -- protocol --------------------------------------------------------------

    def on_message(self, sender: str, message: GossipEnvelope) -> None:
        """Queue the delivered model for the next wake (mailbox semantics)."""
        self.mailbox.append((self.simulator.now, message))

    @profiled_function("gossip.wake")
    def on_wake(self, wake_index: int) -> None:
        """One wake cycle: merge eligible mail, train locally, push."""
        if not self.network.is_online(self.address):
            return  # consumes no randomness; mailbox is kept for later
        now = self.simulator.now
        self.wakes += 1
        _WAKES.inc()
        config = self.config
        eligible: list[GossipEnvelope] = []
        if self.mailbox:
            keep = []
            for entry in self.mailbox:
                if (entry[0] < now
                        and entry[1].sender_round < wake_index):
                    eligible.append(entry[1])
                else:
                    keep.append(entry)
            self.mailbox = keep
        take = self._take
        # The single per-wake uniform draw: batch indices for every merge
        # correction and local step, then one peer pick per push.
        draws = self.rng.random(
            (len(eligible) + config.local_steps) * take + config.push_count
        )
        cursor = 0
        for envelope in eligible:
            merge_compressed_into(self.tracked, envelope.update,
                                  config.merge_strategy)
            self.merges_performed += 1
            _MERGES.inc()
            if take:
                cursor = self._sgd_step(draws, cursor)
                self.tracked.age += 1
        if take:
            for _ in range(config.local_steps):
                cursor = self._sgd_step(draws, cursor)
            self.tracked.age += config.local_steps
        noise = None
        if config.dp_noise_std > 0:
            # Local DP: only a noised view of the model ever leaves the
            # node, bounding what any recipient learns about local data.
            noise = self.rng.normal(
                0.0, config.dp_noise_std,
                (config.push_count, self.tracked.model.num_params),
            )
        degree = len(self.peers)
        for push in range(config.push_count):
            pick = draws[cursor]
            cursor += 1
            if not degree:
                continue
            peer_index = int(pick * degree)
            if peer_index >= degree:
                peer_index = degree - 1
            peer = self.peers[peer_index]
            shared_params = self.tracked.model.params
            if noise is not None:
                shared_params = shared_params + noise[push]
            update = compress(
                shared_params,
                age=self.tracked.age,
                samples=self.tracked.samples,
                config=config.compression,
                rng=self.rng,
            )
            _PUSH_BYTES.observe(update.size_bytes)
            self.network.send(self.address, peer,
                              GossipEnvelope(update, wake_index),
                              update.size_bytes)

    def _sgd_step(self, draws: np.ndarray, cursor: int) -> int:
        """One minibatch step from the pre-drawn uniform vector."""
        take = self._take
        index = clamped_floor_indices(draws[cursor:cursor + take],
                                      self._limits)
        batch_x = self._features[index]
        batch_y = self._targets[index]
        if self.family is not None:
            # The shared stacked kernel with G == 1: bit-identical to the
            # kernel engine's whole-population call.
            params = self.tracked.model.params_buffer()[None, :]
            self.family.sgd_step(params, batch_x[None, :, :],
                                 batch_y[None, :],
                                 self.config.learning_rate)
        else:
            self.tracked.model.sgd_step(batch_x, batch_y,
                                        self.config.learning_rate)
        return cursor + take


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


def GossipTrainer(model_factory: Callable[[], Model],
                  partitions: list[Dataset], test_set: Dataset,
                  config: Optional[GossipConfig] = None, seed: int = 0,
                  churn: Optional[ChurnModel] = None,
                  upload_bytes_per_s: "float | list[float]" = 1_250_000.0):
    """Build a full gossip-learning deployment — the one public constructor.

    Returns the flat-array
    :class:`~repro.kernels.gossip_kernel.GossipKernelTrainer` when the model
    has a vectorized family and messages are not subsampled, and the
    :class:`GossipNodeTrainer` otherwise; both expose ``run``,
    ``mean_score``, ``final_params`` and ``final_ages`` and are
    byte-identical where both can run.

    ``model_factory`` is called exactly once per partition, in index order,
    whichever engine runs (factories may be stateful).
    ``upload_bytes_per_s`` may be a single rate or one per node — the
    heterogeneous-devices setting of Section III-C.
    """
    if len(partitions) < 2:
        raise MLError("gossip needs at least two providers")
    if isinstance(upload_bytes_per_s, (int, float)):
        uplinks = [float(upload_bytes_per_s)] * len(partitions)
    else:
        uplinks = [float(rate) for rate in upload_bytes_per_s]
        if len(uplinks) != len(partitions):
            raise MLError("need one uplink rate per provider")
    config = config if config is not None else GossipConfig()
    models = [model_factory() for _ in partitions]
    engine = GossipNodeTrainer
    if (family_of(models[0]) is not None
            and config.compression.kind is not CompressionKind.SUBSAMPLE):
        # Local import: the kernel module imports this one for the
        # config/result types, so the dependency must stay one-way at
        # import time.
        from repro.kernels.gossip_kernel import GossipKernelTrainer

        engine = GossipKernelTrainer
    return engine(models, partitions, test_set, config, seed=seed,
                  churn=churn, uplinks=uplinks)


class GossipNodeTrainer:
    """The per-node engine: one :class:`GossipNode` per participant on the
    event-driven network.

    Built by :func:`GossipTrainer` for the inputs the kernels cannot run;
    named directly only where a test or benchmark wants this engine in
    particular.  ``models`` holds one fresh model per partition and
    ``uplinks`` one upload rate per partition.
    """

    def __init__(self, models: list[Model], partitions: list[Dataset],
                 test_set: Dataset, config: GossipConfig, seed: int,
                 churn: Optional[ChurnModel], uplinks: list[float]):
        self.config = config
        self.test_set = test_set
        self.seed = seed
        self.simulator = Simulator()
        self.network = Network(self.simulator)
        topo_rng = derive_rng(seed, "gossip-topology")
        overlay = random_regular_overlay(
            len(partitions),
            min(self.config.overlay_degree, len(partitions) - 1),
            topo_rng,
        )
        address_of = self._address_of
        self.nodes: list[GossipNode] = []
        for index, part in enumerate(partitions):
            address = address_of(index)
            node_rng = derive_rng(seed, f"gossip-node-{index}")
            node = GossipNode(
                address=address, model=models[index], data=part,
                config=self.config, simulator=self.simulator,
                network=self.network, peers=[], rng=node_rng,
            )
            self.nodes.append(node)
            self.network.attach(address, node,
                                upload_bytes_per_s=uplinks[index])
        peer_map = neighbors_map(overlay, address_of)
        for index, node in enumerate(self.nodes):
            node.peers = peer_map[address_of(index)]
        assign_latencies(self.network, overlay, address_of, topo_rng)
        if churn is not None:
            churn.install(self.simulator, self.network,
                          [node.address for node in self.nodes],
                          derive_rng(seed, "gossip-churn"))
        self.family = self.nodes[0].family
        self._test_features = np.asarray(test_set.features, dtype=float)
        self._test_targets = (
            np.asarray(test_set.targets, dtype=np.int64)
            if self.family is not None else np.asarray(test_set.targets)
        )

    @staticmethod
    def _address_of(index: int) -> str:
        return f"gossip-{index}"

    # -- evaluation ---------------------------------------------------------------

    def _node_scores(self, indices: np.ndarray) -> np.ndarray:
        """Test scores for the given node indices, one stacked matmul when
        the model family supports it."""
        if self.family is not None:
            params = np.stack([
                self.nodes[i].tracked.model.params_buffer()
                for i in indices
            ])
            return self.family.scores(params, self._test_features,
                                      self._test_targets)
        return np.asarray([
            self.nodes[i].tracked.model.score(self.test_set.features,
                                              self.test_set.targets)
            for i in indices
        ])

    def mean_score(self) -> float:
        """Mean test score over a seeded sample of nodes.

        Sampling is deterministic via ``derive_rng(seed, "gossip-eval")``,
        shared with the kernel engine so accuracy histories match.
        """
        indices = sample_eval_indices(self.seed, len(self.nodes))
        return float(np.mean(self._node_scores(indices)))

    def final_params(self) -> np.ndarray:
        """The ``(nodes, params)`` parameter matrix (differential testing)."""
        return np.stack([node.tracked.model.params for node in self.nodes])

    def final_ages(self) -> np.ndarray:
        """Per-node model ages (differential testing)."""
        return np.asarray([node.tracked.age for node in self.nodes],
                          dtype=np.int64)

    def run(self, duration_s: float,
            eval_interval_s: float = 50.0) -> GossipResult:
        """Run the protocol for ``duration_s`` of simulated time."""
        tracer = _tracer()
        saved_clock = tracer.sim_clock
        # Gossip runs on the discrete-event simulator's clock, not the
        # marketplace lifecycle clock; rebind for the duration of the run so
        # span sim-durations line up with ``history`` timestamps.
        tracer.sim_clock = lambda: self.simulator.now
        try:
            with tracer.span("gossip.run", nodes=len(self.nodes),
                             duration_s=duration_s) as root:
                for node in self.nodes:
                    # First draw on each node stream: the random wake phase
                    # (desynchronization).  The whole timeline goes into one
                    # simulator lane so wake times are the exact
                    # ``first + k*interval`` floats the kernel engine uses.
                    first = float(node.rng.uniform(
                        0, self.config.wake_interval_s
                    ))
                    times = wake_schedule(
                        first, self.config.wake_interval_s, duration_s
                    )
                    if len(times):
                        self.simulator.schedule_batch(times, node.on_wake)
                history: list[tuple[float, float]] = []
                checkpoints = np.arange(eval_interval_s, duration_s + 1e-9,
                                        eval_interval_s)
                for checkpoint in checkpoints:
                    with tracer.span("gossip.interval",
                                     until_s=float(checkpoint)) as interval:
                        self.simulator.run_until(float(checkpoint))
                        score = self.mean_score()
                        interval.set_attribute("mean_score", score)
                    history.append((float(checkpoint), score))
                root.set_attribute(
                    "messages", self.network.stats.messages_delivered
                )
                root.set_attribute("bytes", self.network.stats.bytes_delivered)
        finally:
            tracer.sim_clock = saved_clock
        per_node = self._node_scores(np.arange(len(self.nodes)))
        online_scores = [
            score for node, score in zip(self.nodes, per_node)
            if self.network.is_online(node.address)
        ]
        max_node_bytes = max(
            self.network.node_state(node.address).bytes_sent
            + self.network.node_state(node.address).bytes_received
            for node in self.nodes
        )
        return GossipResult(
            history=history,
            final_mean_score=float(np.mean(per_node)),
            final_online_score=float(
                np.mean(online_scores) if online_scores
                else np.mean(per_node)
            ),
            bytes_delivered=self.network.stats.bytes_delivered,
            messages_delivered=self.network.stats.messages_delivered,
            messages_dropped=self.network.stats.messages_dropped,
            max_node_bytes=max_node_bytes,
            per_node_scores=[float(score) for score in per_node],
            events_processed=self.simulator.events_processed,
            wakes=sum(node.wakes for node in self.nodes),
            merges=sum(node.merges_performed for node in self.nodes),
        )
