"""The per-node gossip engine: the reference the kernels are checked against.

:func:`repro.ml.gossip.GossipTrainer` runs every input on the flat-array
kernels (:mod:`repro.kernels.gossip_kernel`).  This module runs the same
protocol the direct way — one :class:`GossipNode` per participant on the
discrete-event network of ``tests/net/event_oracle.py``, one simulator
callback per wake and per message,
one :class:`~repro.ml.compression.CompressedUpdate` per push — drawing the
same ``derive_rng`` streams at the same positions.  ``tests/kernels``
holds the two byte-identical; E20 and
``benchmarks/profile_gossip_engines.py`` time the kernels against it.

Besides the engine it keeps the pieces of the old ``src/`` code that only
this engine entered: the event-lane simulator, per-link latencies, the
tracked model and the per-update merge.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import (
    MLError,
    ModelCompatibilityError,
    SimulationError,
)
from repro.kernels.ops import (
    clamped_floor_indices,
    convex_combine_rows,
    dequantize_rows,
    family_of,
    sample_eval_indices,
    wake_schedule,
)
from repro.ml.compression import (
    CompressedUpdate,
    CompressionKind,
    compress,
)
from repro.ml.datasets import Dataset
from repro.ml.gossip import (
    _MERGES,
    _PUSH_BYTES,
    _WAKES,
    GossipConfig,
    GossipResult,
)
from repro.ml.merge import MergeStrategy
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.net.topology import (
    edge_latencies,
    neighbors_map,
    random_regular_overlay,
)
from repro.telemetry.tracing import tracer as _tracer
from repro.utils.rng import derive_rng
from tests.net.event_oracle import Network, Simulator, install_churn


# -- the simulator and network the engine runs on ------------------------------


class _EventLane:
    """A pre-sorted timeline of events holding one heap slot at a time.

    Created by :meth:`LaneSimulator.schedule_batch`.  The lane keeps its
    own position cursor; firing the head re-pushes the next entry with its
    pre-allocated sequence number before running the callback, so events
    the callback schedules at the same instant still order after the lane.
    """

    __slots__ = ("_sim", "_times", "_fn", "_seq0", "_pos")

    def __init__(self, sim: "LaneSimulator", times: list[float],
                 fn: Callable[[int], None], seq0: int) -> None:
        self._sim = sim
        self._times = times
        self._fn = fn
        self._seq0 = seq0
        self._pos = 0

    def __call__(self) -> None:
        pos = self._pos
        self._pos = pos + 1
        if self._pos < len(self._times):
            heapq.heappush(
                self._sim._heap,
                [self._times[self._pos], self._seq0 + self._pos, self],
            )
        self._fn(pos)


class LaneSimulator(Simulator):
    """A :class:`~tests.net.event_oracle.Simulator` that also takes whole
    pre-sorted timelines (one *lane* each) while holding only the lane
    head in the heap."""

    def schedule_batch(self, times: Sequence[float],
                       fn: Callable[[int], None]) -> None:
        """Register a whole timeline of events as one heap *lane*.

        ``times`` are **absolute** simulation times, non-decreasing and
        ``>= now``; ``fn(i)`` runs at ``times[i]``.  Sequence numbers for
        every lane event are allocated contiguously at registration, so
        same-time ties against later individually scheduled events stay
        deterministic (the lane, registered first, wins).
        """
        times = [float(t) for t in times]
        if not times:
            return
        previous = self.now
        for t in times:
            if not math.isfinite(t):
                raise SimulationError(f"event time must be finite, got {t!r}")
            if t < previous:
                raise SimulationError(
                    "batch times must be non-decreasing and not in the past"
                )
            previous = t
        seq0 = self._seq
        self._seq = seq0 + len(times)
        lane = _EventLane(self, times, fn, seq0)
        heapq.heappush(self._heap, [times[0], seq0, lane])
        self._note_heap_size()


class LinkNetwork(Network):
    """A :class:`~tests.net.event_oracle.Network` with per-link latencies."""

    def __init__(self, simulator: Simulator):
        super().__init__(simulator)
        self._links: dict[tuple[str, str], float] = {}

    def set_link(self, src: str, dst: str, latency_s: float) -> None:
        """Override the latency of one directed link."""
        if latency_s < 0:
            raise SimulationError("latency must be non-negative")
        self._links[(src, dst)] = latency_s

    def link_latency(self, src: str, dst: str) -> float:
        return self._links.get((src, dst), super().link_latency(src, dst))


def assign_latencies(network: LinkNetwork, graph, address_of,
                     rng: np.random.Generator) -> None:
    """Set :func:`~repro.net.topology.edge_latencies`' draw for every edge
    of ``graph``, the same value both ways; ``address_of`` maps graph node
    ids to network addresses."""
    for (u, v), latency in edge_latencies(graph, rng).items():
        network.set_link(address_of(u), address_of(v), latency)
        network.set_link(address_of(v), address_of(u), latency)


# -- one update at a time ---------------------------------------------------------


@dataclass
class TrackedModel:
    """A model plus the merge-relevant bookkeeping.

    ``age`` counts absorbed updates (grows on every local step and is
    max-combined on merge, following the gossip-learning rule);
    ``samples`` is the size of the data the model was trained on.
    """

    model: Model
    age: int = 0
    samples: int = 0


def decompress_dense(update: CompressedUpdate) -> np.ndarray:
    """Reconstruct a dense vector from a NONE or QUANTIZE update."""
    if update.kind is CompressionKind.NONE:
        return update.values.copy()
    if update.kind is CompressionKind.QUANTIZE:
        return dequantize_rows(
            update.codes[None, :],
            np.asarray([update.scale_min]),
            np.asarray([update.scale_max]),
            update.quantize_bits,
        )[0]
    raise MLError("subsampled updates have no dense reconstruction; "
                  "merge them with merge_compressed_into")


def strategy_weights(local: TrackedModel, update: CompressedUpdate,
                     strategy: MergeStrategy) -> tuple[float, float]:
    """``(local, remote)`` merge weights under ``strategy``."""
    if strategy is MergeStrategy.AVERAGE:
        return 1.0, 1.0
    if strategy is MergeStrategy.SAMPLE_WEIGHTED:
        return float(max(1, local.samples)), float(max(1, update.samples))
    return float(max(1, local.age)), float(max(1, update.age))


def merge_compressed_into(local: TrackedModel, update: CompressedUpdate,
                          strategy: MergeStrategy) -> None:
    """Fold a compressed update into a local model in place.

    Dense/quantized updates merge like ordinary vectors.  Subsampled
    updates merge *coordinate-wise*: only the transmitted coordinates move,
    each toward the remote value with the strategy's weighting.
    """
    if update.num_params != local.model.num_params:
        raise ModelCompatibilityError("update has incompatible shape")
    local_weight, remote_weight = strategy_weights(local, update, strategy)
    params = local.model.params
    if update.kind is CompressionKind.SUBSAMPLE:
        params[update.indices] = convex_combine_rows(
            params[update.indices], update.values,
            local_weight, remote_weight,
        )
    else:
        params = convex_combine_rows(params, decompress_dense(update),
                                     local_weight, remote_weight)
    local.model.set_params(params)
    local.age = max(local.age, update.age)


# -- the per-node engine ------------------------------------------------------------


class GossipEnvelope:
    """A wire message: the compressed update plus its sender's wake index.

    Receivers only merge envelopes whose ``sender_round`` is strictly less
    than their own current wake index (the round-tag rule of
    :mod:`repro.ml.gossip`).
    """

    __slots__ = ("update", "sender_round")

    def __init__(self, update: CompressedUpdate, sender_round: int) -> None:
        self.update = update
        self.sender_round = sender_round


class GossipNode:
    """One gossip participant: local data, a tracked model, a wake loop."""

    def __init__(self, address: str, model: Model, data: Dataset,
                 config: GossipConfig, simulator: Simulator,
                 network: Network, rng: np.random.Generator):
        self.address = address
        self.tracked = TrackedModel(model=model, age=0, samples=len(data))
        self.config = config
        self.simulator = simulator
        self.network = network
        self.peers: list[str] = []
        self.rng = rng
        self.merges_performed = 0
        self.wakes = 0
        #: (delivery_time, envelope) pairs in delivery order.
        self.mailbox: list[tuple[float, GossipEnvelope]] = []
        self.family = family_of(model)
        self._features = np.asarray(data.features, dtype=float)
        self._targets = np.asarray(data.targets, dtype=np.int64)
        self._take = min(config.batch_size, len(data))
        self._limits = np.full(self._take, len(data), dtype=np.int64)

    def on_message(self, sender: str, message: GossipEnvelope) -> None:
        """Queue the delivered model for the next wake (mailbox semantics)."""
        self.mailbox.append((self.simulator.now, message))

    def on_wake(self, wake_index: int) -> None:
        """One wake cycle: merge eligible mail, train locally, push."""
        if not self.network.is_online(self.address):
            return  # consumes no randomness; mailbox is kept for later
        now = self.simulator.now
        self.wakes += 1
        _WAKES.inc()
        config = self.config
        eligible: list[GossipEnvelope] = []
        keep = []
        for entry in self.mailbox:
            if entry[0] < now and entry[1].sender_round < wake_index:
                eligible.append(entry[1])
            else:
                keep.append(entry)
        self.mailbox = keep
        # The single per-wake uniform draw: batch indices for every merge
        # correction and local step, then one peer pick per push.
        draws = self.rng.random(
            (len(eligible) + config.local_steps) * self._take
            + config.push_count
        )
        cursor = 0
        for envelope in eligible:
            merge_compressed_into(self.tracked, envelope.update,
                                  config.merge_strategy)
            self.merges_performed += 1
            _MERGES.inc()
            cursor = self._sgd_step(draws, cursor)
            self.tracked.age += 1
        for _ in range(config.local_steps):
            cursor = self._sgd_step(draws, cursor)
        self.tracked.age += config.local_steps
        noise = None
        if config.dp_noise_std > 0:
            noise = self.rng.normal(
                0.0, config.dp_noise_std,
                (config.push_count, self.tracked.model.num_params),
            )
        degree = len(self.peers)
        for push in range(config.push_count):
            peer_index = int(draws[cursor] * degree)
            cursor += 1
            peer = self.peers[min(peer_index, degree - 1)]
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
        """One minibatch step from the pre-drawn uniform vector, through
        the shared stacked kernel with G == 1."""
        take = self._take
        index = clamped_floor_indices(draws[cursor:cursor + take],
                                      self._limits)
        params = self.tracked.model._params[None, :]
        self.family.sgd_step(params, self._features[index][None, :, :],
                             self._targets[index][None, :],
                             self.config.learning_rate)
        return cursor + take


class GossipNodeTrainer:
    """One :class:`GossipNode` per participant on the event-driven network.

    Takes :class:`~repro.kernels.gossip_kernel.GossipKernelTrainer`'s
    arguments: one fresh model and one upload rate per partition.
    """

    def __init__(self, models: list[Model], partitions: list[Dataset],
                 test_set: Dataset, config: GossipConfig, seed: int,
                 churn: Optional[ChurnModel], uplinks: list[float]):
        self.config = config
        self.seed = seed
        self.simulator = LaneSimulator()
        self.network = LinkNetwork(self.simulator)
        topo_rng = derive_rng(seed, "gossip-topology")
        overlay = random_regular_overlay(
            len(partitions), min(config.overlay_degree, len(partitions) - 1),
            topo_rng,
        )
        self.nodes: list[GossipNode] = []
        for index, part in enumerate(partitions):
            address = self._address_of(index)
            node = GossipNode(
                address=address, model=models[index], data=part,
                config=config, simulator=self.simulator,
                network=self.network,
                rng=derive_rng(seed, f"gossip-node-{index}"),
            )
            self.nodes.append(node)
            self.network.attach(address, node,
                                upload_bytes_per_s=uplinks[index])
        peer_map = neighbors_map(overlay, self._address_of)
        for node in self.nodes:
            node.peers = peer_map[node.address]
        assign_latencies(self.network, overlay, self._address_of, topo_rng)
        if churn is not None:
            install_churn(churn, self.simulator, self.network,
                          [node.address for node in self.nodes],
                          derive_rng(seed, "gossip-churn"))
        self.family = self.nodes[0].family
        self._test_features = np.asarray(test_set.features, dtype=float)
        self._test_targets = np.asarray(test_set.targets, dtype=np.int64)

    @staticmethod
    def _address_of(index: int) -> str:
        return f"gossip-{index}"

    def _node_scores(self, indices: np.ndarray) -> np.ndarray:
        params = np.stack([self.nodes[i].tracked.model._params
                           for i in indices])
        return self.family.scores(params, self._test_features,
                                  self._test_targets)

    def mean_score(self) -> float:
        """Mean test score over the kernels' seeded node sample."""
        indices = sample_eval_indices(self.seed, len(self.nodes))
        return float(np.mean(self._node_scores(indices)))

    def final_params(self) -> np.ndarray:
        return np.stack([node.tracked.model.params for node in self.nodes])

    def final_ages(self) -> np.ndarray:
        return np.asarray([node.tracked.age for node in self.nodes],
                          dtype=np.int64)

    def run(self, duration_s: float,
            eval_interval_s: float = 50.0) -> GossipResult:
        """Run the protocol for ``duration_s`` of simulated time."""
        with _tracer().span("gossip.run", nodes=len(self.nodes),
                            duration_s=duration_s):
            for node in self.nodes:
                # First draw on each node stream: the random wake phase.
                # The whole timeline goes into one lane so wake times are
                # the kernels' exact floats.
                first = float(node.rng.uniform(
                    0, self.config.wake_interval_s
                ))
                self.simulator.schedule_batch(
                    wake_schedule(first, self.config.wake_interval_s,
                                  duration_s),
                    node.on_wake,
                )
            history: list[tuple[float, float]] = []
            for checkpoint in np.arange(eval_interval_s, duration_s + 1e-9,
                                        eval_interval_s):
                self.simulator.run_until(float(checkpoint))
                history.append((float(checkpoint), self.mean_score()))
        per_node = self._node_scores(np.arange(len(self.nodes)))
        online_scores = [
            score for node, score in zip(self.nodes, per_node)
            if self.network.is_online(node.address)
        ]
        stats = self.network.stats
        return GossipResult(
            history=history,
            final_mean_score=float(np.mean(per_node)),
            final_online_score=float(
                np.mean(online_scores) if online_scores
                else np.mean(per_node)
            ),
            bytes_delivered=stats.bytes_delivered,
            messages_delivered=stats.messages_delivered,
            messages_dropped=stats.messages_dropped,
            max_node_bytes=max(
                self.network.node_state(node.address).bytes_sent
                + self.network.node_state(node.address).bytes_received
                for node in self.nodes
            ),
            per_node_scores=[float(score) for score in per_node],
            events_processed=self.simulator.events_processed,
            wakes=sum(node.wakes for node in self.nodes),
            merges=sum(node.merges_performed for node in self.nodes),
        )
