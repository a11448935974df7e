"""Flat-array gossip engine: whole rounds as stacked matrix ops.

This is the engine :func:`repro.ml.gossip.GossipTrainer` builds for every
input.  All per-node state lives in preallocated arrays owned by
:class:`GossipKernelTrainer`:

* ``params``  — ``(N, P)`` model parameter matrix,
* ``ages``    — ``(N,)`` merge ages,
* ``X_pad`` / ``y_pad`` — ``(N, n_max, F)`` / ``(N, n_max)`` padded local
  datasets,
* ``adjacency`` / ``latency`` — ``(N, max_degree)`` overlay neighbor ids
  and per-link latencies in lexicographic peer-address order,
* churn as precomputed toggle timelines
  (:meth:`repro.net.churn.ChurnModel.precompute_timeline`).

A whole wake round becomes a handful of stacked kernels from
:mod:`repro.kernels.ops`: one ``(G, B, F) x (G, F, C)`` matmul per SGD
slot, elementwise convex combinations for merges (masked to the sent
coordinates when messages are subsampled), one vectorized pass for peer
picks, delivery times, drop checks, and traffic accounting.  Traffic
counters are charged in aggregate (``Counter.inc(n)``,
``Histogram.observe_repeated``).

**Byte-identity.**  ``tests/kernels`` runs a per-node reference engine
(``tests/kernels/gossip_oracle.py``: one object and one simulator callback
per node and per message) and holds the kernels equal to it at matched
seeds — same accuracy-versus-time history, final parameter bytes, traffic
counters and event counts.  Both follow the protocol and stream layout
documented in :mod:`repro.ml.gossip` and route every floating-point
operation through the same kernels, which are elementwise-stable under
stacking (see :mod:`repro.kernels.ops`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MLError
from repro.kernels.ops import (
    clamped_floor_indices,
    convex_combine_rows,
    counts_to_offsets,
    dequantize_rows,
    family_of,
    quantize_rows,
    sample_eval_indices,
    wake_schedule,
)
from repro.ml.compression import CompressionKind, compress
from repro.ml.datasets import Dataset
from repro.ml.gossip import (
    _MERGES,
    _PUSH_BYTES,
    _WAKES,
    GossipConfig,
    GossipResult,
    eval_checkpoints,
)
from repro.ml.merge import MergeStrategy
from repro.ml.models import Model
from repro.net.churn import ChurnModel
from repro.net.topology import (
    _MSG_DELIVERED,
    _MSG_DROPPED,
    _MSG_SENT,
    _NET_BYTES_DELIVERED,
    MEAN_LATENCY_S,
    edge_latencies,
    neighbors_map,
    random_regular_overlay,
)
from repro.telemetry.profiler import profiled
from repro.telemetry.tracing import tracer as _tracer
from repro.utils.rng import derive_rng

# A queued (delivered, not yet merged) message is a tuple:
#   (delivery_time, send_seq, params_row, age, samples, sender_round, mask)
# where mask marks the sent coordinates of a subsampled message (else None).
_T_D, _SEQ, _PARAMS, _AGE, _SAMPLES, _ROUND, _MASK = range(7)


class GossipKernelTrainer:
    """Array-of-structs → struct-of-arrays gossip engine.

    Construct via :func:`repro.ml.gossip.GossipTrainer` rather than
    directly; it validates the shared arguments and builds the models.
    ``models`` holds one fresh model per partition and ``uplinks`` one
    upload rate per partition.
    """

    def __init__(self, models: list[Model], partitions: list[Dataset],
                 test_set: Dataset, config: GossipConfig, seed: int,
                 churn: Optional[ChurnModel], uplinks: list[float]):
        family = family_of(models[0])
        if family is None:
            raise MLError(
                f"gossip has no vectorized family for "
                f"{type(models[0]).__name__}"
            )
        self.config = config
        self.seed = seed
        self.test_set = test_set
        num_nodes = len(partitions)
        self.num_nodes = num_nodes
        self.family = family
        self.params = np.stack([model.params for model in models])
        self.ages = np.zeros(num_nodes, dtype=np.int64)
        num_params = self.params.shape[1]

        # Local datasets, padded to the longest partition.  Padding rows are
        # never sampled (batch indices are floor(u * n_i) < n_i).
        self.samples = np.asarray([len(part) for part in partitions],
                                  dtype=np.int64)
        self.takes = np.minimum(config.batch_size, self.samples)
        n_max = int(self.samples.max())
        num_features = family.num_features
        self._X = np.zeros((num_nodes, n_max, num_features))
        self._y = np.zeros((num_nodes, n_max), dtype=np.int64)
        for index, part in enumerate(partitions):
            count = len(part)
            self._X[index, :count] = np.asarray(part.features, dtype=float)
            self._y[index, :count] = np.asarray(part.targets,
                                                dtype=np.int64)
        # Flat-row views: batch gathers index node*n_max + pick directly.
        self._n_max = n_max
        self._x_flat = self._X.reshape(num_nodes * n_max, num_features)
        self._y_flat = self._y.reshape(num_nodes * n_max)

        # Overlay + latencies: the topology rng draws the overlay first,
        # then one lognormal per edge; neighbors are laid out in
        # neighbors_map's lexicographic address order, which the
        # floor-sampled peer pick indexes into.
        topo_rng = derive_rng(seed, "gossip-topology")
        overlay = random_regular_overlay(
            num_nodes, min(config.overlay_degree, num_nodes - 1), topo_rng
        )
        peer_map = neighbors_map(overlay, self._address_of)
        latency_map = edge_latencies(overlay, topo_rng)
        both_ways = {}
        for (left, right), value in latency_map.items():
            both_ways[(left, right)] = value
            both_ways[(right, left)] = value
        self.degrees = np.asarray(
            [len(peer_map[self._address_of(i)]) for i in range(num_nodes)],
            dtype=np.int64,
        )
        max_degree = int(self.degrees.max())
        self.adjacency = np.zeros((num_nodes, max_degree), dtype=np.int64)
        self.latency = np.full((num_nodes, max_degree), MEAN_LATENCY_S)
        for index in range(num_nodes):
            peers = [int(addr.rsplit("-", 1)[1])
                     for addr in peer_map[self._address_of(index)]]
            self.adjacency[index, :len(peers)] = peers
            self.latency[index, :len(peers)] = [
                both_ways[(index, peer)] for peer in peers
            ]

        self.uplinks = np.asarray(uplinks, dtype=float)
        self.churn = churn
        self.rngs = [derive_rng(seed, f"gossip-node-{i}")
                     for i in range(num_nodes)]

        # Wire size is uniform across messages; probe it through the real
        # compressor so accounting can never drift from
        # CompressedUpdate.size_bytes.
        probe = compress(np.zeros(num_params), age=0, samples=0,
                         config=config.compression,
                         rng=derive_rng(seed, "gossip-size-probe"))
        self.message_size = probe.size_bytes
        #: Coordinates per subsampled message; None when not subsampling.
        self.subsample_count = (
            len(probe.indices)
            if config.compression.kind is CompressionKind.SUBSAMPLE
            else None
        )

        # Mailboxes and traffic accounting (filled during run()).
        self._pending: list[list[tuple]] = [[] for _ in range(num_nodes)]
        self.bytes_sent = np.zeros(num_nodes, dtype=np.int64)
        self.bytes_received = np.zeros(num_nodes, dtype=np.int64)
        self.bytes_delivered = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.events_processed = 0
        self.wakes = 0
        self.merges = 0
        self._send_seq = 0
        self._history: list[tuple[float, float]] = []

        # Churn timelines are materialized in run() (they need the horizon).
        self._initial_online = np.ones(num_nodes, dtype=bool)
        self._toggle_pad: np.ndarray | None = None

        self._test_X = np.asarray(test_set.features, dtype=float)
        self._test_y = np.asarray(test_set.targets, dtype=np.int64)

    @staticmethod
    def _address_of(index: int) -> str:
        return f"gossip-{index}"

    # -- availability -----------------------------------------------------------

    def _online_at(self, nodes: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
        """Vectorized churn lookup: online flags for node/time pairs.

        A node is online iff its initial state XOR an odd number of toggles
        at times ``<= t``: a toggle at ``t`` counts for a query at ``t``,
        as in the event-driven oracle, which installs churn first."""
        if self._toggle_pad is None:
            return np.ones(len(nodes), dtype=bool)
        flips = (self._toggle_pad[nodes] <= times[:, None]).sum(axis=1)
        return self._initial_online[nodes] ^ ((flips & 1) == 1)

    # -- evaluation -------------------------------------------------------------

    def mean_score(self) -> float:
        """Mean accuracy over the seeded node sample
        (:func:`~repro.kernels.ops.sample_eval_indices`)."""
        indices = sample_eval_indices(self.seed, self.num_nodes)
        return float(np.mean(self.family.scores(
            self.params[indices], self._test_X, self._test_y
        )))

    def final_params(self) -> np.ndarray:
        return self.params.copy()

    def final_ages(self) -> np.ndarray:
        return self.ages.copy()

    # -- the round kernel --------------------------------------------------------

    def _process_segment(self, node_ids: np.ndarray, times: np.ndarray,
                         wake_index: int, horizon: float) -> None:
        """Run one batch of same-round wakes (all at times <= the next
        checkpoint), whole-population at a time."""
        config = self.config
        self.events_processed += len(node_ids)  # every lane event fires
        online = self._online_at(node_ids, times)
        if not np.any(online):
            return
        act = node_ids[online]
        t_act = times[online]
        count = len(act)
        self.wakes += count
        _WAKES.inc(count)

        # Mailbox eligibility: strictly-earlier delivery AND strictly-lower
        # sender round; merge order is arrival order, i.e.
        # (delivery_time, send_seq).
        local_steps = config.local_steps
        push_count = config.push_count
        eligible: list[list[tuple]] = []
        merge_counts = np.zeros(count, dtype=np.int64)
        for pos in range(count):
            box = self._pending[act[pos]]
            if not box:
                eligible.append(box)
                continue
            t_wake = t_act[pos]
            mine = []
            keep = []
            for msg in box:
                if msg[_T_D] < t_wake and msg[_ROUND] < wake_index:
                    mine.append(msg)
                else:
                    keep.append(msg)
            if mine:
                self._pending[act[pos]] = keep
                mine.sort(key=lambda msg: (msg[_T_D], msg[_SEQ]))
                merge_counts[pos] = len(mine)
            eligible.append(mine)

        # The per-wake draws, in the stream layout of repro.ml.gossip: one
        # uniform vector covering (merges + local_steps) minibatches plus
        # the peer picks, then one normal block when DP noise is on, then
        # one coordinate choice per push when messages are subsampled.
        takes_act = self.takes[act]
        batch_uniforms: list[np.ndarray] = []
        push_uniforms = np.empty((count, push_count))
        noise: list[np.ndarray] = []
        dp_std = config.dp_noise_std
        num_params = self.params.shape[1]
        subsample = self.subsample_count
        masks = (np.zeros((count * push_count, num_params), dtype=bool)
                 if subsample is not None else None)
        for pos in range(count):
            rng = self.rngs[act[pos]]
            take = int(takes_act[pos])
            rows = int(merge_counts[pos]) + local_steps
            draw = rng.random(rows * take + push_count)
            batch_uniforms.append(draw[:rows * take].reshape(rows, take))
            push_uniforms[pos] = draw[rows * take:]
            if dp_std > 0:
                noise.append(rng.normal(0.0, dp_std,
                                        (push_count, num_params)))
            if masks is not None:
                for push in range(pos * push_count, (pos + 1) * push_count):
                    masks[push, rng.choice(num_params, size=subsample,
                                           replace=False)] = True

        work = self.params[act]          # gathered copies; scattered back
        ages_work = self.ages[act]       # at the end of the segment
        strategy = config.merge_strategy
        samples_act = self.samples[act]
        learning_rate = config.learning_rate
        n_max = self._n_max
        x_flat = self._x_flat
        y_flat = self._y_flat

        # Flatten the eligible messages node-major so each merge slot is a
        # fancy-index gather instead of per-slot Python stacking.
        offsets = counts_to_offsets(merge_counts)
        if int(offsets[-1]):
            msg_params = np.stack(
                [msg[_PARAMS] for mine in eligible for msg in mine]
            )
            msg_ages = np.asarray(
                [msg[_AGE] for mine in eligible for msg in mine],
                dtype=np.int64,
            )
            msg_samples = np.asarray(
                [msg[_SAMPLES] for mine in eligible for msg in mine],
                dtype=np.int64,
            )
            if masks is not None:
                msg_masks = np.stack(
                    [msg[_MASK] for mine in eligible for msg in mine]
                )

        def merge_slot(sub: np.ndarray, slot: int) -> None:
            """Merge the slot-th eligible message of each position in
            ``sub`` — elementwise convex combination, strategy-weighted,
            over the sent coordinates only when subsampling."""
            rows = offsets[sub] + slot
            remote = msg_params[rows]
            remote_age = msg_ages[rows]
            if strategy is MergeStrategy.AVERAGE:
                w_local = np.ones((len(sub), 1))
                w_remote = np.ones((len(sub), 1))
            elif strategy is MergeStrategy.SAMPLE_WEIGHTED:
                w_local = np.maximum(
                    1, samples_act[sub]
                ).astype(float)[:, None]
                w_remote = np.maximum(
                    1, msg_samples[rows]
                ).astype(float)[:, None]
            else:  # AGE_WEIGHTED
                w_local = np.maximum(1, ages_work[sub]).astype(
                    float)[:, None]
                w_remote = np.maximum(1, remote_age).astype(float)[:, None]
            merged = convex_combine_rows(work[sub], remote, w_local,
                                         w_remote)
            if masks is not None:
                merged = np.where(msg_masks[rows], merged, work[sub])
            work[sub] = merged
            ages_work[sub] = np.maximum(ages_work[sub], remote_age)
            self.merges += len(sub)
            _MERGES.inc(len(sub))

        # Nodes with different batch sizes (takes) cannot share a stacked
        # SGD call, but their wakes are causally independent within the
        # round, so each take-group runs its whole merge+train sequence
        # back to back.  Per node the order is (merge, correction step) per
        # eligible message, then the local steps.
        for take in np.unique(takes_act):
            take = int(take)
            positions = np.nonzero(takes_act == take)[0]
            m_group = merge_counts[positions]
            max_merges = int(m_group.max())
            # One dense uniform cube per group: row r of node g is the
            # minibatch draw for its r-th SGD step this wake.
            cube = np.zeros((len(positions), max_merges + local_steps, take))
            for index, pos in enumerate(positions):
                block = batch_uniforms[pos]
                cube[index, :block.shape[0]] = block
            ids = act[positions]
            row_base = (ids * n_max)[:, None]
            n_sub = self.samples[ids]

            def sgd_slot(inside: np.ndarray, row_index, cube=cube,
                         row_base=row_base, n_sub=n_sub, take=take,
                         positions=positions) -> None:
                uniforms = cube[inside, row_index]
                limits = np.repeat(n_sub[inside], take)
                picks = clamped_floor_indices(
                    uniforms.ravel(), limits
                ).reshape(len(inside), take)
                rows = row_base[inside] + picks
                stacked = work[positions[inside]]
                self.family.sgd_step(stacked, x_flat[rows], y_flat[rows],
                                     learning_rate)
                work[positions[inside]] = stacked

            with profiled("kernel.merge"):
                for slot in range(max_merges):
                    inside = np.nonzero(m_group > slot)[0]
                    merge_slot(positions[inside], slot)
                    sgd_slot(inside, slot)
                    ages_work[positions[inside]] += 1
            with profiled("kernel.train"):
                everyone = np.arange(len(positions))
                for step in range(local_steps):
                    sgd_slot(everyone, m_group + step)
                ages_work[positions] += local_steps

        # Push phase: every message of the segment in one vectorized pass,
        # flattened sender-major in event order (the send sequence).
        with profiled("kernel.push"):
            degrees_act = self.degrees[act]
            slot_limits = np.repeat(degrees_act, push_count)
            peer_slots = clamped_floor_indices(push_uniforms.ravel(),
                                               slot_limits)
            senders = np.repeat(act, push_count)
            send_times = np.repeat(t_act, push_count)
            receivers = self.adjacency[senders, peer_slots]
            link_latency = self.latency[senders, peer_slots]
            size = self.message_size
            _PUSH_BYTES.observe_repeated(size, len(senders))

            payload = np.repeat(work, push_count, axis=0)
            if dp_std > 0:
                payload += np.concatenate(noise, axis=0)
            if config.compression.kind is CompressionKind.QUANTIZE:
                codes, low, high = quantize_rows(
                    payload, config.compression.quantize_bits
                )
                payload = dequantize_rows(
                    codes, low, high, config.compression.quantize_bits
                )
            message_ages = np.repeat(ages_work, push_count)
            message_samples = np.repeat(samples_act, push_count)

            sent = self._online_at(receivers, send_times)
            dropped_at_send = int(len(senders) - sent.sum())
            sent_positions = np.nonzero(sent)[0]
            np.add.at(self.bytes_sent, senders[sent_positions], size)
            _MSG_SENT.inc(len(sent_positions))
            seqs = self._send_seq + np.arange(len(sent_positions))
            self._send_seq += len(sent_positions)

            delivery_times = (send_times[sent_positions]
                              + link_latency[sent_positions]
                              + size / self.uplinks[senders[sent_positions]])
            # Deliveries past the horizon stay in flight: they would fire
            # after the last checkpoint the run advances to.
            fires = delivery_times <= horizon
            self.events_processed += int(fires.sum())
            receiving = self._online_at(receivers[sent_positions],
                                        delivery_times) & fires
            dropped_at_delivery = int(fires.sum() - receiving.sum())
            self.messages_dropped += dropped_at_send + dropped_at_delivery
            _MSG_DROPPED.inc(dropped_at_send + dropped_at_delivery)

            landed = np.nonzero(receiving)[0]
            if len(landed):
                flat = sent_positions[landed]
                np.add.at(self.bytes_received, receivers[flat], size)
                self.messages_delivered += len(landed)
                self.bytes_delivered += size * len(landed)
                _MSG_DELIVERED.inc(len(landed))
                _NET_BYTES_DELIVERED.inc(size * len(landed))
                for offset, flat_pos in zip(landed, flat):
                    self._pending[receivers[flat_pos]].append((
                        float(delivery_times[offset]),
                        int(seqs[offset]),
                        payload[flat_pos],
                        int(message_ages[flat_pos]),
                        int(message_samples[flat_pos]),
                        wake_index,
                        masks[flat_pos] if masks is not None else None,
                    ))

        self.params[act] = work
        self.ages[act] = ages_work

    # -- driver -------------------------------------------------------------------

    def run(self, duration_s: float,
            eval_interval_s: float = 50.0) -> GossipResult:
        """Run the protocol for ``duration_s`` of simulated time, scoring
        the seeded node sample every ``eval_interval_s``."""
        config = self.config
        checkpoints = eval_checkpoints(duration_s, eval_interval_s)
        # Nothing runs past the last checkpoint, so that — not
        # duration_s — is the causal horizon.
        horizon = float(checkpoints[-1]) if len(checkpoints) else None

        if self.churn is not None and self.churn.mean_offline_s > 0:
            initial, toggles = self.churn.precompute_timeline(
                self.num_nodes, derive_rng(self.seed, "gossip-churn"),
                horizon if horizon is not None else 0.0,
            )
            self._initial_online = initial
            longest = max(len(t) for t in toggles)
            self._toggle_pad = np.full((self.num_nodes, max(longest, 1)),
                                       np.inf)
            for index, node_toggles in enumerate(toggles):
                self._toggle_pad[index, :len(node_toggles)] = node_toggles
            toggle_events = sum(len(t) for t in toggles)
        else:
            toggle_events = 0

        tracer = _tracer()
        with tracer.span("gossip.run", nodes=self.num_nodes,
                         duration_s=duration_s):
            # Wake timelines: the first draw on each node stream is the
            # random wake phase (desynchronization).
            firsts = np.asarray([
                float(rng.uniform(0, config.wake_interval_s))
                for rng in self.rngs
            ])
            schedules = [
                wake_schedule(first, config.wake_interval_s, duration_s)
                for first in firsts
            ]
            rounds = max((len(s) for s in schedules), default=0)
            cp_index = 0
            if horizon is not None:
                self.events_processed += toggle_events
                for wake_index in range(rounds):
                    with profiled("kernel.round"):
                        has = np.asarray([
                            len(s) > wake_index for s in schedules
                        ])
                        nodes_k = np.nonzero(has)[0]
                        times_k = firsts[nodes_k] + (
                            config.wake_interval_s * wake_index
                        )
                        inside = times_k <= horizon
                        nodes_k = nodes_k[inside]
                        times_k = times_k[inside]
                        if not len(nodes_k):
                            continue
                        # Event order within the round: (time, lane seq) =
                        # (time, node index).
                        order = np.lexsort((nodes_k, times_k))
                        nodes_k = nodes_k[order]
                        times_k = times_k[order]
                        position = 0
                        while position < len(times_k):
                            if (cp_index < len(checkpoints)
                                    and checkpoints[cp_index]
                                    < times_k[position]):
                                self._history.append((
                                    float(checkpoints[cp_index]),
                                    self.mean_score(),
                                ))
                                cp_index += 1
                                continue
                            bound = (checkpoints[cp_index]
                                     if cp_index < len(checkpoints)
                                     else horizon)
                            end = int(np.searchsorted(times_k, bound,
                                                      side="right"))
                            self._process_segment(
                                nodes_k[position:end],
                                times_k[position:end],
                                wake_index, horizon,
                            )
                            position = end
                while cp_index < len(checkpoints):
                    self._history.append((
                        float(checkpoints[cp_index]), self.mean_score()
                    ))
                    cp_index += 1

        per_node = self.family.scores(self.params, self._test_X,
                                      self._test_y)
        end_time = horizon if horizon is not None else 0.0
        online = self._online_at(
            np.arange(self.num_nodes),
            np.full(self.num_nodes, end_time),
        )
        online_scores = per_node[online]
        return GossipResult(
            history=list(self._history),
            final_mean_score=float(np.mean(per_node)),
            final_online_score=float(
                np.mean(online_scores) if len(online_scores)
                else np.mean(per_node)
            ),
            bytes_delivered=int(self.bytes_delivered),
            messages_delivered=int(self.messages_delivered),
            messages_dropped=int(self.messages_dropped),
            max_node_bytes=int(
                (self.bytes_sent + self.bytes_received).max()
            ),
            per_node_scores=[float(score) for score in per_node],
            events_processed=int(self.events_processed),
            wakes=int(self.wakes),
            merges=int(self.merges),
        )
