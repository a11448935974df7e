"""Flat-array simulation kernels for the gossip/net/ML hot loops.

The package provides the engine :func:`repro.ml.gossip.GossipTrainer`
builds for every input: per-node state held in preallocated numpy arrays,
whole wake rounds run as batched kernels.  See :mod:`repro.kernels.ops`
for the complexity contract and the determinism rules that make kernel
runs byte-identical to the per-node test oracle at matched seeds.
"""
