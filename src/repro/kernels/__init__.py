"""Flat-array simulation kernels for the gossip/net/ML hot loops.

The package provides the *kernel engine* that
:func:`repro.ml.gossip.GossipTrainer` hands back for every input it
supports: per-node object state refactored into preallocated numpy arrays,
per-message callbacks replaced by batched round kernels.  See
:mod:`repro.kernels.ops` for the complexity contract and the determinism
rules that make kernel runs byte-identical to the per-node engine at
matched seeds.
"""
