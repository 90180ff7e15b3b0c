"""
Three evaluators, one answer
============================

The same circuits evaluated by the dense state vector, by the batched
density-matrix walk, which allocates and retires wires on the fly, and by
the factored readout the trainer uses.  The walk is what makes the 64-wire
lattice affordable to any plan: it never holds more than nine wires at
once.  The trainer needs no circuit per image at all: each layer's group
template runs as two-input channels on real Bloch vectors, compiled from
its gates, once on an all-black image, and that kernel factor F times the
product of cos(angle) over the image's pixels is 1 - 2 p1.  All three
agree to rounding.
"""

import time

import numpy as np

from qcnn import (
    Architecture,
    ModelParams,
    TrainConfig,
    TrainingObjective,
    build_plan,
    run_plan,
    run_pure,
)

rng = np.random.default_rng(7)

# a 16-wire plan: 4x4 image, one window layer, two pooling layers.  a dim
# constant image and small kernel angles keep the readout visibly away from
# one half; wide-angle products over 16 wires collapse toward 0.5
plan, _ = build_plan(Architecture.CONV_POOL_POOL)
encode = np.pi * np.full(16, 30.0) / 255.0
params = ModelParams((rng.uniform(-0.4, 0.4, 4),))

print("plan: 16 wires,", len(plan.gates), "gates, peak live width",
      plan.peak_active_width())

t0 = time.perf_counter()
dense = run_pure(plan, encode, params)
t_dense = time.perf_counter() - t0

t0 = time.perf_counter()
batched = run_plan(plan, encode, params)
t_batched = time.perf_counter() - t0

# the trainer's readout of the same image: pixels of intensity 30
t0 = time.perf_counter()
config = TrainConfig(arch=Architecture.CONV_POOL_POOL)
tree = TrainingObjective(config, np.full((1, 16), 30), np.zeros(1)).p1(params)[0]
t_tree = time.perf_counter() - t0

print(f"dense state vector: {dense:.12f}  ({t_dense * 1000:.1f} ms)")
print(f"batched engine:     {batched:.12f}  ({t_batched * 1000:.1f} ms)")
print(f"factored readout:   {tree:.12f}  ({t_tree * 1000:.1f} ms, compiles its channels on first use)")
assert abs(tree - dense) < 1e-12

# the 64-wire plan would need a 2**64 state vector; the batched engine
# runs it in milliseconds because retired wires leave the density matrix
deep, _ = build_plan(Architecture.CONV_POOL_CONV_POOL)
deep_encode = np.pi * np.full(64, 10.0) / 255.0
deep_params = ModelParams((rng.uniform(-0.3, 0.3, 4), rng.uniform(-0.3, 0.3, 4)))

t0 = time.perf_counter()
value = run_plan(deep, deep_encode, deep_params)
print(f"\n64-wire lattice readout: {value:.12f}  "
      f"({(time.perf_counter() - t0) * 1000:.1f} ms, peak width {deep.peak_active_width()})")
t0 = time.perf_counter()
deep_config = TrainConfig(arch=Architecture.CONV_POOL_CONV_POOL)
deep_tree = TrainingObjective(deep_config, np.full((1, 64), 10), np.zeros(1)).p1(deep_params)[0]
print(f"same, factored readout:  {deep_tree:.12f}  ({(time.perf_counter() - t0) * 1000:.1f} ms)")
print(f"factored readout - batched engine: {abs(deep_tree - value):.1e}")
assert abs(deep_tree - value) <= 1e-12
