"""
Three evaluators, one answer
============================

The same circuits evaluated by the dense state vector, by the batched
density-matrix walk, which allocates and retires wires on the fly, and by
the channel tree the trainer uses, which runs each layer's group template
as two-input channels compiled from its gates.  The walk is what makes the
64-wire lattice affordable to any plan: it never holds more than nine
wires at once.  The channel tree never holds more than a wire pair.
"""

import time

import numpy as np

from qcnn import (
    Architecture,
    FrontierWidthError,
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
print(f"channel tree:       {tree:.12f}  ({t_tree * 1000:.1f} ms, compiles its channels on first use)")
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
print(f"same, channel tree:      {deep_tree:.12f}  ({(time.perf_counter() - t0) * 1000:.1f} ms)")
assert deep_tree == value

# the width cap is a guard rail, not a suggestion
try:
    run_plan(deep, deep_encode, deep_params, width_cap=4)
except FrontierWidthError as exc:
    print("cap of 4 refused as expected:", exc)
