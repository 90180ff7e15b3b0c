"""Variational image classifiers on pixel lattices, with dense and
frontier-limited batched circuit simulation, shot sampling, and a
reproducible training protocol.

The package namespace re-exports the names the README, the demos and the
benchmark read; everything else is imported from its submodule.
"""

from .baseline import (
    ClassicalKernel,
    classical_evaluate,
    classical_forward,
    classical_loss_and_grad,
    classical_train,
    classical_update,
)
from .dataset import LabeledImage, gen_dataset
from .encoding import pixel_to_angle
from .gates import Angle, GateKind, GateOp
from .network import Architecture, ModelParams, build_plan, conv_feature_map, group_plan
from .pgm import read_pgm, write_pgm
from .plans import CircuitPlan
from .runner import FrontierWidthError, run_plan, run_plan_batch
from .statevec import PureState, apply_gate, exact_prob_one, run_pure
from .training import TrainConfig, TrainingObjective, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Angle", "Architecture", "CircuitPlan", "ClassicalKernel", "FrontierWidthError", "GateKind",
    "GateOp", "LabeledImage", "ModelParams", "PureState", "TrainConfig", "TrainingObjective",
    "apply_gate", "build_plan", "classical_evaluate", "classical_forward",
    "classical_loss_and_grad", "classical_train", "classical_update", "conv_feature_map",
    "evaluate", "exact_prob_one", "gen_dataset", "group_plan", "pixel_to_angle", "read_pgm",
    "run_plan", "run_plan_batch", "run_pure", "train", "write_pgm",
]
