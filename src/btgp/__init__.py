"""Behavior-tree policy learning with genetic programming on a fast
state-machine world model."""

from .bt import (
    FAILURE,
    SUCCESS,
    MalformedGenotype,
    compile_tree,
    parse,
    validate,
)
from .fitness import TABLE2, FitnessValue, FitnessWeights, cost, evaluate
from .gp import GenerationStats, GpParams, Individual, run
from .world import (
    Profile,
    build_transition_table,
    make_profile,
)

__all__ = [
    "SUCCESS",
    "FAILURE",
    "MalformedGenotype",
    "compile_tree",
    "parse",
    "validate",
    "FitnessWeights",
    "FitnessValue",
    "TABLE2",
    "cost",
    "evaluate",
    "GpParams",
    "GenerationStats",
    "Individual",
    "run",
    "Profile",
    "build_transition_table",
    "make_profile",
]
