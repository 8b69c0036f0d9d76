"""Cost and fitness functions for episode outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bt import Genotype, compile_tree, node_count
from .world import (
    GOAL_POSE,
    MAX_ROOT_FAILURES,
    MAX_TICKS,
    EpisodeResult,
    Profile,
    build_transition_table,
    check_budgets,
    draws_nothing,
    run_compiled,
)


# Table 2's fixed cost weights, the same in every run: squared distances
# (cube-goal, robot-cube, localization error), tree length and execution
# time are costs; picking and placing are rewarded (negative cost).
ALPHA1 = 10.0  # cube-goal distance
ALPHA2 = 2.0  # robot-cube distance
ALPHA3 = 1.0  # localization error
BETA = 0.5  # tree length
GAMMA = 0.1  # execution time
PICK_REWARD = 50.0
PLACE_REWARD = 100.0


@dataclass(frozen=True)
class FitnessWeights:
    """The cost weight a run chooses: ``delta``, the weight of the
    accumulated failure probability (exp3's risk weight). The other weights
    are the module constants above; a checkpoint binds this as its
    ``weights`` section and those as its ``fitness`` section."""

    delta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.delta):  # a NaN weight would score every tree NaN
            raise ValueError(f"weight delta must be finite, got {self.delta}")


TABLE2 = FitnessWeights()


@dataclass(frozen=True, slots=True)
class FitnessValue:
    """Fitness J = -cost, with the cost broken down by term.

    The breakdown sums to the cost exactly: cost is computed as
    distance_term + length_term + time_term + risk_term - rewards in that
    fixed order, and j is its negation.
    """

    j: float
    distance_term: float
    length_term: float
    time_term: float
    risk_term: float
    rewards: float

    @property
    def cost(self) -> float:
        return -self.j


def _from_terms(distance, length, time, risk, rewards) -> FitnessValue:
    total = distance + length + time + risk - rewards
    return FitnessValue(-total, distance, length, time, risk, rewards)


def _terms(result: EpisodeResult, n_nodes: int, weights: FitnessWeights) -> tuple[float, ...]:
    """(distance, length, time, risk, rewards) cost terms of one episode of
    an ``n_nodes``-node tree; robot-cube distance counts as 0 while holding."""
    st = result.final_state
    gx, gy = GOAL_POSE
    d_cube_goal = math.hypot(st.cube_x - gx, st.cube_y - gy)
    d_robot_cube = (
        0.0 if st.holding else math.hypot(st.true_x - st.cube_x, st.true_y - st.cube_y)
    )
    err = st.loc_error
    distance_term = (
        ALPHA1 * d_cube_goal * d_cube_goal
        + ALPHA2 * d_robot_cube * d_robot_cube
        + ALPHA3 * err * err
    )
    rewards = 0.0
    if st.picked_once:
        rewards += PICK_REWARD
    if st.placed:
        rewards += PLACE_REWARD
    return (
        distance_term,
        BETA * n_nodes,
        GAMMA * st.elapsed_time,
        weights.delta * st.risk_sum,
        rewards,
    )


def cost(result: EpisodeResult, n_nodes: int, weights: FitnessWeights) -> FitnessValue:
    """Score one episode of an ``n_nodes``-node tree."""
    return _from_terms(*_terms(result, n_nodes, weights))


def evaluate_compiled(
    compiled,
    n_nodes: int,
    profile: Profile,
    weights: FitnessWeights,
    episodes: int,
    rng,
    *,
    max_root_failures: int = MAX_ROOT_FAILURES,
    max_ticks: int = MAX_TICKS,
) -> FitnessValue:
    """Mean fitness over independent episodes of an already-compiled tree.

    Each episode's cost terms are added straight into five running sums, in
    the order ``cost`` lists them, and one FitnessValue is built from their
    means at the end, with j re-derived so the breakdown sums to the cost
    exactly. When the profile draws nothing every episode repeats the first,
    so only that one is run: the value is its fitness, whatever ``episodes``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    check_budgets(max_root_failures, max_ticks)
    if draws_nothing(profile):
        episodes = 1
    distance = length = time = risk = rewards = 0.0
    for _ in range(episodes):
        result = run_compiled(
            compiled, rng, max_root_failures=max_root_failures, max_ticks=max_ticks
        )
        d, n, t, r, w = _terms(result, n_nodes, weights)
        distance += d
        length += n
        time += t
        risk += r
        rewards += w
    inv = 1.0 / episodes
    return _from_terms(distance * inv, length * inv, time * inv, risk * inv, rewards * inv)


def evaluate(
    genotype: Genotype,
    profile: Profile,
    weights: FitnessWeights,
    episodes: int,
    rng,
    *,
    max_root_failures: int = MAX_ROOT_FAILURES,
    max_ticks: int = MAX_TICKS,
) -> FitnessValue:
    """Mean fitness of a genotype over ``episodes`` independent episodes."""
    return evaluate_compiled(
        compile_tree(genotype, build_transition_table(profile)),
        node_count(genotype),
        profile,
        weights,
        episodes,
        rng,
        max_root_failures=max_root_failures,
        max_ticks=max_ticks,
    )
