"""Cost and fitness functions for episode outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class FitnessWeights:
    """Weight set for the episode cost function.

    Costs: squared distances (cube-goal, robot-cube, localization error),
    tree length, execution time, accumulated risk; picking and placing are
    rewarded (negative cost).
    """

    alpha1: float = 10.0  # cube-goal distance
    alpha2: float = 2.0  # robot-cube distance
    alpha3: float = 1.0  # localization error
    beta: float = 0.5  # tree length
    gamma: float = 0.1  # execution time
    delta: float = 0.0  # accumulated failure probability
    pick_reward: float = 50.0
    place_reward: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):  # a NaN weight would score every tree NaN
                raise ValueError(f"weight {f.name} must be finite, got {value}")


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
        weights.alpha1 * d_cube_goal * d_cube_goal
        + weights.alpha2 * d_robot_cube * d_robot_cube
        + weights.alpha3 * err * err
    )
    rewards = 0.0
    if st.picked_once:
        rewards += weights.pick_reward
    if st.placed:
        rewards += weights.place_reward
    return (
        distance_term,
        weights.beta * n_nodes,
        weights.gamma * st.elapsed_time,
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
