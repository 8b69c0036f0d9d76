"""Cost and fitness functions for episode outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bt import Genotype, compile_tree, node_count
from .world import (
    GOAL_POSE,
    MAX_ROOT_FAILURES,
    MAX_TICKS,
    Profile,
    WorldState,
    build_transition_table,
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


class FitnessValue(NamedTuple):
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


def _from_terms(distance, length, time, risk, rewards) -> FitnessValue:
    total = distance + length + time + risk - rewards
    return FitnessValue(-total, distance, length, time, risk, rewards)


def _terms(st: WorldState, n_nodes: int, weights: FitnessWeights) -> tuple[float, ...]:
    """(distance, length, time, risk, rewards) cost terms of an episode of an
    ``n_nodes``-node tree that ended in ``st``; a held cube is at the robot's
    true pose, so its robot-cube distance is 0."""
    gx, gy = GOAL_POSE
    cx, cy = (st.true_x, st.true_y) if st.holding else (st.cube_x, st.cube_y)
    d_cube_goal = math.hypot(cx - gx, cy - gy)
    d_robot_cube = math.hypot(st.true_x - cx, st.true_y - cy)
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


def cost(st: WorldState, n_nodes: int, weights: FitnessWeights) -> FitnessValue:
    """Score an episode of an ``n_nodes``-node tree by its final state."""
    return _from_terms(*_terms(st, n_nodes, weights))


class _DrawWatch:
    """Stands in for an rng during an evaluation's first episode and notes
    whether it drew: one that did not leaves the rng where it was, so every
    later episode would repeat it."""

    __slots__ = ("rng", "drew")

    def __init__(self, rng):
        self.rng = rng
        self.drew = False

    def random(self) -> float:
        self.drew = True
        return self.rng.random()


def evaluate_compiled(
    compiled,
    n_nodes: int,
    weights: FitnessWeights,
    episodes: int,
    rng,
    *,
    max_root_failures: int = MAX_ROOT_FAILURES,
    max_ticks: int = MAX_TICKS,
) -> tuple[FitnessValue, bool]:
    """(fitness, drew): the mean fitness over independent episodes of an
    already-compiled tree, and whether its first episode drew from ``rng``.

    An episode that draws nothing is a pure function of the tree and leaves
    ``rng`` where it was, so every later episode would repeat it: when the
    first episode draws nothing, the value is that episode's fitness,
    whatever ``episodes``, no further episode is simulated, and ``drew`` is
    False. The same tree then scores the same from any stream.

    Otherwise every episode is simulated, its cost terms added onto the
    first's in episode order and in the order ``cost`` lists them, and one
    FitnessValue is built from their means, with j re-derived so the
    breakdown sums to the cost exactly. Either way ``rng`` ends where
    simulating every episode would leave it.

    ``episodes`` and the budgets must be ones ``gp.GpParams`` accepts.
    """
    watch = _DrawWatch(rng)
    final = run_compiled(compiled, watch, max_root_failures=max_root_failures, max_ticks=max_ticks)
    terms = _terms(final, n_nodes, weights)
    if not watch.drew:
        return _from_terms(*terms), False
    distance, length, time, risk, rewards = terms
    for _ in range(episodes - 1):
        final = run_compiled(
            compiled, rng, max_root_failures=max_root_failures, max_ticks=max_ticks
        )
        d, n, t, r, w = _terms(final, n_nodes, weights)
        distance += d
        length += n
        time += t
        risk += r
        rewards += w
    inv = 1.0 / episodes
    return _from_terms(distance * inv, length * inv, time * inv, risk * inv, rewards * inv), True


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
    """Mean fitness of a genotype over ``episodes`` independent episodes on
    ``profile``, from ``rng``: ``evaluate_compiled``'s value, without its
    ``drew`` flag. The genotype must be one ``bt.parse`` accepts."""
    return evaluate_compiled(
        compile_tree(genotype, build_transition_table(profile)),
        node_count(genotype),
        weights,
        episodes,
        rng,
        max_root_failures=max_root_failures,
        max_ticks=max_ticks,
    )[0]
