"""Fast state-machine world model for the mobile pick-and-place task.

The simulator tracks robot pose, localization, arm and head configuration,
and the cube, and executes behaviors with probabilistic outcomes drawn from
a scenario profile. It deliberately models no kinematics or sensing: one
behavior execution is one atomic transition plus time and risk bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

from .bt import ACTION, CONDITION, FAILURE, SUCCESS

ROOT_SUCCESS = "root_success"
FAILURE_BUDGET = "failure_budget"
TICK_BUDGET = "tick_budget"
# Default episode budgets. Every tick that is not the root's success is a root
# failure, so the failure budget ends an episode within MAX_ROOT_FAILURES + 1
# = 6 ticks; MAX_TICKS ends one first only when max_ticks <= max_root_failures.
MAX_ROOT_FAILURES = 5
MAX_TICKS = 100

# Task geometry, the same in every scenario: the robot starts unlocalized at
# START with the cube on the pick table at PICK_POSE, and delivers it to the
# table at GOAL_POSE; pick and place need the robot within REACH_RADIUS of
# the table, and moves travel at SPEED.
START = (0.0, 0.0)
PICK_POSE = (2.0, 0.0)
GOAL_POSE = (-2.0, 0.0)
REACH_RADIUS = 0.6
SPEED = 0.5
# A safe move variant detours: this many times the direct travel time.
SAFE_TIME_MULTIPLIER = 2.0

# Localization error while localized vs lost/unlocalized (WorldState.loc_error).
LOC_ERROR_LOCALIZED = 0.05
LOC_ERROR_LOST = 1.0

# Failure-probability columns; det is the all-zero baseline. The losses apply
# to every move except the safe variants, which never lose anything.
PROBABILITY_COLUMNS: dict[str, dict[str, float]] = {
    "det": {
        "loc_failure": 0.0,
        "pick_failure": 0.0,
        "place_failure": 0.0,
        "losing_cube": 0.0,
        "losing_localization": 0.0,
    },
    "stoch1": {
        "loc_failure": 0.0,
        "pick_failure": 0.0,
        "place_failure": 0.0,
        "losing_cube": 0.0,
        "losing_localization": 0.1,
    },
    "stoch2": {
        "loc_failure": 0.0,
        "pick_failure": 0.0,
        "place_failure": 0.0,
        "losing_cube": 0.05,
        "losing_localization": 0.1,
    },
    "stoch3": {
        "loc_failure": 0.2,
        "pick_failure": 0.2,
        "place_failure": 0.1,
        "losing_cube": 0.05,
        "losing_localization": 0.1,
    },
    "stoch4": {
        "loc_failure": 0.3,
        "pick_failure": 0.4,
        "place_failure": 0.2,
        "losing_cube": 0.1,
        "losing_localization": 0.2,
    },
    # exp3 (with the safe_paths pool): only the short moves can lose the cube
    # or the localization. Expected J at delta 0 (fitness.evaluate_compiled,
    # 40,000 episodes, random.Random(1)), moves to the pick/goal risky/risky,
    # safe/safe and risky/safe: 103.12, 140.60 and 140.92 for the straight
    # s( tuck localise move_to_pick head_down pick head_up move_to_goal
    # head_down place ), 124.61, 138.50 and 138.81 for the reference tree. A
    # move stranded before the pick is retried; a cube lost on the way to the
    # goal is not. So the straight risky/safe leads at delta 0, and safe/safe
    # from delta 0.32 / 0.111 (risky/safe's mean risk) ~ 2.9, by 3.0 J at delta
    # 30. At losses 0.2 / 0.4 risky/safe falls to 139.37. The values equal
    # stoch2's; the row is exp3's own, so tuning it moves no other.
    "exp3": {
        "loc_failure": 0.0,
        "pick_failure": 0.0,
        "place_failure": 0.0,
        "losing_cube": 0.05,
        "losing_localization": 0.1,
    },
}

FIXED_TIME_COSTS = {
    "localise": 5.0,
    "head_up": 1.0,
    "head_down": 1.0,
    "tuck": 2.0,
    "pick": 5.0,
    "place": 5.0,
}

CORE9 = (
    "localise",
    "head_up",
    "head_down",
    "tuck",
    "pick",
    "place",
    "move_to_pick",
    "move_to_goal",
    "have_block",
)


@dataclass(frozen=True)
class Profile:
    """Immutable scenario bundle: a probability column and a behavior pool.

    Safe move variants always carry zero path risk and a travel time scaled
    by ``SAFE_TIME_MULTIPLIER``.
    """

    name: str
    loc_failure: float
    pick_failure: float
    place_failure: float
    losing_cube: float
    losing_localization: float
    pool: tuple[str, ...]

    def __post_init__(self):
        for f in fields(self)[1:-1]:  # the five probabilities between name and pool
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:  # NaN fails every comparison
                raise ValueError(f"probability {f.name} must be in [0, 1], got {value}")
        if ACTION not in leaf_kinds(self).values():  # no valid tree of two or more nodes
            raise ValueError(f"pool {self.pool} has no action")


def _aux_poses() -> list[tuple[float, float]]:
    # 6x6 grid, poses within reach of either table removed, ordered by
    # distance to the nearest table so the first few are the most tempting.
    xs = [-3.0, -1.8, -0.6, 0.6, 1.8, 3.0]
    ys = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    poses = []
    for x in xs:
        for y in ys:
            d = min(math.dist((x, y), PICK_POSE), math.dist((x, y), GOAL_POSE))
            if d > REACH_RADIUS:
                poses.append((d, x, y))
    poses.sort()
    return [(x, y) for _, x, y in poses[:30]]


AUX_POSES = _aux_poses()
AUX_IDS = tuple(f"move_to_aux_{i:02d}" for i in range(len(AUX_POSES)))


# scenario name -> behavior pool
POOLS = {
    "core9": CORE9,
    "low_noise": CORE9 + AUX_IDS[:3],
    "high_noise": CORE9 + AUX_IDS,
    "safe_paths": CORE9 + ("move_to_pick_safe", "move_to_goal_safe"),
}


def make_profile(column: str, pool: str = "core9") -> Profile:
    """Assemble a profile from a probability column and a scenario's pool."""
    if column not in PROBABILITY_COLUMNS:
        raise ValueError(f"unknown probability column {column!r}")
    if pool not in POOLS:
        raise ValueError(f"unknown scenario {pool!r}")
    return Profile(
        name=column if pool == "core9" else f"{column}_{pool}",
        **PROBABILITY_COLUMNS[column],
        pool=POOLS[pool],
    )


def leaf_kinds(profile: Profile) -> dict[str, str]:
    """Behavior id -> ACTION | CONDITION for the genotype layer."""
    return {bid: (CONDITION if bid == "have_block" else ACTION) for bid in profile.pool}


class WorldState:
    """Mutable episode state; a new one is the episode's start state, and
    ``run_compiled`` returns the final one.

    Each fact is stored once. The localization error follows from
    ``localized`` (``loc_error``), so no estimated pose is stored. A held
    cube is where the robot is, so ``cube_x`` / ``cube_y`` say where an
    unheld cube lies and are stale while ``holding``. ``ticks_used`` and
    ``terminated_by`` are set once, when the episode ends.
    """

    __slots__ = (
        "true_x",
        "true_y",
        "localized",
        "arm_tucked",
        "head_up",
        "holding",
        "cube_x",
        "cube_y",
        "elapsed_time",
        "risk_sum",
        "picked_once",
        "placed",
        "root_failures",
        "ticks_used",
        "terminated_by",
    )

    def __init__(self):
        self.true_x, self.true_y = START
        self.localized = False
        self.arm_tucked = False
        self.head_up = True
        self.holding = False
        self.cube_x, self.cube_y = PICK_POSE
        self.elapsed_time = 0.0
        self.risk_sum = 0.0
        self.picked_once = False
        self.placed = False
        self.root_failures = 0

    @property
    def loc_error(self) -> float:
        return LOC_ERROR_LOCALIZED if self.localized else LOC_ERROR_LOST


TransitionFn = Callable[[WorldState, object], int]


def _make_fixed(behavior_id: str, profile: Profile) -> TransitionFn:
    time_cost = FIXED_TIME_COSTS.get(behavior_id)
    if behavior_id == "localise":
        fail_prob = profile.loc_failure

        def localise(st, rng):
            st.elapsed_time += time_cost
            st.risk_sum += fail_prob
            if fail_prob > 0.0 and rng.random() < fail_prob:
                return FAILURE
            st.localized = True
            return SUCCESS
        return localise
    if behavior_id == "head_up":
        def head_up(st, rng):
            st.elapsed_time += time_cost
            st.head_up = True
            return SUCCESS
        return head_up
    if behavior_id == "head_down":
        def head_down(st, rng):
            st.elapsed_time += time_cost
            st.head_up = False
            return SUCCESS
        return head_down
    if behavior_id == "tuck":
        def tuck(st, rng):
            st.elapsed_time += time_cost
            st.arm_tucked = True
            return SUCCESS
        return tuck
    raise ValueError(f"unknown behavior {behavior_id!r}")


def _make_move(
    target: tuple[float, float],
    losing_cube: float,
    losing_localization: float,
    inv_speed_scaled: float,
) -> TransitionFn:
    tx, ty = target
    rx, ry = PICK_POSE  # where a cube lost on the way reappears

    def move(st, rng):
        st.risk_sum += losing_localization
        dx = tx - st.true_x
        dy = ty - st.true_y
        planned = math.hypot(dx, dy) * inv_speed_scaled
        if not (st.localized and st.arm_tucked and st.head_up):
            st.elapsed_time += planned
            return FAILURE
        if losing_localization > 0.0 and rng.random() < losing_localization:
            # Stranded mid-path: half the travel time, localization lost.
            st.elapsed_time += planned * 0.5
            st.true_x += dx * 0.5
            st.true_y += dy * 0.5
            st.localized = False
            return FAILURE
        st.elapsed_time += planned
        st.true_x, st.true_y = tx, ty
        if st.holding and losing_cube > 0.0 and rng.random() < losing_cube:
            st.holding = False
            st.cube_x, st.cube_y = rx, ry
        return SUCCESS

    return move


def _make_pick(fail_prob: float) -> TransitionFn:
    time_cost, reach = FIXED_TIME_COSTS["pick"], REACH_RADIUS

    def pick(st, rng):
        st.elapsed_time += time_cost
        st.risk_sum += fail_prob
        if (
            st.holding
            or not st.localized
            or st.head_up
            or math.hypot(st.true_x - st.cube_x, st.true_y - st.cube_y) > reach
        ):
            return FAILURE
        if fail_prob > 0.0 and rng.random() < fail_prob:
            return FAILURE
        st.holding = True
        st.picked_once = True
        return SUCCESS
    return pick


def _make_place(fail_prob: float) -> TransitionFn:
    time_cost, reach = FIXED_TIME_COSTS["place"], REACH_RADIUS
    gx, gy = GOAL_POSE

    def place(st, rng):
        st.elapsed_time += time_cost
        st.risk_sum += fail_prob
        if (
            not st.holding
            or not st.localized
            or st.head_up
            or math.hypot(st.true_x - gx, st.true_y - gy) > reach
        ):
            return FAILURE
        if fail_prob > 0.0 and rng.random() < fail_prob:
            return FAILURE
        st.holding = False
        st.cube_x, st.cube_y = gx, gy
        st.placed = True
        return SUCCESS
    return place


def _have_block(st, rng) -> int:
    return SUCCESS if st.holding else FAILURE


def build_transition_table(profile: Profile) -> dict[str, TransitionFn]:
    """Transition function per pool behavior, with the profile's time, failure
    probability and risk bound in; the one place that defines a behavior.

    Raises ValueError for any pool id this world cannot execute.
    """
    targets = {
        "move_to_pick": PICK_POSE,
        "move_to_pick_safe": PICK_POSE,
        "move_to_goal": GOAL_POSE,
        "move_to_goal_safe": GOAL_POSE,
        **dict(zip(AUX_IDS, AUX_POSES)),
    }
    table: dict[str, TransitionFn] = {}
    for bid in profile.pool:
        if bid == "have_block":
            table[bid] = _have_block
        elif bid == "pick":
            table[bid] = _make_pick(profile.pick_failure)
        elif bid == "place":
            table[bid] = _make_place(profile.place_failure)
        elif bid in targets:
            safe = bid.endswith("_safe")
            table[bid] = _make_move(
                targets[bid],
                0.0 if safe else profile.losing_cube,
                0.0 if safe else profile.losing_localization,
                (SAFE_TIME_MULTIPLIER if safe else 1.0) / SPEED,
            )
        else:
            table[bid] = _make_fixed(bid, profile)
    return table


def run_compiled(
    compiled, rng, *, max_root_failures: int = MAX_ROOT_FAILURES, max_ticks: int = MAX_TICKS
) -> WorldState:
    """Episode loop over a compiled tree from the start state; the hot path
    for evaluation. Returns the final state, with ``ticks_used`` and
    ``terminated_by`` set.

    The profile reaches the episode only through the transition table
    ``compiled`` was built on. ``max_root_failures`` must be >= 0 and
    ``max_ticks`` >= 1, as ``gp.GpParams`` checks them.
    """
    state = WorldState()
    while True:
        if compiled(state, rng) == SUCCESS:
            terminated = ROOT_SUCCESS
            break
        state.root_failures += 1
        if state.root_failures > max_root_failures:
            terminated = FAILURE_BUDGET
            break
        if state.root_failures >= max_ticks:
            terminated = TICK_BUDGET
            break
    state.ticks_used = state.root_failures + (terminated is ROOT_SUCCESS)
    state.terminated_by = terminated
    return state

