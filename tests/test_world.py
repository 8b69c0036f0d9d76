"""State-machine world: start state, behavior semantics, episodes, pools."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from btgp import bt, fitness, world

DET = world.make_profile("det")
STOCH3 = world.make_profile("stoch3")

REFERENCE_SOLUTION = bt.from_text(
    "s( f( have_block s( localise tuck head_up move_to_pick head_down pick ) ) "
    "head_up move_to_goal head_down place )"
)


def play_episode(genotype, profile, rng):
    """One episode of a genotype, compiled onto the profile's transition table."""
    compiled = bt.compile_tree(genotype, world.build_transition_table(profile))
    return world.run_compiled(compiled, rng)


def execute(bid, st, profile, rng):
    return world.build_transition_table(profile)[bid](st, rng)


def state_tuple(st: world.WorldState):
    # ticks_used and terminated_by are unset until the episode ends
    return tuple(getattr(st, f, None) for f in world.WorldState.__slots__)


def ready_state(*, at=world.PICK_POSE, holding=False, head_up=False, tucked=True):
    """A localized state positioned at `at` (defaults to the pick table)."""
    st = world.WorldState()
    st.localized = True
    st.true_x, st.true_y = at
    st.arm_tucked = tucked
    st.head_up = head_up
    if holding:
        st.holding = True
        st.picked_once = True
    return st


def dropped_at_robot(st: world.WorldState) -> world.WorldState:
    """``st`` with its cube put down where the robot stands."""
    loose = copy.copy(st)
    loose.holding = False
    loose.cube_x, loose.cube_y = st.true_x, st.true_y
    return loose


def test_reset_initial_state():
    st = world.WorldState()
    assert (st.true_x, st.true_y) == world.START
    assert (st.cube_x, st.cube_y) == world.PICK_POSE
    assert not st.holding and not st.localized and not st.arm_tucked
    assert st.head_up
    assert st.elapsed_time == 0.0 and st.risk_sum == 0.0
    assert st.loc_error == pytest.approx(1.0)


def test_reset_cube_to_goal_distance_is_four_meters():
    st = world.WorldState()
    assert math.dist((st.cube_x, st.cube_y), world.GOAL_POSE) == pytest.approx(4.0)


def test_reset_is_deterministic():
    assert state_tuple(world.WorldState()) == state_tuple(world.WorldState())


def test_behavior_pool_sizes():
    sizes = {"core9": 9, "low_noise": 12, "high_noise": 39, "safe_paths": 11}
    for scenario, size in sizes.items():
        profile = world.make_profile("det", scenario)
        assert len(profile.pool) == size
        assert list(world.build_transition_table(profile)) == list(profile.pool)
    with pytest.raises(ValueError, match="^unknown scenario 'nope'$"):
        world.make_profile("det", "nope")
    with pytest.raises(ValueError, match="^unknown probability column 'stoch9'$"):
        world.make_profile("stoch9")


def test_profile_is_a_column_and_a_pool():
    fields = [f.name for f in dataclasses.fields(world.Profile)]
    assert fields == ["name", *world.PROBABILITY_COLUMNS["det"], "pool"]
    params = inspect.signature(world.make_profile).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("column", inspect.Parameter.empty),
        ("pool", "core9"),
    ]


PROBABILITIES = list(world.PROBABILITY_COLUMNS["det"])


@pytest.mark.parametrize("name", PROBABILITIES)
@pytest.mark.parametrize("value", [math.nan, -0.5, 1.5])
def test_profile_refuses_a_probability_outside_0_1(name, value):
    message = rf"^probability {name} must be in \[0, 1\], got {value}$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(DET, **{name: value})


@pytest.mark.parametrize("name", PROBABILITIES)
@pytest.mark.parametrize("value", [0.0, 1.0])
def test_profile_accepts_the_probability_bounds(name, value):
    assert getattr(dataclasses.replace(DET, **{name: value}), name) == value


@pytest.mark.parametrize("pool", [("have_block",), ()])
def test_profile_refuses_a_pool_with_no_action(pool):
    with pytest.raises(ValueError, match=rf"^pool {re.escape(str(pool))} has no action$"):
        dataclasses.replace(DET, pool=pool)


def test_safe_move_never_loses_whatever_the_column():
    prof = dataclasses.replace(
        world.make_profile("exp3", "safe_paths"), losing_cube=1.0, losing_localization=1.0
    )
    st = ready_state(holding=True, head_up=True)
    assert execute("move_to_goal_safe", st, prof, random.Random(0)) == bt.SUCCESS
    assert st.holding and st.localized
    assert (st.true_x, st.true_y) == world.GOAL_POSE


def test_safe_move_costs_double_time():
    prof = world.make_profile("stoch3", "safe_paths")
    table = world.build_transition_table(prof)
    for target, pose in (("pick", world.PICK_POSE), ("goal", world.GOAL_POSE)):
        risky = ready_state(at=world.START, head_up=True)
        safe = ready_state(at=world.START, head_up=True)
        assert table[f"move_to_{target}_safe"](safe, random.Random(0)) == bt.SUCCESS
        assert table[f"move_to_{target}"](risky, random.Random(0)) == bt.SUCCESS
        assert risky.elapsed_time == pytest.approx(math.dist(world.START, pose) / world.SPEED)
        assert safe.elapsed_time == pytest.approx(2 * risky.elapsed_time)
        assert safe.risk_sum == 0.0
        assert risky.risk_sum == prof.losing_localization


def test_have_block_adds_no_time_or_risk():
    assert world.leaf_kinds(STOCH3)["have_block"] == bt.CONDITION
    for holding in (False, True):
        st = ready_state(holding=holding)
        before = state_tuple(st)
        status = execute("have_block", st, STOCH3, random.Random(0))
        assert status == (bt.SUCCESS if holding else bt.FAILURE)
        assert state_tuple(st) == before


def test_pick_succeeds_when_ready():
    st = ready_state()
    rng = random.Random(0)
    assert execute("pick", st, DET, rng) == bt.SUCCESS
    assert st.holding and st.picked_once


def test_pick_while_holding_only_charges_time_and_risk():
    st = ready_state(holding=True)
    before = state_tuple(st)
    assert execute("pick", st, DET, random.Random(0)) == bt.FAILURE
    after = state_tuple(st)
    # only elapsed_time (and risk under stochastic profiles) may differ
    diffs = {
        field
        for field, x, y in zip(world.WorldState.__slots__, before, after)
        if x != y
    }
    assert diffs == {"elapsed_time"}


def test_pick_requires_head_down_and_reach():
    st = ready_state(head_up=True)
    assert execute("pick", st, DET, random.Random(0)) == bt.FAILURE
    st = ready_state(at=(0.0, 0.0))  # cube is 2 m away
    assert execute("pick", st, DET, random.Random(0)) == bt.FAILURE
    assert not st.holding


def test_place_full_semantics():
    st = ready_state(at=world.GOAL_POSE, holding=True)
    assert execute("place", st, DET, random.Random(0)) == bt.SUCCESS
    assert st.placed and not st.holding
    assert (st.cube_x, st.cube_y) == world.GOAL_POSE
    # place without holding fails
    st = ready_state(at=world.GOAL_POSE)
    assert execute("place", st, DET, random.Random(0)) == bt.FAILURE
    assert not st.placed


def test_localise_sets_small_error():
    st = world.WorldState()
    assert execute("localise", st, DET, random.Random(0)) == bt.SUCCESS
    assert st.localized
    assert st.loc_error == pytest.approx(world.LOC_ERROR_LOCALIZED)
    assert st.elapsed_time == pytest.approx(5.0)


def test_move_guard_failure_leaves_pose_unchanged():
    st = world.WorldState()  # not localized, not tucked
    t_before = st.elapsed_time
    assert execute("move_to_pick", st, DET, random.Random(0)) == bt.FAILURE
    assert (st.true_x, st.true_y) == world.START
    assert st.elapsed_time > t_before  # execution still costs time


def test_move_success_reaches_target_and_keeps_loc_error():
    st = ready_state(at=(0.0, 0.0), head_up=True)
    err = st.loc_error
    assert execute("move_to_pick", st, DET, random.Random(0)) == bt.SUCCESS
    assert (st.true_x, st.true_y) == world.PICK_POSE
    assert st.loc_error == err
    assert st.elapsed_time == pytest.approx(2.0 / world.SPEED)


def test_localized_error_is_exact_after_moves():
    st = world.WorldState()
    for bid in ("localise", "tuck", "move_to_pick", "move_to_goal"):
        assert execute(bid, st, DET, random.Random(0)) == bt.SUCCESS
        assert st.loc_error == world.LOC_ERROR_LOCALIZED
    assert (st.true_x, st.true_y) == world.GOAL_POSE


@settings(max_examples=200, deadline=None)
@given(
    column=hst.sampled_from(["stoch3", "stoch4"]),
    length=hst.integers(1, 24),
    seed=hst.integers(0, 2**32 - 1),
)
def test_final_loc_error_is_the_localization_fact(column, length, seed):
    # the random tree runs after localise and tuck, so its moves can succeed
    profile = world.make_profile(column)
    kinds = world.leaf_kinds(profile)
    rng = random.Random(seed)
    genotype = ("s(", "localise", "tuck", *bt.random_genotype(kinds, length, rng), ")")
    assume(not bt.validate(genotype, kinds))
    compiled = bt.compile_tree(genotype, world.build_transition_table(profile))
    for _ in range(10):
        st = world.run_compiled(compiled, rng)
        expected = world.LOC_ERROR_LOCALIZED if st.localized else world.LOC_ERROR_LOST
        assert st.loc_error == expected


def test_losing_localization_strands_at_midpoint():
    prof = dataclasses.replace(DET, losing_localization=1.0)
    st = ready_state(at=(0.0, 0.0), head_up=True)
    assert execute("move_to_pick", st, prof, random.Random(0)) == bt.FAILURE
    assert (st.true_x, st.true_y) == (1.0, 0.0)
    assert not st.localized
    assert st.loc_error == pytest.approx(world.LOC_ERROR_LOST)
    assert st.elapsed_time == pytest.approx(0.5 * 2.0 / world.SPEED)


def test_losing_cube_respawns_but_move_succeeds():
    prof = dataclasses.replace(DET, losing_cube=1.0)
    st = ready_state(holding=True, head_up=True)
    assert execute("move_to_goal", st, prof, random.Random(0)) == bt.SUCCESS
    assert (st.true_x, st.true_y) == world.GOAL_POSE
    assert not st.holding
    assert (st.cube_x, st.cube_y) == world.PICK_POSE


def test_cube_tracks_robot_while_holding():
    # a held cube has no pose of its own: the cost measures it from the
    # robot's true pose, at robot-cube distance 0
    st = ready_state(holding=True, head_up=True)
    execute("move_to_goal", st, DET, random.Random(0))
    assert st.holding and (st.true_x, st.true_y) == world.GOAL_POSE
    held = fitness.cost(st, 10, fitness.TABLE2)
    assert held == fitness.cost(dropped_at_robot(st), 10, fitness.TABLE2)
    err = st.loc_error
    assert held.distance_term == fitness.ALPHA3 * err * err  # cube at the goal


def test_unknown_behavior_raises():
    for bid in ("fly", "move_to_nowhere", "move_to_aux_99", "tuck_safe"):
        with pytest.raises(ValueError, match=f"^unknown behavior '{bid}'$"):
            world.build_transition_table(dataclasses.replace(DET, pool=("localise", bid)))


def test_stoch3_pick_failure_rate_calibrated():
    rng = random.Random(123)
    pick = world.build_transition_table(STOCH3)["pick"]
    failures = 0
    n = 10_000
    for _ in range(n):
        st = ready_state()
        if pick(st, rng) == bt.FAILURE:
            failures += 1
    assert abs(failures / n - STOCH3.pick_failure) <= 0.012  # 3 sigma


def test_single_condition_episode_exhausts_failure_budget():
    final = play_episode(("have_block",), DET, random.Random(0))
    assert final.terminated_by == world.FAILURE_BUDGET
    assert final.root_failures == 6
    assert final.elapsed_time == 0.0
    assert final.ticks_used == 6
    assert not final.picked_once and not final.placed


def test_reference_solution_solves_deterministic_profile():
    final = play_episode(REFERENCE_SOLUTION, DET, random.Random(0))
    assert final.terminated_by == world.ROOT_SUCCESS
    assert final.placed and final.picked_once
    assert (final.cube_x, final.cube_y) == world.GOAL_POSE


def test_reference_solution_recovers_from_cube_loss():
    prof = dataclasses.replace(DET, losing_cube=0.5)
    placed = 0
    rng = random.Random(9)
    for _ in range(200):
        placed += play_episode(REFERENCE_SOLUTION, prof, rng).placed
    assert placed > 150  # reactive structure re-picks after drops


def test_episode_deterministic_given_seed():
    r1 = play_episode(REFERENCE_SOLUTION, STOCH3, random.Random(5))
    r2 = play_episode(REFERENCE_SOLUTION, STOCH3, random.Random(5))
    assert state_tuple(r1) == state_tuple(r2)
    assert (r1.ticks_used, r1.terminated_by) == (r2.ticks_used, r2.terminated_by)


def test_risk_sum_matches_executed_fail_probs():
    # stoch3 column: loc_failure, pick_failure, place_failure, and
    # losing_localization on the moves; the other behaviors carry no risk
    risk = {"localise": 0.2, "pick": 0.2, "place": 0.1, "move_to_pick": 0.1, "move_to_goal": 0.1}
    executed: list[str] = []

    def recording(bid, fn):
        def run(st, rng):
            executed.append(bid)
            return fn(st, rng)
        return run

    table = {bid: recording(bid, fn) for bid, fn in world.build_transition_table(STOCH3).items()}
    compiled = bt.compile_tree(REFERENCE_SOLUTION, table)
    seen = set()
    for seed in range(20):
        executed.clear()
        final = world.run_compiled(compiled, random.Random(seed))
        expected = sum(risk.get(bid, 0.0) for bid in executed)
        assert final.risk_sum == pytest.approx(expected, abs=1e-12)
        seen.update(executed)
    assert seen >= set(risk)


def test_cube_conservation_under_random_actions():
    # a held cube costs as if it lay where the robot stands; loose cubes sit
    # on the pick or goal table
    prof = world.make_profile("stoch4")
    rng = random.Random(21)
    table = world.build_transition_table(prof)
    pool = list(prof.pool)
    for _ in range(50):
        st = world.WorldState()
        for _ in range(60):
            table[pool[rng.randrange(len(pool))]](st, rng)
            if st.holding:
                held = fitness.cost(st, 10, fitness.TABLE2)
                assert held == fitness.cost(dropped_at_robot(st), 10, fitness.TABLE2)
            else:
                assert (st.cube_x, st.cube_y) in (world.PICK_POSE, world.GOAL_POSE)


def test_guard_soundness_under_random_states():
    rng = random.Random(31)
    pool = [bid for bid in DET.pool if bid != "have_block"]
    for _ in range(400):
        st = world.WorldState()
        st.true_x, st.true_y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        st.localized = rng.random() < 0.5
        st.arm_tucked = rng.random() < 0.5
        st.head_up = rng.random() < 0.5
        before = state_tuple(st)
        bid = pool[rng.randrange(len(pool))]
        status = execute(bid, st, DET, rng)
        if status == bt.FAILURE:
            after = state_tuple(st)
            diffs = {
                f
                for f, x, y in zip(world.WorldState.__slots__, before, after)
                if x != y
            }
            assert diffs <= {"elapsed_time", "risk_sum"}


def test_tick_budget_termination():
    # drive run_compiled directly with a tree that always reports Running
    compiled = lambda st, rng: bt.RUNNING  # noqa: E731
    result = world.run_compiled(compiled, random.Random(0), max_ticks=17)
    assert result.terminated_by == world.TICK_BUDGET
    assert result.ticks_used == 17


def test_run_compiled_returns_its_final_state():
    table = world.build_transition_table(DET)
    endings = [
        (REFERENCE_SOLUTION, world.ROOT_SUCCESS, 1),
        (("have_block",), world.FAILURE_BUDGET, world.MAX_ROOT_FAILURES + 1),
        (None, world.TICK_BUDGET, world.MAX_TICKS),  # a tree that always runs
    ]
    for tokens, terminated_by, ticks in endings:
        compiled = bt.compile_tree(tokens, table) if tokens else lambda st, rng: bt.RUNNING
        final = world.run_compiled(compiled, random.Random(0))
        assert type(final) is world.WorldState
        assert (final.terminated_by, final.ticks_used) == (terminated_by, ticks)
        assert final.placed == (terminated_by == world.ROOT_SUCCESS)
    # the episode's end sets both, so a state that has not ended has neither
    with pytest.raises(AttributeError):
        world.WorldState().terminated_by


def test_aux_pool_targets_are_outside_reach():
    for x, y in world.AUX_POSES:
        assert math.dist((x, y), world.PICK_POSE) > world.REACH_RADIUS
        assert math.dist((x, y), world.GOAL_POSE) > world.REACH_RADIUS
    assert len(world.AUX_POSES) == 30


def test_deterministic_profile_episode_is_pure():
    rng = random.Random(0)
    r1 = play_episode(REFERENCE_SOLUTION, DET, rng)
    # rng must not have been consumed at all on the deterministic profile
    assert rng.random() == random.Random(0).random()
    r2 = play_episode(REFERENCE_SOLUTION, DET, random.Random(99))
    assert state_tuple(r1) == state_tuple(r2)


def test_draws_nothing_only_on_all_zero_probabilities():
    pure = [c for c in world.PROBABILITY_COLUMNS if world.draws_nothing(world.make_profile(c))]
    assert pure == ["det"]
    assert world.draws_nothing(world.make_profile("det", "high_noise"))
    # any one non-zero probability draws, whatever the column's name
    for key in world.PROBABILITY_COLUMNS["det"]:
        assert not world.draws_nothing(dataclasses.replace(DET, **{key: 0.1}))
