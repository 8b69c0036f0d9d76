"""Cost function arithmetic and episode-mean evaluation."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btgp import bt, fitness, gp, world

DET = world.make_profile("det")
STOCH3 = world.make_profile("stoch3")


def make_result(
    *,
    cube=(0.0, 0.0),
    robot=(0.0, 0.0),
    est_offset=(0.0, 0.0),
    holding=False,
    picked=False,
    placed=False,
    elapsed=0.0,
    risk=0.0,
):
    st = world.WorldState()
    st.cube_x, st.cube_y = cube
    st.true_x, st.true_y = robot
    st.est_x, st.est_y = robot[0] + est_offset[0], robot[1] + est_offset[1]
    st.holding = holding
    st.picked_once = picked
    st.placed = placed
    st.elapsed_time = elapsed
    st.risk_sum = risk
    return world.EpisodeResult(final_state=st, ticks_used=1, terminated_by=world.ROOT_SUCCESS)


def test_cost_terminal_success_state():
    # cube at goal, robot 0.5 m from it, small localization error, both rewards
    result = make_result(
        cube=(-2.0, 0.0),
        robot=(-1.5, 0.0),
        est_offset=(0.05, 0.0),
        picked=True,
        placed=True,
        elapsed=60.0,
    )
    fv = fitness.cost(result, 11, fitness.TABLE2)
    # 10*0 + 2*0.25 + 1*0.0025 + 0.5*11 + 0.1*60 + 0 - 150
    assert fv.cost == pytest.approx(-137.9975, abs=1e-12)
    assert fv.j == pytest.approx(137.9975, abs=1e-12)


def test_cost_empty_effect_episode_at_reset():
    result = make_result(
        cube=(2.0, 0.0),
        robot=(0.0, 0.0),
        est_offset=(1.0, 0.0),
    )
    fv = fitness.cost(result, 1, fitness.TABLE2)
    # 10*16 + 2*4 + 1*1 + 0.5*1 = 169.5
    assert fv.cost == pytest.approx(169.5, abs=1e-12)
    assert fv.j == pytest.approx(-169.5, abs=1e-12)


def test_cost_all_zero_state():
    result = make_result(cube=(-2.0, 0.0), robot=(-2.0, 0.0))
    fv = fitness.cost(result, 0, fitness.TABLE2)
    assert fv.cost == 0.0 and fv.j == 0.0


def test_robot_cube_distance_is_zero_while_holding():
    far = make_result(cube=(-2.0, 0.0), robot=(-2.0, 0.0))
    # same poses but holding: identical cost regardless of recorded distance
    held = make_result(cube=(3.0, 3.0), robot=(3.0, 3.0), holding=True)
    held.final_state.cube_x, held.final_state.cube_y = -2.0, 0.0  # cube pose ignored for alpha2
    assert fitness.cost(held, 0, fitness.TABLE2).distance_term == pytest.approx(
        fitness.cost(far, 0, fitness.TABLE2).distance_term
    )


def test_length_monotonicity():
    w = fitness.TABLE2
    result = make_result(cube=(-2.0, 0.0), robot=(-2.0, 0.0))
    longer = fitness.cost(result, 5, w).j - fitness.BETA
    assert fitness.cost(result, 6, w).j == pytest.approx(longer)


def test_delta_sensitivity():
    w = dataclasses.replace(fitness.TABLE2, delta=150.0)
    a = fitness.cost(make_result(risk=1.0), 0, w)
    b = fitness.cost(make_result(risk=1.5), 0, w)
    assert a.j - b.j == pytest.approx(150.0 * 0.5)


def test_delta_zero_ignores_risk():
    a = fitness.cost(make_result(risk=0.0), 0, fitness.TABLE2)
    b = fitness.cost(make_result(risk=9.0), 0, fitness.TABLE2)
    assert a.j == b.j


def test_breakdown_sums_exactly():
    rng = random.Random(2)
    for _ in range(200):
        cube = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        robot = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        est_offset = (rng.uniform(0, 2), 0.0)
        holding = rng.random() < 0.3
        picked = rng.random() < 0.5
        n_nodes = rng.randrange(0, 64)
        result = make_result(
            cube=cube,
            robot=robot,
            est_offset=est_offset,
            holding=holding,
            picked=picked,
            elapsed=rng.uniform(0, 300),
            risk=rng.uniform(0, 5),
        )
        weights = dataclasses.replace(fitness.TABLE2, delta=rng.uniform(0, 200))
        fv = fitness.cost(result, n_nodes, weights)
        total = (
            fv.distance_term + fv.length_term + fv.time_term + fv.risk_term - fv.rewards
        )
        assert fv.j == -total  # exact, no reassociation


def test_reward_dominance_bound():
    w = fitness.TABLE2
    # worst allowed placed episode: capped length, time and risk, sloppy poses
    worst_placed = make_result(
        cube=(-2.0, 0.0),
        robot=(-1.4, 0.0),
        est_offset=(1.0, 0.0),
        picked=True,
        placed=True,
        elapsed=200.0,
        risk=3.0,
    )
    # best possible episode that never moved the cube off the pick table
    best_untouched = make_result(cube=(2.0, 0.0), robot=(2.0, 0.0))
    assert fitness.cost(worst_placed, 64, w).j > fitness.cost(best_untouched, 0, w).j


def test_evaluate_deterministic_profile_independent_of_episode_count():
    tree = bt.from_text("s( localise tuck move_to_pick )")
    one = fitness.evaluate(tree, DET, fitness.TABLE2, 1, random.Random(0))
    many = fitness.evaluate(tree, DET, fitness.TABLE2, 7, random.Random(1))
    assert one.j == pytest.approx(many.j)


def test_evaluate_seeded_reproducible_mean():
    tree = bt.from_text(
        "s( f( have_block s( localise tuck move_to_pick head_down pick ) ) "
        "head_up move_to_goal head_down place )"
    )
    a = fitness.evaluate(tree, STOCH3, fitness.TABLE2, 3, random.Random(11))
    b = fitness.evaluate(tree, STOCH3, fitness.TABLE2, 3, random.Random(11))
    assert a == b


def test_evaluate_stochastic_mean_below_deterministic():
    tree = bt.from_text(
        "s( f( have_block s( localise tuck move_to_pick head_down pick ) ) "
        "head_up move_to_goal head_down place )"
    )
    det_j = fitness.evaluate(tree, DET, fitness.TABLE2, 1, random.Random(0)).j
    stoch_j = fitness.evaluate(tree, STOCH3, fitness.TABLE2, 1000, random.Random(0)).j
    assert stoch_j < det_j


def test_evaluate_compiled_equals_mean_of_per_episode_costs():
    # the running sums must reproduce, bit for bit, the mean of the terms
    # that cost() gives each episode, risk term included
    tokens = bt.from_text(
        "s( f( have_block s( localise tuck move_to_pick head_down pick ) ) "
        "head_up move_to_goal head_down place )"
    )
    table = world.build_transition_table(STOCH3)
    compiled, n_nodes = bt.compile_tree(tokens, table), bt.node_count(tokens)
    weights = dataclasses.replace(fitness.TABLE2, delta=150.0)
    for seed in range(5):
        got = fitness.evaluate_compiled(
            compiled, n_nodes, STOCH3, weights, 7, random.Random(seed)
        )
        rng = random.Random(seed)
        costs = [
            fitness.cost(world.run_compiled(compiled, rng), n_nodes, weights)
            for _ in range(7)
        ]
        sums = [0.0] * 5
        for fv in costs:
            for k, term in enumerate(
                (fv.distance_term, fv.length_term, fv.time_term, fv.risk_term, fv.rewards)
            ):
                sums[k] += term
        assert got == fitness._from_terms(*(total * (1.0 / 7) for total in sums))
        assert got.risk_term > 0.0


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(fitness.FitnessWeights)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_weights_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^weight {name} must be finite, got {value}$"):
        dataclasses.replace(fitness.TABLE2, **{name: value})


def test_weights_hold_only_delta():
    assert [f.name for f in dataclasses.fields(fitness.FitnessWeights)] == ["delta"]
    with pytest.raises(TypeError):
        fitness.FitnessWeights(alpha1=10.0)


def float_bits(fv: fitness.FitnessValue) -> list[str]:
    return [getattr(fv, f.name).hex() for f in dataclasses.fields(fv)]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pool=st.sampled_from(world.SCENARIOS),
    length=st.integers(1, 16),
    episodes=st.integers(1, 7),
    max_root_failures=st.integers(0, 6),
    max_ticks=st.integers(1, 120),
)
def test_det_evaluation_matches_every_episode_oracle(
    seed, pool, length, episodes, max_root_failures, max_ticks
):
    profile = world.make_profile("det", pool)
    rng = random.Random(seed)
    tokens = bt.random_genotype(world.leaf_kinds(profile), length, rng)
    compiled = bt.compile_tree(tokens, world.build_transition_table(profile))
    n_nodes = bt.node_count(tokens)
    weights = dataclasses.replace(fitness.TABLE2, delta=rng.choice([0.0, 150.0]))
    budgets = {"max_root_failures": max_root_failures, "max_ticks": max_ticks}
    got = fitness.evaluate_compiled(
        compiled, n_nodes, profile, weights, episodes, random.Random(seed), **budgets
    )
    # a det episode is a pure function of the tree, so N of them score as one, bit for bit
    episode = world.run_compiled(compiled, random.Random(seed), **budgets)
    assert float_bits(got) == float_bits(fitness.cost(episode, n_nodes, weights))


def count_episodes(monkeypatch) -> list:
    calls = []
    run_compiled = world.run_compiled

    def counting_run_compiled(*args, **kwargs):
        calls.append(args[0])
        return run_compiled(*args, **kwargs)

    monkeypatch.setattr(fitness, "run_compiled", counting_run_compiled)
    return calls


@pytest.mark.parametrize("profile, simulated", [(DET, 1), (STOCH3, 5)], ids=["det", "stoch3"])
def test_evaluation_simulates_one_episode_only_when_nothing_draws(
    monkeypatch, profile, simulated
):
    calls = count_episodes(monkeypatch)
    tokens = bt.from_text("s( localise tuck move_to_pick head_down pick )")
    compiled = bt.compile_tree(tokens, world.build_transition_table(profile))
    fitness.evaluate_compiled(compiled, 6, profile, fitness.TABLE2, 5, random.Random(0))
    assert calls == [compiled] * simulated


def test_det_run_simulates_one_episode_per_evaluation(monkeypatch):
    calls = count_episodes(monkeypatch)
    evaluations = []
    evaluate_compiled = gp.evaluate_compiled

    def counting_evaluate_compiled(compiled, *args, **kwargs):
        evaluations.append(compiled)
        return evaluate_compiled(compiled, *args, **kwargs)

    monkeypatch.setattr(gp, "evaluate_compiled", counting_evaluate_compiled)
    params = gp.GpParams(generations=10, seed=0, episodes_per_eval=5)
    history, _ = gp.run(params, DET, fitness.TABLE2)
    assert len(calls) == len(evaluations) > 0
    # every individual is still charged its five episodes
    assert history[1].episodes == 2 * params.population * 5


def evaluate_compiled_entry(**budgets):
    tokens = ("localise",)
    compiled = bt.compile_tree(tokens, world.build_transition_table(DET))
    fitness.evaluate_compiled(compiled, 1, DET, fitness.TABLE2, 1, random.Random(0), **budgets)


def evaluate_entry(**budgets):
    fitness.evaluate(("localise",), DET, fitness.TABLE2, 1, random.Random(0), **budgets)


@pytest.mark.parametrize(
    "entry", [evaluate_compiled_entry, evaluate_entry], ids=["evaluate_compiled", "evaluate"]
)
@pytest.mark.parametrize(
    "budget, value, least",
    [("max_ticks", 0, 1), ("max_ticks", -2, 1), ("max_root_failures", -1, 0)],
)
def test_episode_entry_points_reject_out_of_range_budgets(entry, budget, value, least):
    with pytest.raises(ValueError, match=f"^{budget} must be >= {least}, got {value}$"):
        entry(**{budget: value})


@pytest.mark.parametrize("entry", [evaluate_compiled_entry, evaluate_entry])
def test_episode_entry_points_accept_the_least_budgets(entry):
    entry(max_ticks=1, max_root_failures=0)


def test_evaluate_rejects_zero_episodes():
    with pytest.raises(ValueError):
        fitness.evaluate(("have_block",), DET, fitness.TABLE2, 0, random.Random(0))


def test_weight_sets_table2_defaults():
    assert (fitness.ALPHA1, fitness.ALPHA2, fitness.ALPHA3) == (10.0, 2.0, 1.0)
    assert (fitness.BETA, fitness.GAMMA, fitness.TABLE2.delta) == (0.5, 0.1, 0.0)
    assert (fitness.PICK_REWARD, fitness.PLACE_REWARD) == (50.0, 100.0)


def test_fitness_value_is_slotted_and_pickles():
    fv = fitness.FitnessValue(-1.5, 1.0, 0.5, 0.25, 0.0, 0.25)
    assert not hasattr(fv, "__dict__")
    assert fv.cost == 1.5
    again = pickle.loads(pickle.dumps(fv))
    assert again == fv and again.cost == fv.cost
