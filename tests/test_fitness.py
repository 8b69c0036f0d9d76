"""Cost function arithmetic and episode-mean evaluation."""

from __future__ import annotations

import dataclasses
import functools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btgp import bt, fitness, gp, world

DET = world.make_profile("det")
STOCH3 = world.make_profile("stoch3")


def make_state(
    *,
    cube=(0.0, 0.0),
    robot=(0.0, 0.0),
    localized=False,
    holding=False,
    picked=False,
    placed=False,
    elapsed=0.0,
    risk=0.0,
):
    st = world.WorldState()
    st.cube_x, st.cube_y = cube
    st.true_x, st.true_y = robot
    st.localized = localized
    st.holding = holding
    st.picked_once = picked
    st.placed = placed
    st.elapsed_time = elapsed
    st.risk_sum = risk
    return st


def test_cost_terminal_success_state():
    # cube at goal, robot 0.5 m from it, small localization error, both rewards
    final = make_state(
        cube=(-2.0, 0.0),
        robot=(-1.5, 0.0),
        localized=True,
        picked=True,
        placed=True,
        elapsed=60.0,
    )
    fv = fitness.cost(final, 11, fitness.TABLE2)
    # 10*0 + 2*0.25 + 1*0.0025 + 0.5*11 + 0.1*60 + 0 - 150
    assert -fv.j == pytest.approx(-137.9975, abs=1e-12)
    assert fv.j == pytest.approx(137.9975, abs=1e-12)


def test_cost_empty_effect_episode_at_reset():
    final = make_state(
        cube=(2.0, 0.0),
        robot=(0.0, 0.0),
    )
    fv = fitness.cost(final, 1, fitness.TABLE2)
    # 10*16 + 2*4 + 1*1 + 0.5*1 = 169.5
    assert -fv.j == pytest.approx(169.5, abs=1e-12)
    assert fv.j == pytest.approx(-169.5, abs=1e-12)


def test_cost_all_zero_state():
    # every term but the localization error is zero; a localized robot still
    # carries LOC_ERROR_LOCALIZED, the least error the world has
    final = make_state(cube=(-2.0, 0.0), robot=(-2.0, 0.0), localized=True)
    fv = fitness.cost(final, 0, fitness.TABLE2)
    assert fv.j == -fitness.ALPHA3 * world.LOC_ERROR_LOCALIZED * world.LOC_ERROR_LOCALIZED


def test_robot_cube_distance_is_zero_while_holding():
    at_goal = make_state(cube=(-2.0, 0.0), robot=(-2.0, 0.0))
    # a held cube is where the robot is: its stored pose is ignored for both
    # the cube-goal (alpha1) and the robot-cube (alpha2) distance
    held = make_state(cube=(3.0, 3.0), robot=(-2.0, 0.0), holding=True)
    assert fitness.cost(held, 0, fitness.TABLE2) == fitness.cost(at_goal, 0, fitness.TABLE2)
    away = make_state(cube=(-2.0, 0.0), robot=(-1.0, 0.0), holding=True)
    # 1 m off, plus the unlocalized robot's error
    lost = fitness.ALPHA3 * world.LOC_ERROR_LOST * world.LOC_ERROR_LOST
    assert fitness.cost(away, 0, fitness.TABLE2).distance_term == fitness.ALPHA1 + lost


def test_length_monotonicity():
    w = fitness.TABLE2
    final = make_state(cube=(-2.0, 0.0), robot=(-2.0, 0.0))
    longer = fitness.cost(final, 5, w).j - fitness.BETA
    assert fitness.cost(final, 6, w).j == pytest.approx(longer)


def test_delta_sensitivity():
    w = dataclasses.replace(fitness.TABLE2, delta=150.0)
    a = fitness.cost(make_state(risk=1.0), 0, w)
    b = fitness.cost(make_state(risk=1.5), 0, w)
    assert a.j - b.j == pytest.approx(150.0 * 0.5)


def test_delta_zero_ignores_risk():
    a = fitness.cost(make_state(risk=0.0), 0, fitness.TABLE2)
    b = fitness.cost(make_state(risk=9.0), 0, fitness.TABLE2)
    assert a.j == b.j


def test_breakdown_sums_exactly():
    rng = random.Random(2)
    for _ in range(200):
        cube = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        robot = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        localized = rng.random() < 0.5
        holding = rng.random() < 0.3
        picked = rng.random() < 0.5
        n_nodes = rng.randrange(0, 64)
        final = make_state(
            cube=cube,
            robot=robot,
            localized=localized,
            holding=holding,
            picked=picked,
            elapsed=rng.uniform(0, 300),
            risk=rng.uniform(0, 5),
        )
        weights = dataclasses.replace(fitness.TABLE2, delta=rng.uniform(0, 200))
        fv = fitness.cost(final, n_nodes, weights)
        total = (
            fv.distance_term + fv.length_term + fv.time_term + fv.risk_term - fv.rewards
        )
        assert fv.j == -total  # exact, no reassociation


def test_reward_dominance_bound():
    w = fitness.TABLE2
    # worst allowed placed episode: capped length, time and risk, sloppy poses
    worst_placed = make_state(
        cube=(-2.0, 0.0),
        robot=(-1.4, 0.0),
        picked=True,
        placed=True,
        elapsed=200.0,
        risk=3.0,
    )
    # best possible episode that never moved the cube off the pick table
    best_untouched = make_state(cube=(2.0, 0.0), robot=(2.0, 0.0))
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


def every_episode_oracle(compiled, n_nodes, weights, episodes, rng, **budgets):
    """The mean of the terms ``cost`` gives each of ``episodes`` simulated
    episodes, summed in episode order."""
    sums = [0.0] * 5
    for _ in range(episodes):
        fv = fitness.cost(world.run_compiled(compiled, rng, **budgets), n_nodes, weights)
        for k, term in enumerate(
            (fv.distance_term, fv.length_term, fv.time_term, fv.risk_term, fv.rewards)
        ):
            sums[k] += term
    return fitness._from_terms(*(total * (1.0 / episodes) for total in sums))


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
        got, drew = fitness.evaluate_compiled(compiled, n_nodes, weights, 7, random.Random(seed))
        assert got == every_episode_oracle(compiled, n_nodes, weights, 7, random.Random(seed))
        assert got.risk_term > 0.0
        assert drew


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
    return [getattr(fv, name).hex() for name in fv._fields]


def count_episodes(monkeypatch) -> list:
    calls = []
    run_compiled = world.run_compiled

    def counting_run_compiled(*args, **kwargs):
        calls.append(args[0])
        return run_compiled(*args, **kwargs)

    monkeypatch.setattr(fitness, "run_compiled", counting_run_compiled)
    return calls


@pytest.mark.parametrize(
    "profile, text, simulated",
    [
        (DET, "s( localise tuck move_to_pick head_down pick )", 1),
        (STOCH3, "s( localise tuck move_to_pick head_down pick )", 5),
        # the move fails unlocalised before it can draw, and localise is never ticked
        (STOCH3, "s( move_to_pick localise )", 1),
        # neither behavior can fail or lose anything on stoch3
        (STOCH3, "s( tuck head_up )", 1),
    ],
    ids=["det", "stoch3", "stoch3-unlocalised-move", "stoch3-no-drawing-leaf"],
)
def test_evaluation_simulates_one_episode_only_when_nothing_draws(
    monkeypatch, profile, text, simulated
):
    calls = count_episodes(monkeypatch)
    tokens = bt.from_text(text)
    compiled = bt.compile_tree(tokens, world.build_transition_table(profile))
    n_nodes = bt.node_count(tokens)
    fitness.evaluate_compiled(compiled, n_nodes, fitness.TABLE2, 5, random.Random(0))
    assert calls == [compiled] * simulated


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pool=st.sampled_from(tuple(world.POOLS)),
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
    got, drew = fitness.evaluate_compiled(
        compiled, n_nodes, weights, episodes, random.Random(seed), **budgets
    )
    # a det episode is a pure function of the tree, so N of them score as one, bit for bit
    episode = world.run_compiled(compiled, random.Random(seed), **budgets)
    assert float_bits(got) == float_bits(fitness.cost(episode, n_nodes, weights))
    assert not drew


STOCHASTIC_COLUMNS = [c for c in world.PROBABILITY_COLUMNS if c != "det"]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    column=st.sampled_from(STOCHASTIC_COLUMNS),
    pool=st.sampled_from(tuple(world.POOLS)),
    length=st.integers(1, 16),
    episodes=st.integers(1, 7),
    max_root_failures=st.integers(0, 6),
    max_ticks=st.integers(1, 120),
)
def test_stochastic_evaluation_matches_every_episode_oracle(
    seed, column, pool, length, episodes, max_root_failures, max_ticks
):
    # the det rule holds on a stochastic profile too: a first episode that
    # draws nothing is the value, float for float, as every later episode
    # would repeat it; else the value is the every-episode oracle's. Either
    # way the rng ends where simulating every episode leaves it.
    profile = world.make_profile(column, pool)
    rng = random.Random(seed)
    tokens = bt.random_genotype(world.leaf_kinds(profile), length, rng)
    compiled = bt.compile_tree(tokens, world.build_transition_table(profile))
    n_nodes = bt.node_count(tokens)
    weights = dataclasses.replace(fitness.TABLE2, delta=rng.choice([0.0, 150.0]))
    budgets = {"max_root_failures": max_root_failures, "max_ticks": max_ticks}
    first_rng, got_rng, oracle_rng = (random.Random(seed) for _ in range(3))
    first = world.run_compiled(compiled, first_rng, **budgets)
    got, drew = fitness.evaluate_compiled(
        compiled, n_nodes, weights, episodes, got_rng, **budgets
    )
    oracle = every_episode_oracle(compiled, n_nodes, weights, episodes, oracle_rng, **budgets)
    assert drew == (first_rng.getstate() != random.Random(seed).getstate())
    if not drew:
        oracle = fitness.cost(first, n_nodes, weights)
    assert float_bits(got) == float_bits(oracle)
    assert got_rng.getstate() == oracle_rng.getstate()


@functools.cache
def bred_genotypes(column: str, pool: str) -> tuple:
    """The distinct genotypes of a short run's populations: bred trees reach
    the behaviors that draw, which most random trees never tick."""
    seen: dict = {}
    gp.run(
        gp.GpParams(generations=15, seed=0),
        world.make_profile(column, pool),
        on_generation=lambda _, population: seen.update(
            dict.fromkeys(ind.genotype for ind in population)
        ),
    )
    return tuple(seen)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    column=st.sampled_from(list(world.PROBABILITY_COLUMNS)),
    pool=st.sampled_from(["core9", "safe_paths"]),
    episodes=st.sampled_from([1, 3]),
    pick=st.integers(0, 2**16),
)
def test_an_evaluation_drew_exactly_when_it_moved_the_rng(seed, column, pool, episodes, pick):
    # the evaluator's cache rests on this: an evaluation that reports no draw
    # left the stream where it was, so serving its genotype again from the
    # cache skips no draw
    profile = world.make_profile(column, pool)
    bred = bred_genotypes(column, pool)
    tokens = bred[pick % len(bred)]
    compiled = bt.compile_tree(tokens, world.build_transition_table(profile))
    rng = random.Random(seed)
    before = rng.getstate()
    _, drew = fitness.evaluate_compiled(
        compiled, bt.node_count(tokens), fitness.TABLE2, episodes, rng
    )
    assert drew == (rng.getstate() != before)


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
    fitness.evaluate_compiled(compiled, 1, fitness.TABLE2, 1, random.Random(0), **budgets)


def evaluate_entry(**budgets):
    fitness.evaluate(("localise",), DET, fitness.TABLE2, 1, random.Random(0), **budgets)


@pytest.mark.parametrize("entry", [evaluate_compiled_entry, evaluate_entry])
def test_episode_entry_points_accept_the_least_budgets(entry):
    entry(max_ticks=1, max_root_failures=0)


def test_weight_sets_table2_defaults():
    assert (fitness.ALPHA1, fitness.ALPHA2, fitness.ALPHA3) == (10.0, 2.0, 1.0)
    assert (fitness.BETA, fitness.GAMMA, fitness.TABLE2.delta) == (0.5, 0.1, 0.0)
    assert (fitness.PICK_REWARD, fitness.PLACE_REWARD) == (50.0, 100.0)


def test_fitness_value_is_slotted_and_pickles():
    fv = fitness.FitnessValue(-1.5, 1.0, 0.5, 0.25, 0.0, 0.25)
    # checkpoints store the fields in this order
    assert fv._fields == (
        "j", "distance_term", "length_term", "time_term", "risk_term", "rewards"
    )
    assert not hasattr(fv, "__dict__")
    with pytest.raises(AttributeError):
        fv.j = 0.0
    assert -fv.j == 1.5
    again = pickle.loads(pickle.dumps(fv))
    assert again == fv


def wrapped_in_single_child_controls(tokens, rng):
    """``tokens`` with one to three single-child controls put around random
    nodes; its canonical form is canonical(tokens)."""
    for _ in range(rng.randint(1, 3)):
        start, stop, *_ = rng.choice(bt.node_facts(tokens))
        tok = rng.choice((bt.SEQUENCE_OPEN, bt.FALLBACK_OPEN))
        tokens = tokens[:start] + (tok,) + tokens[start:stop] + (bt.CLOSE,) + tokens[stop:]
    return tokens


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    column=st.sampled_from(["stoch3", "stoch4"]),
    length=st.integers(1, 16),
    episodes=st.integers(1, 5),
)
def test_single_child_controls_tick_as_their_child(seed, column, length, episodes):
    # a single-child control passes its child's status through unchanged, so
    # a genotype and its canonical form play the same episodes: only the
    # length term, which counts the wrappers, may differ
    profile = world.make_profile(column)
    weights = dataclasses.replace(fitness.TABLE2, delta=150.0)
    rng = random.Random(seed)
    canonical = bt.canonical(bt.random_genotype(world.leaf_kinds(profile), length, rng))
    wrapped = wrapped_in_single_child_controls(canonical, rng)
    assert bt.canonical(wrapped) == canonical != wrapped
    rng_w, rng_c = random.Random(seed), random.Random(seed)
    got = fitness.evaluate(wrapped, profile, weights, episodes, rng_w)
    want = fitness.evaluate(canonical, profile, weights, episodes, rng_c)
    same = ("distance_term", "time_term", "risk_term", "rewards")
    assert [getattr(got, t).hex() for t in same] == [getattr(want, t).hex() for t in same]
    assert rng_w.getstate() == rng_c.getstate()
