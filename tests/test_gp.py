"""Genetic operators, selection, generation loop, checkpointing."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btgp import bt, experiments, fitness, gp, world

DET = world.make_profile("det")
KINDS = world.leaf_kinds(DET)


def ind(text: str, j: float | None = None) -> gp.Individual:
    individual = gp.Individual(bt.from_text(text))
    if j is not None:
        individual.fitness = fitness.FitnessValue(j, 0.0, 0.0, 0.0, 0.0, 0.0)
    return individual


def evaluated(values: list[float]) -> list[gp.Individual]:
    return [ind("localise", j) for j in values]


def test_round_half_up():
    assert gp.round_half_up(12.0) == 12
    assert gp.round_half_up(2.5) == 3
    assert gp.round_half_up(2.4) == 2


def test_params_validation():
    with pytest.raises(ValueError):
        gp.GpParams(p_node_mutation=0.5, p_node_addition=0.5, p_node_deletion=0.5)
    with pytest.raises(ValueError):
        gp.GpParams(crossover_fraction=1.5)
    with pytest.raises(ValueError):
        gp.GpParams(population=1)


@pytest.mark.parametrize(
    "field, value",
    [("generations", -1), ("episodes_per_eval", 0), ("early_stop_window", -1)],
)
def test_params_reject_out_of_range_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        gp.GpParams(**{field: value})


def test_tournament_single_duel():
    a, b = evaluated([1.0, 2.0])
    assert gp.tournament([a, b], 1, random.Random(0)) == [b]


def test_tournament_rejects_oversized_slots():
    with pytest.raises(gp.SlotsExceedCandidates):
        gp.tournament(evaluated([1.0, 2.0]), 3, random.Random(0))


def test_tournament_all_slots_returns_everyone():
    cands = evaluated([1.0, 2.0, 3.0])
    assert gp.tournament(cands, 3, random.Random(0)) == cands


def test_tournament_ties_give_random_subset():
    cands = evaluated([5.0] * 8)
    seen = set()
    for seed in range(60):
        winners = gp.tournament(list(cands), 3, random.Random(seed))
        assert len(winners) == 3
        seen.add(frozenset(id(w) for w in winners))
    assert len(seen) > 10  # many different subsets appear


def test_tournament_best_always_survives_worst_never():
    rng = random.Random(0)
    for trial in range(10_000):
        values = [rng.uniform(-100, 100) for _ in range(90)]
        cands = evaluated(values)
        best = max(cands, key=lambda c: c.fitness.j)
        worst = min(cands, key=lambda c: c.fitness.j)
        winners = gp.tournament(cands, 27, rng)
        assert len(winners) == 27
        assert best in winners
        assert worst not in winners


def test_crossover_of_two_leaves_swaps_them():
    p1, p2 = ind("localise"), ind("tuck")
    c1, c2 = gp.crossover(p1, p2, KINDS, random.Random(0))
    assert c1.genotype == ("tuck",)
    assert c2.genotype == ("localise",)


def test_crossover_identical_single_leaf_parents_returned_unchanged():
    p1, p2 = ind("localise"), ind("localise")
    c1, c2 = gp.crossover(p1, p2, KINDS, random.Random(0))
    assert c1.genotype == c2.genotype == ("localise",)


def test_crossover_leaf_swap_against_splice_oracle():
    p1 = ind("s( localise tuck )")
    p2 = ind("pick")
    outcomes = set()
    for seed in range(80):
        c1, c2 = gp.crossover(p1, p2, KINDS, random.Random(seed))
        outcomes.add((c1.genotype, c2.genotype))
        # both offspring are splices of the two parents
        assert not bt.validate(c1.genotype, KINDS)
        assert not bt.validate(c2.genotype, KINDS)
    assert (bt.from_text("s( localise pick )"), ("tuck",)) in outcomes
    assert (bt.from_text("s( pick tuck )"), ("localise",)) in outcomes
    # root swap: offspring are copies of the opposite parents
    assert (("pick",), bt.from_text("s( localise tuck )")) in outcomes


def test_crossover_respects_node_cap():
    p1 = ind("s( localise tuck move_to_pick head_down pick )")
    p2 = ind("s( head_up move_to_goal place have_block pick )")
    for seed in range(50):
        c1, c2 = gp.crossover(p1, p2, KINDS, random.Random(seed), node_cap=8)
        assert bt.node_count(c1.genotype) <= 8
        assert bt.node_count(c2.genotype) <= 8


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), slack=st.integers(0, 12))
def test_crossover_offspring_respect_any_node_cap(seed, slack):
    rng = random.Random(seed)
    p1 = gp.Individual(bt.random_genotype(KINDS, rng.randint(1, 12), rng))
    p2 = gp.Individual(bt.random_genotype(KINDS, rng.randint(1, 12), rng))
    # a cap the parents meet, so that returning them unchanged is within it too
    cap = max(bt.node_count(p1.genotype), bt.node_count(p2.genotype)) + slack
    c1, c2 = gp.crossover(p1, p2, KINDS, rng, node_cap=cap)
    assert bt.node_count(c1.genotype) <= cap
    assert bt.node_count(c2.genotype) <= cap


def crossover_retrying_every_pair(p1, p2, kinds, rng, *, node_cap, max_attempts, exclude):
    """``gp.crossover`` without its memo of rejected span pairs: every
    attempt re-checks its pair, repeats included."""
    g1, g2 = p1.genotype, p2.genotype
    if g1 == g2 and len(g1) == 1:
        return (gp.Individual(g1), gp.Individual(g2))
    spans1 = bt.node_spans(g1)
    spans2 = bt.node_spans(g2)
    n1, n2 = len(spans1), len(spans2)
    for _ in range(max_attempts):
        s1, e1, k1 = spans1[rng.randrange(n1)]
        s2, e2, k2 = spans2[rng.randrange(n2)]
        c1 = g1[:s1] + g2[s2:e2] + g1[e1:]
        c2 = g2[:s2] + g1[s1:e1] + g2[e2:]
        if c1 == c2 or n1 - k1 + k2 > node_cap or n2 - k2 + k1 > node_cap:
            continue
        key1 = bt.canonical(c1)
        if key1 in exclude:
            continue
        key2 = bt.canonical(c2)
        if key2 in exclude:
            continue
        if bt.validate(c1, kinds) or bt.validate(c2, kinds):
            continue
        return (gp.Individual(c1, key=key1), gp.Individual(c2, key=key2))
    return (gp.Individual(g1, key=p1._key), gp.Individual(g2, key=p2._key))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    node_cap=st.integers(1, 16),
    max_attempts=st.integers(1, 100),
    p_exclude=st.floats(0.0, 1.0),
)
def test_crossover_matches_retrying_oracle(seed, node_cap, max_attempts, p_exclude):
    setup = random.Random(seed)
    p1 = gp.Individual(bt.random_genotype(KINDS, setup.randint(1, 8), setup))
    p2 = gp.Individual(bt.random_genotype(KINDS, setup.randint(1, 8), setup))
    # exclude a random share of the canonical forms any span swap can produce
    g1, g2 = p1.genotype, p2.genotype
    swaps = [
        (g1[:s1] + g2[s2:e2] + g1[e1:], g2[:s2] + g1[s1:e1] + g2[e2:])
        for s1, e1, _ in bt.node_spans(g1)
        for s2, e2, _ in bt.node_spans(g2)
    ]
    exclude = {
        bt.canonical(c) for pair in swaps for c in pair if setup.random() < p_exclude
    }
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    got = gp.crossover(
        p1, p2, KINDS, rng_a, node_cap=node_cap, max_attempts=max_attempts, exclude=exclude
    )
    want = crossover_retrying_every_pair(
        p1, p2, KINDS, rng_b, node_cap=node_cap, max_attempts=max_attempts, exclude=exclude
    )
    assert [(c.genotype, c.key) for c in got] == [(c.genotype, c.key) for c in want]
    assert rng_a.getstate() == rng_b.getstate()


def test_crossover_offspring_are_valid():
    rng = random.Random(4)
    for _ in range(200):
        p1 = gp.Individual(bt.random_genotype(KINDS, rng.randint(1, 12), rng))
        p2 = gp.Individual(bt.random_genotype(KINDS, rng.randint(1, 12), rng))
        c1, c2 = gp.crossover(p1, p2, KINDS, rng)
        assert not bt.validate(c1.genotype, KINDS)
        assert not bt.validate(c2.genotype, KINDS)


def test_mutate_offspring_are_valid_and_capped():
    params = gp.GpParams()
    rng = random.Random(8)
    for _ in range(500):
        parent = gp.Individual(bt.random_genotype(KINDS, rng.randint(1, 10), rng))
        child = gp.mutate(parent, KINDS, params, rng)
        assert not bt.validate(child.genotype, KINDS)
        assert bt.node_count(child.genotype) <= params.node_cap


def test_mutate_single_leaf_redraws_operator():
    # deletion alone cannot apply to a single-leaf tree; another operator runs
    params = gp.GpParams()
    parent = ind("localise")
    changed = 0
    for seed in range(100):
        child = gp.mutate(parent, KINDS, params, random.Random(seed))
        assert not bt.validate(child.genotype, KINDS)
        changed += child.genotype != parent.genotype
    assert changed > 60


def test_mutate_can_add_leaf_between_siblings():
    params = gp.GpParams()
    parent = ind("s( localise tuck )")
    outcomes = {
        gp.mutate(parent, KINDS, params, random.Random(seed)).genotype
        for seed in range(400)
    }
    assert bt.from_text("s( localise pick tuck )") in outcomes


def test_mutate_can_flip_control_kind():
    params = gp.GpParams()
    parent = ind("s( localise tuck )")
    outcomes = {
        gp.mutate(parent, KINDS, params, random.Random(seed)).genotype
        for seed in range(200)
    }
    assert bt.from_text("f( localise tuck )") in outcomes


def test_mutate_can_delete_subtree():
    params = gp.GpParams()
    parent = ind("s( localise f( tuck pick ) place )")
    outcomes = {
        gp.mutate(parent, KINDS, params, random.Random(seed)).genotype
        for seed in range(200)
    }
    assert bt.from_text("s( localise place )") in outcomes


def make_population(n=30, seed=0):
    rng = random.Random(seed)
    return [gp.Individual(bt.random_genotype(KINDS, 4, rng), 0) for _ in range(n)]


def test_evolve_generation_offspring_accounting():
    params = gp.GpParams(seed=0)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = make_population()
    evaluator.eval_batch(population, "init")

    counted = []
    original = evaluator.eval_batch

    def counting_eval(individuals, tag):
        counted.append((tag, len(individuals)))
        return original(individuals, tag)

    evaluator.eval_batch = counting_eval
    new_pop, stats = gp.evolve_generation(population, evaluator, params, random.Random(1), 1)
    assert len(new_pop) == 30
    # 12 crossover parents -> 6 pairs x 4 = 24; 18 mutation parents x 2 = 36
    assert counted == [("g1:off", 60)]
    assert stats.episodes == 60
    assert not any(bt.validate(i.genotype, KINDS) for i in new_pop)


def test_evolve_generation_reevaluates_elites_when_asked():
    params = gp.GpParams(seed=0, reevaluate_elites=True)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = make_population()
    evaluator.eval_batch(population, "init")
    _, stats = gp.evolve_generation(population, evaluator, params, random.Random(1), 1)
    assert stats.episodes == 63  # 60 offspring + 3 elites


def test_run_zero_generations_returns_initial_population_only():
    params = gp.GpParams(generations=0, seed=3)
    history, best = gp.run(params, DET, fitness.TABLE2)
    assert len(history) == 1
    assert history[0].generation == 0
    assert best.fitness is not None


def test_run_deterministic_given_seed():
    params = gp.GpParams(generations=15, seed=5)
    h1, b1 = gp.run(params, DET, fitness.TABLE2)
    h2, b2 = gp.run(params, DET, fitness.TABLE2)
    assert [(s.generation, s.best_j, s.mean_j, s.best_genotype) for s in h1] == [
        (s.generation, s.best_j, s.mean_j, s.best_genotype) for s in h2
    ]
    assert b1.genotype == b2.genotype


def test_best_fitness_monotone_on_deterministic_profile():
    params = gp.GpParams(generations=60, seed=1)
    history, _ = gp.run(params, DET, fitness.TABLE2)
    values = [h.best_j for h in history]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_population_stats_invariant():
    params = gp.GpParams(generations=10, seed=2)
    history, _ = gp.run(params, DET, fitness.TABLE2)
    for h in history:
        assert h.best_j >= h.mean_j


def test_early_stop_window():
    params = gp.GpParams(generations=500, seed=1, early_stop_window=20)
    history, _ = gp.run(params, DET, fitness.TABLE2)
    assert history[-1].generation < 500
    tail = [h.best_j for h in history[-21:]]
    assert all(v == tail[0] for v in tail)


def test_stop_fn_receives_best_and_stops():
    seen = []

    def stop(stats, best):
        seen.append((stats.generation, best.fitness.j))
        return stats.generation >= 7

    params = gp.GpParams(generations=100, seed=0)
    history, _ = gp.run(params, DET, fitness.TABLE2, stop_fn=stop)
    assert history[-1].generation == 7
    assert seen[-1][0] == 7


def test_checkpoint_resume_reproduces_run(tmp_path):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=12, seed=9)
    full_history, full_best = gp.run(params, DET, fitness.TABLE2)

    gp.run(
        gp.GpParams(generations=6, seed=9),
        DET,
        fitness.TABLE2,
        checkpoint_path=path,
        checkpoint_every=6,
    )
    resumed_history, resumed_best = gp.run(
        params, DET, fitness.TABLE2, resume_from=path
    )
    assert [(s.generation, s.best_j, s.best_genotype) for s in resumed_history] == [
        (s.generation, s.best_j, s.best_genotype) for s in full_history
    ]
    assert resumed_best.genotype == full_best.genotype


def test_checkpoint_rejects_wrong_seed(tmp_path):
    path = tmp_path / "ckpt.json"
    gp.run(
        gp.GpParams(generations=3, seed=1),
        DET,
        fitness.TABLE2,
        checkpoint_path=path,
        checkpoint_every=3,
    )
    with pytest.raises(ValueError):
        gp.run(gp.GpParams(generations=5, seed=2), DET, fitness.TABLE2, resume_from=path)


@pytest.mark.parametrize(
    "profile, weights, differs",
    [
        (world.make_profile("stoch1"), fitness.TABLE2, "profile"),
        (DET, fitness.TABLE2.with_delta(150.0), "weights"),
    ],
)
def test_checkpoint_rejects_other_profile_or_weights(tmp_path, profile, weights, differs):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=2, seed=1, population=6)
    gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)
    with pytest.raises(ValueError, match=f"another run \\(different {differs}\\)"):
        gp.run(params, profile, weights, resume_from=path)


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=2, seed=1, population=6)
    gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(gp.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        gp.run(
            gp.GpParams(generations=4, seed=1, population=6),
            DET,
            fitness.TABLE2,
            checkpoint_path=path,
            checkpoint_every=2,
            resume_from=path,
        )
    assert path.read_bytes() == before
    assert gp.load_checkpoint(path)["generation"] == 2
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "every, message",
    [
        (-1, "^checkpoint_every must be >= 0, got -1$"),
        (0, "^a checkpoint path needs checkpoint_every >= 1$"),
    ],
    ids=["negative", "zero"],
)
def test_run_rejects_checkpoint_interval(tmp_path, every, message):
    params = gp.GpParams(generations=2, population=6)
    path = tmp_path / "c.json"
    with pytest.raises(ValueError, match=message):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=every)
    assert not path.exists()


def test_resume_rejects_checkpoint_past_generations(tmp_path):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=4, seed=1, population=6)
    gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=4)
    # resuming at the checkpoint's own generation runs nothing more
    history, _ = gp.run(params, DET, fitness.TABLE2, resume_from=path)
    assert history[-1].generation == 4
    shorter = gp.GpParams(generations=3, seed=1, population=6)
    with pytest.raises(ValueError, match="at generation 4, past generations=3"):
        gp.run(shorter, DET, fitness.TABLE2, resume_from=path)


def test_individual_repr_and_clone():
    individual = ind("s( localise tuck )", 3.5)
    clone = individual.clone()
    assert clone.genotype == individual.genotype
    assert clone.fitness == individual.fitness
    assert "localise" in repr(individual)


def history_digest(history) -> str:
    rows = "".join(
        f"{h.generation},{h.best_j!r},{h.mean_j!r},{bt.to_text(h.best_genotype)},{h.episodes}\n"
        for h in history
    )
    return hashlib.sha256(rows.encode()).hexdigest()


# SHA-256 of the history rows of two fixed runs, taken before canonical became
# one pass and det fitness was cached. A change to any row's best_j, mean_j,
# best genotype or episode count breaks them.
DET_SEED0_100_DIGEST = "ce6c15463ee1b4ce3f4fc0edc5cf2c691257fcd96f710eff59a9d1ffee331498"
STOCH3_SEED0_40_DIGEST = "a6ec9712424f24be67832e95871aae156b6e2b030ea5c1f6bf4651b16fd3907a"
# Taken on the same code as the two above plus the single-pass canonical and
# the det cache; exp3 with delta = 150 is the one pinned run whose risk term
# is not zero.
EXP3_DELTA150_SEED0_40_DIGEST = "131201f524a9b3a6cc7557b323c6163b42ff8c73fe9ec90e20b9a3918b26e2c1"


def test_det_history_digest_is_pinned():
    params = gp.GpParams(generations=100, seed=0)
    history, _ = gp.run(params, DET, fitness.TABLE2)
    assert history_digest(history) == DET_SEED0_100_DIGEST


def test_stoch3_history_digest_is_pinned():
    params = gp.GpParams(generations=40, seed=0, episodes_per_eval=5, reevaluate_elites=True)
    history, _ = gp.run(params, world.make_profile("stoch3"), fitness.TABLE2)
    assert history_digest(history) == STOCH3_SEED0_40_DIGEST


def test_exp3_risk_weighted_history_digest_is_pinned():
    params = gp.GpParams(generations=40, seed=0, episodes_per_eval=5, reevaluate_elites=True)
    weights = fitness.TABLE2.with_delta(150.0)
    history, _ = gp.run(params, experiments.exp3_profile(), weights)
    assert history_digest(history) == EXP3_DELTA150_SEED0_40_DIGEST


def count_evaluations(monkeypatch, profile, params):
    """(genotypes simulated by evaluate_one, genotypes handed to eval_batch)."""
    simulated: Counter = Counter()
    requested: list = []
    evaluate_one = gp.Evaluator.evaluate_one
    eval_batch = gp.Evaluator.eval_batch

    def counting_evaluate_one(self, genotype, seed_str):
        simulated[genotype] += 1
        return evaluate_one(self, genotype, seed_str)

    def recording_eval_batch(self, individuals, tag):
        requested.extend(ind.genotype for ind in individuals)
        return eval_batch(self, individuals, tag)

    monkeypatch.setattr(gp.Evaluator, "evaluate_one", counting_evaluate_one)
    monkeypatch.setattr(gp.Evaluator, "eval_batch", recording_eval_batch)
    history, _ = gp.run(params, profile, fitness.TABLE2)
    assert sum(h.episodes for h in history) == len(requested) * params.episodes_per_eval
    return simulated, requested


def test_det_simulates_each_distinct_genotype_once(monkeypatch):
    params = gp.GpParams(generations=30, seed=0, reevaluate_elites=True)
    simulated, requested = count_evaluations(monkeypatch, DET, params)
    assert set(simulated) == set(requested)
    assert set(simulated.values()) == {1}
    assert len(requested) > len(simulated)  # repeats were served from the cache


@pytest.mark.parametrize(
    "profile", [world.make_profile("stoch3"), experiments.exp3_profile()], ids=["stoch3", "exp3"]
)
def test_stochastic_profiles_simulate_every_evaluation(monkeypatch, profile):
    params = gp.GpParams(generations=10, seed=0, reevaluate_elites=True)
    simulated, requested = count_evaluations(monkeypatch, profile, params)
    assert sum(simulated.values()) == len(requested)
    assert len(requested) > len(set(requested))  # repeats were simulated again
