"""Genetic operators, selection, generation loop, checkpointing."""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import json
import random
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btgp import bt, fitness, gp, world

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


def test_params_hold_no_rates():
    names = [f.name for f in dataclasses.fields(gp.GpParams)]
    assert names == [
        "population",
        "generations",
        "episodes_per_eval",
        "seed",
        "node_cap",
        "reevaluate_elites",
        "max_root_failures",
        "max_ticks",
    ]
    with pytest.raises(TypeError):
        gp.GpParams(p_node_mutation=0.3)


@pytest.mark.parametrize(
    "field, value",
    [
        ("population", 1),
        ("generations", -1),
        ("episodes_per_eval", 0),
        ("max_ticks", 0),
        ("max_root_failures", -3),
        ("node_cap", 3),  # below the fixed start length of 4
    ],
)
def test_params_reject_out_of_range_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= \\d+, got {value}$"):
        gp.GpParams(**{field: value})


def test_params_accept_probability_bounds():
    # the fixed rates are probabilities, and the mutation operators split
    # each draw between them; the episode budgets are accepted at their bounds
    rates = (
        gp.CROSSOVER_FRACTION,
        gp.MUTATION_FRACTION,
        gp.ELITISM_FRACTION,
        gp.P_NODE_MUTATION,
        gp.P_NODE_ADDITION,
        gp.P_NODE_DELETION,
        gp.P_CONTROL_NODE,
    )
    assert all(0.0 <= rate <= 1.0 for rate in rates)
    assert gp.P_NODE_MUTATION + gp.P_NODE_ADDITION + gp.P_NODE_DELETION == 1.0
    gp.GpParams(node_cap=gp.START_LENGTH, max_ticks=1, max_root_failures=0)


def test_tournament_single_duel():
    a, b = evaluated([1.0, 2.0])
    assert gp.tournament([a, b], 1, random.Random(0)) == [b]


def test_tournament_single_slot_returns_the_best():
    # the best is a winner before any duel, so no duel is left to draw for
    a, b, c = evaluated([1.0, 3.0, 2.0])
    for seed in range(20):
        assert gp.tournament([a, b, c], 1, random.Random(seed)) == [b]


def test_run_with_population_three_completes():
    # a crossover tournament of round(3 * 0.4) = 1 slot
    history, best = gp.run(gp.GpParams(population=3, generations=20), DET, fitness.TABLE2)
    assert [h.generation for h in history] == list(range(21))
    assert best.fitness.j == history[-1].best_j


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


def tournament_with_key_functions(candidates, slots, rng):
    """``gp.tournament`` as it was before its draws were inlined: best and
    worst found by ``max`` / ``min`` with a key, duel indices from
    ``rng.randrange``."""
    cands = list(candidates)
    if slots > len(cands):
        raise ValueError(f"{slots} slots for {len(cands)} candidates")
    if slots <= 0:
        return []
    if slots == len(cands):
        return cands
    js = [c.fitness.j for c in cands]
    first = js[0]
    if all(j == first for j in js):
        winners = []
        pool = cands
        need = slots
    else:
        best_i = max(range(len(cands)), key=lambda i: js[i])
        worst_i = min(range(len(cands)), key=lambda i: js[i])
        winners = [cands[best_i]]
        pool = [c for i, c in enumerate(cands) if i != best_i and i != worst_i]
        need = slots - 1
        if need == 0:
            return winners
    while len(pool) > need:
        i = rng.randrange(len(pool))
        j = rng.randrange(len(pool) - 1)
        if j >= i:
            j += 1
        a, b = pool[i], pool[j]
        if a.fitness.j > b.fitness.j:
            loser = j
        elif b.fitness.j > a.fitness.j:
            loser = i
        else:
            loser = i if rng.random() < 0.5 else j
        pool[loser] = pool[-1]
        pool.pop()
    return winners + pool


# few distinct values, so that ties are common, and 0.0 next to -0.0, which
# compare equal: which of two equal values counts as the best or worst is
# decided by position alone
TIED_J = st.sampled_from([0.0, -0.0, 1.0, -1.0, 139.6975, -169.5])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    values=st.lists(TIED_J | st.floats(allow_nan=False), min_size=1, max_size=40),
)
@example(seed=0, values=[0.0, -0.0])
@example(seed=0, values=[-0.0, 0.0, 1.0, 1.0, -0.0])
def test_tournament_matches_key_function_oracle(seed, values):
    cands = evaluated(values)
    for slots in range(len(cands) + 1):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        got = gp.tournament(cands, slots, rng_a)
        want = tournament_with_key_functions(cands, slots, rng_b)
        assert [id(c) for c in got] == [id(c) for c in want], slots
        assert rng_a.getstate() == rng_b.getstate()


def test_crossover_of_two_leaves_swaps_them():
    p1, p2 = ind("localise"), ind("tuck")
    c1, c2 = gp.crossover(p1, p2, KINDS, random.Random(0))
    assert c1.genotype == ("tuck",)
    assert c2.genotype == ("localise",)


def test_crossover_of_a_parent_with_itself_never_returns_equal_offspring():
    # swapping a subtree for itself gives two copies of the parent, an equal
    # pair that crossover redraws; two different actions swap into a new pair
    p = ind("s( localise tuck head_up )")
    for seed in range(20):
        c1, c2 = gp.crossover(p, p, KINDS, random.Random(seed))
        assert c1.genotype != c2.genotype, seed


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
    attempt re-checks its pair, repeats included, until every pair has
    been drawn."""
    g1, g2 = p1.genotype, p2.genotype
    if g1 == g2 and len(g1) == 1:
        return (gp.Individual(g1), gp.Individual(g2))
    facts1 = bt.node_facts(g1)
    facts2 = bt.node_facts(g2)
    n1, n2 = len(facts1), len(facts2)
    drawn = set()
    for _ in range(max_attempts):
        if len(drawn) == n1 * n2:
            break
        i, j = rng.randrange(n1), rng.randrange(n2)
        drawn.add((i, j))
        s1, e1, k1, _, _ = facts1[i]
        s2, e2, k2, _, _ = facts2[j]
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
    return (gp.Individual(g1, key=p1.key), gp.Individual(g2, key=p2.key))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    node_cap=st.integers(1, 16),
    max_attempts=st.integers(1, 100),
    p_exclude=st.floats(0.0, 1.0),
)
# every swap excluded: the call rejects all 24 span pairs well before 100 attempts
@example(seed=12, node_cap=16, max_attempts=100, p_exclude=1.0)
def test_crossover_matches_retrying_oracle(seed, node_cap, max_attempts, p_exclude):
    setup = random.Random(seed)
    p1 = gp.Individual(bt.random_genotype(KINDS, setup.randint(1, 8), setup))
    p2 = gp.Individual(bt.random_genotype(KINDS, setup.randint(1, 8), setup))
    # exclude a random share of the canonical forms any span swap can produce
    g1, g2 = p1.genotype, p2.genotype
    swaps = [
        (g1[:s1] + g2[s2:e2] + g1[e1:], g2[:s2] + g1[s1:e1] + g2[e2:])
        for s1, e1, *_ in bt.node_facts(g1)
        for s2, e2, *_ in bt.node_facts(g2)
    ]
    exclude = {
        bt.canonical(c) for pair in swaps for c in pair if setup.random() < p_exclude
    }
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    with mock.patch.object(gp, "MAX_ATTEMPTS", max_attempts):
        got = gp.crossover(p1, p2, KINDS, rng_a, node_cap=node_cap, exclude=exclude)
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
    rng = random.Random(8)
    for _ in range(500):
        parent = gp.Individual(bt.random_genotype(KINDS, rng.randint(1, 10), rng))
        child = gp.mutate(parent, KINDS, rng, node_cap=10)  # binds for 9- and 10-node parents
        assert not bt.validate(child.genotype, KINDS)
        assert bt.node_count(child.genotype) <= 10


def test_mutate_single_leaf_redraws_operator():
    # deletion alone cannot apply to a single-leaf tree; another operator runs
    parent = ind("localise")
    changed = 0
    for seed in range(100):
        child = gp.mutate(parent, KINDS, random.Random(seed))
        assert not bt.validate(child.genotype, KINDS)
        changed += child.genotype != parent.genotype
    assert changed > 60


def test_mutate_can_add_leaf_between_siblings():
    parent = ind("s( localise tuck )")
    outcomes = {
        gp.mutate(parent, KINDS, random.Random(seed)).genotype
        for seed in range(400)
    }
    assert bt.from_text("s( localise pick tuck )") in outcomes


def test_mutate_can_flip_control_kind():
    parent = ind("s( localise tuck )")
    outcomes = {
        gp.mutate(parent, KINDS, random.Random(seed)).genotype
        for seed in range(200)
    }
    assert bt.from_text("f( localise tuck )") in outcomes


def test_mutate_can_delete_subtree():
    parent = ind("s( localise f( tuck pick ) place )")
    outcomes = {
        gp.mutate(parent, KINDS, random.Random(seed)).genotype
        for seed in range(200)
    }
    assert bt.from_text("s( localise place )") in outcomes


# ``gp.mutate`` before local verdicts: every operator rescans the genotype
# and every candidate is checked with ``bt.validate``.


def insertion_slots(tokens):
    slots = []
    depth = 0
    for j, tok in enumerate(tokens):
        if depth >= 1:
            slots.append(j)
        if bt.is_control_open(tok):
            depth += 1
        elif tok == bt.CLOSE:
            depth -= 1
    return slots


def child_boundaries(tokens):
    bounds = {}
    stack = []
    for j, tok in enumerate(tokens):
        if stack:
            bounds[stack[-1]].append(j)
        if bt.is_control_open(tok):
            bounds[j] = []
            stack.append(j)
        elif tok == bt.CLOSE:
            stack.pop()
    return list(bounds.values())


def node_indices(tokens):
    return [i for i, t in enumerate(tokens) if t != bt.CLOSE]


def random_control(rng):
    return bt.SEQUENCE_OPEN if rng.random() < 0.5 else bt.FALLBACK_OPEN


def op_node_mutation(g, ids, rng):
    nodes = node_indices(g)
    i = nodes[rng.randrange(len(nodes))]
    if rng.random() < gp.P_CONTROL_NODE:
        tok = random_control(rng)
        if bt.is_control_open(g[i]):
            return g[:i] + (tok,) + g[i + 1 :]
        return g[:i] + (tok, g[i], bt.CLOSE) + g[i + 1 :]
    leaf = ids[rng.randrange(len(ids))]
    if bt.is_control_open(g[i]):
        s, e = bt.subtree_span(g, i)
        return g[:s] + (leaf,) + g[e:]
    return g[:i] + (leaf,) + g[i + 1 :]


def op_node_addition(g, ids, rng):
    if rng.random() < gp.P_CONTROL_NODE:
        runs = [
            (slots[x], slots[y])
            for slots in child_boundaries(g)
            for x in range(len(slots) - 1)
            for y in range(x + 1, len(slots))
        ]
        tok = random_control(rng)
        if not runs:
            return (tok,) + g + (bt.CLOSE,)
        lo, hi = runs[rng.randrange(len(runs))]
        return g[:lo] + (tok,) + g[lo:hi] + (bt.CLOSE,) + g[hi:]
    leaf = ids[rng.randrange(len(ids))]
    slots = insertion_slots(g)
    nodes = node_indices(g)
    if slots and rng.random() < 0.5:
        j = slots[rng.randrange(len(slots))]
        return g[:j] + (leaf,) + g[j:]
    r = rng.randrange(2 * len(nodes))
    s, e = bt.subtree_span(g, nodes[r // 2])
    tok = random_control(rng)
    if r % 2 == 0:
        return g[:s] + (tok, leaf) + g[s:e] + (bt.CLOSE,) + g[e:]
    return g[:s] + (tok,) + g[s:e] + (leaf, bt.CLOSE) + g[e:]


def op_node_deletion(g, rng):
    nodes = node_indices(g)
    if len(nodes) <= 1:
        return None
    i = nodes[rng.randrange(len(nodes) - 1) + 1]
    s, e = bt.subtree_span(g, i)
    return g[:s] + g[e:]


def mutate_validating_every_candidate(parent, kinds, rng, *, node_cap, max_attempts, exclude):
    ids = sorted(kinds)
    g = parent.genotype
    valid_dup = None
    dup_key = None
    for _ in range(max_attempts):
        r = rng.random()
        if r < gp.P_NODE_MUTATION:
            cand = op_node_mutation(g, ids, rng)
        elif r < gp.P_NODE_MUTATION + gp.P_NODE_ADDITION:
            cand = op_node_addition(g, ids, rng)
        else:
            cand = op_node_deletion(g, rng)
        if cand is None or bt.node_count(cand) > node_cap:
            continue
        if bt.validate(cand, kinds):
            continue
        key = bt.canonical(cand)
        if key in exclude:
            valid_dup, dup_key = cand, key
            continue
        return gp.Individual(cand, key=key)
    if valid_dup is not None:
        return gp.Individual(valid_dup, key=dup_key)
    return gp.Individual(g, key=parent.key)


# DET's leaves plus a second condition, so that V4 can tell two condition ids apart
TWO_CONDITIONS = {**KINDS, "path_clear": bt.CONDITION}
# 39 leaf ids, not a power of two: a leaf draw rejects some getrandbits values
HIGH_NOISE = world.leaf_kinds(world.make_profile("det", "high_noise"))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.sampled_from([KINDS, TWO_CONDITIONS, HIGH_NOISE]),
    size=st.integers(1, gp.GpParams.node_cap),
    slack=st.integers(0, 6),
    max_attempts=st.integers(1, 100),
    p_control=st.floats(0.0, 1.0),
    p_exclude=st.floats(0.0, 1.0),
)
# an attempt deletes the node between two equal conditions, which breaks V4
@example(seed=173, kinds=KINDS, size=8, slack=6, max_attempts=100, p_control=0.5, p_exclude=0.5)
def test_mutate_matches_validating_oracle(
    seed, kinds, size, slack, max_attempts, p_control, p_exclude
):
    setup = random.Random(seed)
    parent = gp.Individual(bt.random_genotype(kinds, size, setup))
    # a cap the parent meets, so that copying it is within the cap too, and
    # at most the run's: it binds when the parent is within two nodes of it
    cap = min(bt.node_count(parent.genotype) + slack, gp.GpParams.node_cap)
    with mock.patch.object(gp, "P_CONTROL_NODE", p_control):
        # exclude a random share of the canonical forms mutation reaches, the parent's included
        reachable = {parent.key} | {
            gp.mutate(parent, kinds, setup, node_cap=cap).key for _ in range(30)
        }
        exclude = {key for key in sorted(reachable) if setup.random() < p_exclude}
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        with mock.patch.object(gp, "MAX_ATTEMPTS", max_attempts):
            got = gp.mutate(parent, kinds, rng_a, node_cap=cap, exclude=exclude)
        want = mutate_validating_every_candidate(
            parent, kinds, rng_b, node_cap=cap, max_attempts=max_attempts, exclude=exclude
        )
    assert (got.genotype, got.key) == (want.genotype, want.key)
    assert rng_a.getstate() == rng_b.getstate()
    assert not bt.validate(got.genotype, kinds)
    assert bt.node_count(got.genotype) <= cap


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.sampled_from([KINDS, TWO_CONDITIONS]),
    p_control=st.floats(0.0, 1.0),
)
def test_local_verdicts_match_validate(seed, kinds, p_control):
    """Every candidate an operator returns is valid: an operator builds no
    candidate for an edit that breaks V1-V4 (``test_mutate_matches_validating_oracle``
    checks those verdicts against ``bt.validate`` end to end)."""
    rng = random.Random(seed)
    ids = sorted(kinds)
    g = bt.random_genotype(kinds, rng.randint(1, 12), rng)
    other = bt.random_genotype(kinds, rng.randint(1, 12), rng)
    facts = bt.node_facts(g)
    with mock.patch.object(gp, "P_CONTROL_NODE", p_control):
        for _ in range(20):
            for edit in (
                gp._op_node_mutation(g, facts, ids, kinds, rng),
                gp._op_node_addition(g, facts, ids, kinds, rng),
                gp._op_node_deletion(g, facts, kinds, rng),
            ):
                if edit is not None:
                    cand, _ = edit
                    assert not bt.validate(cand, kinds), (g, cand)
    # every subtree swap crossover can make from g and other
    for row in facts:
        for s, e, *_ in bt.node_facts(other):
            child = g[: row[0]] + other[s:e] + g[row[1] :]
            assert bt.fits(g, row, other[s], kinds) == (not bt.validate(child, kinds))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.sampled_from([KINDS, TWO_CONDITIONS]),
    p_control=st.floats(0.0, 1.0),
)
def test_mutation_candidates_have_at_most_two_nodes_more(seed, kinds, p_control):
    """``mutate`` counts a candidate's nodes only when its parent's count
    plus two passes the node cap, so no operator may add more than two."""
    rng = random.Random(seed)
    ids = sorted(kinds)
    g = bt.random_genotype(kinds, rng.randint(1, 12), rng)
    facts = bt.node_facts(g)
    bound = bt.node_count(g) + 2
    with mock.patch.object(gp, "P_CONTROL_NODE", p_control):
        for _ in range(20):
            for edit in (
                gp._op_node_mutation(g, facts, ids, kinds, rng),
                gp._op_node_addition(g, facts, ids, kinds, rng),
                gp._op_node_deletion(g, facts, kinds, rng),
            ):
                if edit is not None:
                    cand, _ = edit
                    assert bt.node_count(cand) <= bound, (g, cand)


def test_a_new_leaf_bundled_under_a_new_control_adds_two_nodes(monkeypatch):
    # the bound above is reached: a new leaf goes in as a sibling (+1) or
    # bundled with an existing node under a new control (+2); an edit the
    # operator rejects builds no candidate
    monkeypatch.setattr(gp, "P_CONTROL_NODE", 0.0)  # a new leaf, not a new control
    g = bt.from_text("s( localise tuck )")
    facts, ids = bt.node_facts(g), sorted(KINDS)
    edits = [gp._op_node_addition(g, facts, ids, KINDS, random.Random(seed)) for seed in range(50)]
    grown = {bt.node_count(edit[0]) for edit in edits if edit is not None}
    assert grown == {bt.node_count(g) + 1, bt.node_count(g) + 2}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.sampled_from([KINDS, TWO_CONDITIONS]))
def test_plain_edits_of_canonical_genotypes_are_canonical(seed, kinds):
    """Every crossover splice of two canonical genotypes is its own
    canonical form. The genotypes are canonical forms of random ones, whose
    single-child wrappers have been spliced out."""
    rng = random.Random(seed)
    g = bt.canonical(bt.random_genotype(kinds, rng.randint(1, 12), rng))
    other = bt.canonical(bt.random_genotype(kinds, rng.randint(1, 12), rng))
    facts = bt.node_facts(g)
    for row in facts:
        for s, e, *_ in bt.node_facts(other):
            child = g[: row[0]] + other[s:e] + g[row[1] :]
            assert bt.canonical(child) == child


def test_operator_keys_of_canonical_genotypes_are_their_canonical_forms():
    """Every candidate an operator returns for a canonical genotype carries
    its canonical form as its key, so ``mutate`` needs
    ``bt.canonical`` only for a parent that is not canonical. Both edits
    whose key is spliced are reached: a deletion that leaves its parent one
    child, and a new control over every child of a control."""
    spliced = set()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.sampled_from([KINDS, TWO_CONDITIONS]),
        p_control=st.floats(0.0, 1.0),
    )
    @example(seed=0, kinds=KINDS, p_control=0.5)  # reaches both splices
    def check(seed, kinds, p_control):
        rng = random.Random(seed)
        ids = sorted(kinds)
        g = bt.canonical(bt.random_genotype(kinds, rng.randint(1, 12), rng))
        facts = bt.node_facts(g)
        with mock.patch.object(gp, "P_CONTROL_NODE", p_control):
            for _ in range(20):
                for op, edit in (
                    ("mutation", gp._op_node_mutation(g, facts, ids, kinds, rng)),
                    ("addition", gp._op_node_addition(g, facts, ids, kinds, rng)),
                    ("deletion", gp._op_node_deletion(g, facts, kinds, rng)),
                ):
                    if edit is None:
                        continue
                    cand, key = edit
                    assert key == bt.canonical(cand), (g, cand)
                    if key is not cand and key is not g:
                        spliced.add(op)

    check()
    assert spliced == {"addition", "deletion"}


def test_canonical_parents_breed_without_canonical_calls(monkeypatch):
    # two canonical parents: crossover keys its offspring without a rescan,
    # and so does mutate's leaf replacement
    p1, p2 = ind("s( localise tuck )"), ind("f( pick place )")
    assert p1.key is p1.genotype and p2.key is p2.genotype
    calls = []
    canonical = bt.canonical
    monkeypatch.setattr(bt, "canonical", lambda g: calls.append(g) or canonical(g))
    for seed in range(10):
        c1, c2 = gp.crossover(p1, p2, KINDS, random.Random(seed))
        assert c1.key is c1.genotype and c2.key is c2.genotype
    monkeypatch.setattr(gp, "P_NODE_MUTATION", 1.0)
    monkeypatch.setattr(gp, "P_CONTROL_NODE", 0.0)
    for seed in range(10):
        child = gp.mutate(p1, KINDS, random.Random(seed))
        assert child.key is child.genotype
    assert calls == []


def test_mutate_calls_canonical_only_for_a_parent_that_is_not_canonical(monkeypatch):
    # every operator keys a canonical parent's candidates itself, those that
    # leave a control one child included
    texts = ("localise", "s( localise tuck )", "f( s( localise tuck ) head_up pick )")
    parents = [ind(text) for text in texts]
    wrapped = ind("s( f( localise tuck ) )")
    assert all(p.key is p.genotype for p in parents) and wrapped.key != wrapped.genotype
    calls = []
    canonical = bt.canonical
    monkeypatch.setattr(bt, "canonical", lambda g: calls.append(g) or canonical(g))
    bred = [(p, gp.mutate(p, KINDS, random.Random(seed))) for p in parents for seed in range(50)]
    assert calls == []
    assert all(child.key == canonical(child.genotype) for _, child in bred)
    # spliced keys: neither the child's genotype nor its parent's
    assert any(child.key not in (child.genotype, p.genotype) for p, child in bred)
    gp.mutate(wrapped, KINDS, random.Random(0))
    assert calls


@pytest.mark.parametrize(
    "text, p_mutation, p_addition",
    [
        ("localise", 0.0, 1.0),  # bare-leaf wrap
        ("s( localise tuck )", 1.0, 0.0),  # kind flip or leaf -> control wrap
        ("s( localise tuck pick )", 0.0, 0.0),  # deletions that leave two children
    ],
    ids=["bare-leaf-wrap", "leaf-wrap", "deletion"],
)
def test_mutate_keys_wraps_and_deletions_of_canonical_parents_without_rescans(
    monkeypatch, text, p_mutation, p_addition
):
    # a single node wrapped in a new control splices back to the parent, and
    # a deletion that leaves its parent two children is its own canonical form
    parent = ind(text)
    assert parent.key is parent.genotype
    calls = []
    canonical = bt.canonical
    monkeypatch.setattr(bt, "canonical", lambda g: calls.append(g) or canonical(g))
    monkeypatch.setattr(gp, "P_NODE_MUTATION", p_mutation)
    monkeypatch.setattr(gp, "P_NODE_ADDITION", p_addition)
    monkeypatch.setattr(gp, "P_CONTROL_NODE", 1.0)
    children = [gp.mutate(parent, KINDS, random.Random(seed)) for seed in range(30)]
    assert calls == []
    for child in children:
        assert child.key == canonical(child.genotype)
        assert child.key is child.genotype or child.key is parent.genotype


def make_population(n=30, seed=0):
    rng = random.Random(seed)
    return [gp.Individual(bt.random_genotype(KINDS, 4, rng)) for _ in range(n)]


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
    new_pop, stats = gp.evolve_generation(population, evaluator, random.Random(1), 1)
    assert len(new_pop) == 30
    # 12 crossover parents -> 6 pairs x 4 = 24; 18 mutation parents x 2 = 36
    assert counted == [("g1:off", 60)]
    assert stats.episodes == 60
    assert not any(bt.validate(i.genotype, KINDS) for i in new_pop)


@pytest.mark.parametrize("n, bred", [(7, 12), (8, 14), (10, 20), (13, 24)])
def test_an_odd_crossover_count_leaves_one_parent_unpaired(n, bred):
    # round(0.4 N) crossover parents breed four offspring per pair and
    # round(0.6 N) mutation parents two each: 2N, less two when 0.4 N rounds odd
    params = gp.GpParams(seed=0, population=n)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = make_population(n)
    evaluator.eval_batch(population, "init")
    _, stats = gp.evolve_generation(population, evaluator, random.Random(1), 1)
    assert stats.episodes == bred


def test_evolve_generation_reevaluates_elites_when_asked():
    params = gp.GpParams(seed=0, reevaluate_elites=True)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = make_population()
    evaluator.eval_batch(population, "init")
    _, stats = gp.evolve_generation(population, evaluator, random.Random(1), 1)
    assert stats.episodes == 63  # 60 offspring + 3 elites


@pytest.mark.parametrize("reevaluate_elites", [False, True])
def test_padding_from_duplicates_puts_no_individual_in_twice(monkeypatch, reevaluate_elites):
    # Six copies of one tree whose every offspring is a parent copy leave a
    # single distinct genotype, so five of the six places are padded.
    def copy_parents(p1, p2, *args, **kwargs):
        return gp.Individual(p1.genotype, key=p1.key), gp.Individual(p2.genotype, key=p2.key)

    def copy_parent(parent, *args, **kwargs):
        return gp.Individual(parent.genotype, key=parent.key)

    monkeypatch.setattr(gp, "crossover", copy_parents)
    monkeypatch.setattr(gp, "mutate", copy_parent)
    params = gp.GpParams(seed=0, population=6, reevaluate_elites=reevaluate_elites)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = [ind("s( localise tuck )") for _ in range(6)]
    evaluator.eval_batch(population, "init")
    new_pop, _ = gp.evolve_generation(population, evaluator, random.Random(1), 1)
    assert len(new_pop) == 6
    assert len({id(individual) for individual in new_pop}) == 6
    # one elite (round(0.1 * 6)): the first of the equally fit, kept once
    elite = population[0]
    assert new_pop[0] is elite
    assert sum(individual is elite for individual in new_pop) == 1


class _Paired(Exception):
    """Raised by a stub tournament once the crossover parents are bred from."""


def test_evolve_generation_shuffles_crossover_parents_as_random_shuffle(monkeypatch):
    # evolve_generation shuffles its crossover parents with an inline loop,
    # which must leave the order and the rng state random.Random.shuffle
    # leaves, at every length and seed
    parents: list = []
    states: list = []

    def stub_tournament(candidates, slots, rng):
        states.append(rng.getstate())
        if len(states) == 2:  # the mutation tournament: the shuffle is done
            raise _Paired
        return parents

    monkeypatch.setattr(gp, "tournament", stub_tournament)
    monkeypatch.setattr(gp, "crossover", lambda a, b, *args, **kwargs: (a, b))
    params = gp.GpParams(seed=0, population=4)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = make_population(4)
    for length in range(41):
        for seed in range(100):
            parents[:] = [gp.Individual(("localise",)) for _ in range(length)]
            states.clear()
            want = list(parents)
            reference = random.Random(seed)
            reference.shuffle(want)
            with pytest.raises(_Paired):
                gp.evolve_generation(population, evaluator, random.Random(seed), 1)
            assert [id(p) for p in parents] == [id(p) for p in want], (length, seed)
            assert states[1] == reference.getstate(), (length, seed)


def test_breeding_takes_no_per_call_settings():
    # a run's settings are the evaluator's GpParams, the retry bound is MAX_ATTEMPTS
    params = gp.GpParams(seed=0)
    evaluator = gp.Evaluator(DET, fitness.TABLE2, params)
    population = make_population()
    evaluator.eval_batch(population, "init")
    with pytest.raises(TypeError):
        gp.evolve_generation(population, evaluator, params, random.Random(1), 1)
    with pytest.raises(TypeError):
        gp.crossover(population[0], population[1], KINDS, random.Random(1), max_attempts=5)
    with pytest.raises(TypeError):
        gp.mutate(population[0], KINDS, random.Random(1), max_attempts=5)


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
        params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=6
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
        gp.run(
            gp.GpParams(generations=5, seed=2),
            DET,
            fitness.TABLE2,
            checkpoint_path=path,
            checkpoint_every=3,
        )


def resume_refusal(path, differs: str) -> str:
    message = f"checkpoint {path} is from another run (different {differs})"
    return f"^{re.escape(message)}$"


# The entries a checkpoint of a det run names when resumed into another run.
DIFFERING_ENTRIES = {
    "profile": "profile.name, profile.losing_localization",
    "weights": "weights.delta",
}


@pytest.mark.parametrize(
    "profile, weights, differs",
    [
        (world.make_profile("stoch1"), fitness.TABLE2, "profile"),
        (DET, dataclasses.replace(fitness.TABLE2, delta=150.0), "weights"),
    ],
)
def test_checkpoint_rejects_other_profile_or_weights(tmp_path, profile, weights, differs):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=2, seed=1, population=6)
    gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)
    with pytest.raises(ValueError, match=resume_refusal(path, DIFFERING_ENTRIES[differs])):
        gp.run(params, profile, weights, checkpoint_path=path, checkpoint_every=2)


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
        )
    assert path.read_bytes() == before
    assert gp.load_checkpoint(path)["generation"] == 2
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "every, message", [(-1, "^checkpoint_every must be >= 0, got -1$")], ids=["negative"]
)
def test_run_rejects_checkpoint_interval(tmp_path, every, message):
    params = gp.GpParams(generations=2, population=6)
    path = tmp_path / "c.json"
    with pytest.raises(ValueError, match=message):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=every)
    assert not path.exists()


def recorded_saves(monkeypatch) -> list[int]:
    """The generations of the checkpoints gp.run saves from now on."""
    saves = []
    save = gp.save_checkpoint

    def recording(path, fingerprint, generation, *rest):
        saves.append(generation)
        save(path, fingerprint, generation, *rest)

    monkeypatch.setattr(gp, "save_checkpoint", recording)
    return saves


@pytest.mark.parametrize("generations", [0, 3])
def test_a_checkpoint_path_without_an_interval_saves_once_at_the_end(
    tmp_path, monkeypatch, generations
):
    saves = recorded_saves(monkeypatch)
    path = tmp_path / "c.json"
    params = gp.GpParams(generations=generations, population=6)
    history, _ = gp.run(params, DET, fitness.TABLE2, checkpoint_path=path)
    assert saves == [generations]
    data = gp.load_checkpoint(path)
    assert data["generation"] == generations and len(data["history"]) == len(history)


def test_a_finished_run_keeps_its_last_generation_and_reruns_without_breeding(
    tmp_path, monkeypatch
):
    path = tmp_path / "c.json"
    params = gp.GpParams(generations=5, population=6, seed=1)
    history, best = gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)
    assert gp.load_checkpoint(path)["generation"] == 5
    before = path.read_bytes()
    bred = []
    evolve = gp.evolve_generation
    monkeypatch.setattr(gp, "evolve_generation", lambda *args: bred.append(args) or evolve(*args))
    again, again_best = gp.run(
        params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2
    )
    assert bred == []
    assert again == history
    assert (again_best.genotype, again_best.fitness) == (best.genotype, best.fitness)
    assert path.read_bytes() == before


def test_a_run_stopped_early_keeps_its_last_interval_save(tmp_path, monkeypatch):
    saves = recorded_saves(monkeypatch)
    path = tmp_path / "c.json"
    params = gp.GpParams(generations=9, population=6)
    history, _ = gp.run(
        params,
        DET,
        fitness.TABLE2,
        stop_fn=lambda stats, best: stats.generation == 5,
        checkpoint_path=path,
        checkpoint_every=2,
    )
    assert history[-1].generation == 5
    assert saves == [2, 4]


def test_run_rejects_an_interval_without_a_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    params = gp.GpParams(generations=3, population=6)
    with pytest.raises(ValueError, match="^checkpoint_every=1 needs a checkpoint path$"):
        gp.run(params, DET, fitness.TABLE2, checkpoint_every=1)
    assert not any(tmp_path.iterdir())


def test_resume_rejects_checkpoint_past_generations(tmp_path):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=4, seed=1, population=6)
    gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=4)
    # resuming at the checkpoint's own generation runs nothing more
    history, _ = gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=4)
    assert history[-1].generation == 4
    shorter = gp.GpParams(generations=3, seed=1, population=6)
    with pytest.raises(ValueError, match="at generation 4, past generations=3"):
        gp.run(shorter, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=4)


def test_individual_repr():
    individual = ind("s( localise tuck )", 3.5)
    assert repr(individual) == "Individual('s( localise tuck )', j=3.5)"
    assert repr(ind("tuck")) == "Individual('tuck', j=None)"


def test_a_reevaluated_elite_is_the_same_object_and_keeps_its_facts(monkeypatch):
    # re-evaluation replaces an elite's one fitness in place; breeding from it
    # next generation reads the facts table it already built
    params = gp.GpParams(seed=0, population=10, reevaluate_elites=True)
    evaluator = gp.Evaluator(world.make_profile("stoch3"), fitness.TABLE2, params)
    # a tree that picks and places outscores random trees and their offspring
    reference = ind(
        "s( f( have_block s( localise tuck head_up move_to_pick head_down pick ) ) "
        "head_up move_to_goal head_down place )"
    )
    population = [reference] + make_population(9)
    evaluator.eval_batch(population, "init")
    for individual in population:
        assert individual.facts
    facts = {id(individual): individual.facts for individual in population}
    scores = {id(individual): individual.fitness for individual in population}
    rescored = []
    eval_batch = evaluator.eval_batch

    def recording_eval_batch(individuals, tag):
        if tag.endswith(":elite"):
            rescored.extend(individuals)
        return eval_batch(individuals, tag)

    evaluator.eval_batch = recording_eval_batch
    new_pop, _ = gp.evolve_generation(population, evaluator, random.Random(1), 1)
    (elite,) = rescored  # round(0.1 * 10) elites
    assert elite is new_pop[0] is reference
    assert elite.fitness is not scores[id(elite)]  # scored anew, in place
    monkeypatch.setattr(bt, "node_facts", mock.Mock(side_effect=AssertionError("rebuilt")))
    assert elite.facts is facts[id(elite)]
    gp.mutate(elite, KINDS, random.Random(0))


def history_digest(history) -> str:
    rows = "".join(
        f"{h.generation},{h.best_j!r},{h.mean_j!r},{bt.to_text(h.best_genotype)},{h.episodes}\n"
        for h in history
    )
    return hashlib.sha256(rows.encode()).hexdigest()


# SHA-256 of the history rows of fixed runs. A change to any row's best_j,
# mean_j, best genotype or episode count breaks them; CI checks them on
# Python 3.11-3.13.
DET_SEED0_100_DIGEST = "c7125f6a6b9c444292bffba4a6219506c87b62384a8c1f1dca076c5583f039a1"
STOCH3_SEED0_40_DIGEST = "983078529748151bd4b946eb53b85095dedfec96b5af32d3404760cd06984e33"
# stoch1's only draws are move localization losses, so many of its trees
# never draw and are scored as their one simulated episode (stoch2 reads the same).
STOCH1_SEED0_40_DIGEST = "c1e701afb9b2c01491bdc05a4887055ea28848eaba7de7ecdda7d41a439cca38"
# exp3 with delta = 150 is the one pinned run whose risk term is not zero.
EXP3_DELTA150_SEED0_40_DIGEST = "50713957519aed9429aba00b9a3b23d6189c2ed4210981b2bb2b60efb0516c09"
# high_noise's 39 leaf ids, not a power of two, make leaf draws reject some
# getrandbits values.
DET_HIGH_NOISE_SEED0_100_DIGEST = (
    "a06aa33cc9ed1d61a60c5b9e2ff3bd7a4426dc1a76fc0c664d40b3de9f6e4b97"
)
# SHA-256 of the whole checkpoint file (fingerprint, rng state, population
# with cost terms, history) a stoch3 run writes at generation 10.
STOCH3_SEED0_CHECKPOINT10_DIGEST = (
    "37a990d75d132c1722531a4770984ea0b779d1154fd7bc4e251010545bf2f89b"
)


def test_det_history_digest_is_pinned():
    params = gp.GpParams(generations=100, seed=0)
    history, _ = gp.run(params, DET, fitness.TABLE2)
    assert history_digest(history) == DET_SEED0_100_DIGEST


def test_det_high_noise_history_digest_is_pinned():
    params = gp.GpParams(generations=100, seed=0)
    history, _ = gp.run(params, world.make_profile("det", "high_noise"), fitness.TABLE2)
    assert history_digest(history) == DET_HIGH_NOISE_SEED0_100_DIGEST


def test_stoch3_history_digest_is_pinned():
    params = gp.GpParams(generations=40, seed=0, episodes_per_eval=5, reevaluate_elites=True)
    history, _ = gp.run(params, world.make_profile("stoch3"), fitness.TABLE2)
    assert history_digest(history) == STOCH3_SEED0_40_DIGEST


def test_stoch1_history_digest_is_pinned():
    params = gp.GpParams(generations=40, seed=0, episodes_per_eval=5, reevaluate_elites=True)
    history, _ = gp.run(params, world.make_profile("stoch1"), fitness.TABLE2)
    assert history_digest(history) == STOCH1_SEED0_40_DIGEST


def test_exp3_risk_weighted_history_digest_is_pinned():
    params = gp.GpParams(generations=40, seed=0, episodes_per_eval=5, reevaluate_elites=True)
    weights = dataclasses.replace(fitness.TABLE2, delta=150.0)
    history, _ = gp.run(params, world.make_profile("exp3", "safe_paths"), weights)
    assert history_digest(history) == EXP3_DELTA150_SEED0_40_DIGEST


def test_stoch3_checkpoint_bytes_are_pinned(tmp_path):
    params = gp.GpParams(generations=10, seed=0, episodes_per_eval=5, reevaluate_elites=True)
    path = tmp_path / "run.checkpoint.json"
    gp.run(
        params,
        world.make_profile("stoch3"),
        fitness.TABLE2,
        checkpoint_path=path,
        checkpoint_every=10,
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STOCH3_SEED0_CHECKPOINT10_DIGEST


# A stoch3 checkpoint at generation 4, written by an earlier commit of this
# code. A change that fails this test would resume an existing checkpoint
# into a run it did not come from: it bumps gp.CHECKPOINT_FORMAT and writes
# this file again with PINNED_CHECKPOINT_PARAMS stopped at generation 4.
# At population 10 a change to the evaluation streams' seeds changes
# history rows 1-4; at population 6 it changes none.
PINNED_CHECKPOINT = Path(__file__).parent / "data" / "stoch3_seed0_g4.checkpoint.json"
PINNED_CHECKPOINT_PARAMS = gp.GpParams(
    population=10, generations=8, episodes_per_eval=3, reevaluate_elites=True, seed=0
)


def test_pinned_checkpoint_resumes_into_the_uninterrupted_run(tmp_path):
    profile = world.make_profile("stoch3")
    assert gp.load_checkpoint(PINNED_CHECKPOINT)["generation"] == 4
    # a resumed run writes where it read, so it resumes from a copy
    path = tmp_path / PINNED_CHECKPOINT.name
    shutil.copyfile(PINNED_CHECKPOINT, path)
    resumed, resumed_best = gp.run(
        PINNED_CHECKPOINT_PARAMS, profile, fitness.TABLE2, checkpoint_path=path, checkpoint_every=4
    )
    history, best = gp.run(PINNED_CHECKPOINT_PARAMS, profile, fitness.TABLE2)
    assert resumed == history
    assert (resumed_best.genotype, resumed_best.fitness) == (best.genotype, best.fitness)


def test_det_five_episode_history_is_the_pinned_one_episode_history():
    # a det episode is a pure function of the tree: five per evaluation score
    # as one and only count five times, so these rows are DET_SEED0_100's
    params = gp.GpParams(generations=100, seed=0)
    one, _ = gp.run(params, DET, fitness.TABLE2)
    five, _ = gp.run(dataclasses.replace(params, episodes_per_eval=5), DET, fitness.TABLE2)
    assert five == [dataclasses.replace(h, episodes=5 * h.episodes) for h in one]


def test_mean_j_sums_left_to_right():
    # a compensated sum (Python 3.12's sum of floats) would give 1.0 / 3
    assert gp.mean_left_to_right([1e16, 1.0, -1e16]) == 0.0


def count_evaluations(monkeypatch, profile, params):
    """({genotype: whether each of its simulations drew, in order},
    genotypes handed to eval_batch)."""
    simulated: dict = {}
    requested: list = []
    evaluate_compiled = gp.evaluate_compiled
    eval_batch = gp.Evaluator.eval_batch
    compile_tree = gp.bt.compile_tree
    genotype_of = {}  # compiled tree -> its genotype

    def recording_compile_tree(genotype, table):
        compiled = compile_tree(genotype, table)
        genotype_of[compiled] = genotype
        return compiled

    def recording_evaluate_compiled(compiled, *args, **kwargs):
        fv, drew = evaluate_compiled(compiled, *args, **kwargs)
        simulated.setdefault(genotype_of[compiled], []).append(drew)
        return fv, drew

    def recording_eval_batch(self, individuals, tag):
        requested.extend(ind.genotype for ind in individuals)
        return eval_batch(self, individuals, tag)

    monkeypatch.setattr(gp.bt, "compile_tree", recording_compile_tree)
    monkeypatch.setattr(gp, "evaluate_compiled", recording_evaluate_compiled)
    monkeypatch.setattr(gp.Evaluator, "eval_batch", recording_eval_batch)
    history, _ = gp.run(params, profile, fitness.TABLE2)
    assert sum(h.episodes for h in history) == len(requested) * params.episodes_per_eval
    return simulated, requested


def test_det_simulates_each_distinct_genotype_once(monkeypatch):
    params = gp.GpParams(generations=30, seed=0, reevaluate_elites=True)
    simulated, requested = count_evaluations(monkeypatch, DET, params)
    assert set(simulated) == set(requested)
    # nothing on det draws, so each genotype's one simulation is cached
    assert all(drews == [False] for drews in simulated.values())
    assert len(requested) > len(simulated)  # repeats were served from the cache


def test_det_run_evaluates_with_no_rng(monkeypatch):
    drews = []
    evaluate_compiled = gp.evaluate_compiled

    def rngless_evaluate_compiled(compiled, n_nodes, weights, episodes, rng, **kw):
        fv, drew = evaluate_compiled(compiled, n_nodes, weights, episodes, None, **kw)
        drews.append(drew)
        return fv, drew

    monkeypatch.setattr(gp, "evaluate_compiled", rngless_evaluate_compiled)
    params = gp.GpParams(generations=30, seed=0, reevaluate_elites=True)
    gp.run(params, DET, fitness.TABLE2)
    # nothing on det draws, so no evaluation needs a stream: a draw would raise
    assert drews and not any(drews)


@pytest.mark.parametrize(
    "profile",
    [world.make_profile("stoch3"), world.make_profile("exp3", "safe_paths")],
    ids=["stoch3", "exp3"],
)
def test_stochastic_profiles_simulate_again_only_what_drew(monkeypatch, profile):
    params = gp.GpParams(generations=10, seed=0, reevaluate_elites=True)
    simulated, requested = count_evaluations(monkeypatch, profile, params)
    assert set(simulated) == set(requested)
    # a genotype is simulated again only if its earlier simulation drew
    assert all(all(drews[:-1]) for drews in simulated.values())
    assert any(len(drews) > 1 for drews in simulated.values())
    assert len(requested) > sum(map(len, simulated.values()))  # draw-free repeats were cached


STOCHASTIC_PROFILES = {
    "stoch3": world.make_profile("stoch3"),
    "exp3": world.make_profile("exp3", "safe_paths"),
}


@pytest.mark.parametrize("name", list(STOCHASTIC_PROFILES))
def test_eval_batch_is_in_order_evaluate_on_one_stream(monkeypatch, name):
    profile = STOCHASTIC_PROFILES[name]
    # an evolved population: most random start trees never reach a draw
    populations = []
    gp.run(
        gp.GpParams(generations=20, seed=1), profile, on_generation=lambda _, p: populations.append(p)
    )
    genotypes = [p.genotype for p in populations[-1]]
    genotypes += genotypes[:5]  # repeats sit later in the stream
    rng = random.Random("4:g3:off")
    want = [fitness.evaluate(g, profile, fitness.TABLE2, 3, rng) for g in genotypes]
    params = gp.GpParams(seed=4, episodes_per_eval=3)
    fresh = gp.Evaluator(profile, fitness.TABLE2, params)
    warm = gp.Evaluator(profile, fitness.TABLE2, params)  # an earlier batch filled its cache
    warm.eval_batch([gp.Individual(g) for g in genotypes], "g2:off")
    simulated = []
    evaluate_compiled = gp.evaluate_compiled

    def counting_evaluate_compiled(compiled, *args, **kwargs):
        simulated.append(compiled)
        return evaluate_compiled(compiled, *args, **kwargs)

    monkeypatch.setattr(gp, "evaluate_compiled", counting_evaluate_compiled)
    counts = []
    for evaluator in (fresh, warm):
        simulated.clear()
        batch = [gp.Individual(g) for g in genotypes]
        assert evaluator.eval_batch(batch, "g3:off") == 35 * 3
        assert [p.fitness for p in batch] == want
        counts.append(len(simulated))
    assert counts[1] < counts[0]


def test_a_stochastic_generation_seeds_one_rng_per_eval_batch(monkeypatch):
    params = gp.GpParams(seed=0, episodes_per_eval=2, reevaluate_elites=True)
    evaluator = gp.Evaluator(STOCHASTIC_PROFILES["stoch3"], fitness.TABLE2, params)
    population = make_population()
    evaluator.eval_batch(population, "init")
    breeding = random.Random(1)
    tags, seeds = [], []
    eval_batch = evaluator.eval_batch

    def recording_eval_batch(individuals, tag):
        tags.append(tag)
        return eval_batch(individuals, tag)

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    evaluator.eval_batch = recording_eval_batch
    monkeypatch.setattr(gp.random, "Random", CountingRandom)
    gp.evolve_generation(population, evaluator, breeding, 1)
    assert tags == ["g1:off", "g1:elite"]
    assert seeds == ["0:g1:off", "0:g1:elite"]


def write_checkpoint(path, params, profile=DET):
    gp.run(
        params, profile, fitness.TABLE2, checkpoint_path=path, checkpoint_every=params.generations
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "text, message",
    [
        ("s( s( tuck localise ) have_block )", "breaks V1"),
        ("s( tuck have_block )", "breaks V2"),
        ("s( tuck f( ) )", "breaks V3"),
        ("s( tuck", "unclosed control node"),
        ("s( tuck teleport )", "unknown leaf id 'teleport'"),
        ("s( " + "tuck " * 8 + ")", "has 9 nodes, over node_cap=8"),
    ],
    ids=["V1", "V2", "V3", "unclosed", "unknown-leaf", "over-cap"],
)
@pytest.mark.parametrize("where", ["population", "history"])
def test_resume_rejects_invalid_genotypes(tmp_path, text, message, where):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=2, seed=1, population=6, node_cap=8)
    data = write_checkpoint(path, params)
    if where == "population":
        data["population"][0]["genotype"] = text
    else:
        data["history"][-1][3] = text
    path.write_text(json.dumps(data))
    pattern = f"^checkpoint {re.escape(str(path))}: {where} genotype .*{message}"
    with pytest.raises(ValueError, match=pattern) as exc:
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "drop", ["fingerprint", "generation", "rng_state", "population", "history"]
)
def test_resume_names_a_missing_key(tmp_path, drop):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=2, seed=1, population=6)
    data = write_checkpoint(path, params)
    del data[drop]
    path.write_text(json.dumps(data))
    pattern = f"^checkpoint {re.escape(str(path))} has no '{drop}' entry$"
    with pytest.raises(ValueError, match=pattern):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)


@pytest.mark.parametrize("drop", ["genotype", "terms"])
def test_resume_names_a_missing_population_key(tmp_path, drop):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=2, seed=1, population=6)
    data = write_checkpoint(path, params)
    del data["population"][3][drop]
    path.write_text(json.dumps(data))
    pattern = f"^checkpoint {re.escape(str(path))}: population entry 3 has no '{drop}'$"
    with pytest.raises(ValueError, match=pattern):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(generation=-3), "history rows are not generations 0..-3"),
        (lambda d: d.update(generation=-1, history=[]), "history rows are not generations 0..-1"),
        (lambda d: d.update(generation=True), "'generation' entry is not of type int"),
        (lambda d: d.update(history=d["history"][:3]), "history rows are not generations 0..6"),
        (lambda d: d["history"][2].__setitem__(0, 7), "history rows are not generations 0..6"),
    ],
    ids=["negative", "minus-one-empty", "bool", "cut-history", "misnumbered-row"],
)
def test_resume_refuses_a_generation_its_history_contradicts(tmp_path, edit, message):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=12, seed=9)
    data = write_checkpoint(path, gp.GpParams(generations=6, seed=9))
    edit(data)
    path.write_text(json.dumps(data))
    pattern = f"^checkpoint {re.escape(str(path))}: {re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)


@pytest.mark.parametrize("size", [5, 7])
def test_resume_names_a_checkpoint_whose_population_has_another_size(tmp_path, size):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=4, seed=1, population=6)
    data = write_checkpoint(path, gp.GpParams(generations=2, seed=1, population=6))
    data["population"] = (data["population"] * 2)[:size]
    path.write_text(json.dumps(data))
    pattern = f"^checkpoint {re.escape(str(path))} holds {size} individuals, not population=6$"
    with pytest.raises(ValueError, match=pattern):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)


# The fingerprint a checkpoint of a det run at the GpParams defaults stores,
# in its stored order: each entry under the name the code gives it.
DET_FINGERPRINT = {
    "params": {
        "population": 30,
        "episodes_per_eval": 1,
        "seed": 0,
        "node_cap": 64,
        "reevaluate_elites": False,
        "max_root_failures": 5,
        "max_ticks": 100,
    },
    "gp": {
        "START_LENGTH": 4,
        "CROSSOVER_FRACTION": 0.4,
        "MUTATION_FRACTION": 0.6,
        "ELITISM_FRACTION": 0.1,
        "P_NODE_MUTATION": 0.3,
        "P_NODE_ADDITION": 0.4,
        "P_NODE_DELETION": 0.3,
        "P_CONTROL_NODE": 0.5,
        "MAX_ATTEMPTS": 100,
    },
    "world": {
        "START": [0.0, 0.0],
        "PICK_POSE": [2.0, 0.0],
        "GOAL_POSE": [-2.0, 0.0],
        "REACH_RADIUS": 0.6,
        "SPEED": 0.5,
        "SAFE_TIME_MULTIPLIER": 2.0,
        "LOC_ERROR_LOCALIZED": 0.05,
        "LOC_ERROR_LOST": 1.0,
        "FIXED_TIME_COSTS": {
            "localise": 5.0,
            "head_up": 1.0,
            "head_down": 1.0,
            "tuck": 2.0,
            "pick": 5.0,
            "place": 5.0,
        },
        "AUX_POSES": [
            [-3.0, -0.5], [-3.0, 0.5], [3.0, -0.5], [3.0, 0.5], [-0.6, -0.5], [-0.6, 0.5],
            [0.6, -0.5], [0.6, 0.5], [-1.8, -1.5], [-1.8, 1.5], [1.8, -1.5], [1.8, 1.5],
            [-3.0, -1.5], [-3.0, 1.5], [3.0, -1.5], [3.0, 1.5], [-0.6, -1.5], [-0.6, 1.5],
            [0.6, -1.5], [0.6, 1.5], [-1.8, -2.5], [-1.8, 2.5], [1.8, -2.5], [1.8, 2.5],
            [-3.0, -2.5], [-3.0, 2.5], [3.0, -2.5], [3.0, 2.5], [-0.6, -2.5], [-0.6, 2.5],
        ],
    },
    "fitness": {
        "ALPHA1": 10.0,
        "ALPHA2": 2.0,
        "ALPHA3": 1.0,
        "BETA": 0.5,
        "GAMMA": 0.1,
        "PICK_REWARD": 50.0,
        "PLACE_REWARD": 100.0,
    },
    "profile": {
        "name": "det",
        "loc_failure": 0.0,
        "pick_failure": 0.0,
        "place_failure": 0.0,
        "losing_cube": 0.0,
        "losing_localization": 0.0,
        "pool": list(world.CORE9),
    },
    "weights": {"delta": 0.0},
}


def test_a_checkpoint_stores_the_run_under_the_code_names(tmp_path):
    path = tmp_path / "ckpt.json"
    data = write_checkpoint(path, gp.GpParams(generations=2))
    assert data["format"] == "btgp-checkpoint-v9"
    assert json.dumps(data["fingerprint"]) == json.dumps(DET_FINGERPRINT)


def other_value(value):
    """A value of the same JSON type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "_other"
    return value + value[:1]


def leaf_keys(entries: dict):
    """The key of each entry that is not a dict; a nested one's as ``outer.inner``."""
    for key, value in entries.items():
        if isinstance(value, dict):
            yield from (f"{key}.{inner}" for inner in leaf_keys(value))
        else:
            yield key


@pytest.mark.parametrize(
    "section, key", [(s, k) for s, entries in DET_FINGERPRINT.items() for k in leaf_keys(entries)]
)
def test_resume_binds_every_fingerprint_entry(tmp_path, section, key):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=4, seed=1, population=6)
    data = write_checkpoint(path, dataclasses.replace(params, generations=2))
    *outer, last = key.split(".")
    entries = data["fingerprint"][section]
    for name in outer:
        entries = entries[name]
    entries[last] = other_value(entries[last])
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=resume_refusal(path, f"{section}.{key}")):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)


# The upper-case constants of world, fitness and gp that the fingerprint's
# sections of those names do not bind, each with the reason a checkpoint
# needs no entry for it.
UNBOUND_CONSTANTS = (
    ("world", "ROOT_SUCCESS", "a label for how an episode ended"),
    ("world", "FAILURE_BUDGET", "a label for how an episode ended"),
    ("world", "TICK_BUDGET", "a label for how an episode ended"),
    ("world", "MAX_ROOT_FAILURES", "a GpParams default; the params section binds the value"),
    ("world", "MAX_TICKS", "a GpParams default; the params section binds the value"),
    ("world", "PROBABILITY_COLUMNS", "copied into the Profile the profile section binds"),
    ("world", "CORE9", "behavior ids; the profile section binds the pool"),
    ("world", "AUX_IDS", "behavior ids; the profile section binds the pool"),
    ("world", "POOLS", "behavior ids; the profile section binds the pool"),
    ("fitness", "TABLE2", "a FitnessWeights; the weights section binds the run's"),
    ("gp", "CHECKPOINT_FORMAT", "the file's format key, checked before the fingerprint"),
    ("gp", "_RESUMABLE_PARAMS", "the fingerprint's own layout"),
    ("gp", "_GP_CONSTANTS", "the fingerprint's own layout"),
    ("gp", "_WORLD_CONSTANTS", "the fingerprint's own layout"),
    ("gp", "_FITNESS_CONSTANTS", "the fingerprint's own layout"),
    ("gp", "_CHECKPOINT_KEYS", "the checkpoint file's layout"),
    ("gp", "_ENTRY_KEYS", "the checkpoint file's layout"),
)


def module_constants(module) -> set[str]:
    """The upper-case names a module's source assigns at its top level."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def test_every_module_constant_is_bound_or_named_unbound():
    # a new constant fails here until it joins the fingerprint or UNBOUND_CONSTANTS
    fingerprint = gp._run_fingerprint(gp.GpParams(), DET, fitness.TABLE2)
    modules = {"world": world, "fitness": fitness, "gp": gp}
    defined = {(s, name) for s, module in modules.items() for name in module_constants(module)}
    bound = {(s, name) for s in modules for name in fingerprint[s]}
    unbound = {(s, name) for s, name, _ in UNBOUND_CONSTANTS}
    assert not bound & unbound
    assert sorted(defined) == sorted(bound | unbound)


@pytest.mark.parametrize(
    "edit, differs",
    [
        (lambda f: f["params"].pop("seed"), "params.seed"),
        (lambda f: f["gp"].update(P_NODE_SWAP=0.1), "gp.P_NODE_SWAP"),
        (lambda f: f.pop("world"), "world"),
        (lambda f: f.update(evaluation="one rng stream per eval_batch"), "evaluation"),
        (lambda f: f.update(params=[]), "params"),
        (lambda f: f.update(profile="det"), "profile"),
        (lambda f: f["fitness"].update(BETA=None, GAMMA="0.1"), "fitness.BETA, fitness.GAMMA"),
    ],
    ids=["missing-key", "extra-key", "missing-section", "extra-section", "list", "string", "two"],
)
def test_resume_refuses_a_fingerprint_with_other_entries(tmp_path, edit, differs):
    path = tmp_path / "ckpt.json"
    params = gp.GpParams(generations=4, seed=1, population=6)
    data = write_checkpoint(path, dataclasses.replace(params, generations=2))
    edit(data["fingerprint"])
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=resume_refusal(path, differs)):
        gp.run(params, DET, fitness.TABLE2, checkpoint_path=path, checkpoint_every=2)


EPISODE5 = {"episodes_per_eval": 5, "reevaluate_elites": True}
RESUMED_RUNS = {
    "det": (DET, fitness.TABLE2, gp.GpParams(generations=25, seed=0)),
    "stoch3": (
        world.make_profile("stoch3"),
        fitness.TABLE2,
        gp.GpParams(generations=25, seed=0, **EPISODE5),
    ),
    "exp3_delta150": (
        world.make_profile("exp3", "safe_paths"),
        dataclasses.replace(fitness.TABLE2, delta=150.0),
        gp.GpParams(generations=25, seed=0, **EPISODE5),
    ),
}


@functools.cache
def uninterrupted(name: str):
    profile, weights, params = RESUMED_RUNS[name]
    history, best = gp.run(params, profile, weights)
    return history_digest(history), best.genotype, best.fitness


@pytest.mark.parametrize("at", [1, 7, 13, 24])
@pytest.mark.parametrize("name", list(RESUMED_RUNS))
def test_resuming_at_any_generation_reproduces_the_run(tmp_path, name, at):
    profile, weights, params = RESUMED_RUNS[name]
    path = tmp_path / "ckpt.json"
    stopped = dataclasses.replace(params, generations=at)
    gp.run(stopped, profile, weights, checkpoint_path=path, checkpoint_every=at)
    history, best = gp.run(params, profile, weights, checkpoint_path=path, checkpoint_every=at)
    assert (history_digest(history), best.genotype, best.fitness) == uninterrupted(name)
