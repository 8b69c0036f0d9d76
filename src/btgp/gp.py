"""Evolution loop: subtree crossover, three-way mutation, tournament selection."""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from . import bt, fitness, world
from .bt import Genotype
from .fitness import FitnessValue, FitnessWeights, TABLE2, evaluate_compiled
from .world import Profile, build_transition_table, leaf_kinds

# A change that would make an existing checkpoint resume into a run it did
# not come from bumps the format; it adds no marker key to the fingerprint.
# tests/test_gp.py resumes a checkpoint an earlier commit wrote to hold this.
CHECKPOINT_FORMAT = "btgp-checkpoint-v9"


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def mean_left_to_right(values) -> float:
    """Mean of a sequence of floats, summed left to right: Python 3.12's
    compensated float ``sum`` would round differently, so history rows and
    experiment curves would depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


# The search's fixed rates: each generation breeds from crossover and
# mutation tournaments of these fractions of the population and keeps the
# elite fraction unchallenged; a mutation is a node mutation, addition or
# deletion (the rest) with these chances, and a new or changed node is a
# control with chance P_CONTROL_NODE. Initial trees have START_LENGTH nodes.
START_LENGTH = 4
CROSSOVER_FRACTION = 0.40
MUTATION_FRACTION = 0.60
ELITISM_FRACTION = 0.10
P_NODE_MUTATION = 0.30
P_NODE_ADDITION = 0.40
P_NODE_DELETION = 0.30
P_CONTROL_NODE = 0.50
# Attempts a crossover or a mutation makes before it gives up on a novel offspring.
MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class GpParams:
    """One run's settings: the values a caller chooses per run. The
    search's rates are the module constants above, the same in every run."""

    population: int = 30
    generations: int = 2000
    episodes_per_eval: int = 1
    seed: int = 0
    node_cap: int = 64
    # With stochastic profiles a stored lucky score can pin a fragile tree at
    # the top forever; re-evaluating elites each generation washes that out.
    reevaluate_elites: bool = False
    max_root_failures: int = world.MAX_ROOT_FAILURES
    max_ticks: int = world.MAX_TICKS

    def __post_init__(self):
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.node_cap < START_LENGTH:
            raise ValueError(f"node_cap must be >= {START_LENGTH}, got {self.node_cap}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.episodes_per_eval < 1:
            raise ValueError(f"episodes_per_eval must be >= 1, got {self.episodes_per_eval}")
        if self.max_ticks < 1:
            raise ValueError(f"max_ticks must be >= 1, got {self.max_ticks}")
        if self.max_root_failures < 0:
            raise ValueError(f"max_root_failures must be >= 0, got {self.max_root_failures}")


class Individual:
    """A genotype, its fitness once evaluated, and its canonical form ``key``,
    set at birth: by ``bt.canonical`` only when the caller passes none.

    ``fitness`` is the individual's one score: a re-evaluated elite gets its
    new score in place and stays the same object, facts table included."""

    __slots__ = ("genotype", "fitness", "key", "_facts")

    def __init__(self, genotype: Genotype, fitness=None, key=None):
        self.genotype = tuple(genotype)
        self.fitness: FitnessValue | None = fitness
        self.key: Genotype = bt.canonical(self.genotype) if key is None else key
        self._facts: list | None = None  # node_facts(genotype), once asked for

    @property
    def facts(self) -> list:
        """``bt.node_facts`` of the genotype, built at most once: a parent
        bred from several times scans its genotype once."""
        if self._facts is None:
            self._facts = bt.node_facts(self.genotype)
        return self._facts

    def __repr__(self):
        j = None if self.fitness is None else round(self.fitness.j, 3)
        return f"Individual({bt.to_text(self.genotype)!r}, j={j})"


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_j: float
    mean_j: float
    best_genotype: Genotype
    episodes: int


def _stats(generation: int, population, episodes: int) -> GenerationStats:
    """A history row: the population's best j and the genotype of its first
    individual with that j, its mean j, and the episodes the generation spent."""
    js = [ind.fitness.j for ind in population]
    best_j = max(js)
    best = population[js.index(best_j)]
    return GenerationStats(generation, best_j, mean_left_to_right(js), best.genotype, episodes)


def tournament(candidates, slots: int, rng) -> list:
    """Survivor selection by repeated random pairwise duels.

    Each round draws two distinct candidates uniformly at random and drops
    the less fit one (ties resolved uniformly), until ``slots`` remain.
    ``slots == len(candidates)`` returns everyone and ``slots <= 0`` nobody.
    Between the two, whenever fitness values are not all equal, the
    top-scoring candidate is guaranteed to survive and the bottom-scoring
    one to be eliminated. Every candidate must be evaluated, and ``slots``
    must not exceed their number.
    """
    pool = list(candidates)
    if slots <= 0:
        return []
    if slots == len(pool):
        return pool
    js = [c.fitness.j for c in pool]
    top, bottom = max(js), min(js)
    if top == bottom:
        winners: list = []
        need = slots
    else:
        # index() finds the first maximum and minimum, as max() and min() do
        best_i, worst_i = js.index(top), js.index(bottom)
        winners = [pool[best_i]]
        if slots == 1:
            return winners  # every other candidate would lose
        del pool[max(best_i, worst_i)]
        del pool[min(best_i, worst_i)]
        need = slots - 1
    # One duel per round between two random candidates; everyone else gets a
    # bye. Minimal pressure per round keeps genetic content from weak
    # individuals around, which the search relies on.
    bits = rng.getrandbits
    while len(pool) > need:
        # rng.randrange(n)'s and rng.randrange(n - 1)'s draws, inlined
        n = len(pool)
        k = n.bit_length()
        i = bits(k)
        while i >= n:
            i = bits(k)
        k = (n - 1).bit_length()
        j = bits(k)
        while j >= n - 1:
            j = bits(k)
        if j >= i:
            j += 1
        a, b = pool[i].fitness.j, pool[j].fitness.j
        if a > b:
            loser = j
        elif b > a:
            loser = i
        else:
            loser = i if rng.random() < 0.5 else j
        pool[loser] = pool[-1]
        pool.pop()
    return winners + pool


def crossover(
    p1: Individual,
    p2: Individual,
    kinds,
    rng,
    *,
    node_cap: int = GpParams.node_cap,
    exclude: frozenset | set = frozenset(),
) -> tuple[Individual, Individual]:
    """Swap one uniformly chosen subtree span between the parents.

    Invalid or over-cap offspring, offspring equal to each other, or
    offspring listed in ``exclude`` (duplicate rejection across repeated
    applications) trigger a re-draw of the crossover points; after
    ``MAX_ATTEMPTS`` the parents are returned unchanged. The checks run
    cheapest first: node cap and validity from the parents' facts before
    the offspring are built, canonical forms last. Each is pure, so their
    order decides no outcome, and a span pair already rejected in this call
    is skipped without re-checking. Once every span pair has been rejected
    the call stops drawing and returns the parents: a later attempt could
    only redraw a rejected pair.

    Both parents must be valid: an offspring's validity is then decided
    from its parent's ``node_facts`` row and the inserted root token
    (``bt.fits``), without validating the offspring. A swap keeps every
    control's child count, so offspring of two canonical parents are their
    own canonical forms.
    """
    g1, g2 = p1.genotype, p2.genotype
    if g1 == g2 and len(g1) == 1:
        # identical single-leaf parents can never yield distinct offspring
        return (Individual(g1, key=p1.key), Individual(g2, key=p2.key))
    facts1, facts2 = p1.facts, p2.facts
    n1, n2 = len(facts1), len(facts2)
    plain = p1.key is g1 and p2.key is g2
    tried: set[tuple[int, int]] = set()
    bits = rng.getrandbits
    b1, b2 = n1.bit_length(), n2.bit_length()
    for _ in range(MAX_ATTEMPTS):
        if len(tried) == n1 * n2:
            break  # every span pair rejected: no further draw can succeed
        # rng.randrange(n1)'s and rng.randrange(n2)'s draws, inlined
        i = bits(b1)
        while i >= n1:
            i = bits(b1)
        j = bits(b2)
        while j >= n2:
            j = bits(b2)
        pair = (i, j)
        if pair in tried:
            continue
        tried.add(pair)
        row1, row2 = facts1[i], facts2[j]
        s1, e1, k1, _, _ = row1
        s2, e2, k2, _, _ = row2
        # each child's node count: its parent's, less the subtree given, plus the one taken
        if n1 - k1 + k2 > node_cap or n2 - k2 + k1 > node_cap:
            continue
        if not (bt.fits(g1, row1, g2[s2], kinds) and bt.fits(g2, row2, g1[s1], kinds)):
            continue
        c1 = g1[:s1] + g2[s2:e2] + g1[e1:]
        c2 = g2[:s2] + g1[s1:e1] + g2[e2:]
        if c1 == c2:
            continue
        key1 = c1 if plain else bt.canonical(c1)
        if key1 in exclude:
            continue
        key2 = c2 if plain else bt.canonical(c2)
        if key2 in exclude:
            continue
        return (Individual(c1, key=key1), Individual(c2, key=key2))
    return (Individual(g1, key=p1.key), Individual(g2, key=p2.key))


# The mutation operators below each draw one edit of a valid genotype ``g``
# with rows ``facts = bt.node_facts(g)`` (``rng.randrange(n)``'s draws, inlined),
# then decide V1-V4 at the nodes next to the edit, the only ones it can break,
# before building anything. They return (candidate, key), or None for an
# inapplicable or invalid edit. An edit that rewrites a token to itself (a
# leaf to the same leaf, a control to its own kind) returns ``g`` itself.
# ``key`` is the candidate's canonical form if ``g`` is canonical: an edit
# that leaves no control with a single child is its own key, one that wraps
# a single node in a new control is keyed as ``g`` (splicing that control
# gives ``g`` back), and one that leaves the edited control one child is
# keyed by splicing that control's open and close out of the candidate.


def _op_node_mutation(g: Genotype, facts: list, ids, kinds, rng):
    bits = rng.getrandbits
    n = len(facts)
    b = n.bit_length()
    k = bits(b)
    while k >= n:
        k = bits(b)
    i, e, _, parent, _ = facts[k]
    node = g[i]
    if rng.random() < P_CONTROL_NODE:
        tok = bt.SEQUENCE_OPEN if rng.random() < 0.5 else bt.FALLBACK_OPEN
        if node == tok:
            return g, g
        # V1 against the parent, which is the only check when the node is the root
        if parent >= 0 and g[parent] == tok:
            return None
        if bt.is_control_open(node):
            # kind flip: V1 against every control child as well; the first
            # child is row k + 1, and each next one starts its size in rows later
            j = k + 1
            for _ in range(facts[k][4]):
                if g[facts[j][0]] == tok:
                    return None
                j += facts[j][2]
            cand = g[:i] + (tok,) + g[i + 1 :]
            return cand, cand
        # leaf -> control: the leaf becomes the new control's only child (V2)
        if kinds[node] == bt.CONDITION:
            return None
        return g[:i] + (tok, node, bt.CLOSE) + g[i + 1 :], g
    n = len(ids)
    b = n.bit_length()
    r = bits(b)
    while r >= n:
        r = bits(b)
    leaf = ids[r]
    if leaf == node:
        return g, g
    if not bt.fits(g, facts[k], leaf, kinds):
        return None
    cand = g[:i] + (leaf,) + g[e:]
    return cand, cand


def _op_node_addition(g: Genotype, facts: list, ids, kinds, rng):
    bits = rng.getrandbits
    if rng.random() < P_CONTROL_NODE:
        # New control node over a contiguous run of siblings: the runs of a
        # control with m children are its (x, y) child boundary pairs,
        # 0 <= x < y <= m, numbered x-major, controls in token order.
        tok = bt.SEQUENCE_OPEN if rng.random() < 0.5 else bt.FALLBACK_OPEN
        n_runs = sum([row[4] * (row[4] + 1) // 2 for row in facts])
        if not n_runs:  # bare leaf: wrap the root, which becomes the last child (V2)
            if kinds[g[0]] == bt.CONDITION:
                return None
            return (tok,) + g + (bt.CLOSE,), g
        b = n_runs.bit_length()
        r = bits(b)
        while r >= n_runs:
            r = bits(b)
        for k, row in enumerate(facts):
            m = row[4]
            if r < m * (m + 1) // 2:
                break
            r -= m * (m + 1) // 2
        x = 0
        while r >= m - x:
            r -= m - x
            x += 1
        if g[row[0]] == tok:
            return None  # V1 against the control above
        j = k + 1  # row of the control's first child
        for _ in range(x):
            j += facts[j][2]
        lo = facts[j][0]
        for _ in range(r + 1):
            # V1 against every wrapped child
            start, hi, size, _, _ = facts[j]
            if g[start] == tok:
                return None
            j += size
        # V2 for the last wrapped child, read off the token before the run's end
        if kinds.get(g[hi - 1]) == bt.CONDITION:
            return None
        # the new control gets r + 1 children, the one above keeps m - r
        cand = g[:lo] + (tok,) + g[lo:hi] + (bt.CLOSE,) + g[hi:]
        if r == 0:  # a wrap of one child
            return cand, g
        if m - r >= 2:
            return cand, cand
        c = row[1] + 1  # all m wrapped: the control above keeps one child, its close moved
        return cand, cand[: row[0]] + cand[row[0] + 1 : c] + cand[c + 1 :]
    # New leaf, either as a sibling in an existing child list or at a new
    # level (bundled with an existing node under a fresh control).
    n = len(ids)
    b = n.bit_length()
    r = bits(b)
    while r >= n:
        r = bits(b)
    leaf = ids[r]
    cond = kinds[leaf] == bt.CONDITION
    # every position inside the root control is a child slot of the
    # innermost control around it; a bare leaf has none
    if len(g) > 1 and rng.random() < 0.5:
        n = len(g) - 1
        b = n.bit_length()
        j = bits(b)
        while j >= n:
            j = bits(b)
        j += 1
        # V2 as the last child, V4 next to an equal leaf
        if cond and (g[j] == bt.CLOSE or g[j] == leaf or g[j - 1] == leaf):
            return None
        cand = g[:j] + (leaf,) + g[j:]
        return cand, cand
    n = 2 * len(facts)
    b = n.bit_length()
    r = bits(b)
    while r >= n:
        r = bits(b)
    s, e, _, parent, _ = facts[r // 2]
    tok = bt.SEQUENCE_OPEN if rng.random() < 0.5 else bt.FALLBACK_OPEN
    # V1 against the parent and the bundled node; V2 for whichever is last
    # (a V4 pair of equal conditions always puts a condition last)
    if (parent >= 0 and g[parent] == tok) or g[s] == tok:
        return None
    if r % 2 == 0:
        if kinds.get(g[s]) == bt.CONDITION:
            return None
        cand = g[:s] + (tok, leaf) + g[s:e] + (bt.CLOSE,) + g[e:]
    else:
        if cond:
            return None
        cand = g[:s] + (tok,) + g[s:e] + (leaf, bt.CLOSE) + g[e:]
    return cand, cand


def _op_node_deletion(g: Genotype, facts: list, kinds, rng):
    n = len(facts) - 1
    if not n:
        return None  # deleting the only node would empty the tree
    bits = rng.getrandbits
    b = n.bit_length()
    k = bits(b)
    while k >= n:
        k = bits(b)
    k += 1  # never the root
    s, e, _, parent, _ = facts[k]
    before, after = g[s - 1], g[e]
    if after == bt.CLOSE:
        # the node was the last child: V3 if it was the only one, else V2
        # for the left sibling that becomes last
        if bt.is_control_open(before) or kinds.get(before) == bt.CONDITION:
            return None
    elif before == after and kinds.get(before) == bt.CONDITION:
        return None  # V4 for the siblings that become neighbours
    # the parent loses a child, which may leave it with one; its row is the
    # nearest one before k that starts at its open
    while facts[k][0] != parent:
        k -= 1
    cand = g[:s] + g[e:]
    if facts[k][4] != 2:
        return cand, cand
    c = facts[k][1] - 1 - (e - s)  # the parent's close, moved left by the deletion
    return cand, cand[:parent] + cand[parent + 1 : c] + cand[c + 1 :]


def mutate(
    parent: Individual,
    kinds,
    rng,
    *,
    node_cap: int = GpParams.node_cap,
    exclude: frozenset | set = frozenset(),
) -> Individual:
    """Apply one of node mutation / addition / deletion, drawn with
    probabilities P_NODE_MUTATION / P_NODE_ADDITION / the rest.

    Inapplicable or invalid edits, over-cap candidates and candidates in
    ``exclude`` re-draw the operator; after ``MAX_ATTEMPTS`` the last valid
    candidate found in ``exclude`` is kept, and failing that the parent is
    copied unchanged. An edit that rewrites a token to itself is the parent,
    a valid candidate whose key the population already holds.

    The parent must be valid: each operator then rejects an invalid edit
    from the parent's ``node_facts`` before it builds anything, without
    ``bt.validate``. Its operator keys a canonical parent's candidate, so
    ``bt.canonical`` runs only for a parent that is not canonical.
    """
    ids = sorted(kinds)
    g = parent.genotype
    facts = parent.facts
    canonical_parent = parent.key is g
    # A candidate has at most two nodes more than its parent (a new leaf
    # bundled with a node under a new control), so below that the cap
    # cannot bind and no candidate is counted.
    capped = len(facts) + 2 > node_cap
    p_mutation = P_NODE_MUTATION
    p_addition = p_mutation + P_NODE_ADDITION
    valid_dup = None
    dup_key = None
    for _ in range(MAX_ATTEMPTS):
        r = rng.random()
        if r < p_mutation:
            edit = _op_node_mutation(g, facts, ids, kinds, rng)
        elif r < p_addition:
            edit = _op_node_addition(g, facts, ids, kinds, rng)
        else:
            edit = _op_node_deletion(g, facts, kinds, rng)
        if edit is None:
            continue
        cand, key = edit
        if capped and bt.node_count(cand) > node_cap:
            continue
        if not canonical_parent:
            key = bt.canonical(cand)
        if key in exclude:
            valid_dup, dup_key = cand, key  # acceptable if nothing novel shows up
            continue
        return Individual(cand, key=key)
    if valid_dup is not None:
        return Individual(valid_dup, key=dup_key)
    return Individual(g, key=parent.key)


# --- evaluation --------------------------------------------------------------


class Evaluator:
    """Assigns fitness to individuals, a batch at a time, in ``eval_batch``.

    Each batch is one rng stream seeded from (master seed, tag), and its
    individuals are evaluated in order from it, so an individual's episodes
    are the stretch of the stream its predecessors in the batch left it:
    its fitness depends on its genotype and on the genotypes evaluated
    before it in that batch. Seeding once per batch, not once per
    individual, saves a Mersenne Twister initialisation per evaluation.

    An evaluation whose first episode draws nothing is that episode's
    fitness, a pure function of the genotype, and consumes no draw
    (``fitness.evaluate_compiled``). The evaluator keeps every such fitness
    in a genotype -> fitness dict for its lifetime and serves a repeat of
    that genotype from it, on any profile: the value is the one a
    simulation would give, and the stream is where a simulation would leave
    it. Every det evaluation is such an evaluation, so a det run simulates
    each distinct genotype once, and det runs at different episode counts
    differ only in their histories' episodes column.
    """

    def __init__(self, profile: Profile, weights: FitnessWeights, params: GpParams):
        self.weights = weights
        self.params = params
        self.kinds = leaf_kinds(profile)
        self.table = build_transition_table(profile)
        self._cache: dict[Genotype, FitnessValue] = {}

    def eval_batch(self, individuals, tag: str) -> int:
        """Evaluate in order from one rng stream seeded from
        ``f"{params.seed}:{tag}"``; returns the episode budget spent.

        ``fitness.evaluate`` called on each individual in order with that
        one rng gives the same fitness values. The tag must differ between
        the batches of a run. Every individual counts ``episodes_per_eval``
        episodes, whether it was simulated or its fitness came from the
        cache.
        """
        p = self.params
        cache = self._cache
        rng = random.Random(f"{p.seed}:{tag}")
        for ind in individuals:
            g = ind.genotype
            fv = cache.get(g)
            if fv is None:
                fv, drew = evaluate_compiled(
                    bt.compile_tree(g, self.table),
                    bt.node_count(g),
                    self.weights,
                    p.episodes_per_eval,
                    rng,
                    max_root_failures=p.max_root_failures,
                    max_ticks=p.max_ticks,
                )
                if not drew:
                    cache[g] = fv
            ind.fitness = fv
        return len(individuals) * p.episodes_per_eval


def evolve_generation(
    population: list, evaluator: Evaluator, rng, generation: int = 0
) -> tuple[list, GenerationStats]:
    """One generation: breed offspring, evaluate, select survivors.

    Crossover parents come from one tournament (paired after a shuffle, two
    crossover applications per pair; an odd one out breeds nothing), mutation
    parents from another (two offspring each): 2N offspring, or 2N - 2 when
    round(CROSSOVER_FRACTION * N) is odd (N = 7, 8 and 13 breed 12, 14, 24).
    The next population is the elite fraction plus a tournament over parents
    and offspring combined, one per canonical form (its fittest instance).
    With ``reevaluate_elites`` the elites are re-scored in place, so each
    keeps one fitness, the fresh one. When fewer distinct genotypes than
    places remain, the fittest duplicates fill the rest: no individual
    enters the next population twice. The run's settings are
    ``evaluator.params``; ``population`` must hold ``params.population``
    valid, evaluated individuals.
    """
    params = evaluator.params
    n = params.population
    kinds = evaluator.kinds
    n_cx = round_half_up(n * CROSSOVER_FRACTION)
    n_mut = round_half_up(n * MUTATION_FRACTION)
    n_elite = round_half_up(n * ELITISM_FRACTION)

    # Offspring are kept novel against the current population and against
    # each other (bounded retries), where "duplicate" means same canonical
    # form: duplicates would be discarded by survivor selection anyway,
    # wasting the generation's search budget.
    taken: set[Genotype] = {ind.key for ind in population}
    offspring: list[Individual] = []
    cx_parents = tournament(population, n_cx, rng)
    # rng.shuffle(cx_parents), inlined: CPython's Fisher-Yates, each swap
    # index drawn as rng.randrange(i + 1) draws it
    bits = rng.getrandbits
    for i in range(len(cx_parents) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        cx_parents[i], cx_parents[j] = cx_parents[j], cx_parents[i]
    for k in range(len(cx_parents) // 2):
        a, b = cx_parents[2 * k], cx_parents[2 * k + 1]
        for _ in range(2):
            c1, c2 = crossover(a, b, kinds, rng, node_cap=params.node_cap, exclude=taken)
            taken.add(c1.key)
            taken.add(c2.key)
            offspring.append(c1)
            offspring.append(c2)

    mut_parents = tournament(population, n_mut, rng)
    for parent in mut_parents:
        for _ in range(2):
            child = mutate(parent, kinds, rng, node_cap=params.node_cap, exclude=taken)
            taken.add(child.key)
            offspring.append(child)

    episodes = evaluator.eval_batch(offspring, f"g{generation}:off")

    # Survivor selection runs on behaviorally distinct genotypes (fittest
    # instance of each canonical form). Without this the population
    # collapses into copies of one policy within ~50 generations and,
    # because below-median individuals then never win parent duels, the
    # search stalls permanently.
    combined = population + offspring
    order = sorted(range(len(combined)), key=[-ind.fitness.j for ind in combined].__getitem__)
    elites: list[Individual] = []
    seen: set[Genotype] = set()
    distinct_rest: list[Individual] = []
    duplicates: list[Individual] = []
    for i in order:
        ind = combined[i]
        key = ind.key
        if key in seen:
            duplicates.append(ind)
            continue
        seen.add(key)
        if len(elites) < n_elite:
            elites.append(ind)
        else:
            distinct_rest.append(ind)
    if params.reevaluate_elites:
        episodes += evaluator.eval_batch(elites, f"g{generation}:elite")
    n_rest = n - len(elites)
    if len(distinct_rest) >= n_rest:
        survivors = tournament(distinct_rest, n_rest, rng)
    else:
        # too few distinct genotypes: pad with the fittest duplicates
        survivors = distinct_rest + duplicates[: n_rest - len(distinct_rest)]
    new_population = elites + survivors
    return new_population, _stats(generation, new_population, episodes)


# GpParams fields a resumed run may change: the generation budget decides
# only when a run stops, never what any generation computes.
_RESUMABLE_PARAMS = ("generations",)
# Module constants a run is bound to besides GpParams, stored under these names.
_GP_CONSTANTS = (
    "START_LENGTH", "CROSSOVER_FRACTION", "MUTATION_FRACTION", "ELITISM_FRACTION",
    "P_NODE_MUTATION", "P_NODE_ADDITION", "P_NODE_DELETION", "P_CONTROL_NODE", "MAX_ATTEMPTS",
)
_WORLD_CONSTANTS = (
    "START", "PICK_POSE", "GOAL_POSE", "REACH_RADIUS", "SPEED", "SAFE_TIME_MULTIPLIER",
    "LOC_ERROR_LOCALIZED", "LOC_ERROR_LOST", "FIXED_TIME_COSTS", "AUX_POSES",
)
_FITNESS_CONSTANTS = ("ALPHA1", "ALPHA2", "ALPHA3", "BETA", "GAMMA", "PICK_REWARD", "PLACE_REWARD")


def _run_fingerprint(params: GpParams, profile: Profile, weights: FitnessWeights) -> dict:
    """The run configuration a checkpoint is bound to, as JSON will load it."""
    run = {
        "params": {k: v for k, v in asdict(params).items() if k not in _RESUMABLE_PARAMS},
        "gp": {name: globals()[name] for name in _GP_CONSTANTS},
        "world": {name: getattr(world, name) for name in _WORLD_CONSTANTS},
        "fitness": {name: getattr(fitness, name) for name in _FITNESS_CONSTANTS},
        "profile": asdict(profile),
        "weights": asdict(weights),
    }
    return json.loads(json.dumps(run))


def _differing(stored, current, name: str = "") -> list[str]:
    """The fingerprint entries, as ``section.key``, on which a checkpoint
    and this run differ; an entry that only one side has differs too."""
    if not (isinstance(stored, dict) and isinstance(current, dict)):
        return [] if stored == current else [name]
    differ = []
    for key in [*current, *(k for k in stored if k not in current)]:
        full = f"{name}.{key}" if name else key
        both = key in stored and key in current
        differ += _differing(stored[key], current[key], full) if both else [full]
    return differ


def write_atomic(path, write) -> None:
    """Make ``path``'s directory, call ``write`` on ``<name>.tmp`` next to
    ``path``, opened for text, and move that file over ``path``: a crash
    mid-write leaves the previous file intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, fingerprint: dict, generation: int, population, history, rng) -> None:
    """Resumable snapshot: population with cost terms, rng cursor, history.

    One JSON object: ``format``, ``fingerprint`` (sections ``params``, ``gp``,
    ``world``, ``fitness``, ``profile`` and ``weights``), ``generation``,
    ``rng_state``, ``population`` entries ``{"genotype": text, "terms":
    [distance, length, time, risk, rewards]}``, the five cost terms of each
    fitness without the j they give, and ``history`` rows
    [generation, best_j, mean_j, genotype, episodes]; written by ``write_atomic``.
    """
    state = rng.getstate()
    data = {
        "format": CHECKPOINT_FORMAT,
        "fingerprint": fingerprint,
        "generation": generation,
        "rng_state": [state[0], list(state[1]), state[2]],
        "population": [
            {"genotype": bt.to_text(ind.genotype), "terms": list(ind.fitness[1:])}
            for ind in population
        ],
        "history": [
            [h.generation, h.best_j, h.mean_j, bt.to_text(h.best_genotype), h.episodes]
            for h in history
        ],
    }
    write_atomic(path, lambda fh: fh.write(json.dumps(data)))


_CHECKPOINT_KEYS = {
    "fingerprint": dict, "generation": int, "rng_state": list, "population": list, "history": list
}
_ENTRY_KEYS = ("genotype", "terms")


def _item_types(value) -> list | None:
    """The item types of a JSON list; None for any other value."""
    return [type(v) for v in value] if isinstance(value, list) else None


def _is_rng_state(rs: list) -> bool:
    """Whether ``rs`` is a ``random.Random`` state as ``save_checkpoint``
    stores it: [version, 624 32-bit words and a position, gauss slot]."""
    return (
        len(rs) == 3
        and type(rs[0]) is int
        and rs[0] == random.Random.VERSION
        and _item_types(rs[1]) == [int] * 625
        and all(0 <= w < 2**32 for w in rs[1])
        and rs[1][-1] <= 624
        and (rs[2] is None or type(rs[2]) is float)
    )


def load_checkpoint(path) -> dict:
    """Read a checkpoint in ``save_checkpoint``'s layout; a file that is not
    JSON, or a missing or mistyped entry, or terms that give a non-finite
    fitness, is a one-line ValueError naming the checkpoint (and the entry)."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValueError(f"checkpoint {path} is not a JSON file: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    for key, kind in _CHECKPOINT_KEYS.items():
        if key not in data:
            raise ValueError(f"checkpoint {path} has no {key!r} entry")
        if type(data[key]) is not kind:  # a bool is not a generation
            raise ValueError(f"checkpoint {path}: {key!r} entry is not of type {kind.__name__}")
    if not _is_rng_state(data["rng_state"]):
        raise ValueError(f"checkpoint {path}: 'rng_state' entry is not a random.Random state")
    for i, entry in enumerate(data["population"]):
        for key in _ENTRY_KEYS:
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"checkpoint {path}: population entry {i} has no {key!r}")
        if type(entry["genotype"]) is not str or _item_types(entry["terms"]) != [float] * 5:
            raise ValueError(
                f"checkpoint {path}: population entry {i} needs a genotype string "
                "and 5 cost-term floats"
            )
        # json reads NaN and Infinity, and finite terms can sum to an infinite j
        if not all(map(math.isfinite, fitness._from_terms(*entry["terms"]))):
            raise ValueError(f"checkpoint {path}: population entry {i} has a non-finite fitness")
    for i, row in enumerate(data["history"]):
        if _item_types(row) != [int, float, float, str, int]:
            raise ValueError(
                f"checkpoint {path}: history row {i} is not "
                "[generation, best_j, mean_j, genotype, episodes]"
            )
        if not (math.isfinite(row[1]) and math.isfinite(row[2])):
            raise ValueError(f"checkpoint {path}: history row {i} has a non-finite best_j/mean_j")
    generation = data["generation"]
    if generation < 0 or [row[0] for row in data["history"]] != list(range(generation + 1)):
        raise ValueError(f"checkpoint {path}: history rows are not generations 0..{generation}")
    return data


def _loaded_genotype(text: str, kinds, node_cap: int, where: str) -> Genotype:
    """A checkpoint's genotype, rejected unless it is one a run could breed."""
    try:
        genotype = bt.parse(bt.from_text(text), kinds)
    except bt.MalformedGenotype as exc:
        raise ValueError(f"{where} {text!r}: {exc}") from None
    n = bt.node_count(genotype)
    if n > node_cap:
        raise ValueError(f"{where} {text!r} has {n} nodes, over node_cap={node_cap}")
    return genotype


def resumable_checkpoint(path, params: GpParams, profile: Profile, weights: FitnessWeights):
    """``load_checkpoint``'s data for the file at ``path``, its genotypes
    parsed into ``Individual``s and ``GenerationStats``; None if there is
    none. A file this run cannot continue from is a one-line ValueError: one
    from another run, one past ``params.generations``, one that does not hold
    ``params.population`` individuals, or one with a genotype it cannot breed."""
    if not Path(path).exists():
        return None
    data = load_checkpoint(path)
    differ = _differing(data["fingerprint"], _run_fingerprint(params, profile, weights))
    if differ:
        raise ValueError(f"checkpoint {path} is from another run (different {', '.join(differ)})")
    if data["generation"] > params.generations:
        raise ValueError(
            f"checkpoint {path} is at generation {data['generation']}, "
            f"past generations={params.generations}"
        )
    if len(data["population"]) != params.population:
        raise ValueError(
            f"checkpoint {path} holds {len(data['population'])} individuals, "
            f"not population={params.population}"
        )
    # breeding assumes valid parents, so a checkpoint is held to that too
    kinds, cap, where = leaf_kinds(profile), params.node_cap, f"checkpoint {path}:"
    data["population"] = [
        Individual(
            _loaded_genotype(e["genotype"], kinds, cap, f"{where} population genotype"),
            fitness._from_terms(*e["terms"]),
        )
        for e in data["population"]
    ]
    data["history"] = [
        GenerationStats(
            g, bj, mj, _loaded_genotype(gt, kinds, cap, f"{where} history genotype"), ep
        )
        for g, bj, mj, gt, ep in data["history"]
    ]
    return data


def run(
    params: GpParams,
    profile: Profile,
    weights: FitnessWeights = TABLE2,
    *,
    on_generation=None,
    stop_fn=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
) -> tuple[list[GenerationStats], Individual]:
    """Full GP run; returns (history, best individual of the final population).

    The run ends after ``params.generations`` generations, or earlier at the
    first generation for which ``stop_fn(stats, best)`` is true. History row
    0 describes the initial random population.

    With a ``checkpoint_path`` the run saves itself there every
    ``checkpoint_every`` generations (0: none) and at ``generations``, and
    it continues from the file at that path if one exists, ending as the
    uninterrupted run would: a finished run is rebuilt without breeding. The
    file is refused as ``resumable_checkpoint`` refuses it.
    """
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if checkpoint_path is None and checkpoint_every > 0:
        raise ValueError(f"checkpoint_every={checkpoint_every} needs a checkpoint path")
    fingerprint = _run_fingerprint(params, profile, weights)
    evaluator = Evaluator(profile, weights, params)
    rng = random.Random(params.seed)
    kinds = evaluator.kinds
    history: list[GenerationStats]
    data = None
    if checkpoint_path is not None:
        data = resumable_checkpoint(checkpoint_path, params, profile, weights)
    if data is not None:
        rs = data["rng_state"]
        rng.setstate((rs[0], tuple(rs[1]), rs[2]))
        population, history = data["population"], data["history"]
        start_generation = data["generation"] + 1
    else:
        population = [
            Individual(bt.random_genotype(kinds, START_LENGTH, rng))
            for _ in range(params.population)
        ]
        episodes = evaluator.eval_batch(population, "init")
        history = [_stats(0, population, episodes)]
        start_generation = 1
        if checkpoint_path is not None and params.generations == 0:
            save_checkpoint(checkpoint_path, fingerprint, 0, population, history, rng)

    for g in range(start_generation, params.generations + 1):
        population, stats = evolve_generation(population, evaluator, rng, g)
        history.append(stats)
        if on_generation is not None:
            on_generation(stats, population)
        if checkpoint_path is not None and (
            g == params.generations or checkpoint_every and g % checkpoint_every == 0
        ):
            save_checkpoint(checkpoint_path, fingerprint, g, population, history, rng)
        if stop_fn is not None:
            best = max(population, key=lambda ind: ind.fitness.j)
            if stop_fn(stats, best):
                break

    best = max(population, key=lambda ind: ind.fitness.j)
    return history, best
