"""Evolution loop: subtree crossover, three-way mutation, tournament selection."""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from . import bt
from .bt import Genotype
from .fitness import FitnessValue, FitnessWeights, TABLE2, evaluate_compiled
from .world import Profile, build_transition_table, draws_nothing, leaf_kinds

CHECKPOINT_FORMAT = "btgp-checkpoint-v2"


class SlotsExceedCandidates(ValueError):
    pass


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class GpParams:
    """Evolution parameters; defaults follow the standard run configuration."""

    population: int = 30
    start_length: int = 4
    generations: int = 8000
    crossover_fraction: float = 0.40
    mutation_fraction: float = 0.60
    elitism_fraction: float = 0.10
    p_node_mutation: float = 0.30
    p_node_addition: float = 0.40
    p_node_deletion: float = 0.30
    p_control_node: float = 0.50
    episodes_per_eval: int = 1
    seed: int = 0
    node_cap: int = 64
    # With stochastic profiles a cached lucky score can pin a fragile tree at
    # the top forever; re-evaluating elites each generation washes that out.
    reevaluate_elites: bool = False
    early_stop_window: int = 0  # 0 disables
    max_root_failures: int = 5
    max_ticks: int = 100

    def __post_init__(self):
        s = self.p_node_mutation + self.p_node_addition + self.p_node_deletion
        if abs(s - 1.0) > 1e-9:
            raise ValueError("mutation operator probabilities must sum to 1")
        for name in ("crossover_fraction", "mutation_fraction", "elitism_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.start_length < 1 or self.start_length > self.node_cap:
            raise ValueError("start_length must be in [1, node_cap]")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.episodes_per_eval < 1:
            raise ValueError(f"episodes_per_eval must be >= 1, got {self.episodes_per_eval}")
        if self.early_stop_window < 0:
            raise ValueError(f"early_stop_window must be >= 0, got {self.early_stop_window}")


class Individual:
    __slots__ = ("genotype", "fitness", "birth_generation", "_key", "_facts")

    def __init__(
        self, genotype: Genotype, birth_generation: int = 0, fitness=None, key=None
    ):
        self.genotype = tuple(genotype)
        self.birth_generation = birth_generation
        self.fitness: FitnessValue | None = fitness
        self._key: Genotype | None = key  # canonical(genotype), once asked for
        self._facts: list | None = None  # node_facts(genotype), once asked for

    @property
    def key(self) -> Genotype:
        """Canonical form of the genotype, computed at most once."""
        if self._key is None:
            self._key = bt.canonical(self.genotype)
        return self._key

    @property
    def facts(self) -> list:
        """``bt.node_facts`` of the genotype, built at most once: a parent
        bred from several times scans its genotype once."""
        if self._facts is None:
            self._facts = bt.node_facts(self.genotype)
        return self._facts

    def clone(self) -> "Individual":
        return Individual(self.genotype, self.birth_generation, self.fitness, self._key)

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


def tournament(candidates, slots: int, rng) -> list:
    """Survivor selection by repeated random pairwise duels.

    Each round draws two distinct candidates uniformly at random and drops
    the less fit one (ties resolved uniformly), until ``slots`` remain.
    Whenever fitness values are not all equal, the top-scoring candidate is
    guaranteed to survive and the bottom-scoring one to be eliminated.
    """
    cands = list(candidates)
    if slots > len(cands):
        raise SlotsExceedCandidates(f"{slots} slots for {len(cands)} candidates")
    if slots <= 0:
        return []
    if slots == len(cands):
        return cands
    for c in cands:
        if c.fitness is None:
            raise ValueError("tournament requires evaluated candidates")
    js = [c.fitness.j for c in cands]
    first = js[0]
    if all(j == first for j in js):
        winners: list = []
        pool = cands
        need = slots
    else:
        best_i = max(range(len(cands)), key=lambda i: js[i])
        worst_i = min(range(len(cands)), key=lambda i: js[i])
        winners = [cands[best_i]]
        pool = [c for i, c in enumerate(cands) if i != best_i and i != worst_i]
        need = slots - 1
    # One duel per round between two random candidates; everyone else gets a
    # bye. Minimal pressure per round keeps genetic content from weak
    # individuals around, which the search relies on.
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


def crossover(
    p1: Individual,
    p2: Individual,
    kinds,
    rng,
    *,
    node_cap: int = 64,
    max_attempts: int = 100,
    birth_generation: int = 0,
    exclude: frozenset | set = frozenset(),
) -> tuple[Individual, Individual]:
    """Swap one uniformly chosen subtree span between the parents.

    Invalid or over-cap offspring, offspring equal to each other, or
    offspring listed in ``exclude`` (duplicate rejection across repeated
    applications) trigger a re-draw of the crossover points; after
    ``max_attempts`` the parents are returned unchanged. The checks run
    cheapest first; each is pure, so their order decides no outcome, and a
    span pair already rejected in this call is skipped without re-checking
    (both points are still drawn, so the rng stream is the same). Once
    every span pair has been rejected, the remaining attempts only make
    their draws.

    Both parents must be valid: an offspring's validity is then decided
    from its parent's ``node_facts`` row and the inserted root token
    (``bt.fits``), without validating the offspring.
    """
    g1, g2 = p1.genotype, p2.genotype
    if g1 == g2 and len(g1) == 1:
        # identical single-leaf parents can never yield distinct offspring
        return (Individual(g1, birth_generation), Individual(g2, birth_generation))
    facts1, facts2 = p1.facts, p2.facts
    n1, n2 = len(facts1), len(facts2)
    tried: set[tuple[int, int]] = set()
    draw = rng.randrange
    for left in range(max_attempts, 0, -1):
        if len(tried) == n1 * n2:
            for _ in range(left):
                draw(n1)
                draw(n2)
            break
        pair = (draw(n1), draw(n2))
        if pair in tried:
            continue
        tried.add(pair)
        row1, row2 = facts1[pair[0]], facts2[pair[1]]
        s1, e1, k1, _, _ = row1
        s2, e2, k2, _, _ = row2
        c1 = g1[:s1] + g2[s2:e2] + g1[e1:]
        c2 = g2[:s2] + g1[s1:e1] + g2[e2:]
        # each child's node count: its parent's, less the subtree given, plus the one taken
        if c1 == c2 or n1 - k1 + k2 > node_cap or n2 - k2 + k1 > node_cap:
            continue
        key1 = bt.canonical(c1)
        if key1 in exclude:
            continue
        key2 = bt.canonical(c2)
        if key2 in exclude:
            continue
        if not (bt.fits(g1, row1, g2[s2], kinds) and bt.fits(g2, row2, g1[s1], kinds)):
            continue
        return (
            Individual(c1, birth_generation, key=key1),
            Individual(c2, birth_generation, key=key2),
        )
    return (
        Individual(g1, birth_generation, key=p1._key),
        Individual(g2, birth_generation, key=p2._key),
    )


# The mutation operators below each return (candidate, valid) for a valid
# genotype ``g`` with rows ``facts = bt.node_facts(g)``. ``valid`` equals
# ``not bt.validate(candidate)``: an edit can break V1-V4 only where it
# touches the tree, so each operator checks just the nodes next to its edit.


def _is_condition(kinds, tok: str) -> bool:
    return kinds.get(tok) == bt.CONDITION  # open and close tokens are not in kinds


def _child_starts(facts: list, k: int) -> list[int]:
    """Start token of each child of control row ``k``, then its close."""
    starts = []
    j = k + 1
    for _ in range(facts[k][4]):
        starts.append(facts[j][0])
        j += facts[j][2]
    starts.append(facts[k][1] - 1)
    return starts


def _random_control(rng) -> str:
    return bt.SEQUENCE_OPEN if rng.random() < 0.5 else bt.FALLBACK_OPEN


def _op_node_mutation(g: Genotype, facts: list, ids, kinds, rng, p_control: float):
    k = rng.randrange(len(facts))
    i, e, _, parent, _ = facts[k]
    if rng.random() < p_control:
        tok = _random_control(rng)
        # V1 against the parent, which is the only check when the node is the root
        ok = parent < 0 or g[parent] != tok
        if bt.is_control_open(g[i]):
            # kind flip: V1 against every control child as well
            ok = ok and all(g[j] != tok for j in _child_starts(facts, k))
            return g[:i] + (tok,) + g[i + 1 :], ok
        # leaf -> control: the leaf becomes the new control's only child (V2)
        return g[:i] + (tok, g[i], bt.CLOSE) + g[i + 1 :], ok and not _is_condition(kinds, g[i])
    leaf = ids[rng.randrange(len(ids))]
    return g[:i] + (leaf,) + g[e:], bt.fits(g, facts[k], leaf, kinds)


def _op_node_addition(g: Genotype, facts: list, ids, kinds, rng, p_control: float):
    if rng.random() < p_control:
        # New control node over a contiguous run of siblings: the runs of a
        # control with m children are its (x, y) child boundary pairs,
        # 0 <= x < y <= m, numbered x-major, controls in token order.
        tok = _random_control(rng)
        n_runs = sum(m * (m + 1) // 2 for *_, m in facts)
        if not n_runs:  # bare leaf: wrap the root, which becomes the last child (V2)
            return (tok,) + g + (bt.CLOSE,), not _is_condition(kinds, g[0])
        r = rng.randrange(n_runs)
        for k, row in enumerate(facts):
            m = row[4]
            if r < m * (m + 1) // 2:
                break
            r -= m * (m + 1) // 2
        x = 0
        while r >= m - x:
            r -= m - x
            x += 1
        bounds = _child_starts(facts, k)
        lo, hi = bounds[x], bounds[x + 1 + r]
        # V1 against the control above and every wrapped child; V2 for the
        # last wrapped child, read off the token before the run's end
        ok = (
            g[row[0]] != tok
            and all(g[j] != tok for j in bounds[x : x + 1 + r])
            and not _is_condition(kinds, g[hi - 1])
        )
        return g[:lo] + (tok,) + g[lo:hi] + (bt.CLOSE,) + g[hi:], ok
    # New leaf, either as a sibling in an existing child list or at a new
    # level (bundled with an existing node under a fresh control).
    leaf = ids[rng.randrange(len(ids))]
    cond = _is_condition(kinds, leaf)
    # every position inside the root control is a child slot of the
    # innermost control around it; a bare leaf has none
    if len(g) > 1 and rng.random() < 0.5:
        j = 1 + rng.randrange(len(g) - 1)
        # V2 as the last child, V4 next to an equal leaf
        ok = not cond or (g[j] != bt.CLOSE and g[j] != leaf and g[j - 1] != leaf)
        return g[:j] + (leaf,) + g[j:], ok
    r = rng.randrange(2 * len(facts))
    s, e, _, parent, _ = facts[r // 2]
    tok = _random_control(rng)
    # V1 against the parent and the bundled node; V2 for whichever is last
    # (a V4 pair of equal conditions always puts a condition last)
    ok = (parent < 0 or g[parent] != tok) and g[s] != tok
    if r % 2 == 0:
        return (
            g[:s] + (tok, leaf) + g[s:e] + (bt.CLOSE,) + g[e:],
            ok and not _is_condition(kinds, g[s]),
        )
    return g[:s] + (tok,) + g[s:e] + (leaf, bt.CLOSE) + g[e:], ok and not cond


def _op_node_deletion(g: Genotype, facts: list, kinds, rng):
    if len(facts) <= 1:
        return None, False  # deleting the only node would empty the tree
    s, e, *_ = facts[rng.randrange(len(facts) - 1) + 1]  # never the root
    before, after = g[s - 1], g[e]
    if after == bt.CLOSE:
        # the node was the last child: V3 if it was the only one, else V2
        # for the left sibling that becomes last
        ok = not bt.is_control_open(before) and not _is_condition(kinds, before)
    else:
        # V4 for the siblings that become neighbours
        ok = before != after or not _is_condition(kinds, before)
    return g[:s] + g[e:], ok


def mutate(
    parent: Individual,
    kinds,
    params: GpParams,
    rng,
    *,
    birth_generation: int = 0,
    max_attempts: int = 100,
    exclude: frozenset | set = frozenset(),
) -> Individual:
    """Apply one of node mutation / addition / deletion (drawn per params).

    Inapplicable or invalid outcomes (and genotypes in ``exclude``) re-draw
    the operator; after ``max_attempts`` the best candidate so far is kept
    (repaired by node deletion if invalid), and as a final fallback the
    parent is copied unchanged.

    The parent must be valid: each operator then decides its candidate's
    validity from the parent's ``node_facts`` at the edit, and only the
    repair fallback calls ``bt.validate``.
    """
    ids = sorted(kinds)
    g = parent.genotype
    facts = parent.facts
    last = None
    valid_dup = None
    dup_key = None
    for _ in range(max_attempts):
        r = rng.random()
        if r < params.p_node_mutation:
            cand, ok = _op_node_mutation(g, facts, ids, kinds, rng, params.p_control_node)
        elif r < params.p_node_mutation + params.p_node_addition:
            cand, ok = _op_node_addition(g, facts, ids, kinds, rng, params.p_control_node)
        else:
            cand, ok = _op_node_deletion(g, facts, kinds, rng)
        if cand is None:
            continue
        last = cand
        if not ok or bt.node_count(cand) > params.node_cap:
            continue
        key = bt.canonical(cand)
        if key in exclude:
            valid_dup, dup_key = cand, key  # acceptable if nothing novel shows up
            continue
        return Individual(cand, birth_generation, key=key)
    if valid_dup is not None:
        return Individual(valid_dup, birth_generation, key=dup_key)
    if last is not None:
        repaired = bt.repair(last, kinds, rng)
        if bt.node_count(repaired) <= params.node_cap and not bt.validate(repaired, kinds):
            return Individual(repaired, birth_generation)
    return Individual(g, birth_generation, key=parent._key)


# --- evaluation --------------------------------------------------------------


class Evaluator:
    """Assigns fitness to individuals, one at a time.

    On a profile that draws from the rng, every evaluation seeds its own rng
    stream from (master seed, tag, slot), so an individual's fitness depends
    only on its genotype and its slot in the batch, never on what else the
    batch holds. Nothing is cached.

    When the profile draws nothing (``world.draws_nothing``), an episode is
    a pure function of the genotype, so ``eval_batch`` keeps a genotype ->
    fitness dict for the evaluator's lifetime and simulates each distinct
    genotype once. Every such evaluation is handed the one rng the evaluator
    holds for its lifetime: no episode draws from it, so a stream seeded per
    evaluation would change nothing.
    """

    def __init__(self, profile: Profile, weights: FitnessWeights, params: GpParams):
        self.profile = profile
        self.weights = weights
        self.params = params
        self.kinds = leaf_kinds(profile)
        self.table = build_transition_table(profile)
        self._cache: dict[Genotype, FitnessValue] | None = None
        self._rng = None
        if draws_nothing(profile):
            self._cache = {}
            self._rng = random.Random(params.seed)

    def evaluate_one(self, genotype: Genotype, rng) -> FitnessValue:
        """Mean fitness of one genotype over episodes drawing from ``rng``."""
        p = self.params
        return evaluate_compiled(
            bt.compile_tree(genotype, self.table),
            bt.node_count(genotype),
            self.profile,
            self.weights,
            p.episodes_per_eval,
            rng,
            max_root_failures=p.max_root_failures,
            max_ticks=p.max_ticks,
        )

    def seed_string(self, tag: str, slot: int) -> str:
        return f"{self.params.seed}:{tag}:{slot}"

    def eval_batch(self, individuals, tag: str) -> int:
        """Evaluate in order; returns the episode budget spent.

        Every individual counts ``episodes_per_eval`` episodes, whether it
        was simulated or its fitness came from the cache.
        """
        cache = self._cache
        if cache is None:
            for i, ind in enumerate(individuals):
                rng = random.Random(self.seed_string(tag, i))
                ind.fitness = self.evaluate_one(ind.genotype, rng)
        else:
            for ind in individuals:
                fv = cache.get(ind.genotype)
                if fv is None:
                    fv = cache[ind.genotype] = self.evaluate_one(ind.genotype, self._rng)
                ind.fitness = fv
        return len(individuals) * self.params.episodes_per_eval


def evolve_generation(
    population: list, evaluator: Evaluator, params: GpParams, rng, generation: int = 0
) -> tuple[list, GenerationStats]:
    """One generation: breed 2N offspring, evaluate, select survivors.

    Crossover parents come from one tournament (paired after a shuffle, two
    crossover applications per pair), mutation parents from another (two
    offspring each). The next population is the elite fraction plus a
    tournament over parents and offspring combined.
    """
    n = params.population
    if len(population) != n:
        raise ValueError(f"population size {len(population)} != {n}")
    kinds = evaluator.kinds
    n_cx = round_half_up(n * params.crossover_fraction)
    n_mut = round_half_up(n * params.mutation_fraction)
    n_elite = round_half_up(n * params.elitism_fraction)

    # Offspring are kept novel against the current population and against
    # each other (bounded retries), where "duplicate" means same canonical
    # form: duplicates would be discarded by survivor selection anyway,
    # wasting the generation's search budget.
    taken: set[Genotype] = {ind.key for ind in population}
    offspring: list[Individual] = []
    cx_parents = tournament(population, n_cx, rng)
    rng.shuffle(cx_parents)
    for k in range(len(cx_parents) // 2):
        a, b = cx_parents[2 * k], cx_parents[2 * k + 1]
        for _ in range(2):
            c1, c2 = crossover(
                a,
                b,
                kinds,
                rng,
                node_cap=params.node_cap,
                birth_generation=generation,
                exclude=taken,
            )
            taken.add(c1.key)
            taken.add(c2.key)
            offspring.append(c1)
            offspring.append(c2)

    mut_parents = tournament(population, n_mut, rng)
    for parent in mut_parents:
        for _ in range(2):
            child = mutate(
                parent,
                kinds,
                params,
                rng,
                birth_generation=generation,
                exclude=taken,
            )
            taken.add(child.key)
            offspring.append(child)

    episodes = evaluator.eval_batch(offspring, f"g{generation}:off")

    # Survivor selection runs on behaviorally distinct genotypes (fittest
    # instance of each canonical form). Without this the population
    # collapses into copies of one policy within ~50 generations and,
    # because below-median individuals then never win parent duels, the
    # search stalls permanently.
    combined = population + offspring
    order = sorted(range(len(combined)), key=lambda i: -combined[i].fitness.j)
    elites: list[Individual] = []
    seen: set[Genotype] = set()
    distinct_rest: list[Individual] = []
    for i in order:
        ind = combined[i]
        key = ind.key
        if key in seen:
            continue
        seen.add(key)
        if len(elites) < n_elite:
            elites.append(ind)
        else:
            distinct_rest.append(ind)
    if params.reevaluate_elites:
        elites = [e.clone() for e in elites]
        episodes += evaluator.eval_batch(elites, f"g{generation}:elite")
    n_rest = n - len(elites)
    if len(distinct_rest) >= n_rest:
        survivors = tournament(distinct_rest, n_rest, rng)
    else:
        # not enough distinct genotypes; pad with the fittest duplicates
        survivors = distinct_rest
        leftover = [combined[i] for i in order if combined[i] not in survivors]
        survivors = survivors + leftover[: n_rest - len(survivors)]
    new_population = elites + survivors

    best = max(new_population, key=lambda ind: ind.fitness.j)
    mean_j = sum(ind.fitness.j for ind in new_population) / len(new_population)
    stats = GenerationStats(generation, best.fitness.j, mean_j, best.genotype, episodes)
    return new_population, stats


# GpParams fields a resumed run may change: they decide only when a run
# stops, never what any generation computes.
_RESUMABLE_PARAMS = ("generations", "early_stop_window")


def _run_fingerprint(params: GpParams, profile: Profile, weights: FitnessWeights) -> dict:
    """The run configuration a checkpoint is bound to, as JSON will load it."""
    fixed = {k: v for k, v in asdict(params).items() if k not in _RESUMABLE_PARAMS}
    run = {"profile": asdict(profile), "weights": asdict(weights), "params": fixed}
    return json.loads(json.dumps(run))


def save_checkpoint(path, fingerprint: dict, generation: int, population, history, rng) -> None:
    """Resumable snapshot: population with fitness cache, rng cursor, history.

    Written to a temporary file next to ``path`` and moved over it, so a
    crash mid-write leaves the previous checkpoint intact.
    """
    state = rng.getstate()
    data = {
        "format": CHECKPOINT_FORMAT,
        "fingerprint": fingerprint,
        "generation": generation,
        "rng_state": [state[0], list(state[1]), state[2]],
        "population": [
            {
                "genotype": bt.to_text(ind.genotype),
                "birth_generation": ind.birth_generation,
                "fitness": [
                    ind.fitness.j,
                    ind.fitness.distance_term,
                    ind.fitness.length_term,
                    ind.fitness.time_term,
                    ind.fitness.risk_term,
                    ind.fitness.rewards,
                ],
            }
            for ind in population
        ],
        "history": [
            [h.generation, h.best_j, h.mean_j, bt.to_text(h.best_genotype), h.episodes]
            for h in history
        ],
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CHECKPOINT_KEYS = ("fingerprint", "generation", "rng_state", "population", "history")
_ENTRY_KEYS = ("genotype", "birth_generation", "fitness")


def load_checkpoint(path) -> dict:
    """Read a checkpoint; a missing key is a one-line ValueError naming it."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    for key in _CHECKPOINT_KEYS:
        if key not in data:
            raise ValueError(f"checkpoint {path} has no {key!r} entry")
    for i, entry in enumerate(data["population"]):
        for key in _ENTRY_KEYS:
            if key not in entry:
                raise ValueError(f"checkpoint {path}: population entry {i} has no {key!r}")
    return data


def _loaded_genotype(text: str, kinds, node_cap: int, where: str) -> Genotype:
    """A checkpoint's genotype, rejected unless it is one a run could breed."""
    try:
        genotype = bt.from_text(text)
        violations = bt.validate(genotype, kinds)
    except bt.MalformedGenotype as exc:
        raise ValueError(f"{where} {text!r}: {exc}") from None
    if violations:
        v = violations[0]
        raise ValueError(f"{where} {text!r} breaks {v.code} ({v.message})")
    n = bt.node_count(genotype)
    if n > node_cap:
        raise ValueError(f"{where} {text!r} has {n} nodes, over node_cap={node_cap}")
    return genotype


def run(
    params: GpParams,
    profile: Profile,
    weights: FitnessWeights = TABLE2,
    *,
    on_generation=None,
    stop_fn=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> tuple[list[GenerationStats], Individual]:
    """Full GP run; returns (history, best individual of the final population).

    ``stop_fn(stats, best)`` may end the run early; ``early_stop_window`` > 0
    stops after that many generations without best-fitness change. History
    row 0 describes the initial random population.
    """
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if checkpoint_path is not None and checkpoint_every == 0:
        raise ValueError("a checkpoint path needs checkpoint_every >= 1")
    fingerprint = _run_fingerprint(params, profile, weights)
    evaluator = Evaluator(profile, weights, params)
    rng = random.Random(params.seed)
    kinds = evaluator.kinds
    history: list[GenerationStats]
    if resume_from is not None:
        data = load_checkpoint(resume_from)
        differ = [k for k in fingerprint if data["fingerprint"].get(k) != fingerprint[k]]
        if differ:
            raise ValueError(
                f"checkpoint {resume_from} is from another run (different {', '.join(differ)})"
            )
        if data["generation"] > params.generations:
            raise ValueError(
                f"checkpoint {resume_from} is at generation {data['generation']}, "
                f"past generations={params.generations}"
            )
        rs = data["rng_state"]
        rng.setstate((rs[0], tuple(rs[1]), rs[2]))
        # breeding assumes valid parents, so a checkpoint is held to that too
        where, cap = f"checkpoint {resume_from}:", params.node_cap
        population = [
            Individual(
                _loaded_genotype(e["genotype"], kinds, cap, f"{where} population genotype"),
                e["birth_generation"],
                FitnessValue(*e["fitness"]),
            )
            for e in data["population"]
        ]
        history = [
            GenerationStats(
                g, bj, mj, _loaded_genotype(gt, kinds, cap, f"{where} history genotype"), ep
            )
            for g, bj, mj, gt, ep in data["history"]
        ]
        start_generation = data["generation"] + 1
    else:
        population = [
            Individual(
                bt.random_genotype(kinds, params.start_length, rng, node_cap=params.node_cap), 0
            )
            for _ in range(params.population)
        ]
        episodes = evaluator.eval_batch(population, "init")
        best0 = max(population, key=lambda ind: ind.fitness.j)
        mean0 = sum(ind.fitness.j for ind in population) / len(population)
        history = [GenerationStats(0, best0.fitness.j, mean0, best0.genotype, episodes)]
        start_generation = 1

    for g in range(start_generation, params.generations + 1):
        population, stats = evolve_generation(population, evaluator, params, rng, g)
        history.append(stats)
        if on_generation is not None:
            on_generation(stats, population)
        if checkpoint_path is not None and g % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, fingerprint, g, population, history, rng)
        if stop_fn is not None:
            best = max(population, key=lambda ind: ind.fitness.j)
            if stop_fn(stats, best):
                break
        w = params.early_stop_window
        if w > 0 and len(history) > w:
            recent = [h.best_j for h in history[-(w + 1) :]]
            if all(v == recent[0] for v in recent):
                break

    best = max(population, key=lambda ind: ind.fitness.j)
    return history, best
