"""Per-layer tracing from outside the program.

``Tracer.install`` replaces btgp functions at the module (or class)
attribute where their callers look them up, and ``restore`` puts the
originals back. Calls at layer boundaries become spans (name, start, end,
parent) held in memory; hot ``bt``, ``fitness`` and ``world`` calls only
add to per-function counts and times.
"""

from __future__ import annotations

import csv
import os
import statistics
from collections import Counter
from time import perf_counter

from .metrics import PER_LAYER

BT_FUNCTIONS = ("canonical", "validate", "subtree_span", "repair", "parse", "compile_tree")


def _mean(total: float, count: int, scale: float) -> float:
    return total * scale / count if count else 0.0


class Tracer:
    def __init__(self, ctx):
        self.ctx = ctx
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self._open: list[int] = []
        self.calls: dict[str, list] = {}  # aggregate name -> [calls, seconds]
        self._installed: list = []  # (owner, attribute, original)
        self._breeding = 0
        self.offspring = 0
        self.parent_copies = 0
        self.breed_validates = 0
        self.ticks = 0
        self.terminations: Counter[str] = Counter()
        self.checkpoint_bytes = 0
        self.node_sizes: Counter[int] = Counter()  # population tree sizes, every generation

    def targets(self) -> list:
        """(owner, attribute, wrapper factory) for every traced function."""
        c = self.ctx
        out = [
            (c.gp, "evolve_generation", self._generation),
            (c.gp.Evaluator, "eval_batch", lambda fn: self._span("eval_batch", fn)),
            (c.gp, "crossover", self._crossover),
            (c.gp, "mutate", self._mutate),
            (c.gp, "tournament", lambda fn: self._span("tournament", fn)),
            (c.gp, "save_checkpoint", self._checkpoint),
            (c.gp, "evaluate_compiled", lambda fn: self._timed("fitness.evaluate", fn)),
            (c.fitness, "cost", lambda fn: self._timed("fitness.cost", fn)),
            (c.fitness, "run_compiled", self._episode),
            (c.experiments, "run_compiled", self._episode),
            (c.experiments, "replay", lambda fn: self._span("replay", fn)),
        ]
        for name in BT_FUNCTIONS:
            make = self._validate if name == "validate" else (
                lambda fn, name=name: self._timed(f"bt.{name}", fn)
            )
            out.append((c.bt, name, make))
        return out

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attribute, make in self.targets():
            original = vars(owner)[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # --- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _timed(self, name: str, fn):
        record = self.calls.setdefault(name, [0, 0.0])
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth:  # recursive call: timed as part of the outermost one
                return fn(*args, **kwargs)
            depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[1] += perf_counter() - start
                record[0] += 1
                depth -= 1

        return wrapper

    def _validate(self, fn):
        timed = self._timed("bt.validate", fn)

        def wrapper(*args, **kwargs):
            if self._breeding:
                self.breed_validates += 1
            return timed(*args, **kwargs)

        return wrapper

    def _generation(self, fn):
        spanned = self._span("generation", fn)

        def wrapper(*args, **kwargs):
            population, stats = spanned(*args, **kwargs)
            self.node_sizes.update(
                sum(1 for tok in ind.genotype if tok != ")") for ind in population
            )
            return population, stats

        return wrapper

    def _crossover(self, fn):
        def counted(p1, p2, *args, **kwargs):
            self._breeding += 1
            try:
                c1, c2 = fn(p1, p2, *args, **kwargs)
            finally:
                self._breeding -= 1
            parents = (p1.genotype, p2.genotype)
            self.offspring += 2
            self.parent_copies += (c1.genotype in parents) + (c2.genotype in parents)
            return c1, c2

        return self._span("crossover", counted)

    def _mutate(self, fn):
        def counted(parent, *args, **kwargs):
            self._breeding += 1
            try:
                child = fn(parent, *args, **kwargs)
            finally:
                self._breeding -= 1
            self.offspring += 1
            self.parent_copies += child.genotype == parent.genotype
            return child

        return self._span("mutate", counted)

    def _checkpoint(self, fn):
        spanned = self._span("checkpoint", fn)

        def wrapper(path, *args, **kwargs):
            spanned(path, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)

        return wrapper

    def _episode(self, fn):
        record = self.calls.setdefault("world.episode", [0, 0.0])

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            record[1] += perf_counter() - start
            record[0] += 1
            self.ticks += result.ticks_used
            self.terminations[result.terminated_by] += 1
            return result

        return wrapper

    # --- results ------------------------------------------------------------

    def metrics(self, overhead_s: float, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never called reads 0.

        Times are means per call unless named per generation. breed_ms is
        crossover + mutate + the parent tournaments (those that run before
        the generation's first eval_batch); select_ms is the rest of the
        generation outside breeding and eval_batch. eval_overhead_us is
        eval_batch time per individual beyond ``evaluate_compiled`` (parse,
        compile, rng seeding). parent_copy_frac is the share of offspring
        equal to a parent; validate_per_offspring counts validate calls made
        while breeding per offspring that is not such a copy.
        """
        durations: dict[str, list] = {}
        per_generation: dict[int, list] = {}  # generation span -> [breed, eval]
        evaluated: set[int] = set()
        for name, start, end, parent in self.spans:
            d = end - start
            totals = durations.setdefault(name, [0, 0.0])
            totals[0] += 1
            totals[1] += d
            if parent < 0 or self.spans[parent][0] != "generation":
                continue
            split = per_generation.setdefault(parent, [0.0, 0.0])
            if name == "eval_batch":
                split[1] += d
                evaluated.add(parent)
            elif name in ("crossover", "mutate") or (
                name == "tournament" and parent not in evaluated
            ):
                split[0] += d  # parent tournaments run before the first eval
        gens, gen_s = durations.get("generation", (0, 0.0))
        breed_s = sum(s[0] for s in per_generation.values())
        eval_s = sum(s[1] for s in per_generation.values())

        def call(name: str) -> tuple[int, float]:
            return tuple(self.calls.get(name, (0, 0.0)))

        def span_mean(name: str, scale: float) -> float:
            n, s = durations.get(name, (0, 0.0))
            return _mean(s, n, scale)

        def call_mean(name: str) -> float:
            n, s = call(name)
            return _mean(s, n, 1e6)

        episodes, _ = call("world.episode")
        evaluations, evaluate_s = call("fitness.evaluate")
        batch_s = durations.get("eval_batch", (0, 0.0))[1]
        useful = self.offspring - self.parent_copies
        checkpoints = durations.get("checkpoint", (0, 0.0))[0]
        out = {
            "bt.canonical_us": call_mean("bt.canonical"),
            "bt.canonical_calls_per_gen": _mean(call("bt.canonical")[0], gens, 1.0),
            "bt.validate_us": call_mean("bt.validate"),
            "bt.validate_calls_per_gen": _mean(call("bt.validate")[0], gens, 1.0),
            "bt.subtree_span_us": call_mean("bt.subtree_span"),
            "bt.repair_calls": float(call("bt.repair")[0]),
            "bt.parse_us": call_mean("bt.parse"),
            "bt.compile_tree_us": call_mean("bt.compile_tree"),
            "bt.genotype_nodes_p50": (
                statistics.median(self.node_sizes.elements()) if self.node_sizes else 0.0
            ),
            "gp.generation_ms": _mean(gen_s, gens, 1e3),
            "gp.breed_ms": _mean(breed_s, gens, 1e3),
            "gp.eval_batch_ms": _mean(eval_s, gens, 1e3),
            "gp.select_ms": _mean(gen_s - breed_s - eval_s, gens, 1e3),
            "gp.crossover_us": span_mean("crossover", 1e6),
            "gp.mutate_us": span_mean("mutate", 1e6),
            "gp.tournament_us": span_mean("tournament", 1e6),
            "gp.parent_copy_frac": _mean(self.parent_copies, self.offspring, 1.0),
            "gp.validate_per_offspring": _mean(self.breed_validates, useful, 1.0),
            "gp.checkpoint_ms": span_mean("checkpoint", 1e3),
            "gp.checkpoint_bytes": _mean(self.checkpoint_bytes, checkpoints, 1.0),
            "fitness.evaluate_us": _mean(evaluate_s, evaluations, 1e6),
            "fitness.cost_us": call_mean("fitness.cost"),
            "fitness.eval_overhead_us": _mean(batch_s - evaluate_s, evaluations, 1e6),
            "world.episode_us": call_mean("world.episode"),
            "world.ticks_per_episode": _mean(self.ticks, episodes, 1.0),
            "world.root_success_frac": _mean(self.terminations["root_success"], episodes, 1.0),
            "world.failure_budget_frac": _mean(
                self.terminations["failure_budget"], episodes, 1.0
            ),
            "world.tick_budget_frac": _mean(self.terminations["tick_budget"], episodes, 1.0),
            "experiments.replay_ms": span_mean("replay", 1e3),
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": overhead_frac,
        }
        missing = {m.name for m in PER_LAYER} ^ out.keys()
        if missing:
            raise RuntimeError(f"per-layer metrics out of step with metrics.py: {missing}")
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent])
            writer.writerow([])
            writer.writerow(["aggregate", "calls", "seconds"])
            for name, (n, s) in sorted(self.calls.items()):
                writer.writerow([name, n, f"{s:.9f}"])
