"""Experiment definitions, multi-seed orchestration, CSV outputs, replay."""

from __future__ import annotations

import csv
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from . import bt
from .fitness import TABLE2, FitnessWeights
from .gp import (
    GenerationStats,
    GpParams,
    Individual,
    mean_left_to_right,
    resumable_checkpoint,
    run,
    write_atomic,
)
from .world import Profile, build_transition_table, make_profile, leaf_kinds, run_compiled

DEFAULT_SEEDS = tuple(range(10))

EXP3_DELTAS = (0.0, 150.0)

RUN_CSV_HEADER = ["generation", "best_j", "mean_j", "episodes", "best_genotype"]


@dataclass(frozen=True)
class CurvePoint:
    generation: int
    mean_best: float
    std_best: float
    per_seed: tuple[float, ...]


def aggregate(histories: list[list[GenerationStats]]) -> list[CurvePoint]:
    """Per-generation mean and sample std of best fitness across runs: one
    or more histories of equal length."""
    from statistics import stdev  # imported here: only curves need it

    curve = []
    for g in range(len(histories[0])):
        values = tuple(h[g].best_j for h in histories)
        mean = mean_left_to_right(values)
        std = stdev(values) if len(values) > 1 else 0.0
        curve.append(CurvePoint(histories[0][g].generation, mean, std, values))
    return curve


@dataclass
class ReplayReport:
    episodes: int
    success_rate: float
    mean_time: float
    mean_risk: float
    terminations: dict[str, int]
    executed: dict[str, int]  # behavior id -> total executions over all episodes

    def as_dict(self) -> dict:
        return {
            "episodes": self.episodes,
            "success_rate": self.success_rate,
            "mean_time": self.mean_time,
            "mean_risk": self.mean_risk,
            "terminations": dict(sorted(self.terminations.items())),
            "executed": dict(sorted(self.executed.items())),
        }


def replay(genotype: bt.Genotype, profile: Profile, episodes: int, seed: int) -> ReplayReport:
    """Monte Carlo report for a genotype at the default episode budgets:
    success rate, time, risk, action log.

    The genotype must pass ``bt.parse`` (MalformedGenotype otherwise).
    ``executed`` maps each behavior run at least once to its total
    executions over all episodes; a pool behavior that never ran is absent.
    Counting draws nothing from the rng, so the episodes are the ones
    ``run_compiled`` plays for the tree uncounted.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    genotype = bt.parse(genotype, leaf_kinds(profile))
    # One int cell per behavior, bound into its wrapper as a default argument:
    # a counted call then costs one local add, with no dict lookup or hashing.
    cells: dict[str, list[int]] = {}
    table = {}
    for bid, fn in build_transition_table(profile).items():
        cell = cells[bid] = [0]

        def counted(st, rng, _fn=fn, _cell=cell):
            _cell[0] += 1
            return _fn(st, rng)

        table[bid] = counted
    compiled = bt.compile_tree(genotype, table)
    rng = random.Random(f"replay:{seed}")
    successes = 0
    time_sum = 0.0
    risk_sum = 0.0
    terminations: Counter[str] = Counter()
    for _ in range(episodes):
        final = run_compiled(compiled, rng)
        if final.placed:
            successes += 1
        time_sum += final.elapsed_time
        risk_sum += final.risk_sum
        terminations[final.terminated_by] += 1
    return ReplayReport(
        episodes=episodes,
        success_rate=successes / episodes,
        mean_time=time_sum / episodes,
        mean_risk=risk_sum / episodes,
        terminations=dict(terminations),
        executed={bid: cell[0] for bid, cell in cells.items() if cell[0]},
    )


def _write_csv(path, rows) -> None:
    write_atomic(path, lambda fh: csv.writer(fh, lineterminator="\n").writerows(rows))


def write_history_csv(path, history: list[GenerationStats]) -> None:
    rows = [
        [h.generation, repr(h.best_j), repr(h.mean_j), h.episodes, bt.to_text(h.best_genotype)]
        for h in history
    ]
    _write_csv(path, [RUN_CSV_HEADER, *rows])


def write_curve_csv(path, curve: list[CurvePoint], seeds: tuple[int, ...]) -> None:
    """Curve CSV with one ``seed<N>`` column per seed, in ``per_seed`` order."""
    header = ["generation", "mean_best", "std_best"] + [f"seed{s}" for s in seeds]
    rows = [
        [p.generation, repr(p.mean_best), repr(p.std_best), *map(repr, p.per_seed)] for p in curve
    ]
    _write_csv(path, [header, *rows])


def write_genotype(path, genotype: bt.Genotype) -> None:
    write_atomic(path, lambda fh: fh.write(bt.to_text(genotype) + "\n"))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str  # exp1 | exp2 | exp3
    out_dir: str
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    # Harness default: refresh elite scores so a lucky episode cannot pin a
    # fragile tree at the top of a stochastic run.
    params: GpParams = GpParams(reevaluate_elites=True)
    workers: int = 1  # seed/variant fan-out processes

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")


def experiment_variants(config: ExperimentConfig) -> list[tuple[str, Profile, FitnessWeights]]:
    """(variant name, profile, weights) triples for one experiment."""
    if config.experiment == "exp1":
        return [
            (column, make_profile(column, "core9"), TABLE2)
            for column in ("det", "stoch1", "stoch2", "stoch3", "stoch4")
        ]
    if config.experiment == "exp2":
        return [
            (pool, make_profile("stoch3", pool), TABLE2)
            for pool in ("core9", "low_noise", "high_noise")
        ]
    if config.experiment == "exp3":
        profile = make_profile("exp3", "safe_paths")
        return [
            (f"delta{delta:g}", profile, FitnessWeights(delta=delta)) for delta in EXP3_DELTAS
        ]
    raise ValueError(f"unknown experiment {config.experiment!r}")


def _run_job(args) -> tuple[str, int, Path, list[GenerationStats], Individual]:
    variant, seed, checkpoint, profile, weights, params = args
    history, best = run(params, profile, weights, checkpoint_path=checkpoint)
    return variant, seed, checkpoint, history, best


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Run all (variant, seed) jobs and write per-run CSVs, aggregate curves
    and best-genotype files under <out_dir>/<experiment>/.

    Each job keeps its run in <variant>/seed<N>.checkpoint.json, so a rerun
    follows ``gp.run``'s rule: a finished job is rebuilt without breeding, a
    larger budget extends it, and an interrupted one starts again. Every
    existing checkpoint is checked before any job runs, so a rerun with
    other settings is refused with no file written.

    Each job's CSV, best tree and checkpoint are listed when it returns and a
    variant's curve after its last seed. The process pool's module, with
    ``multiprocessing``, is imported only when a pool is made.
    """
    out_root = Path(config.out_dir) / config.experiment
    jobs = []
    for variant, profile, weights in experiment_variants(config):
        for seed in config.seeds:
            checkpoint = out_root / variant / f"seed{seed}.checkpoint.json"
            params = replace(config.params, seed=seed)
            resumable_checkpoint(checkpoint, params, profile, weights)
            jobs.append((variant, seed, checkpoint, profile, weights, params))
    written: list[Path] = []
    histories: list[list[GenerationStats]] = []
    # a process pool forks all its workers at once, so it gets no more than there are jobs
    workers = min(config.workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(workers)
    else:
        pool_context = nullcontext()
    with pool_context as pool:
        for variant, seed, checkpoint, history, best in (pool.map if pool else map)(_run_job, jobs):
            run_csv = out_root / variant / f"seed{seed}.csv"
            write_history_csv(run_csv, history)
            best_txt = out_root / variant / f"best_seed{seed}.txt"
            write_genotype(best_txt, best.genotype)
            written.extend([run_csv, best_txt, checkpoint])
            histories.append(history)
            if seed == config.seeds[-1]:
                curve_csv = out_root / f"{variant}_curve.csv"
                write_curve_csv(curve_csv, aggregate(histories), config.seeds)
                written.append(curve_csv)
                histories = []
    return written
