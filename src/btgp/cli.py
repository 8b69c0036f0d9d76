"""Command-line front end: single runs, the three experiments, replay."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bt
from .experiments import (
    DEFAULT_SEEDS,
    ExperimentConfig,
    replay,
    run_experiment,
    write_genotype,
    write_history_csv,
)
from .fitness import FitnessWeights
from .gp import GpParams, run
from .world import POOLS, PROBABILITY_COLUMNS, make_profile


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Seed lists: '0..9', '0,3,7' or a single number."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(","))


def _add_common(parser: argparse.ArgumentParser, defaults: GpParams) -> None:
    parser.add_argument(
        "--generations", type=int, default=defaults.generations, help="generation budget"
    )
    parser.add_argument("--population", type=int, default=defaults.population)
    parser.add_argument("--episodes-per-eval", type=int, default=defaults.episodes_per_eval)
    parser.add_argument(
        "--reevaluate-elites",
        action=argparse.BooleanOptionalAction,
        default=defaults.reevaluate_elites,
    )
    out_help = "output directory (default %(default)s); reruns continue from its *.checkpoint.json"
    parser.add_argument("--out", default="btgp_out", help=out_help)


def _gp_params(args, seed: int = GpParams.seed) -> GpParams:
    """The run settings the shared flags give, plus ``run``'s seed."""
    return GpParams(
        population=args.population,
        generations=args.generations,
        episodes_per_eval=args.episodes_per_eval,
        reevaluate_elites=args.reevaluate_elites,
        seed=seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btgp",
        description="Learn behavior-tree policies for a mobile pick-and-place "
        "task with genetic programming on a state-machine world model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single GP run")
    run_p.add_argument("--profile", default="det", choices=sorted(PROBABILITY_COLUMNS))
    run_p.add_argument("--pool", default="core9", choices=POOLS)
    run_p.add_argument("--seed", type=int, default=GpParams.seed)
    run_p.add_argument("--delta", type=float, default=FitnessWeights.delta, help="risk weight")
    _add_common(run_p, GpParams())
    run_p.set_defaults(handler=_cmd_run)

    for name, help_text in (
        ("exp1", "failure-probability robustness across the five profiles"),
        ("exp2", "distractor-pool noise on the stoch3 profile"),
        ("exp3", "risk-averse path selection, delta 0 vs 150"),
    ):
        exp_p = sub.add_parser(name, help=help_text)
        exp_p.add_argument("--seeds", type=_parse_seeds, default=DEFAULT_SEEDS)
        exp_p.add_argument(
            "--workers",
            type=int,
            default=ExperimentConfig.workers,
            help="run this many (variant, seed) jobs at once in parallel processes",
        )
        _add_common(exp_p, ExperimentConfig.params)
        exp_p.set_defaults(handler=_cmd_experiment)

    replay_p = sub.add_parser("replay", help="Monte Carlo replay of a genotype file")
    replay_p.add_argument("--tree", required=True, help="genotype text file")
    replay_p.add_argument("--profile", default="det", choices=sorted(PROBABILITY_COLUMNS))
    replay_p.add_argument("--pool", default="core9", choices=POOLS)
    replay_p.add_argument("--episodes", type=int, default=1000)
    replay_p.add_argument("--seed", type=int, default=0)
    replay_p.set_defaults(handler=_cmd_replay)
    return parser


def _cmd_run(args) -> int:
    out_dir = Path(args.out)
    weights = FitnessWeights(delta=args.delta)
    profile = make_profile(args.profile, args.pool)
    params = _gp_params(args, seed=args.seed)
    stem = f"run_{profile.name}_seed{args.seed}"
    checkpoint = out_dir / f"{stem}.checkpoint.json"
    history, best = run(params, profile, weights, checkpoint_path=checkpoint)
    csv_path = out_dir / f"{stem}.csv"
    best_path = out_dir / f"{stem}_best.txt"
    write_history_csv(csv_path, history)
    write_genotype(best_path, best.genotype)
    print(f"generations: {history[-1].generation}")
    print(f"episodes: {sum(h.episodes for h in history)}")
    print(f"best_j: {best.fitness.j!r}")
    print(f"best: {bt.to_text(best.genotype)}")
    print(f"wrote {csv_path} and {best_path}")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        experiment=args.command,
        out_dir=args.out,
        seeds=args.seeds,
        params=_gp_params(args),
        workers=args.workers,
    )
    written = run_experiment(config)
    for path in written:
        print(path)
    return 0


def _cmd_replay(args) -> int:
    profile = make_profile(args.profile, args.pool)
    try:
        genotype = bt.from_text(Path(args.tree).read_text())
        report = replay(genotype, profile, args.episodes, args.seed)
    except (bt.MalformedGenotype, UnicodeDecodeError) as exc:
        raise bt.MalformedGenotype(f"tree file {args.tree}: {exc}") from None
    print(json.dumps(report.as_dict(), indent=1))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
