"""The three workloads.

A pass runs operations until its deadline, or, given the plan of an earlier
pass, repeats exactly that work (the traced pass does this, so its history
digest and wall time compare with the untraced pass). An operation is one
seed run or one replay call; it fails if it raises or if its output check
fails.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from .hostclock import HostClock

REPLAY_EPISODES = 1000  # per replay call, as `btgp replay` does by default


@dataclass
class Pass:
    plan: list  # what each operation did, enough to repeat it exactly
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    timed_s: float = 0.0  # time inside the timed calls, host probes left out
    wall_s: float = 0.0  # the whole pass, output checks included
    ref_s: float = 0.0  # time spent in host probes
    ref_unit_s: float = 0.0  # median host probe time
    episodes: int = 0  # episodes simulated inside the timed calls
    steps_ms: list[float] = field(default_factory=list)  # per generation / replay call
    steps_ref: list[float] = field(default_factory=list)  # the same, in reference-loop units
    step_episodes: int = 0  # episodes simulated inside the steps
    digest: str = ""  # SHA-256 fingerprint of the first operation's output
    report: dict = field(default_factory=dict)  # name -> (value, unit, note)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def history_digest(bt, history) -> str:
    rows = "".join(
        f"{h.generation},{h.best_j!r},{h.mean_j!r},{bt.to_text(h.best_genotype)},{h.episodes}\n"
        for h in history
    )
    return hashlib.sha256(rows.encode()).hexdigest()


def _failure(op: str) -> str:
    return f"{op}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}"


@dataclass(frozen=True)
class SearchWorkload:
    """GP runs on a consecutive seed set that starts at the workload seed."""

    profile: str
    generations: int  # generation cap (search_det) or fixed budget (search_stoch3)
    episodes_per_eval: int = 1
    reevaluate_elites: bool = False
    stop_at_reference: bool = False  # stop a seed once best_j >= reference J
    checkpoint_every: int = 0

    def run(self, ctx, seed: int, seconds: float | None, plan: list | None = None) -> Pass:
        start = perf_counter()
        deadline = None if seconds is None else start + seconds
        out = Pass(plan=[])
        clock = HostClock()
        runs = []
        with tempfile.TemporaryDirectory(prefix="ckpt-", dir=work_dir()) as tmp:
            while (plan is None and perf_counter() < deadline) or (
                plan is not None and len(runs) < len(plan)
            ):
                limit = None if plan is None else plan[len(runs)]
                planned = len(out.plan)
                out.attempted += 1
                try:
                    runs.append(
                        self._seed_run(ctx, seed + len(runs), deadline, limit, tmp, clock, out)
                    )
                except Exception:
                    out.failures.append(_failure(f"seed {seed + len(runs)}"))
                    runs.append(None)
                    if len(out.plan) == planned:
                        out.plan.append(0)
        out.wall_s = perf_counter() - start
        out.ref_s, out.ref_unit_s = clock.spent, statistics.median(clock.samples)
        self._report(ctx, out, clock, [r for r in runs if r is not None])
        return out

    def _seed_run(self, ctx, seed, deadline, limit, tmp, clock, out: Pass) -> dict:
        bt, gp = ctx.bt, ctx.gp
        profile = ctx.profiles[self.profile]
        params = gp.GpParams(
            generations=self.generations,
            episodes_per_eval=self.episodes_per_eval,
            reevaluate_elites=self.reevaluate_elites,
            seed=seed,
        )
        target = ctx.reference_j if self.stop_at_reference else None
        previous = None  # end of the previous on_generation call

        # A step runs from one on_generation call to the next: the previous
        # generation's checkpoint and stop test, then this generation.
        def on_generation(stats, population):
            nonlocal previous
            now = perf_counter()
            if previous is not None:
                out.steps_ms.append((now - previous) * 1e3)
                out.steps_ref.append((now - previous) / clock.unit())
            clock.tick()
            previous = perf_counter()

        def stop_fn(stats, best):
            if target is not None and stats.best_j >= target:
                return True
            if limit is not None:
                return stats.generation >= limit
            return perf_counter() >= deadline

        checkpoint = Path(tmp) / f"seed{seed}.json" if self.checkpoint_every else None
        probes = clock.spent
        t0 = perf_counter()
        history, best = gp.run(
            params,
            profile,
            on_generation=on_generation,
            stop_fn=stop_fn,
            checkpoint_path=checkpoint,
            checkpoint_every=self.checkpoint_every,
        )
        elapsed = perf_counter() - t0 - (clock.spent - probes)
        generations = history[-1].generation
        out.plan.append(generations)
        out.timed_s += elapsed
        out.episodes += sum(h.episodes for h in history)
        out.step_episodes += sum(h.episodes for h in history[2:])
        if not out.digest:
            out.digest = history_digest(bt, history)

        problems = self._check(ctx, params, profile, history, best, checkpoint)
        if problems:
            out.failures.append(f"seed {seed}: " + "; ".join(problems))
        placed = ctx.experiments.replay(best.genotype, profile, REPLAY_EPISODES, seed)
        solved = target is not None and history[-1].best_j >= target
        return {
            "seconds": elapsed,
            "generations": generations,
            "solved": solved,
            "finished": solved or generations >= self.generations,
            "best_j": history[-1].best_j,
            "placed": placed.success_rate,
        }

    def _check(self, ctx, params, profile, history, best, checkpoint) -> list[str]:
        bt = ctx.bt
        kinds = ctx.world.leaf_kinds(profile)
        problems = []
        if bt.validate(best.genotype, kinds):
            problems.append("final best fails bt.validate")
        if bt.node_count(best.genotype) > params.node_cap:
            problems.append("final best exceeds the node cap")
        if best.fitness.j != history[-1].best_j:
            problems.append("returned best differs from the last history row")
        if self.profile == "det":
            # det episodes draw nothing from the rng, so fitness is exact
            again = ctx.fitness.evaluate(
                bt.parse(best.genotype, kinds),
                profile,
                ctx.fitness.TABLE2,
                params.episodes_per_eval,
                random.Random(0),
                max_root_failures=params.max_root_failures,
                max_ticks=params.max_ticks,
            ).j
            if again != history[-1].best_j:
                problems.append(f"re-evaluated best_j {again!r} != {history[-1].best_j!r}")
        if checkpoint is not None:
            last = history[-1].generation // self.checkpoint_every * self.checkpoint_every
            if last:
                data = ctx.gp.load_checkpoint(checkpoint)
                rows = [
                    [h.generation, h.best_j, h.mean_j, bt.to_text(h.best_genotype), h.episodes]
                    for h in history[: last + 1]
                ]
                if data["generation"] != last or data["history"] != rows:
                    problems.append(f"checkpoint of generation {last} differs from the run")
                checkpoint.unlink()
        return problems

    def _report(self, ctx, out: Pass, clock: HostClock, runs: list[dict]) -> None:
        gens = sum(r["generations"] for r in runs)
        finished = [r for r in runs if r["finished"]] or runs
        steps = out.steps_ms
        n = len(steps)
        r = {
            "wall_s": (out.wall_s, "s", f"{len(runs)} seeds, output checks included"),
            "gen_per_s": (gens / out.timed_s if out.timed_s else 0.0, "1/s", f"{gens} generations"),
            "gen_ms_p50": (percentile(steps, 50), "ms", f"n={n}"),
            "gen_ms_p99": (percentile(steps, 99), "ms", f"n={n}"),
            "episodes_per_s": (out.episodes / out.timed_s if out.timed_s else 0.0, "1/s", ""),
            "ref_ms_p50": (out.ref_unit_s * 1e3, "ms", f"host probe loop, n={len(clock.samples)}"),
            "best_j_mean": (
                statistics.fmean(x["best_j"] for x in finished) if finished else None,
                "J",
                f"{len(finished)} finished seeds",
            ),
            "best_placed_rate": (
                statistics.fmean(x["placed"] for x in finished) if finished else None,
                "frac",
                f"replay of each final best, {REPLAY_EPISODES} episodes",
            ),
        }
        if self.stop_at_reference:
            done = [x for x in runs if x["finished"]]
            solved = [x for x in done if x["solved"]]
            r["solve_s_p50"] = (
                statistics.median(x["seconds"] for x in solved) if solved else None,
                "s",
                f"{len(solved)} solved of {len(done)} finished seeds",
            )
            r["solved_frac"] = (len(solved) / len(done) if done else None, "frac", "")
            r["gens_to_solve_p50"] = (
                statistics.median(x["generations"] for x in solved) if solved else None,
                "gen",
                f"reference J {ctx.reference_j!r}, cap {self.generations}",
            )
        out.report = r


@dataclass(frozen=True)
class ReplayWorkload:
    """Repeated replays of the reference tree, a distinct seed per call."""

    profile: str = "stoch4"
    episodes: int = REPLAY_EPISODES

    def run(self, ctx, seed: int, seconds: float | None, plan: list | None = None) -> Pass:
        replay = ctx.experiments.replay
        profile = ctx.profiles[self.profile]
        start = perf_counter()
        deadline = None if seconds is None else start + seconds
        out = Pass(plan=[])
        clock = HostClock()
        try:
            det = replay(ctx.reference, ctx.profiles["det"], self.episodes, seed)
            if det.success_rate != 1.0:
                out.failures.append(f"reference tree succeeds {det.success_rate} on det, not 1.0")
        except Exception:
            out.failures.append(_failure("det replay"))
        reports = []
        while (plan is None and perf_counter() < deadline) or (
            plan is not None and len(out.plan) < len(plan)
        ):
            call_seed = seed * 1_000_000 + len(out.plan)
            out.plan.append(call_seed)
            out.attempted += 1
            try:
                t0 = perf_counter()
                report = replay(ctx.reference, profile, self.episodes, call_seed)
                dt = perf_counter() - t0
            except Exception:
                out.failures.append(_failure(f"replay seed {call_seed}"))
                continue
            out.timed_s += dt
            out.steps_ms.append(dt * 1e3)
            out.steps_ref.append(dt / clock.unit())
            out.episodes += report.episodes
            out.step_episodes += report.episodes
            clock.tick()
            ended = sum(report.terminations.values())
            if report.episodes != self.episodes or ended != self.episodes:
                out.failures.append(f"replay seed {call_seed}: episode count is off")
            reports.append((call_seed, report))
        if reports:
            first_seed, first = reports[0]
            out.digest = hashlib.sha256(
                json.dumps(first.as_dict(), sort_keys=True).encode()
            ).hexdigest()
            try:
                again = replay(ctx.reference, profile, self.episodes, first_seed)
                if again.as_dict() != first.as_dict():
                    out.failures.append(f"replay seed {first_seed}: a second call differs")
            except Exception:
                out.failures.append(_failure(f"repeat replay seed {first_seed}"))
        out.wall_s = perf_counter() - start
        out.ref_s, out.ref_unit_s = clock.spent, statistics.median(clock.samples)
        n = len(out.steps_ms)
        success = [rep.success_rate for _, rep in reports]
        out.report = {
            "wall_s": (out.wall_s, "s", f"{n} calls, output checks included"),
            "replay_ms_p50": (percentile(out.steps_ms, 50), "ms", f"n={n}"),
            "replay_ms_p99": (percentile(out.steps_ms, 99), "ms", f"n={n}"),
            "episodes_per_s": (out.episodes / out.timed_s if out.timed_s else 0.0, "1/s", ""),
            "ref_ms_p50": (out.ref_unit_s * 1e3, "ms", f"host probe loop, n={len(clock.samples)}"),
            "success_rate_mean": (
                statistics.fmean(success) if success else None,
                "frac",
                f"reference tree on {self.profile}",
            ),
        }
        return out


# The per-seed generation limits are small so that one 30-s run covers 15 to
# 20 seeds: generation time differs by up to 2x between seeds.
WORKLOADS = {
    # det/core9 with the GpParams defaults, as `btgp run` does; a seed stops
    # once it reaches the reference tree's J, or at the cap.
    "search_det": SearchWorkload("det", generations=300, stop_at_reference=True),
    # stoch3/core9 as the experiment harness runs it, checkpointing as it goes.
    "search_stoch3": SearchWorkload(
        "stoch3",
        generations=200,
        episodes_per_eval=5,
        reevaluate_elites=True,
        checkpoint_every=10,
    ),
    "replay_stoch4": ReplayWorkload(),
}


def work_dir() -> Path:
    path = Path(__file__).resolve().parent / "out"
    path.mkdir(exist_ok=True)
    return path
