"""btgp benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload search_det --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it measures the workload untraced for ``--seconds`` and
reports the end-to-end metrics; step times there are in units of a host probe
loop timed alongside them (see hostclock.py), and the raw times are printed in
the workload report. With ``--trace 1`` it runs the workload untraced for a
third of that time, repeats exactly that work with every layer traced, checks
that the history digests agree, and reports the per-layer metrics and the
traced-minus-untraced wall time. Spans are written to
``perfbench/out/<workload>.spans.csv``.

Every line before the last is for people; the last line is the result,
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every operation passed its output check, 1 when one failed, and 2 when the
checkout holds no usable btgp source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.prepare import ROOT, SRC, SetupError, prepare, setup_times  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Pass, percentile, work_dir  # noqa: E402

SETUP_REPEATS = 5  # before the workload, and as many after it
UNITS = {**END_TO_END, **{m.name: m.unit for m in PER_LAYER}}


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failures: list[str]
    lines: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def as_json(self) -> str:
        return json.dumps(
            {
                "correct": not self.failures,
                "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def measure(ctx, workload, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload; untraced, the metrics are the end-to-end ones but setup_s."""
    if not trace:
        p = workload.run(ctx, seed, seconds)
        work_ref = sum(p.steps_ref)
        metrics = {
            "episodes_per_ref": p.step_episodes / work_ref if work_ref else 0.0,
            "step_ref_p50": percentile(p.steps_ref, 50),
        }
        lines = [f"digest of the first operation: {p.digest}", *_report_lines(p)]
        return Result(metrics, p.attempted, p.failures, lines)

    base = workload.run(ctx, seed, seconds / 3)
    tracer = Tracer(ctx)
    tracer.install()
    try:
        traced = workload.run(ctx, seed, None, plan=base.plan)
    finally:
        tracer.restore()
    failures = base.failures + traced.failures
    if traced.digest != base.digest:
        failures.append(f"traced digest {traced.digest} != untraced {base.digest}")
    base_s, traced_s = base.wall_s - base.ref_s, traced.wall_s - traced.ref_s
    overhead = traced_s - base_s
    # the host's speed can change between the passes; compare in probe units
    overhead_frac = (traced_s / traced.ref_unit_s) / (base_s / base.ref_unit_s) - 1
    lines = [
        f"digest of the first operation: untraced {base.digest}",
        f"                               traced   {traced.digest}",
        f"tracing overhead: {overhead:.3f} s on {base_s:.3f} s untraced, "
        f"{overhead_frac:+.1%} in host probe units, {len(tracer.spans)} spans",
        *_report_lines(base),
    ]
    attempted = base.attempted + traced.attempted
    return Result(tracer.metrics(overhead, overhead_frac), attempted, failures, lines, tracer)


def _report_lines(p: Pass) -> list[str]:
    lines = ["workload report (untraced):"]
    for name, (value, unit, note) in p.report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<20} {shown:>12} {unit:<5} {note}")
    return lines


def metric_lines(metrics: dict[str, float]) -> list[str]:
    moves = {m.name: f"moves {m.moves}; flat on {m.flat_on}" for m in PER_LAYER}
    return [
        f"  {name:<28} {value:>14.6g} {UNITS[name]:<11} {moves.get(name, '')}".rstrip()
        for name, value in metrics.items()
    ]


def metadata(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _git_commit() -> str | None:
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        setup = setup_times(SETUP_REPEATS)
        ctx = prepare()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = measure(ctx, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    # Probing again after the workload samples the host's speed at a second moment.
    setup += setup_times(SETUP_REPEATS)
    if not args.trace:
        result.metrics = {"setup_s": statistics.median(setup), **result.metrics}
    meta = metadata(args.workload, args.seed)
    print(f"meta: {json.dumps(meta)}")
    print(f"reference J on det: {ctx.reference_j!r}")
    print(*result.lines, sep="\n")
    print("traced per-layer metrics:" if args.trace else "end-to-end metrics:")
    print(*metric_lines(result.metrics), sep="\n")
    for failure in result.failures:
        print(f"FAILED {failure}")
    out = work_dir()
    if result.tracer is not None:
        result.tracer.write_spans(out / f"{args.workload}.spans.csv")
    (out / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "lines": result.lines, "result": json.loads(result.as_json())},
                   indent=1)
    )
    print(result.as_json())
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
