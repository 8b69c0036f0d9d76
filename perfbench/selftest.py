"""Quick self-test of the benchmark at a tiny size (about ten seconds).

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced with short budgets, and
checks that every operation passes its output check, that each run reports
exactly the metrics BENCHMARK.json names with their units, and that the
traced run restores every attribute it wrapped. Exits 1 on any problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402
from perfbench.prepare import ROOT, prepare, setup_times  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TINY = {
    "search_det": dataclasses.replace(WORKLOADS["search_det"], generations=40),
    "search_stoch3": dataclasses.replace(WORKLOADS["search_stoch3"], generations=20),
    "replay_stoch4": dataclasses.replace(WORKLOADS["replay_stoch4"], episodes=50),
}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    ctx = prepare()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in Tracer(ctx).targets()}
    for name, workload in TINY.items():
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            result = run.measure(ctx, workload, 0, 1.0, trace)
            if not trace:
                result.metrics = {"setup_s": setup_times(1)[0], **result.metrics}
            problems += [f"{label}: {f}" for f in result.failures]
            line = json.loads(result.as_json())
            if set(line) != {"correct", "attempted", "failed", "metrics"} or line["attempted"] < 1:
                problems.append(f"{label}: malformed result line")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units {got} != BENCHMARK.json {expected[trace]}")
            for metric, entry in line["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {metric} is not a finite number")
            changed = [
                f"{getattr(owner, '__name__', owner)}.{attr}"
                for (owner, attr), fn in originals.items()
                if vars(owner)[attr] is not fn
            ]
            if changed:
                problems.append(f"{label}: not restored: {', '.join(changed)}")
            print(f"{label}: {line['attempted']} operations, {line['failed']} failed")
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest failed" if problems else "selftest ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
