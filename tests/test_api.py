"""The package's public surface."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import btgp

# Growing or shrinking the public API is a deliberate edit of this list.
PUBLIC_NAMES = [
    "FAILURE",
    "FitnessValue",
    "FitnessWeights",
    "GenerationStats",
    "GpParams",
    "Individual",
    "MalformedGenotype",
    "Profile",
    "SUCCESS",
    "TABLE2",
    "build_transition_table",
    "compile_tree",
    "cost",
    "evaluate",
    "make_profile",
    "parse",
    "run",
    "validate",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(btgp.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(btgp, name)  # AttributeError if the name does not resolve


def test_the_benchmark_finds_every_name_it_traces(monkeypatch):
    # perfbench/ wraps these names by attribute and its episode wrapper reads
    # ticks_used and terminated_by, so a change that drops one breaks it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.prepare import prepare
    from perfbench.tracing import Tracer

    ctx = prepare()
    for owner, attribute, _ in Tracer(ctx).targets():
        assert attribute in vars(owner), f"{owner.__name__}.{attribute}"
    table = ctx.world.build_transition_table(ctx.profiles["det"])
    final = ctx.world.run_compiled(ctx.bt.compile_tree(ctx.reference, table), random.Random(0))
    assert (final.ticks_used, final.terminated_by) == (1, ctx.world.ROOT_SUCCESS)


# Modules only some commands need: the process pool of a multi-worker
# experiment and the statistics (with the fractions it imports) of a curve's
# standard deviation.
LAZY_MODULES = ("multiprocessing", "concurrent.futures.process", "fractions", "statistics")


def test_importing_the_cli_loads_no_lazy_module():
    # a fresh interpreter, since this one has imported them for other tests
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, btgp, btgp.cli; "
        f"print(' '.join(m for m in {LAZY_MODULES!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
