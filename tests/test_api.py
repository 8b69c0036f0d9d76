"""The package's public surface."""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import btgp

# Growing the package's surface is a deliberate edit of this set.
MODULES = {"bt", "cli", "experiments", "fitness", "gp", "world"}


def test_the_package_binds_only_its_modules():
    for module in MODULES:
        importlib.import_module(f"btgp.{module}")
    names = {name for name in vars(btgp) if not name.startswith("__")}
    assert names == MODULES
    assert not hasattr(btgp, "__all__")


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
