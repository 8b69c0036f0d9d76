"""Benchmark set-up: import btgp from this checkout's ``src/``, build the
profiles and compute the det fitness of the reference tree.

``setup_times`` times the set-up in fresh interpreters, so that module
imports are part of what it measures; ``prepare`` does it in this process.
"""

from __future__ import annotations

import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The hand-built solution from the test suite: it solves det, and recovers
# from a dropped cube, so it places the cube on most stochastic episodes too.
REFERENCE_TEXT = (
    "s( f( have_block s( localise tuck head_up move_to_pick head_down pick ) ) "
    "head_up move_to_goal head_down place )"
)

# The probe runs in a fresh interpreter: the clock starts before anything
# btgp needs has been imported.
_PROBE = (
    "import time; t0 = time.perf_counter(); import sys; "
    f"sys.path.insert(0, {str(ROOT)!r}); "
    "from perfbench.prepare import prepare; prepare(); "
    "print(repr(time.perf_counter() - t0))"
)


class SetupError(RuntimeError):
    """The checkout does not hold a usable btgp source tree."""


@dataclass(frozen=True)
class Context:
    bt: ModuleType
    world: ModuleType
    fitness: ModuleType
    gp: ModuleType
    experiments: ModuleType
    profiles: dict  # column name -> core9 Profile
    reference: tuple[str, ...]
    reference_j: float  # det fitness of the reference tree


def prepare() -> Context:
    if not (SRC / "btgp" / "__init__.py").is_file():
        raise SetupError(f"no btgp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import btgp
    import btgp.cli  # noqa: F401  (argument parsing is part of set-up)
    from btgp import bt, experiments, fitness, gp, world

    if SRC not in Path(btgp.__file__).resolve().parents:
        raise SetupError(f"btgp was imported from {btgp.__file__}, not from {SRC}")
    profiles = {name: world.make_profile(name, "core9") for name in ("det", "stoch3", "stoch4")}
    reference = bt.from_text(REFERENCE_TEXT)
    kinds = world.leaf_kinds(profiles["det"])
    if bt.validate(reference, kinds):
        raise SetupError("reference tree fails bt.validate")
    reference_j = fitness.evaluate(
        bt.parse(reference, kinds), profiles["det"], fitness.TABLE2, 1, random.Random(0)
    ).j
    return Context(bt, world, fitness, gp, experiments, profiles, reference, reference_j)


def setup_times(repeats: int) -> list[float]:
    """Seconds of ``repeats`` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times
