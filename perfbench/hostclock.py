"""Host speed yardstick: a fixed pure-Python loop timed between operations.

On a shared 2-vCPU Xeon VM the speed of Python code swings by up to 1.8x
within a minute, for btgp and for any other loop alike. Dividing a step's
time by the recent time of this loop cancels the swing: over one minute of
alternating calls there, a 1000-episode replay took 17.7 to 30.5 ms while
its ratio to the loop stayed between 10.1 and 10.5. The loop uses no btgp
code, so a change to btgp moves only the numerator.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.1  # about 2% of the run goes to probes
RECENT = 5  # probes in the running median


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _lookup(item: _Item, table: dict) -> int:
    return table.get(item.key, 0) + item.value


def reference_loop() -> int:
    """Calls, attribute and dict lookups, and a keyed sort, like btgp's hot code."""
    table = {i: i * 3 for i in range(64)}
    items = [_Item(i % 80, i) for i in range(200)]
    total = 0
    for _ in range(40):
        for item in items:
            total += _lookup(item, table)
        items.sort(key=lambda it: (it.key * 7) % 13)
    return total


class HostClock:
    """Times ``reference_loop`` at most every PROBE_INTERVAL_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside probes, to leave out of timings
        self._last = 0.0
        for _ in range(RECENT):
            self._probe()

    def _probe(self) -> None:
        start = perf_counter()
        reference_loop()
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def tick(self) -> None:
        if perf_counter() - self._last >= PROBE_INTERVAL_S:
            self._probe()

    def unit(self) -> float:
        """Seconds of the reference loop now: median of the recent probes."""
        return statistics.median(self.samples[-RECENT:])
