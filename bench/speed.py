"""Machine-speed correction for timings taken on a shared host.

The host this benchmark is meant for lends its cores to other tenants, and
the speed of one core drifts by up to 2x within seconds (CPU time drifts
with it, so it is not scheduling).  A raw wall time therefore spreads more
between runs of the same code than any bound worth having.  This module
measures the machine's speed *while the program runs* and rescales the
program's time to a fixed reference speed.

``probe()`` times a fixed piece of pure-Python work, about 2 ms, built from
the operations kgraphkit spends its time on: tuple keys in dicts, frozensets,
small function calls and short lists.  It uses nothing from kgraphkit, so a
change to the program never changes the probe.  A machine at reference speed
runs it in ``REF_PROBE_S``.

``Speedometer`` runs a probe every ``INTERVAL_S`` of wall time from a
SIGALRM handler, that is between two bytecodes of the program being timed.
Program time between probe i-1 and probe i is scaled by ``REF_PROBE_S / p_i``
and summed; probe time itself is left out.  Scaling by the reciprocal of each
probe keeps a probe that was slowed by an interrupt from weighing more than
its interval.  The result is in seconds at reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_PROBE_S = 0.002   # probe time at reference speed
INTERVAL_S = 0.05     # wall time between two probes while a program runs


def _step(p: tuple, i: int) -> tuple:
    return p[:i] + (p[i] + 1,) + p[i + 1:]


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    seen: dict = {}
    sets = []
    p = (0, 0)
    for n in range(1200):
        p = _step(p, n & 1)
        key = (p, n % 7)
        seen[key] = seen.get(key, 0) + 1
        s = frozenset((n % 11, n % 5, n % 3))
        if s not in sets[-4:]:
            sets.append(s)
        if p[0] > 8:
            p = (0, p[1] % 5)
    acc = sum(len(s & {1, 2, 3}) for s in sets)
    acc += len(sorted(seen, key=lambda k: (k[1], k[0])))
    if acc < 0:  # keeps the work from being optimised away
        raise AssertionError
    return time.perf_counter() - t0


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` taken at the speed the probes saw, at reference speed."""
    return seconds * REF_PROBE_S * statistics.fmean(1.0 / p for p in probes)


def calibrate(count: int) -> list[float]:
    """``count`` probe times, after one untimed probe that warms the interpreter."""
    probe()
    return [probe() for _ in range(count)]


class Speedometer:
    """Context manager that accumulates program time scaled to reference speed."""

    def __init__(self) -> None:
        self.scaled_s = 0.0   # program time at reference speed
        self.raw_s = 0.0      # program time at the speed it ran, probes excluded
        self.probes: list[float] = []
        self._last = 0.0
        self._old = None

    def _tick(self, *_) -> None:
        now = time.perf_counter()
        p = probe()
        self.raw_s += now - self._last
        self.scaled_s += (now - self._last) * REF_PROBE_S / p
        self.probes.append(p)
        self._last = time.perf_counter()

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()  # scales the tail since the last probe
