"""Request timing scaled to a reference interpreter speed.

The benchmark runs on a few vCPUs of a shared host, whose speed for pure-Python code
swings by up to 2x within seconds (busy and idle neighbours), and over minutes. Raw wall
times then spread across runs far more than any change worth measuring. So the
untraced run keeps a calibration *tick* running beside the requests: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler, in the benchmark's only thread, times
a fixed pure-Python loop that is not part of clbk. Each stretch of request time between
two ticks is divided by the mean of the two tick durations and multiplied by
``REF_TICK_S``, the tick's duration at the reference speed. A request's scaled time is
the sum over its stretches: the time it would have taken at the reference speed. The
ticks' own time is left out of both raw and scaled request times.

The tick runs code of the same kind as clbk (frozen dataclass trees, structural hashing,
memo dicts, ``isinstance`` dispatch, string building) so that it slows down with the
host about as much as the requests do. Nothing in clbk can change the tick, so a change
to the package moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.1
# Tick duration at the reference speed: about the median tick on the reference machine
# (2-vCPU "Intel(R) Xeon(R) Processor" VM, Python 3.11.7), so that scaled times there
# read about as raw ones do.
REF_TICK_S = 1.5e-3
TICK_REPEATS = 3


@dataclass(frozen=True)
class _Node:
    pass


@dataclass(frozen=True)
class _Atom(_Node):
    name: str


@dataclass(frozen=True)
class _And(_Node):
    left: _Node
    right: _Node


@dataclass(frozen=True)
class _Or(_Node):
    left: _Node
    right: _Node


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Atom(f"p{i % 5}")
    return (_And if i % 2 else _Or)(_tree(depth - 1, 2 * i + 1), _tree(depth - 1, 3 * i + 2))


def _value(node: _Node, env: dict, memo: dict) -> bool:
    if node in memo:
        return memo[node]
    if isinstance(node, _Atom):
        result = env[node.name]
    elif isinstance(node, _And):
        result = _value(node.left, env, memo) and _value(node.right, env, memo)
    else:
        result = _value(node.left, env, memo) or _value(node.right, env, memo)
    memo[node] = result
    return result


def _show(node: _Node) -> str:
    if isinstance(node, _Atom):
        return node.name
    op = " /\\ " if isinstance(node, _And) else " \\/ "
    return f"({_show(node.left)}{op}{_show(node.right)})"


def _calibration() -> int:
    """The fixed work of one tick: build a formula tree over five atoms, evaluate it
    under eight assignments, print it and compare it with a rebuilt copy."""
    tree = _tree(6, 1)
    true_rows = 0
    for bits in range(8):
        env = {f"p{j}": bool(bits >> j & 1) for j in range(5)}
        true_rows += _value(tree, env, {})
    return true_rows + len(_show(tree)) + (tree == _tree(6, 1))


def tick() -> float:
    """Duration of one tick: the median of ``TICK_REPEATS`` timed calibration loops,
    with the collector off so that clbk's garbage is not collected on the tick's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(TICK_REPEATS):
            start = time.perf_counter()
            _calibration()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class ScaledClock:
    """Times requests in raw and in scaled seconds while ticks run every ``INTERVAL_S``.
    Use as a context manager around the timed part of a run; ``start`` and ``stop``
    bracket one request."""

    def __init__(self):
        self.ticks: list[float] = []
        self.last_tick = 0.0
        self.open = False
        self.mark = 0.0
        self.raw = 0.0
        self.scaled = 0.0
        self._previous = None

    def __enter__(self) -> ScaledClock:
        self.last_tick = tick()
        self.ticks.append(self.last_tick)
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _alarm(self, signum, frame) -> None:
        now = time.perf_counter()
        fresh = tick()
        if self.open:
            stretch = now - self.mark
            self.raw += stretch
            self.scaled += stretch * REF_TICK_S / ((self.last_tick + fresh) / 2)
        self.last_tick = fresh
        self.ticks.append(fresh)
        self.mark = time.perf_counter()

    def start(self) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self.raw = self.scaled = 0.0
        self.open = True
        self.mark = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stop(self) -> tuple[float, float]:
        """End the request; returns its (raw, scaled) seconds. The last stretch has no
        tick after it yet, so it is scaled by the latest tick."""
        now = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        if self.open:
            stretch = max(now - self.mark, 0.0)
            self.raw += stretch
            self.scaled += stretch * REF_TICK_S / self.last_tick
            self.open = False
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self.raw, self.scaled


class RawClock:
    """Same interface without ticks or scaling, for the traced run."""

    def start(self) -> None:
        self.began = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        elapsed = time.perf_counter() - self.began
        return elapsed, elapsed
