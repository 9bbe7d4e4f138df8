"""Shared pieces of the benchmark: the operation ledger, the host-speed
calibration, timing helpers and the loader that imports idemkit from the
checkout's sources."""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

clock = time.perf_counter


# a calibration point this recent also serves as the next call's point before it
REUSE_S = 0.25


class Calibration:
    """A fixed piece of work that does not touch idemkit, timed next to the
    calls it calibrates.  A point is the median of `repeats` samples, and
    `ref_s` is a point's typical time on a quiet reference host (see
    README.md)."""

    def __init__(self, name: str, sample, repeats: int, ref_s: float):
        self.name, self.sample, self.repeats, self.ref_s = name, sample, repeats, ref_s
        self.points: list[float] = []
        self._last: tuple[float, float] | None = None

    def point(self, reuse: bool) -> float:
        if reuse and self._last is not None and clock() - self._last[0] <= REUSE_S:
            return self._last[1]
        value = statistics.median(self.sample() for _ in range(self.repeats))
        self._last = (clock(), value)
        self.points.append(value)
        return value


LOOP_KEYS = tuple(f"k{i:05d}" for i in range(10_000))


def loop_sample() -> float:
    """A dict of 10^4 string keys built, scanned and sorted."""
    t0 = clock()
    d = {}
    for i, k in enumerate(LOOP_KEYS):
        d[k] = i * 0.5
    top = 0.0
    for v in d.values():
        top = max(top, v - 1.0)
    sorted(d, key=d.get)
    return clock() - t0


class Ledger:
    """Counts operations and times them at reference speed.

    An operation that raises (or a CLI call that exits non-zero) has failed;
    one that completes with a wrong output makes the run incorrect.

    The host's speed drifts by up to 2x over seconds to minutes, and a run
    can fall wholly inside a slow stretch.  So with `calibrate` on, every
    timed call is bracketed by two points of a calibration (the dict loop
    unless the caller names another), and its time is scaled by the
    calibration's reference time over the mean of the two points: the
    seconds the call would take on the reference host.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.factor = 1.0
        self.loop = Calibration("loop", loop_sample, 3, 0.0033)
        self.used: dict[str, Calibration] = {}

    def timed(self, fn, *args, calibration: Calibration | None = None, **kwargs):
        """Calls fn; returns (result, seconds at reference speed) and sets
        `factor`, the scale applied.  Raises what fn raises."""
        if not self.calibrate:
            t0 = clock()
            result = fn(*args, **kwargs)
            self.factor = 1.0
            return result, clock() - t0
        cal = calibration or self.loop
        self.used[cal.name] = cal
        before = cal.point(reuse=True)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            self.factor = 2.0 * cal.ref_s / (before + cal.point(reuse=False))
        return result, dt * self.factor

    def run(self, what: str, fn, *args, count: int = 1, **kwargs):
        """Attempt `count` operations made by one call; returns (ok, result,
        seconds at reference speed)."""
        self.attempted += count
        try:
            result, dt = self.timed(fn, *args, **kwargs)
        except Exception:
            self.failed += count
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return False, None, None
        return True, result, dt

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {detail}")

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    @property
    def correct(self) -> bool:
        return not self.wrong


def median(values) -> float:
    return float(statistics.median(values))


def median_of(rounds, key: str) -> dict[str, float]:
    """Per operation, the median of its times over the rounds."""
    samples: dict[str, list[float]] = {}
    for r in rounds:
        for op, dt in r[key].items():
            samples.setdefault(op, []).append(dt)
    return {op: median(ts) for op, ts in samples.items()}


def load_idemkit():
    """Import idemkit afresh from the checkout's `src`, dropping any earlier
    import, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "idemkit" or m.startswith("idemkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    ik = importlib.import_module("idemkit")
    if Path(ik.__file__).resolve().parent != SRC / "idemkit":
        raise RuntimeError(f"idemkit was imported from {ik.__file__}, not from {SRC}")
    return ik


def labels(prefix: str, n: int) -> tuple[str, ...]:
    """n zero-padded labels, so sorted order equals point order."""
    width = len(str(n - 1))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(n))
