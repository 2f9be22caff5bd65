"""Machine-speed calibration that cancels contention from other tenants.

On a shared host the same op runs up to ~1.9x slower for stretches of
2-20 s while a neighbour is busy, and CPU time slows with wall time, so
neither clock alone gives steady medians. A fixed pure-Python computation
of the same kind as the engine's work (small dicts, tuples, sorting, float
sums) slows in step. Each timed interval is therefore scaled by
REFERENCE_MS / (the calibration's time measured next to it), which reads as
"milliseconds at the reference speed". On the host this was tuned on, the
run-to-run spread (IQR over median, five seeds, 15 s runs) of the catalog
op median fell from 0.50 raw to 0.055 scaled. Raw wall-clock figures are
printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

# median time of calibrate() on an unloaded 2.1 GHz x86-64 core, Python 3.11;
# a constant, so scaled figures from two commits compare directly
REFERENCE_MS = 0.66
REPEATS = 5


def calibrate() -> float:
    rng = random.Random(7)
    rows = [
        {"id": f"s{i:05d}", "u": rng.random(), "q": (rng.random(), rng.random())}
        for i in range(600)
    ]
    rows.sort(key=lambda r: (-r["u"], r["id"]))
    groups: dict[str, list[float]] = {}
    for r in rows:
        groups.setdefault(r["id"][-2:], []).append(r["u"] * r["q"][0])
    return sum(sum(v) / len(v) for v in groups.values())


def calibration_ms() -> float:
    """Median of a few calibrate() timings, in ms.

    The collector is paused meanwhile: a full collection of the engine's
    heap landing in one timing would measure the heap, not the machine.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REPEATS):
            start = perf_counter()
            calibrate()
            samples.append((perf_counter() - start) * 1000.0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def scale_now() -> float:
    """Factor that turns a wall time measured now into reference-speed time."""
    return REFERENCE_MS / calibration_ms()
