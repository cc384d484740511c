"""Host-speed reference: a fixed kernel that does not touch repcount.

Shared hosts change speed over minutes: up to 1.5x was measured on a shared
2-core x86-64 host, with CPU time tracking wall time (not scheduling). The kernel mixes the
kinds of work repcount does per frame (interpreted loops, JSON parsing and
small numpy operations). A run times it right before and after every
measured call and, between frames, every SAMPLE_INTERVAL_S during it, and
scales the call's timings to a host on which the kernel takes NOMINAL_S,
by the median of those samples; a set-up probe samples it right after its
timed part. That cancels the drift the timing and the kernel share; the
raw values are recorded alongside.
"""
from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# a round figure near the kernel's median on a 2-core x86-64 host (Python 3.11,
# numpy 2.4); any constant works, as long as parent and change share it
NOMINAL_S = 0.005
SAMPLE_INTERVAL_S = 0.2
_DOC = json.dumps({"people": [{"pose_keypoints_3d": [i * 1.25 for i in range(100)]}] * 2})
_JOINTS = np.arange(75.0).reshape(25, 3)


def _kernel() -> float:
    """About 5 ms of interpreted arithmetic, JSON parsing and small numpy calls."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    total = 0.0
    for _ in range(80):
        doc = json.loads(_DOC)
        total += float(np.linalg.norm(_JOINTS - len(doc["people"]), axis=1).mean())
    return total + acc


class HostSpeed:
    """Kernel samples taken around, and optionally during, one timed piece
    of work."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0  # kernel time spent inside the timed work, via tick()
        self._last = 0.0

    def sample(self) -> float:
        start = perf_counter()
        _kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)
        return self.samples[-1]

    def tick(self) -> None:
        """Sample from inside the timed work, at most every SAMPLE_INTERVAL_S;
        the caller takes inside_s off the work's wall time."""
        if perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.inside_s += self.sample()

    def slowness(self) -> float:
        """Median kernel time over NOMINAL_S: > 1 when the host ran slow."""
        return statistics.median(self.samples) / NOMINAL_S
