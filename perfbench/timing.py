"""Operation timing, normalized to a fixed calibration kernel.

On a shared host, neighbours slow this machine's CPU by up to 3x in bursts
of a fraction of a second; raw medians of identical runs moved by 15-35%
from run to run.  So operations are timed in segments of about
``SEGMENT_S`` seconds, each bracketed by a short calibration kernel (small
numpy operations plus Python overhead, the same mix as the package), and
each operation is also reported in reference seconds:
``seconds * CAL_REF_S / calibration seconds``, the time it would take at
the reference speed.  Contention slows the kernel and the operation alike,
so the ratio holds still while the raw time does not.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Calibration kernel time on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6, OpenBLAS, one BLAS thread), uncontended.  Only runs on one
# machine are compared with each other, so this constant just sets the scale.
CAL_REF_S = 0.002
# Work timed between two calibrations.
SEGMENT_S = 0.02

_rng = np.random.default_rng(12345)
_H = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H = _H + _H.conj().T
_T = _rng.normal(size=(4, 2, 2)) + 1j * _rng.normal(size=(4, 2, 2))


def calibrate(reps: int = 1) -> float:
    """Seconds per repetition of a fixed amount of small-matrix work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60 * reps):
        m = np.kron(_T[i % 4], _T[(i + 1) % 4])
        acc += float(np.linalg.eigvalsh(_H + m @ m.conj().T)[0])
        acc += float(np.einsum("ij,ji->", m, _H).real)
        acc += len(str({"k": i, "v": acc})) * 1e-12
    return (time.perf_counter() - t0) / reps


@dataclass
class Outcome:
    """One operation: what it was, how long the package took, how it ended."""

    kind: str
    seconds: float
    ref_seconds: float = float("nan")
    failed: bool = False
    evaluations: int = 0
    points: int = 0


class Clock:
    """Times operations and brackets each segment of them with the calibration kernel."""

    def __init__(self):
        self.cals = [calibrate()]
        self._open: list[Outcome] = []
        self._open_s = 0.0

    def call(self, kind: str, fn, *args):
        """Run ``fn(*args)`` as one timed operation; returns its result and Outcome."""
        if self._open_s >= SEGMENT_S:
            self.flush()
        t0 = time.perf_counter()
        result = fn(*args)
        op = Outcome(kind, time.perf_counter() - t0)
        self._open.append(op)
        self._open_s += op.seconds
        return result, op

    def flush(self) -> None:
        """Close the open segment: scale its operations by the kernel times around it."""
        self.cals.append(calibrate())
        scale = CAL_REF_S / (0.5 * (self.cals[-2] + self.cals[-1]))
        for op in self._open:
            op.ref_seconds = op.seconds * scale
        self._open, self._open_s = [], 0.0


@dataclass
class Play:
    """The rounds of one phase of a run, and the calibrations made during it."""

    rounds: list = field(default_factory=list)
    cals: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rounds)

    def normalized(self, kinds=None) -> list[float]:
        """Per round: reference seconds of the operations of the given kinds (all if None)."""
        return [
            sum(o.ref_seconds for o in ops if kinds is None or o.kind in kinds)
            for ops in self.rounds
        ]

    def median(self, kinds=None) -> float:
        return statistics.median(self.normalized(kinds))

    def raw_median(self) -> float:
        return statistics.median(sum(o.seconds for o in ops) for ops in self.rounds)


def play(wl, seconds: float, limit: int | None = None, wrap=None) -> Play:
    """Whole rounds from index 0 until ``seconds`` have passed (at least one, at most ``limit``)."""
    clock = Clock()
    p = Play(cals=clock.cals)
    t_end = time.perf_counter() + seconds
    while True:
        if wrap is None:
            p.rounds.append(wl.round(len(p.rounds), clock))
        else:
            with wrap():
                p.rounds.append(wl.round(len(p.rounds), clock))
        if time.perf_counter() >= t_end or (limit is not None and len(p.rounds) >= limit):
            clock.flush()
            return p
