"""Machine-speed calibration of measured times.

On small shared machines the speed of one core drifts by tens of
percent over seconds (the same solve measured back to back ranged from
0.11 s to 0.26 s, and process CPU time drifted exactly like wall time),
which no run length averages away. So the benchmark interleaves fixed
probe kernels - small numpy calls, block arithmetic or both, the kinds
of work the package does, but no package code - with the operations it
times, and reports every time in reference seconds:

    calibrated = raw * reference probe time / (mean probe time around it)

The probes run before and after each operation and, from a SIGALRM
handler every IN_OP_S seconds, inside it; the time the handler takes is
subtracted from the operation's raw time. A program change moves the
raw time and not the probes, so it shows in full; a slower or faster
moment of the machine moves both and cancels. Raw times are kept next to
the calibrated ones in the result files. PART_REF_S fixes the unit:
changing it rescales every recorded time.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PART_REF_S = 0.004  # time of one kernel part that counts as reference speed
DUE_S = 0.1  # re-probe between operations when the last probe is older
IN_OP_S = 0.1  # probe interval inside an operation
_BLOCK = np.random.default_rng(0).uniform(-1.0, 1.0, (4096, 16))


def small_kernel() -> float:
    """Small-array numpy calls: per-call overhead, like a solver iteration."""
    x = np.linspace(-1.0, 1.0, 16)
    acc = 0.0
    for _ in range(330):
        y = np.exp(x - x.max())
        acc += float(np.log(y.sum()))
        x = np.maximum(x * 0.999, -0.5) + 1e-4
    return acc


def block_kernel() -> float:
    """Arithmetic on a 4096 x 16 block, like a batched oracle call."""
    b = _BLOCK
    for _ in range(3):
        e = np.exp(b - b.max(axis=-1, keepdims=True))
        b = 0.5 * (b + np.log(e.sum(axis=-1, keepdims=True)))
    return float(b[0, 0])


KERNELS = {"small": (small_kernel,), "block": (block_kernel,),
           "both": (small_kernel, block_kernel)}


def probe_time(kind: str) -> float:
    t0 = perf_counter()
    for kernel in KERNELS[kind]:
        kernel()
    return perf_counter() - t0


class Speed:
    """Calibrates timed calls with probe kernels of the matching kind.

    The two kinds of work slow down by different factors, so each
    operation is calibrated with the kernel of the kind of work it does:
    "small" (solves), "block" (batched evaluation) or "both".
    """

    def __init__(self):
        self.last: dict[str, tuple[float, float]] = {}  # kind -> (at, seconds)
        self.probes: dict[str, list[float]] = {kind: [] for kind in KERNELS}
        self._kind = "both"
        self._inside: list[float] = []
        self._stolen = 0.0
        self.stolen_total = 0.0  # all in-call probe time so far

    def probe(self, kind: str) -> float:
        """Latest probe time of `kind`, re-measured when older than DUE_S."""
        at, seconds = self.last.get(kind, (-np.inf, 0.0))
        if perf_counter() - at > DUE_S:
            seconds = probe_time(kind)
            self.last[kind] = (perf_counter(), seconds)
            self.probes[kind].append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        seconds = probe_time(self._kind)
        self._inside.append(seconds)
        self.probes[self._kind].append(seconds)
        stolen = perf_counter() - t0
        self._stolen += stolen
        self.stolen_total += stolen

    def timed(self, fn, kind: str, inside: bool = True):
        """(calibrated seconds, raw seconds, result) of one call of fn.

        inside=False skips the in-call probes, for calls that wait on
        another process: a probe would share that process's CPU.
        """
        before = self.probe(kind)
        self._kind, self._inside, self._stolen = kind, [], 0.0
        if inside:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, IN_OP_S, IN_OP_S)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            if inside:
                # stop the timer first: a pending handler then runs before
                # the clock is read, so its time is inside `elapsed`
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = perf_counter() - t0
            if inside:
                signal.signal(signal.SIGALRM, previous)
        raw = elapsed - self._stolen
        after = self.probe(kind)
        samples = [before, *self._inside, after]
        ref = PART_REF_S * len(KERNELS[kind])
        return raw * ref * len(samples) / sum(samples), raw, out
