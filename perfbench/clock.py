"""A clock that factors the machine's current CPU speed out of timings.

On a shared machine the CPU speed drifts by a factor of two between and
within runs, so raw wall time does not repeat. The benchmark therefore runs
two small fixed reference kernels every ``slice_s`` seconds of work and at
the edges of each measured phase:

- ``compute``: a matvec + tanh recurrence of the workload's own shape, the
  cost shape of training, prediction and prefix curves;
- ``text``: printing floats with 17 significant digits and parsing them
  back, the cost shape of model files.

The time between two calibrations is rescaled by
``nominal / (mean of the two kernel times)``, with the kernel that matches
the operation. A timing the benchmark reports is the sum of these rescaled
pieces: the time the work would have taken at the speed where one kernel
block takes its nominal time. Raw wall-clock values are reported beside it.

Time spent inside reference kernels is cut out of the work clock, so the
kernels never count towards a measured operation.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

KERNELS = ("compute", "text")
TEXT_VALUES = 1000
NOMINAL_S = {"compute": 0.0040, "text": 0.0040}


class RefClock:
    def __init__(self, in_dim, hidden, iters, slice_s=0.1):
        rng = np.random.default_rng(20160612)
        self._w = rng.uniform(-0.1, 0.1, size=(in_dim, hidden))
        self._u = rng.uniform(-0.1, 0.1, size=(hidden, hidden))
        self._x = rng.uniform(-1.0, 1.0, size=(64, in_dim))
        self._values = rng.uniform(-1.0, 1.0, size=TEXT_VALUES).tolist()
        self._iters = iters
        self.slice_s = slice_s
        self._ref_total = 0.0
        self._points_w = []                       # work-clock times of calibrations
        self._points = {k: [] for k in KERNELS}   # kernel durations per calibration
        self._blocks()                            # warm-up, not recorded

    def _compute(self):
        x, w, u = self._x, self._w, self._u
        h = np.zeros(u.shape[0])
        for i in range(self._iters):
            h = np.tanh(x[i & 63] @ w + h @ u)

    def _text(self):
        line = " ".join(f"{v:.17g}" for v in self._values)
        [float(v) for v in line.split()]

    def _blocks(self):
        """Each kernel runs as three sub-blocks; the median of the three,
        times three, resists a single preemption spike."""
        out = {}
        for name, fn in (("compute", self._compute), ("text", self._text)):
            parts = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn()
                parts.append(time.perf_counter() - t0)
            out[name] = 3.0 * statistics.median(parts)
        return out

    def work_now(self):
        """Seconds since an arbitrary origin, with reference kernels cut out."""
        return time.perf_counter() - self._ref_total

    def calibrate(self):
        t0 = time.perf_counter()
        w = t0 - self._ref_total
        blocks = self._blocks()
        self._ref_total += time.perf_counter() - t0
        self._points_w.append(w)
        for name, dur in blocks.items():
            self._points[name].append(dur)

    def maybe_calibrate(self):
        if not self._points_w or self.work_now() - self._points_w[-1] >= self.slice_s:
            self.calibrate()

    def kernel_seconds(self, kernel):
        return list(self._points[kernel])

    def virtualizer(self, kernel):
        """Map work-clock times to rescaled times by one kernel. Call after
        the last ``calibrate()`` of the phase being evaluated."""
        ws, rs = list(self._points_w), list(self._points[kernel])
        if not ws:
            raise RuntimeError("clock was never calibrated")
        nominal = NOMINAL_S[kernel]
        vs = [0.0]
        for k in range(1, len(ws)):
            rate = nominal / (0.5 * (rs[k - 1] + rs[k]))
            vs.append(vs[-1] + (ws[k] - ws[k - 1]) * rate)

        def to_virtual(w):
            k = bisect.bisect_right(ws, w) - 1
            if k < 0:
                return vs[0] - (ws[0] - w) * nominal / rs[0]
            if k == len(ws) - 1:
                return vs[k] + (w - ws[k]) * nominal / rs[k]
            return vs[k] + (w - ws[k]) * nominal / (0.5 * (rs[k] + rs[k + 1]))

        return to_virtual
