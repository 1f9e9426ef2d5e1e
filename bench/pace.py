"""Host pace: how fast this machine runs a fixed slice of work right now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds and minutes, as other tenants come and go. A run
therefore times, between its operations, a fixed slice of the kinds of
work wordsim does (interpreted edit-distance tables and a JSON round
trip; small dense layers in numpy) and reports its timings both raw and
scaled to a nominal pace: a timing divided by the median slowness of the
slices taken around it, where slowness is a slice's time over its time
on the reference machine. A change to wordsim changes the scaled
figure as much as the raw one; a slow spell of the host changes both the
slice and the program, and cancels.
"""

import json
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

# The two parts' typical durations on the reference machine (2-vCPU Xeon
# virtual machine, Python 3.11, numpy 2.4 with one OpenBLAS thread).
NOMINAL_INTERP_S = 0.004
NOMINAL_NUMPY_S = 0.002
# At most one slice per this much run time, so slices cost a few percent.
INTERVAL_S = 0.1
# A timing is scaled by the median of the slices within this many seconds
# of it, and by at least this many of the nearest slices.
WINDOW_S = 0.5
MIN_SLICES = 5

_WORDS = ("benchmark", "bencmhark", "similarity", "simliarity", "noisy", "noisey", "lexicon", "lexcion")
_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((100, 48))
_W = [_RNG.standard_normal((48, 48)) * 0.1 for _ in range(4)]
_DOC = {"W": _RNG.standard_normal((24, 24)).tolist(), "b": list(range(64))}


def _edit_distance(x, y):
    prev = list(range(len(y) + 1))
    for i, a in enumerate(x, 1):
        cur = [i]
        for j, b in enumerate(y, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
        prev = cur
    return prev[-1]


def interp_part():
    """Interpreted work: edit-distance tables and a JSON round trip."""
    total = 0
    for x in _WORDS:
        for y in _WORDS:
            total += _edit_distance(x, y)
    return total + len(json.loads(json.dumps(_DOC))["b"])


def numpy_part():
    """Small dense layers forward and back, as wordsim's networks use."""
    for _ in range(6):
        h = _X
        for w in _W:
            h = np.tanh(h @ w)
        for w in reversed(_W):
            h = (h @ w.T) * (1.0 - h * h)
    return float(h[0, 0])


class Pace:
    """Slice timings taken through a run; ``maybe`` is cheap to call often.

    A slow spell slows interpreted code more than numpy calls, so the
    slices time the two parts apart, and a timing is scaled by their
    slowness weighted with ``numpy_share``, the share of numpy work in
    what was timed.
    """

    def __init__(self):
        self.at = []  # midpoint of each slice, in perf_counter seconds
        self.interp = []  # durations of its two parts
        self.numpy = []

    def sample(self, n=1):
        """Take ``n`` slices in a row."""
        for _ in range(n):
            t0 = perf_counter()
            interp_part()
            t1 = perf_counter()
            numpy_part()
            t2 = perf_counter()
            self.at.append((t0 + t2) / 2)
            self.interp.append(t1 - t0)
            self.numpy.append(t2 - t1)

    def maybe(self):
        """Take a slice if the last one is at least ``INTERVAL_S`` old."""
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def slowness(self, numpy_share, i=0, j=None):
        """Median over slices i..j of their time over the nominal, parts weighted."""
        s = numpy_share
        return median((1 - s) * a / NOMINAL_INTERP_S + s * b / NOMINAL_NUMPY_S
                      for a, b in zip(self.interp[i:j], self.numpy[i:j]))

    def scale(self, numpy_share, t0, t1):
        """Factor from seconds spent in [t0, t1] to seconds at the nominal pace.

        It uses the slices within ``WINDOW_S`` of the interval, widened to
        the ``MIN_SLICES`` nearest ones, so each timing is set against the
        host's pace at the time it was taken.
        """
        i = bisect_left(self.at, t0 - WINDOW_S)
        j = bisect_right(self.at, t1 + WINDOW_S)
        while j - i < MIN_SLICES and (i > 0 or j < len(self.at)):
            if i > 0 and (j == len(self.at) or t0 - self.at[i - 1] <= self.at[j] - t1):
                i -= 1
            else:
                j += 1
        return 1.0 / self.slowness(numpy_share, i, j)

    def record(self):
        return {"at": list(self.at), "interp": list(self.interp), "numpy": list(self.numpy)}
