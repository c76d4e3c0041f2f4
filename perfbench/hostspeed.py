"""How fast the host runs right now, from a fixed calibration slice.

On a shared host the same items take 20 to 40 % longer in some minutes than
in others.  The calibration slice is a fixed mix of small einsums,
big-integer Fractions and dict work that never calls sidlab.  Sampled between
items, once per ``EVERY_S`` of item time, its mean time over a chunk of
``CHUNK_S`` of item time tells how much slower than nominal the host ran
during that chunk.  Dividing the chunk's item times by that factor gives
times at nominal host speed, which a change to sidlab moves and the host's
load does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

EVERY_S = 0.02
CHUNK_S = 0.5
NOMINAL_SLICE_S = 0.8e-3  # about its time between items on a 2-core Xeon VM
_MATRIX = np.linspace(0.0, 1.0, 16).reshape(4, 4)
_BIG = 3 ** 200


def calibration_slice():
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(60):
        acc += float(np.einsum("ij,jk->ik", _MATRIX, _MATRIX)[0, 0])
        seen[i] = Fraction(_BIG + i, _BIG - i) * Fraction(i + 1, 7)
        seen[i, "row"] = [acc] * 8
    return time.perf_counter() - t0


def slowdown(slices):
    """Mean slice time against nominal; >1 means a slower host."""
    return statistics.fmean(slices) / NOMINAL_SLICE_S


class HostSpeed:
    """Item times scaled to nominal host speed, chunk by chunk."""

    def __init__(self, probe=calibration_slice):
        self.probe = probe
        self.owed = 0.0
        self.slices = []
        self.pending = []
        self.scaled = []
        self.factors = []

    def after(self, seconds):
        """Record one item's time and take the slices it owes."""
        self.pending.append(seconds)
        self.owed += seconds
        while self.owed >= EVERY_S:
            self.owed -= EVERY_S
            self.slices.append(self.probe())
        if sum(self.pending) >= CHUNK_S:
            self.flush()

    def flush(self):
        """Scale the pending item times by the slowdown seen since the
        last flush (probing once if no slice was owed)."""
        if not self.pending:
            return
        if not self.slices:
            self.slices.append(self.probe())
        factor = slowdown(self.slices)
        self.factors.append(factor)
        self.scaled += [s / factor for s in self.pending]
        self.pending, self.slices = [], []
