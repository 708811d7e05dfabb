"""The machine's speed, measured by a fixed calibration loop.

The benchmark runs on a VM whose CPU speed drifts by up to 1.7 times
over seconds to minutes.  Every time the benchmark reports is therefore
scaled by the speed of the machine at the moment it was taken: the
calibration loop below is timed right before and right after each timed
piece of work, and the work's time t becomes

    t * NOMINAL_S / (mean time of one calibration loop around it)

that is, the time the work would have taken on a machine where one
calibration loop takes NOMINAL_S.  The loop does not use `opra`, so a
change to the program moves the scaled times as it moves the raw ones.

The loop mixes the kinds of work the program does: a breadth-first
search keeping the best weight per (node, state) in a dict, as the
solver does; tokenising and joining text, as the parser does; and
building small objects in lists and dicts, as the set-up does.
"""

from __future__ import annotations

import random
import time

# One calibration loop at the usual speed of a shared 2-vCPU VM with
# Python 3.11: the reference to which every time is scaled.
NOMINAL_S = 0.0011
# Calibration time after each timed piece of work, as a share of the
# work's time (at least one loop).
SHARE = 0.25
_RNG = random.Random(7)
_N = 200
_ADJ = [tuple(_RNG.randrange(_N) for _ in range(3)) for _ in range(_N)]
_TEXT = " ".join(f"x{i} -pi-> y{i % 7} WHERE <E(@1, @1') = {i}>*"
                 for i in range(40))


class _Node:
    __slots__ = ("name", "attrs")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs


def kernel() -> int:
    best = {}
    frontier = [(0, 0)]
    for depth in range(8):
        nxt = []
        for u, w in frontier:
            for v in _ADJ[u]:
                key = (v, depth % 3)
                nw = w + v % 7 + 1
                if best.get(key, 1 << 30) > nw:
                    best[key] = nw
                    nxt.append((v, nw))
        frontier = nxt[:600]
    tokens = []
    for word in _TEXT.split():
        tokens.append(word.strip("<>()*").lower())
    text = ",".join(tokens)
    nodes = [_Node(f"v{i}", {"time": i % 10, "tag": text[i % 50]})
             for i in range(300)]
    index = {n.name: n for n in nodes}
    return len(best) + len(text) + len(index)


class Speed:
    """Calibration blocks between timed pieces of work."""

    def __init__(self):
        self.last = self.block(0.0)

    @staticmethod
    def block(work_s: float) -> float:
        """Run the loop until its time reaches SHARE x `work_s`; the mean
        time of one loop."""
        total, reps = 0.0, 0
        while reps == 0 or total < SHARE * work_s:
            t0 = time.perf_counter()
            kernel()
            total += time.perf_counter() - t0
            reps += 1
        return total / reps

    def scale(self, work_s: float) -> float:
        """Calibrate after a piece of work that took `work_s`, and return
        its time scaled by the mean speed before and after it."""
        after = self.block(work_s)
        loop = (self.last + after) / 2
        self.last = after
        return work_s * NOMINAL_S / loop
