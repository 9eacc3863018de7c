"""A fixed pure-Python reference load that tracks the speed of the machine.

The benchmark shares a 2-core virtual machine with other tenants, and the
speed at which it runs Python code drifts by 20-40% over seconds to minutes,
in process CPU time as much as in wall time.  The harness therefore runs a
short fixed slice of this load between ops and expresses every op time in
reference seconds: the measured time scaled by NOMINAL_SLICE_S over the
slice time measured around the op.  The load never calls folc, so a change
to folc moves op times and leaves the slices alone; a change in the
machine's speed moves both alike.  Set-up time is scaled by the slices the
harness runs around its set-up probes.

The slice does what the folc layers do, in plain Python: it builds small
immutable trees with slotted classes, dispatches on their type, substitutes
into them recursively, hashes them into sets and dicts, and prints them.
"""

from __future__ import annotations

import statistics
import time

# Slice time on the reference machine (2-core 2.0 GHz Xeon virtual machine,
# Python 3.11) when other tenants leave it alone; reference seconds equal
# seconds at that speed.
NOMINAL_SLICE_S = 250e-6
WINDOW = 3  # slices on each side of an op whose median gives its speed


class Leaf:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class App:
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn, self.args = fn, args


def _build(depth: int, i: int):
    if depth == 0:
        return Leaf("v%d" % (i % 5))
    return App("fgh"[i % 3], (_build(depth - 1, 2 * i + 1), _build(depth - 1, 3 * i + 2)))


def _subst(t, env: dict):
    if isinstance(t, Leaf):
        return env.get(t.name, t)
    return App(t.fn, tuple(_subst(a, env) for a in t.args))


def _show(t) -> str:
    if isinstance(t, Leaf):
        return t.name
    return t.fn + "(" + ", ".join(_show(a) for a in t.args) + ")"


def _key(t):
    if isinstance(t, Leaf):
        return t.name
    return (t.fn, *map(_key, t.args))


_ENV = {"v1": Leaf("w1"), "v3": App("g", (Leaf("w3"), Leaf("v0")))}


def work_slice() -> int:
    """One fixed unit of reference load; returns a value so it cannot be skipped."""
    seen, sizes = set(), {}
    t = _build(5, 1)
    for _ in range(2):
        t = _subst(t, _ENV)
        k = _key(t)
        seen.add(k)
        text = _show(t)
        sizes[text] = len(text)
    return len(seen) + sum(sizes.values())


def timed_slice() -> float:
    t0 = time.perf_counter()
    work_slice()
    return time.perf_counter() - t0


def speed_factors(slices) -> list[float]:
    """Per segment, NOMINAL_SLICE_S over the median slice time around it.

    Segment s holds the ops run after slice s and before slice s+1; its
    speed is the median of the WINDOW slices before it and the WINDOW after.
    """
    out = []
    for s in range(len(slices)):
        around = slices[max(0, s + 1 - WINDOW) : s + 1 + WINDOW]
        out.append(NOMINAL_SLICE_S / statistics.median(around))
    return out
