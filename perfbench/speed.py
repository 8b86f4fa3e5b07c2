"""The machine's speed, measured with fixed pieces of reference work.

On a virtual machine that shares its cores, the same code runs at 1x or
about 1.6x its time, switching within a second and staying slow for
stretches of up to minutes, whatever the program does: whole runs of
unchanged code differ by 20-40% in wall and CPU time alike.  So every
timing is taken together with the speed at which it ran, in nanoseconds per
piece of the reference work below, and reported as its cost in pieces:
divided by that speed, it stays within a few percent while its time in
milliseconds moves by 40%.  Multiplied by ``PIECE_NS`` it reads as
nanoseconds at a fixed speed.

A ``Meter`` reads the speed of a timed call from a slice of
``SLICE_PIECES`` pieces on either side of it and, since the speed can
switch during a long call, from one piece every ``SAMPLE_S`` seconds while
the call runs: a ``SIGALRM`` interval timer interrupts the call and the
handler times a piece.  The handler's own wall and CPU time are kept, for
the caller to take out of the call's time.

The reference work is the arithmetic evosym's kernel is made of (products
of sparse polynomials kept as dicts from sorted tuple keys to Fraction
coefficients), written here, so that no change to the program changes it.
Pieces are timed in the main thread's CPU time, with the cyclic garbage
collector off: another thread of the program, or a collection of the
program's heap, cannot make the machine look slower.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

# What one piece takes, in thread CPU time, on a 2-vCPU Intel Xeon virtual
# machine under Python 3.11.7 when its host is quiet.  A fixed scale: it
# only turns a cost in pieces into time.
PIECE_NS = 130_000
SLICE_PIECES = 16
SAMPLE_S = 0.02


def _mul_key(k1: tuple, k2: tuple) -> tuple:
    """Merge two sorted ``(variable, power)`` keys, adding powers."""
    out = []
    i = j = 0
    while i < len(k1) and j < len(k2):
        (s1, v1), (s2, v2) = k1[i], k2[j]
        if s1 == s2:
            out.append((s1, v1 + v2))
            i += 1
            j += 1
        elif s1 < s2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    out.extend(k1[i:])
    out.extend(k2[j:])
    return tuple(out)


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = _mul_key(ka, kb)
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


_A = {((i % 3, 1 + i % 2), (5 + i % 3, 1)): Fraction(i + 1, 7)
      for i in range(6)}
_B = {((i % 4, 1 + i % 3),): Fraction(2 * i - 5, 13) for i in range(6)}


def pieces_ns(n: int) -> int:
    """Thread CPU time of ``n`` pieces of the reference work, in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time_ns()
        for _ in range(n):
            _mul(_A, _B)
        return time.thread_time_ns() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Sampled:
    """What the timer's handler did during one call."""
    ns: int = 0           # time of the pieces it ran
    pieces: int = 0
    wall_ns: int = 0      # its own time, to take out of the call's
    cpu_ns: int = 0


class Meter:
    """The speed of consecutive timed calls, in ns per piece.

    Use as a context manager around the calls (it installs the ``SIGALRM``
    handler, and puts the previous one back), and for each call::

        meter.start()
        ...the call...
        sampled = meter.stop()
        ns_per_piece = meter.speed(sampled)

    ``speed`` runs the slice after the call, which is also the slice before
    the next one.
    """

    def __init__(self):
        self._previous = None
        self._sampled = Sampled()
        self._edge_ns = 0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._edge_ns = pieces_ns(SLICE_PIECES)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        s = self._sampled
        s.ns += pieces_ns(1)
        s.pieces += 1
        s.wall_ns += time.perf_counter_ns() - wall
        s.cpu_ns += time.process_time_ns() - cpu

    def start(self) -> None:
        self._sampled = Sampled()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> Sampled:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self._sampled

    def speed(self, sampled: Sampled) -> float:
        before, after = self._edge_ns, pieces_ns(SLICE_PIECES)
        self._edge_ns = after
        return ((before + after + sampled.ns)
                / (2 * SLICE_PIECES + sampled.pieces))
