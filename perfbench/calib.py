"""Host calibration: a fixed reference loop timed next to every op.

The host's speed drifts in phases lasting tens of seconds, so raw wall
times of the same work drift between runs.  Every timed op is therefore
bracketed by runs of the reference loop, and its wall time is rescaled
to what it would have taken on a host running the reference in exactly
:data:`REF_NOMINAL` seconds::

    t_cal = t_wall * REF_NOMINAL / ref_adjacent

where ``ref_adjacent`` is the mean of the reference runs just before
and just after the op.  Units stay seconds.

The reference mixes the kinds of work the program does (see
:data:`REF_COMPOSITION`): small socket writes and reads, integer
arithmetic, SHA-256 hashing, short-lived small objects and dict
inserts, and numpy vector ops.  Allocation-heavy and syscall-heavy
phases thus slow it the way they slow the program.  It runs with the
cyclic GC paused, so the size of the program's heap cannot change its
time.
"""

from __future__ import annotations

import gc
import hashlib
import socket
import time

import numpy as np

#: Nominal duration of one reference run, in seconds.  Fixed once:
#: changing it rescales every calibrated timing of the benchmark.
REF_NOMINAL = 1.0e-3

#: What one reference run does.
REF_COMPOSITION = (
    "40 send+recv of 256 B over a local socket pair; 2000 int "
    "mul/add/mask steps; 120 chained sha256 of 32 B; 800 dict inserts "
    "of fresh 2-tuples and 2-lists; 24 rounds of uint64 mul/xor/shift "
    "over 4096 lanes")

_MESSAGE = bytes(256)
_MUL = np.uint64(2654435761)
_SHIFT = np.uint64(7)
_MASK = np.uint64(0xFF)


class Calibrator:
    """Owns the reference loop and rescales timed work by it.

    Call :meth:`mark` before the first timed piece of work; every
    :meth:`calibrate` then takes that work's wall time, runs the
    reference once more and returns the calibrated seconds.  Close the
    calibrator to release its socket pair.
    """

    def __init__(self):
        self._pair = socket.socketpair()
        self._lanes = np.arange(4096, dtype=np.uint64)
        self.refs: list = []
        self._before = 0.0

    def close(self) -> None:
        for end in self._pair:
            end.close()

    def _work(self) -> int:
        sender, receiver = self._pair
        for _ in range(40):
            sender.send(_MESSAGE)
            receiver.recv(4096)
        acc = 1
        for i in range(2000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        digest = b"reference"
        for _ in range(120):
            digest = hashlib.sha256(digest).digest()
        table = {}
        for i in range(800):
            table[(i, acc & 7)] = [i, digest[i & 31]]
        acc += len(table)
        lanes = self._lanes
        for _ in range(24):
            lanes = (lanes * _MUL) ^ (lanes >> _SHIFT)
        return acc + int(lanes[-1] & _MASK)

    def reference_seconds(self) -> float:
        """Wall time of one reference run, with the cyclic GC paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def mark(self) -> None:
        self._before = self.reference_seconds()
        self.refs.append(self._before)

    def calibrate(self, wall: float) -> float:
        after = self.reference_seconds()
        self.refs.append(after)
        adjacent = 0.5 * (self._before + after)
        self._before = after
        return wall * REF_NOMINAL / adjacent
