"""Speed calibration: a fixed slice of pure-Python work timed next to each job.

The CPU speed a process gets on a shared host drifts by +-25% within seconds.
The work here resembles wordmap's own (frozen dataclass scalars with a ring
check, 2x2 products over F_p, Fractions, tuples and dicts) but is the
benchmark's own code, so a change to wordmap cannot change it.  A job's time
times ``REF_S / calibration time`` is its time at the reference speed, the
speed at which one calibration takes ``REF_S``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

REF_S = 0.006


@dataclass(frozen=True)
class _Ring:
    p: int


@dataclass(frozen=True)
class _Boxed:
    ring: _Ring
    value: int

    def __add__(self, other):
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        return _Boxed(self.ring, (self.value + other.value) % self.ring.p)

    def __mul__(self, other):
        if other.ring != self.ring:
            raise ValueError("ring mismatch")
        return _Boxed(self.ring, self.value * other.value % self.ring.p)


def _work():
    ring = _Ring(10007)
    a = ((_Boxed(ring, 3), _Boxed(ring, 5)), (_Boxed(ring, 7), _Boxed(ring, 11)))
    m = a
    for _ in range(200):
        m = tuple(tuple(m[i][0] * a[0][j] + m[i][1] * a[1][j] for j in range(2))
                  for i in range(2))
    acc, table = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i % 50, i % 3)] = (m, acc)
    return len(table)


def calibrate() -> float:
    """Seconds one slice of calibration work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
