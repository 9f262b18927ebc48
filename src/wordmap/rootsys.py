"""Irreducible root systems in Bourbaki coordinates and the orthogonal-A1 search.

Each type is given by its simple roots (Bourbaki, Plates I-IX); the roots are
their orbit under the simple reflections.  Coordinates are stored doubled, so
the half-integer roots of the E and F types become integer vectors and all
inner products stay in Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple

from .errors import InvalidType


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    roots: tuple  # doubled integer coordinate tuples
    ambient_dim: int

    def __contains__(self, vec) -> bool:
        return tuple(vec) in self._root_set

    @cached_property
    def _root_set(self) -> frozenset:
        return frozenset(self.roots)

    def count(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class StarResult:
    holds: bool
    witness: tuple | None  # rank-many doubled roots, or None


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _neg(u):
    return tuple(-a for a in u)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _chain(dim: int, count: int) -> list:
    """The doubled roots e_i - e_(i+1) for i = 1..count in R^dim."""
    return [tuple(2 * ((k == i) - (k == i + 1)) for k in range(dim)) for i in range(count)]


def _tail(dim: int, *last) -> tuple:
    """A doubled vector of length dim ending in ``last``, zero before it."""
    return (0,) * (dim - len(last)) + last


# E8 (Bourbaki, Plate VII), doubled: a1 = (e1 + e8 - e2 - ... - e7) / 2,
# a2 = e1 + e2, a(k+1) = e(k) - e(k-1) for k = 2..7.  E7 and E6 are the
# subsystems spanned by the first 7 and the first 6 of them.
_E8 = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)] + [_neg(v) for v in _chain(8, 6)]


class _Type(NamedTuple):
    least: int  # smallest rank
    most: int | None  # largest rank, None when unbounded
    count: Callable  # rank -> number of roots
    simple: Callable  # rank -> simple roots, doubled (Bourbaki, Plates I-IX)


# Simple roots of A_r: e_i - e_(i+1) in R^(r+1); of B_r, C_r and D_r: the first
# r - 1 of them in R^r, then e_r, 2 e_r or e_(r-1) + e_r.
_TYPES = {
    "A": _Type(1, None, lambda r: r * (r + 1), lambda r: _chain(r + 1, r)),
    "B": _Type(2, None, lambda r: 2 * r * r, lambda r: _chain(r, r - 1) + [_tail(r, 2)]),
    "C": _Type(2, None, lambda r: 2 * r * r, lambda r: _chain(r, r - 1) + [_tail(r, 4)]),
    "D": _Type(4, None, lambda r: 2 * r * (r - 1), lambda r: _chain(r, r - 1) + [_tail(r, 2, 2)]),
    "E": _Type(6, 8, {6: 72, 7: 126, 8: 240}.get, lambda r: _E8[:r]),
    "F": _Type(4, 4, lambda r: 48,
               lambda r: [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]),
    "G": _Type(2, 2, lambda r: 12, lambda r: [(2, -2, 0), (-4, 2, 2)]),
}


def _closure(simple) -> list:
    """The orbit of the simple roots under the simple reflections
    s_a(b) = b - <b, a^v> a.  Every root is a Weyl conjugate of a simple root
    (Humphreys, Introduction to Lie Algebras, 10.3), so this is the whole system."""
    coroots = [(alpha, _dot(alpha, alpha)) for alpha in simple]
    roots = list(simple)
    seen = set(roots)
    for beta in roots:  # grows while it is walked: a breadth-first orbit
        for alpha, aa in coroots:
            c = 2 * _dot(beta, alpha) // aa
            if not c:
                continue
            image = tuple(b - c * a for a, b in zip(alpha, beta))
            if image not in seen:
                seen.add(image)
                roots.append(image)
    return roots


def _requirement(kind: _Type) -> str:
    if kind.most is None:
        return f"rank >= {kind.least}"
    *others, last = range(kind.least, kind.most + 1)
    return f"rank {', '.join(map(str, others))} or {last}" if others else f"rank {last}"


def build(type_label: str, rank: int) -> RootSystem:
    """The standard Bourbaki realization, coordinates doubled to integers."""
    t = type_label.upper()
    if t not in _TYPES:
        raise InvalidType(f"unknown type label {type_label!r}")
    kind = _TYPES[t]
    if rank < kind.least or (kind.most is not None and rank > kind.most):
        raise InvalidType(f"{t} requires {_requirement(kind)}")
    roots = tuple(sorted(_closure(kind.simple(rank)), reverse=True))
    system = RootSystem(t, rank, roots, len(roots[0]))
    _validate(system)
    return system


def _validate(system: RootSystem):
    expected = _TYPES[system.type_label].count(system.rank)
    if system.count() != expected:
        raise InvalidType(
            f"{system.type_label}{system.rank}: got {system.count()} roots, expected {expected}"
        )
    rs = system._root_set
    for alpha in system.roots:
        if _neg(alpha) not in rs:
            raise InvalidType("root system is not closed under negation")
        for beta in system.roots:
            two_ab = 2 * _dot(alpha, beta)
            bb = _dot(beta, beta)
            if two_ab % bb != 0:
                raise InvalidType("Cartan integer is not an integer")


def star_search(system: RootSystem) -> StarResult:
    """Search for rank-many pairwise-orthogonal roots whose pairwise sums and
    differences are not roots (a closed union of rank orthogonal A1's).

    Backtracking over positive roots in descending lexicographic order; the
    first complete set found is returned, so the result is deterministic.
    """
    rs = system._root_set
    positive = sorted((v for v in system.roots if v > _neg(v)), reverse=True)
    target = system.rank
    chosen = []

    def compatible(alpha, beta) -> bool:
        if _dot(alpha, beta) != 0:
            return False
        return _add(alpha, beta) not in rs and _sub(alpha, beta) not in rs

    def search(start: int):
        if len(chosen) == target:
            return True
        for idx in range(start, len(positive)):
            alpha = positive[idx]
            if all(compatible(alpha, beta) for beta in chosen):
                chosen.append(alpha)
                if search(idx + 1):
                    return True
                chosen.pop()
        return False

    if search(0):
        return StarResult(holds=True, witness=tuple(chosen))
    return StarResult(holds=False, witness=None)


def verify_witness(system: RootSystem, witness) -> bool:
    """Independent check of a star witness, not relying on the search."""
    if witness is None or len(witness) != system.rank:
        return False
    rs = system._root_set
    if any(tuple(alpha) not in rs for alpha in witness):
        return False
    for alpha, beta in combinations(witness, 2):
        if _dot(alpha, beta) != 0:
            return False
        if _add(alpha, beta) in rs or _sub(alpha, beta) in rs:
            return False
    return True


@dataclass(frozen=True)
class TableRow:
    type_label: str
    rank: int
    holds: bool
    expected: bool


def expected_star(type_label: str, rank: int) -> bool:
    """The known verdict: fails exactly for A_(r>1), D_(2k+1) with k>1, and E6."""
    t = type_label.upper()
    if t == "A":
        return rank == 1
    if t == "D":
        return rank % 2 == 0
    if t == "E":
        return rank != 6
    return True


def verify_lemma_table(max_rank: int = 8):
    """star_search verdicts across the classical table, types A-G, ranks
    ascending; rows carry the expected verdict so discrepancies are visible at
    a glance."""
    if max_rank > 8:
        raise InvalidType("max_rank capped at 8 for exhaustive feasibility")
    if max_rank < 1:
        raise InvalidType("max_rank must be >= 1")
    rows = []
    for t, kind in _TYPES.items():
        for r in range(kind.least, min(kind.most or max_rank, max_rank) + 1):
            result = star_search(build(t, r))
            rows.append(TableRow(t, r, result.holds, expected_star(t, r)))
    return rows
