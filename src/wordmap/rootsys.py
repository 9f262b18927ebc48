"""Irreducible root systems in Bourbaki coordinates and the orthogonal-A1 search.

Coordinates are stored doubled, so the half-integer roots of the E types become
integer vectors and all inner products stay in Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

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


_CLASSICAL_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}


def _unit(dim: int, i: int, scale: int = 2):
    v = [0] * dim
    v[i] = scale
    return tuple(v)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _neg(u):
    return tuple(-a for a in u)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _short_pairs(dim: int) -> list:
    """The roots +-e_i +-e_j for i < j, doubled."""
    roots = []
    for i, j in combinations(range(dim), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * dim
            v[i], v[j] = si, sj
            roots.append(tuple(v))
    return roots


def build(type_label: str, rank: int) -> RootSystem:
    """The standard Bourbaki realization, coordinates doubled to integers."""
    t = type_label.upper()
    roots = []
    if t == "A":
        if rank < 1:
            raise InvalidType("A requires rank >= 1")
        dim = rank + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    roots.append(_sub(_unit(dim, i), _unit(dim, j)))
    elif t in ("B", "C", "D"):
        if (t in ("B", "C") and rank < 2) or (t == "D" and rank < 4):
            raise InvalidType(f"{t} requires rank >= {2 if t in ('B', 'C') else 4}")
        dim = rank
        roots = _short_pairs(dim)
        if t == "B":
            for i in range(dim):
                roots.append(_unit(dim, i, 2))
                roots.append(_unit(dim, i, -2))
        elif t == "C":
            for i in range(dim):
                roots.append(_unit(dim, i, 4))
                roots.append(_unit(dim, i, -4))
    elif t == "E":
        if rank not in (6, 7, 8):
            raise InvalidType("E requires rank 6, 7 or 8")
        dim = 8
        e8 = _short_pairs(8)
        for signs in product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:  # even number of minus signs
                e8.append(signs)
        if rank == 8:
            roots = e8
        elif rank == 7:
            # roots of E8 orthogonal to e7 + e8
            probe = tuple([0] * 6 + [2, 2])
            roots = [v for v in e8 if _dot(v, probe) == 0]
        else:
            # roots of E8 orthogonal to e7 + e8 and to e6 + e8
            p1 = tuple([0] * 6 + [2, 2])
            p2 = tuple([0] * 5 + [2, 0, 2])
            roots = [v for v in e8 if _dot(v, p1) == 0 and _dot(v, p2) == 0]
    elif t == "F":
        if rank != 4:
            raise InvalidType("F requires rank 4")
        dim = 4
        for i in range(4):
            roots.append(_unit(4, i, 2))
            roots.append(_unit(4, i, -2))
        roots += _short_pairs(4)
        for signs in product((1, -1), repeat=4):
            roots.append(signs)
    elif t == "G":
        if rank != 2:
            raise InvalidType("G requires rank 2")
        dim = 3
        for i in range(3):
            for j in range(3):
                if i != j:
                    roots.append(_sub(_unit(3, i), _unit(3, j)))
        # long roots +-(2e_i - e_j - e_k)
        for i in range(3):
            j, k = [a for a in range(3) if a != i]
            long = _sub(_sub(_unit(3, i, 4), _unit(3, j)), _unit(3, k))
            roots.append(long)
            roots.append(_neg(long))
    else:
        raise InvalidType(f"unknown type label {type_label!r}")

    system = RootSystem(t, rank, tuple(roots), len(roots[0]))
    _validate(system)
    return system


def _validate(system: RootSystem):
    counts = _CLASSICAL_COUNTS[system.type_label]
    expected = counts(system.rank) if callable(counts) else counts[system.rank]
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
    """star_search verdicts across the classical table; rows carry the expected
    verdict so discrepancies are visible at a glance."""
    if max_rank > 8:
        raise InvalidType("max_rank capped at 8 for exhaustive feasibility")
    cells = []
    cells += [("A", r) for r in range(1, max_rank + 1)]
    cells += [("B", r) for r in range(2, max_rank + 1)]
    cells += [("C", r) for r in range(2, max_rank + 1)]
    cells += [("D", r) for r in range(4, max_rank + 1)]
    cells += [("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        cells.append(("F", 4))
    cells.append(("G", 2))
    rows = []
    for t, r in cells:
        result = star_search(build(t, r))
        rows.append(TableRow(t, r, result.holds, expected_star(t, r)))
    return rows
