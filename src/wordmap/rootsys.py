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
from math import gcd
from operator import add, mul, neg, sub
from typing import Callable, NamedTuple

from .errors import InvalidType


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    roots: tuple  # doubled integer coordinate tuples
    ambient_dim: int

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
    return tuple(map(add, u, v))


def _neg(u):
    return tuple(map(neg, u))


def _sub(u, v):
    return tuple(map(sub, u, v))


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


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


def _closure(simple, expected: int, label: str) -> tuple:
    """The orbit of the simple roots under the simple reflections
    s_a(b) = b - <b, a^v> a, sorted descending, checked as it is walked.

    Every root is a Weyl conjugate of a simple root (Humphreys, Introduction to
    Lie Algebras, 10.3), so the orbit is the whole system; W is orthogonal, so
    every ordered pair of roots is a W-translate of a (root, simple root) pair.
    The walk checks the Cartan integers of those pairs in both orders, is
    Weyl-stable by construction and stops once it outgrows ``expected``; the
    sorted orbit is then checked for its count and for negation.

    After the Gram matrix of the simple roots no inner product is taken: each
    root carries its pairings with the simple roots, as
    <s_i b, a_j> = <b, a_j> - c <a_i, a_j> by bilinearity, and its norm, as s_i
    is an isometry once c |a_i|^2 = 2 <b, a_i> is checked.
    """
    gram = [[_dot(alpha, beta) for beta in simple] for alpha in simple]
    norms = [row[i] for i, row in enumerate(gram)]
    # A Cartan integer that is an integer in both orders has |c| <= 4
    # (c c' = 4 cos^2 <= 4), so these are every c alpha_i and c row_i needed.
    steps = [{c: (tuple([c * a for a in alpha]), tuple([c * g for g in row]))
              for c in (-4, -3, -2, -1, 1, 2, 3, 4)}
             for alpha, row in zip(simple, gram)]
    walk = list(zip(simple, gram, norms))  # (root, pairings, norm)
    seen = set(simple)
    for beta, pairing, bb in walk:  # grows while it is walked: a breadth-first orbit
        for ab, aa, step in zip(pairing, norms, steps):
            if ab:  # a zero pairing is integral and reflects b to itself
                two_ab = 2 * ab
                if two_ab % aa or two_ab % bb:
                    raise InvalidType("Cartan integer is not an integer")
                c_alpha, c_row = step[two_ab // aa]
                image = tuple(map(sub, beta, c_alpha))
                if image not in seen:
                    if len(seen) == expected:
                        raise InvalidType(
                            f"{label}: got more than {expected} roots, expected {expected}")
                    seen.add(image)
                    walk.append((image, tuple(map(sub, pairing, c_row)), bb))
    roots = tuple(sorted(seen, reverse=True))
    if len(roots) != expected:
        raise InvalidType(f"{label}: got {len(roots)} roots, expected {expected}")
    if roots != tuple(map(_neg, reversed(roots))):  # negation reverses the order
        raise InvalidType("root system is not closed under negation")
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
    roots = _closure(kind.simple(rank), kind.count(rank), f"{t}{rank}")
    return RootSystem(t, rank, roots, len(roots[0]))


def _rank(vectors, enough=None) -> int:
    """The exact rank over Q of integer vectors, by fraction-free elimination;
    it stops counting once it reaches ``enough``."""
    basis = []  # (pivot, row): row[pivot] != 0, and row is 0 at every earlier pivot
    for v in vectors:
        for pivot, row in basis:
            c = v[pivot]
            if c:
                p = row[pivot]
                v = [p * a - c * b for a, b in zip(v, row)]
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is not None:
            g = gcd(*v)
            basis.append((pivot, [a // g for a in v]))
            if len(basis) == enough:
                break
    return len(basis)


def _members(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def star_search(system: RootSystem) -> StarResult:
    """Search for rank-many pairwise-orthogonal roots whose pairwise sums and
    differences are not roots (a closed union of rank orthogonal A1's).

    Depth-first over positive roots in descending lexicographic order, each root
    followed only by later ones; the first complete set found is returned, so
    the result is deterministic.  A node's candidates are the AND of the chosen
    roots' compatible sets, as bitmasks over the positive roots.  Three prunings
    leave the first set found unchanged:
      - mutually orthogonal roots are independent, so a node whose candidates
        span fewer than rank - k dimensions, with k roots chosen, is dropped;
      - whether a node completes depends only on its candidates and on k, so a
        candidate set that failed once at the same k is not searched again;
      - W is transitive on the roots of one length (Humphreys 10.4) and keeps
        compatibility, so if a set contains a root of some length, a W-translate
        with its signs fixed contains that length's first positive root.  The
        least index in any set is therefore the first of its length, and the
        first level tries only those roots.
    """
    rs = system._root_set
    # the roots are sorted descending and closed under negation, so the first
    # half is exactly the v with v > -v
    positive = system.roots[:system.count() // 2]
    target = system.rank
    later = {}  # index -> bitmask of the later positive roots compatible with it

    def compatible_after(i: int) -> int:
        if i not in later:
            alpha = positive[i]
            mask = 0
            for j in range(i + 1, len(positive)):
                beta = positive[j]
                if (_dot(alpha, beta) == 0 and _add(alpha, beta) not in rs
                        and _sub(alpha, beta) not in rs):
                    mask |= 1 << j
            later[i] = mask
        return later[i]

    chosen = []
    failed = set()

    def search(candidates: int) -> bool:
        need = target - len(chosen)
        if need == 0:
            return True
        if candidates.bit_count() < need or (candidates, need) in failed:
            return False
        if _rank((positive[j] for j in _members(candidates)), need) == need:
            for i in _members(candidates):
                chosen.append(positive[i])
                if search(candidates & compatible_after(i)):
                    return True
                chosen.pop()
        failed.add((candidates, need))
        return False

    first_of_length = {}
    for i, alpha in enumerate(positive):
        first_of_length.setdefault(_dot(alpha, alpha), i)
    for i in sorted(first_of_length.values()):
        chosen.append(positive[i])
        if search(compatible_after(i)):
            return StarResult(holds=True, witness=tuple(chosen))
        chosen.pop()
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
