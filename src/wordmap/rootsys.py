"""Irreducible root systems in Bourbaki coordinates and the orthogonal-A1 search.

Each type is given by its simple roots (Bourbaki, Plates I-IX); the roots are
their orbit under the simple reflections.  Coordinates are stored doubled, so
the half-integer roots of the E and F types become integer vectors and all
inner products stay in Z.

The walk and the search work on each root's code, one int: a byte per
coordinate, big-endian, each biased by 128 (``_encode``), so codes compare as
the coordinate tuples do.  With ``zero`` the code of the zero vector,
code(u) + code(v) - zero = code(u + v) and 2 zero - code(v) = code(-v) as long
as every coordinate formed fits a signed byte.  Every root keeps the norm of a
simple root, so its coordinates are at most 4 in absolute value (|a|^2 <= 24,
from G2's long roots) and those of a sum or difference of two roots at most 8.
A hand-built RootSystem is encoded with as many bytes a coordinate as the sums
of its roots need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import add, mul, neg, sub
from typing import Callable, NamedTuple

from .errors import InvalidType


class _Codes(NamedTuple):
    zero: int  # the code of the zero vector
    codes: tuple  # the roots' codes, in the order of the roots
    lengths: int | None  # the number of root lengths, None when not known


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    roots: tuple  # doubled integer coordinate tuples
    ambient_dim: int
    # build hands over the codes of its walk; a hand-built system encodes its own
    _codes: _Codes | None = field(default=None, repr=False, compare=False)

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


def _zero(dim: int, width: int = 1) -> int:
    """The code of the zero vector of R^dim, ``width`` bytes a coordinate:
    0x80 in the first byte of each."""
    return int.from_bytes((b"\x80" + bytes(width - 1)) * dim, "big")


def _encode(v, zero: int, width: int = 1) -> int:
    """The code of v: each coordinate in ``width`` signed bytes, big-endian,
    and the top bit of each flipped by ``zero``."""
    return int.from_bytes(b"".join([a.to_bytes(width, "big", signed=True) for a in v]),
                          "big") ^ zero


def _decode(codes, zero: int, dim: int) -> tuple:
    """The coordinate tuples of codes: their bytes, unbiased and joined, read
    back in C as signed bytes and grouped dim at a time."""
    signed = iter(memoryview(b"".join([(code ^ zero).to_bytes(dim, "big") for code in codes])
                             ).cast("b"))
    return tuple(zip(*[signed] * dim))


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
    """The roots generated by the simple roots under the simple reflections
    s_a(b) = b - <b, a^v> a, and their codes, both sorted descending, checked
    as the positive roots P are walked.

    From the simple roots, each walked root b is reflected by every s_i whose
    pairing with it is nonzero, except s_i a_i = -a_i.  Since s_i maps every
    positive root but a_i to a positive root (Humphreys, Introduction to Lie
    Algebras, 10.2), and every positive root descends to a simple root by
    such reflections, the walk reaches all of P, and the roots are P and -P:
    closed under negation by construction, and stable under every s_i as
    s_i(P minus a_i) lies in P.  Every root is a Weyl conjugate of a simple
    root (10.3) and W is orthogonal, so every ordered pair of roots is a
    W-translate of a (root, simple root) pair.  The walk checks the Cartan
    integers of the pairs (b, a_i) in both orders; those of (-b, a_i) only
    change sign.  It stops once 2|P| outgrows ``expected``, and then the
    roots are counted: with 2|P| <= ``expected``, that count also fails when
    P meets -P, as it does for dependent "simple roots".

    After the Gram matrix of the simple roots no inner product is taken: each
    root carries its pairings with the simple roots, as
    <s_i b, a_j> = <b, a_j> - c <a_i, a_j> by bilinearity, and its norm, as s_i
    is an isometry once c |a_i|^2 = 2 <b, a_i> is checked.  So every image has
    the norm of a simple root, its coordinates fit a byte, and the image
    s_i b = b - c a_i is the one int operation code(b) - c (code(a_i) - zero);
    a new image alone gets its pairings, one tuple.  The roots are sorted as
    codes and decoded once.
    """
    dim = len(simple[0])
    zero = _zero(dim)
    gram = [[_dot(alpha, beta) for beta in simple] for alpha in simple]
    norms = [row[i] for i, row in enumerate(gram)]
    shifts = [_encode(alpha, zero) - zero for alpha in simple]  # code(a_i) - zero
    walk = [(shift + zero, row, aa) for shift, row, aa in zip(shifts, gram, norms)]
    # walk: (positive root's code, pairings, norm); positive: the codes walked
    positive = set([code for code, _, _ in walk])
    for beta, pairing, bb in walk:  # grows while it is walked: breadth first
        for ab, aa, shift, row in zip(pairing, norms, shifts, gram):
            # a zero pairing reflects b to itself, and <b, a_i> = |a_i|^2 = |b|^2
            # holds for b = a_i alone (Cauchy-Schwarz), whose image is -a_i
            if ab and not ab == aa == bb:
                two_ab = 2 * ab
                if two_ab % aa or two_ab % bb:
                    raise InvalidType("Cartan integer is not an integer")
                c = two_ab // aa
                image = beta - c * shift
                if image not in positive:
                    positive.add(image)
                    if 2 * len(positive) > expected:
                        raise InvalidType(
                            f"{label}: got more than {expected} roots, expected {expected}")
                    walk.append((image, tuple([p - c * g for p, g in zip(pairing, row)]), bb))
    if 2 * len(positive) > expected:  # the simple roots alone, if no image was new
        raise InvalidType(f"{label}: got more than {expected} roots, expected {expected}")
    codes = positive.union([2 * zero - code for code in positive])
    if len(codes) != expected:
        raise InvalidType(f"{label}: got {len(codes)} roots, expected {expected}")
    codes = tuple(sorted(codes, reverse=True))
    return _decode(codes, zero, dim), _Codes(zero, codes, len(set(norms)))


def _requirement(kind: _Type) -> str:
    if kind.most is None:
        return f"rank >= {kind.least}"
    *others, last = range(kind.least, kind.most + 1)
    return f"rank {', '.join(map(str, others))} or {last}" if others else f"rank {last}"


# build refuses a system of more roots, before it builds any list: the roots
# and their pairings take O(r^3) integers
_ROOTS_MAX = 10000


def build(type_label: str, rank: int) -> RootSystem:
    """The standard Bourbaki realization, coordinates doubled to integers."""
    t = type_label.upper()
    if t not in _TYPES:
        raise InvalidType(f"unknown type label {type_label!r}")
    kind = _TYPES[t]
    if rank < kind.least or (kind.most is not None and rank > kind.most):
        raise InvalidType(f"{t} requires {_requirement(kind)}")
    expected = kind.count(rank)
    if expected > _ROOTS_MAX:
        raise InvalidType(f"{t}{rank} has {expected} roots, capped at {_ROOTS_MAX}")
    roots, codes = _closure(kind.simple(rank), expected, f"{t}{rank}")
    return RootSystem(t, rank, roots, len(roots[0]), codes)


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


def _encoded(system: RootSystem) -> _Codes:
    """The codes of a hand-built system's roots, with as many bytes a
    coordinate as a sum of two roots needs; the number of root lengths is not
    known."""
    width = (2 * max([abs(a) for v in system.roots for a in v], default=0)).bit_length() // 8 + 1
    zero = _zero(system.ambient_dim, width)
    return _Codes(zero, tuple([_encode(v, zero, width) for v in system.roots]), None)


def star_search(system: RootSystem) -> StarResult:
    """Search for rank-many pairwise-orthogonal roots whose pairwise sums and
    differences are not roots (a closed union of rank orthogonal A1's).

    Two roots a != +-b are compatible exactly when neither a + b nor a - b is
    a root: if <a, b> > 0 then a - b is a root, and if <a, b> < 0 then a + b
    is (Humphreys, Introduction to Lie Algebras, 9.4), so no inner product is
    taken.  On codes, that is two set lookups, of code(a) + code(b) - zero and
    code(a) - code(b) + zero.

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
    zero, codes, lengths = system._codes or _encoded(system)
    # the roots are sorted descending and closed under negation, so the first
    # half is exactly the v with v > -v
    half = system.count() // 2
    positive, positive_codes = system.roots[:half], codes[:half]
    root_codes = set(codes)
    target = system.rank
    later = {}  # index -> bitmask of the later positive roots compatible with it

    def compatible_after(i: int) -> int:
        if i not in later:
            a = positive_codes[i]
            plus, minus = a - zero, a + zero
            # one binary digit per later root, the last root's first, read as
            # one int: OR-ing each bit into a growing mask is quadratic in the roots
            digits = ["0" if plus + b in root_codes or minus - b in root_codes else "1"
                      for b in positive_codes[:i:-1]]
            later[i] = int("0" + "".join(digits), 2) << i + 1
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

    # build knows how many root lengths there are, so its scan stops at the last
    first_of_length = {}
    for i, alpha in enumerate(positive):
        first_of_length.setdefault(_dot(alpha, alpha), i)
        if len(first_of_length) == lengths:
            break
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
