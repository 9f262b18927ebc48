"""Exact square matrices: determinant, adjugate, characteristic polynomial, group predicates.

A :class:`SquareMatrix` stores its entries as a ``rows`` tuple of raw ring
values (see :mod:`wordmap.rings`).  Rows are validated once, where they enter:
the constructor, :meth:`SquareMatrix.from_rows` and :func:`matrix_from_json`.
Every operation checks the ring once and then works on raw values through the
descriptor's ``rdot``/``radd``/``rmul``/``rneg``/``rinv``; a product takes one
fused ``rdot`` per entry.  :class:`~wordmap.rings.Scalar` objects are built only
at the API boundary: ``entries``, ``m[i, j]``, ``trace()``, ``det()``,
``charpoly()`` and :func:`matrix_to_json`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import DimensionMismatch, NotInvertible, RingMismatch, WordmapError
from .rings import DualNumbers, PrimeField, Rationals, RingDescriptor, Scalar, parse_scalar, render_scalar

_set = object.__setattr__


def _check_ring(ring: RingDescriptor, other: RingDescriptor, what: str) -> None:
    if other is not ring and other != ring:
        raise RingMismatch(f"{what}: {ring} vs {other}")


def _unbox(ring: RingDescriptor, e):
    """The raw value of a Scalar of `ring`, or of an int coerced into it."""
    if isinstance(e, Scalar):
        _check_ring(ring, e.ring, "entry ring does not match matrix ring")
        return e.value
    if isinstance(e, int):
        return ring.raw_from_int(e)
    raise WordmapError(f"matrix entries must be Scalars or ints, not {type(e).__name__}")


class SquareMatrix:
    """An n x n matrix over an exact ring; immutable, hashable, raw-valued."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: RingDescriptor, rows):
        """Rows of Scalars of `ring` or ints (ints are coerced into the ring)."""
        rows = tuple(tuple(_unbox(ring, e) for e in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix is not square")
        _set(self, "ring", ring)
        _set(self, "rows", rows)

    @classmethod
    def _raw(cls, ring: RingDescriptor, rows: tuple) -> "SquareMatrix":
        """Trusted constructor: `rows` is a square tuple of canonical raw tuples."""
        m = object.__new__(cls)
        _set(m, "ring", ring)
        _set(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    def __reduce__(self):
        return SquareMatrix._raw, (self.ring, self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple:
        """Row tuples of Scalars."""
        ring = self.ring
        return tuple(tuple(Scalar(ring, v) for v in row) for row in self.rows)

    @staticmethod
    def from_rows(ring: RingDescriptor, rows) -> "SquareMatrix":
        """Rows of Scalars or ints (ints are coerced into the ring)."""
        return SquareMatrix(ring, rows)

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "SquareMatrix":
        return SquareMatrix._raw(ring, _identity_rows(ring, n))

    @staticmethod
    def zero(ring: RingDescriptor, n: int) -> "SquareMatrix":
        z = ring.raw_from_int(0)
        return SquareMatrix._raw(ring, ((z,) * n,) * n)

    def __getitem__(self, ij):
        i, j = ij
        return Scalar(self.ring, self.rows[i][j])

    def _check(self, other: "SquareMatrix", what: str) -> None:
        if len(self.rows) != len(other.rows):
            raise DimensionMismatch(f"{what}: {self.n}x{self.n} and {other.n}x{other.n}")
        _check_ring(self.ring, other.ring, what)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check(other, "matrix product")
        dot = self.ring.rdot
        cols = list(zip(*other.rows))
        return SquareMatrix._raw(
            self.ring, tuple([tuple([dot(row, col) for col in cols]) for row in self.rows])
        )

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check(other, "matrix sum")
        add = self.ring.radd
        return SquareMatrix._raw(
            self.ring,
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self + other._scaled_raw(other.ring.raw_from_int(-1))

    def scaled(self, c) -> "SquareMatrix":
        """c * M for a Scalar (or int) c."""
        return self._scaled_raw(_unbox(self.ring, c))

    def _scaled_raw(self, c) -> "SquareMatrix":
        mul = self.ring.rmul
        return SquareMatrix._raw(
            self.ring, tuple(tuple([mul(c, e) for e in row]) for row in self.rows)
        )

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = SquareMatrix.identity(self.ring, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def trace(self) -> Scalar:
        ring = self.ring
        acc = ring.raw_from_int(0)
        for i, row in enumerate(self.rows):
            acc = ring.radd(acc, row[i])
        return Scalar(ring, acc)

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._raw(self.ring, tuple(zip(*self.rows)))

    def inverse(self) -> "SquareMatrix":
        ring = self.ring
        try:
            dinv = ring.rinv(_det(ring, self.rows))
        except NotInvertible:
            raise NotInvertible("matrix determinant is not a unit") from None
        return SquareMatrix._raw(ring, _adjugate(ring, self.rows))._scaled_raw(dinv)

    def map_entries(self, fn, new_ring: RingDescriptor) -> "SquareMatrix":
        """Apply a Scalar -> Scalar function entrywise; the results must lie in new_ring."""
        return SquareMatrix(new_ring, [[fn(e) for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows and (
            self.ring is other.ring or self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(render_scalar(e) for e in row) + "]" for row in self.entries
        ) + "]"

    def __repr__(self):
        return f"SquareMatrix({self.ring}, {self})"


def _identity_rows(ring: RingDescriptor, n: int) -> tuple:
    z, o = ring.raw_from_int(0), ring.raw_from_int(1)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# determinant / adjugate / charpoly, on raw rows


def _det_cofactor(ring: RingDescriptor, rows):
    n = len(rows)
    dot, neg = ring.rdot, ring.rneg
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return dot((a, b), (d, neg(c)))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return dot(
            (a, b, c),
            (dot((e, f), (i, neg(h))), dot((f, d), (g, neg(i))), dot((d, e), (h, neg(g)))),
        )
    raise ValueError("cofactor path is for n <= 3")


def _det_leibniz(ring: RingDescriptor, rows):
    """Permutation-sum determinant; valid over any commutative ring."""
    n = len(rows)
    mul = ring.rmul
    acc = ring.raw_from_int(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = mul(term, rows[i][perm[i]])
        acc = ring.radd(acc, ring.rneg(term) if inversions % 2 else term)
    return acc


def _det_bareiss(ring: RingDescriptor, rows):
    """Fraction-free elimination; exact division keeps entries small over Q."""
    n = len(rows)
    a = [list(row) for row in rows]
    mul, is_zero = ring.rmul, ring.is_zero_raw
    sign = 1
    prev_inv = ring.raw_from_int(1)
    for k in range(n - 1):
        if is_zero(a[k][k]):
            pivot_row = next((i for i in range(k + 1, n) if not is_zero(a[i][k])), None)
            if pivot_row is None:
                return ring.raw_from_int(0)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            neg_aik = ring.rneg(a[i][k])
            for j in range(k + 1, n):
                a[i][j] = mul(ring.rdot((akk, neg_aik), (a[i][j], a[k][j])), prev_inv)
        prev_inv = ring.rinv(akk)
    d = a[n - 1][n - 1]
    return d if sign > 0 else ring.rneg(d)


def _det_elimination(ring: RingDescriptor, rows):
    """Plain Gaussian elimination over a field."""
    n = len(rows)
    a = [list(row) for row in rows]
    mul, is_zero = ring.rmul, ring.is_zero_raw
    d = ring.raw_from_int(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not is_zero(a[i][k])), None)
        if pivot_row is None:
            return ring.raw_from_int(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            d = ring.rneg(d)
        d = mul(d, a[k][k])
        inv = ring.rinv(a[k][k])
        for i in range(k + 1, n):
            neg_factor = ring.rneg(mul(a[i][k], inv))
            ai, ak = a[i], a[k]
            for j in range(k, n):
                ai[j] = ring.radd(ai[j], mul(neg_factor, ak[j]))
    return d


def _det(ring: RingDescriptor, rows):
    n = len(rows)
    if n <= 3:
        return _det_cofactor(ring, rows)
    if isinstance(ring, PrimeField):
        return _det_elimination(ring, rows)
    if isinstance(ring, Rationals):
        return _det_bareiss(ring, rows)
    if ring.is_field():
        return _det_elimination(ring, rows)
    return _det_leibniz(ring, rows)  # dual numbers have zero divisors


def det(m: SquareMatrix) -> Scalar:
    return Scalar(m.ring, _det(m.ring, m.rows))


def _minor(rows, i: int, j: int) -> tuple:
    return tuple(row[:j] + row[j + 1:] for ii, row in enumerate(rows) if ii != i)


def _adjugate(ring: RingDescriptor, rows) -> tuple:
    n = len(rows)
    if n == 1:
        return _identity_rows(ring, 1)
    neg = ring.rneg
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            c = _det(ring, _minor(rows, j, i))  # transposed cofactor
            row.append(neg(c) if (i + j) % 2 else c)
        out.append(tuple(row))
    return tuple(out)


def adjugate(m: SquareMatrix) -> SquareMatrix:
    """The matrix M* with M M* = M* M = det(M) I.  Entries are (n-1)-minors."""
    return SquareMatrix._raw(m.ring, _adjugate(m.ring, m.rows))


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Signed elementary symmetric functions of the eigenvalues: chi[0] = trace, chi[-1] = det."""

    chi: tuple


def _poly_mul(p, q, ring):
    out = [ring.raw_from_int(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = ring.radd(out[i + j], ring.rmul(a, b))
    return out


def _poly_add(p, q, ring):
    if len(p) < len(q):
        p, q = q, p
    return [ring.radd(a, q[i]) if i < len(q) else a for i, a in enumerate(p)]


def _poly_det(rows, ring):
    """Determinant of a matrix of polynomials (raw coeff lists, low degree first)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = [ring.raw_from_int(0)]
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = _poly_mul(rows[0][j], _poly_det(minor, ring), ring)
        if j % 2 == 1:
            term = [ring.rneg(c) for c in term]
        acc = _poly_add(acc, term, ring)
    return acc


def charpoly(m: SquareMatrix) -> CharPolyCoeffs:
    """chi_i as signed elementary symmetric functions, so chi_1 = trace, chi_n = det."""
    ring = m.ring
    n = m.n
    neg = ring.rneg
    one = ring.raw_from_int(1)
    # det(lambda I - M), monic of degree n
    rows = [
        [[neg(e), one] if i == j else [neg(e)] for j, e in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]
    p = _poly_det(rows, ring)
    p = p + [ring.raw_from_int(0)] * (n + 1 - len(p))
    chi = []
    for i in range(1, n + 1):
        c = p[n - i]  # coefficient of lambda^(n-i)
        chi.append(Scalar(ring, neg(c) if i % 2 == 1 else c))
    return CharPolyCoeffs(tuple(chi))


# ---------------------------------------------------------------------------
# group predicates


def is_special(m: SquareMatrix) -> bool:
    return _det(m.ring, m.rows) == m.ring.raw_from_int(1)


def is_unipotent(m: SquareMatrix) -> bool:
    """(M - I)^n = 0; correct over every ring."""
    d = m - SquareMatrix.identity(m.ring, m.n)
    return d ** m.n == SquareMatrix.zero(m.ring, m.n)


def is_central_sl2(m: SquareMatrix) -> bool:
    if m.n != 2:
        raise DimensionMismatch("is_central_sl2 is for 2x2 matrices")
    i2 = SquareMatrix.identity(m.ring, 2)
    return m == i2 or m == i2._scaled_raw(m.ring.raw_from_int(-1))


def is_scalar_matrix(m: SquareMatrix) -> bool:
    return m == SquareMatrix.identity(m.ring, m.n)._scaled_raw(m.rows[0][0])


# ---------------------------------------------------------------------------
# sampling and rank


def random_sl2(ring: RingDescriptor, rng) -> SquareMatrix:
    """det-1 matrix: sample a, b, c and solve d; retry while a is not invertible."""
    while True:
        a = ring.random(rng)
        b = ring.random(rng)
        c = ring.random(rng)
        if a.is_invertible():
            d = (ring.one + b * c) / a
            return SquareMatrix.from_rows(ring, [[a, b], [c, d]])


def rank(rows, ring: RingDescriptor) -> int:
    """Rank of a list of Scalar rows over a field."""
    if not rows:
        return 0
    a = [[_unbox(ring, e) for e in r] for r in rows]
    mul, is_zero = ring.rmul, ring.is_zero_raw
    ncols = len(a[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if not is_zero(a[i][col])), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = ring.rinv(a[r][col])
        ar = a[r]
        for i in range(len(a)):
            ai = a[i]
            if i != r and not is_zero(ai[col]):
                neg_factor = ring.rneg(mul(ai[col], inv))
                for j in range(col, ncols):
                    ai[j] = ring.radd(ai[j], mul(neg_factor, ar[j]))
        r += 1
        if r == len(a):
            break
    return r


# ---------------------------------------------------------------------------
# JSON literals and dual-number parts


def matrix_from_json(ring: RingDescriptor, rows) -> SquareMatrix:
    """Row-major arrays of scalar literal strings (or ints)."""
    return SquareMatrix(
        ring,
        [[parse_scalar(ring, e) if isinstance(e, str) else int(e) for e in row] for row in rows],
    )


def matrix_to_json(m: SquareMatrix):
    return [[render_scalar(e) for e in row] for row in m.entries]


def lift_matrix(m: SquareMatrix, dual: DualNumbers) -> SquareMatrix:
    _check_ring(dual.base, m.ring, f"cannot lift into {dual}")
    z = dual.base.raw_from_int(0)
    return SquareMatrix._raw(dual, tuple(tuple([(v, z) for v in row]) for row in m.rows))


def _dual_part(m: SquareMatrix, k: int) -> SquareMatrix:
    if not isinstance(m.ring, DualNumbers):
        raise RingMismatch(f"{m.ring} is not a dual-number ring")
    return SquareMatrix._raw(m.ring.base, tuple(tuple([v[k] for v in row]) for row in m.rows))


def real_part_matrix(m: SquareMatrix) -> SquareMatrix:
    return _dual_part(m, 0)


def eps_part_matrix(m: SquareMatrix) -> SquareMatrix:
    return _dual_part(m, 1)
