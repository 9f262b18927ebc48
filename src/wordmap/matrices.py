"""Exact square matrices: determinant, adjugate, characteristic polynomial, group predicates.

A :class:`SquareMatrix` stores its entries as a ``rows`` tuple of raw ring
values (see :mod:`wordmap.rings`).  Rows are validated once, where they enter:
the constructor, :meth:`SquareMatrix.from_rows` and :func:`matrix_from_json`.
Every operation checks the ring once and then works on raw values through the
descriptor's ``rdot``/``radd``/``rmul``/``rneg``/``rinv``; a product takes one
fused ``rdot`` per entry.  :class:`~wordmap.rings.Scalar` objects are built only
at the API boundary: ``entries``, ``m[i, j]``, ``trace()``, ``det()``,
``charpoly()`` and :func:`matrix_to_json`.

Determinant, adjugate, characteristic polynomial and inverse share one kernel,
Berkowitz's division-free algorithm, which is valid over every commutative
ring (fields, quadratic extensions, dual numbers) and never branches on the
ring.  For n <= 2, det and adjugate take their closed forms; for n >= 3 the
adjugate follows from the characteristic polynomial by Cayley-Hamilton, and
``inverse()`` takes det and adjugate from a single Berkowitz pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NotInvertible, RingMismatch, WordmapError
from .rings import DualNumbers, RingDescriptor, Scalar, parse_scalar, render_scalar

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
        if not n:
            raise DimensionMismatch("matrix has no rows")
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
        """Repeated squaring from the base itself: M**1 costs no product."""
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return SquareMatrix.identity(self.ring, self.n)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def trace(self) -> Scalar:
        ring = self.ring
        acc = ring.raw_from_int(0)
        for i, row in enumerate(self.rows):
            acc = ring.radd(acc, row[i])
        return Scalar(ring, acc)

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._raw(self.ring, tuple(zip(*self.rows)))

    def inverse(self) -> "SquareMatrix":
        return inverse_from(*det_adjugate(self))

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


def _berkowitz(ring: RingDescriptor, rows) -> list:
    """[1, c_1, ..., c_n] with det(lambda I - M) = sum c_k lambda^(n-k).

    Berkowitz's division-free algorithm (IPL 18, 1984), valid over every
    commutative ring.  Step r borders the leading r x r submatrix A with the
    column s, the row t and the corner a; the bordered charpoly is the
    Toeplitz matrix of (1, -a, -t.s, -t.A s, ..., -t.A^(r-1) s) times the
    charpoly of A.  Every inner product is one ``rdot``.
    """
    dot, neg = ring.rdot, ring.rneg
    zero, one = ring.raw_from_int(0), ring.raw_from_int(1)
    coeffs = [one]
    for r, row in enumerate(rows):
        a_rows = [above[:r] for above in rows[:r]]
        t = row[:r]
        v = [above[r] for above in rows[:r]]
        toeplitz = [one, neg(row[r])]
        for k in range(r):
            if k:
                v = [dot(a_row, v) for a_row in a_rows]
            toeplitz.append(neg(dot(t, v)))
        q = coeffs + [zero]
        coeffs = [dot(toeplitz[i::-1], q[:i + 1]) for i in range(r + 2)]
    return coeffs


def _det_from(ring: RingDescriptor, coeffs):
    """det M = (-1)^n c_n."""
    c = coeffs[-1]
    return c if len(coeffs) % 2 else ring.rneg(c)


def _det_adjugate(ring: RingDescriptor, rows) -> tuple:
    """(det M, adj M) on raw rows: closed forms for n <= 2, else one Berkowitz pass.

    By Cayley-Hamilton, adj M = (-1)^(n-1) (M^(n-1) + c_1 M^(n-2) + ... + c_(n-1) I),
    taken by Horner with n - 2 fused products.
    """
    n = len(rows)
    neg = ring.rneg
    if n == 1:
        return rows[0][0], ((ring.raw_from_int(1),),)
    if n == 2:
        (a, b), (c, d) = rows
        nb, nc = neg(b), neg(c)
        return ring.rdot((a, b), (d, nc)), ((d, nb), (nc, a))
    coeffs = _berkowitz(ring, rows)
    dot, add = ring.rdot, ring.radd
    if n % 2 == 0:  # fold the sign (-1)^(n-1) into M and the coefficients
        signed, acc = [neg(c) for c in coeffs], [[neg(e) for e in row] for row in rows]
    else:
        signed, acc = coeffs, [list(row) for row in rows]
    cols = list(zip(*rows))
    for k in range(1, n):
        if k > 1:
            acc = [[dot(row, col) for col in cols] for row in acc]
        for i in range(n):
            acc[i][i] = add(acc[i][i], signed[k])
    return _det_from(ring, coeffs), tuple(map(tuple, acc))


def det_adjugate(m: SquareMatrix) -> tuple:
    """(det M, adj M) from one pass: a caller that needs both, or the inverse
    as well (see :func:`inverse_from`), pays for one Berkowitz pass."""
    d, adj = _det_adjugate(m.ring, m.rows)
    return Scalar(m.ring, d), SquareMatrix._raw(m.ring, adj)


def inverse_from(d: Scalar, adj: SquareMatrix) -> SquareMatrix:
    """M^-1 = det(M)^-1 adj(M), from the pair that :func:`det_adjugate` returns."""
    try:
        dinv = adj.ring.rinv(_unbox(adj.ring, d))
    except NotInvertible:
        raise NotInvertible("matrix determinant is not a unit") from None
    return adj._scaled_raw(dinv)


def _det(ring: RingDescriptor, rows):
    if len(rows) <= 2:
        return _det_adjugate(ring, rows)[0]
    return _det_from(ring, _berkowitz(ring, rows))


def det(m: SquareMatrix) -> Scalar:
    return Scalar(m.ring, _det(m.ring, m.rows))


def adjugate(m: SquareMatrix) -> SquareMatrix:
    """The matrix M* with M M* = M* M = det(M) I, by Cayley-Hamilton for n >= 3."""
    return SquareMatrix._raw(m.ring, _det_adjugate(m.ring, m.rows)[1])


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Signed elementary symmetric functions of the eigenvalues: chi[0] = trace, chi[-1] = det."""

    chi: tuple


def charpoly(m: SquareMatrix) -> CharPolyCoeffs:
    """chi_i = (-1)^i c_i, so chi_1 = trace and chi_n = det."""
    ring = m.ring
    coeffs = _berkowitz(ring, m.rows)
    return CharPolyCoeffs(
        tuple(Scalar(ring, ring.rneg(c) if i % 2 else c) for i, c in enumerate(coeffs) if i)
    )


# ---------------------------------------------------------------------------
# group predicates


def is_unipotent(m: SquareMatrix) -> bool:
    """(M - I)^n = 0; correct over every ring."""
    d = m - SquareMatrix.identity(m.ring, m.n)
    return d ** m.n == SquareMatrix.zero(m.ring, m.n)


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
    """Rank of a list of rows of raw values of ``ring``, a field."""
    if not rows:
        return 0
    a = [list(r) for r in rows]
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
# JSON literals and dual-number lifts


def matrix_from_json(ring: RingDescriptor, rows) -> SquareMatrix:
    """Row-major arrays of scalar literal strings or ints (not bools)."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise WordmapError(f"a matrix is a list of rows, got {rows!r}")
    return SquareMatrix(ring, [[_json_entry(ring, e) for e in row] for row in rows])


def _json_entry(ring: RingDescriptor, e):
    if isinstance(e, str):
        return parse_scalar(ring, e)
    if isinstance(e, int) and not isinstance(e, bool):
        return e
    raise WordmapError(f"a matrix entry is a scalar string or an int, got {e!r}")


def matrix_to_json(m: SquareMatrix):
    return [[render_scalar(e) for e in row] for row in m.entries]


def lift_matrix(m: SquareMatrix, dual: DualNumbers) -> SquareMatrix:
    _check_ring(dual.base, m.ring, f"cannot lift into {dual}")
    z = dual.base.raw_from_int(0)
    return SquareMatrix._raw(dual, tuple(tuple([(v, z) for v in row]) for row in m.rows))

