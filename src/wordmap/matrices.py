"""Exact square matrices: determinant, adjugate, characteristic polynomial, sampling, rank.

A :class:`SquareMatrix` stores its entries as a ``rows`` tuple of raw ring
values (see :mod:`wordmap.rings`).  Rows are validated once, where they enter:
the constructor, :meth:`SquareMatrix.from_rows` and :func:`matrix_from_json`,
which reads JSON literals straight to raw rows with
:func:`~wordmap.rings._parse_raw` and builds no :class:`~wordmap.rings.Scalar`.
Every operation checks the ring once and then works on raw values through the
descriptor's ``rmatmul``/``rdot``/``radd``/``rmul``/``rneg``/``rinv``.  Every
matrix product, here and in :mod:`wordmap.evaluate` and
:mod:`wordmap.geometry`, is one call of a product kernel ``rmatmul``: the
ring's on raw rows, or a walk ring's (below); every power is one
:func:`~wordmap.rings._rpow` under that product.
:class:`~wordmap.rings.Scalar` objects are built only at the API boundary:
``entries``, ``m[i, j]``, ``trace()``, ``det()``, ``charpoly()`` and
:func:`matrix_to_json`.

Determinant, adjugate, characteristic polynomial and inverse share one kernel,
Berkowitz's division-free algorithm, which is valid over every commutative
ring and never branches on the ring.  For n <= 2, det and adjugate take their
closed forms; for n >= 3 the adjugate follows from the characteristic
polynomial by Cayley-Hamilton (:func:`_det_adjugate`), so one pass gives both.

A word walk (:mod:`wordmap.evaluate`), ``inverse()``, ``charpoly`` and ``det``
from 3 x 3 up run on the walk ring that :func:`_walk_ring` picks, the one
place that chooses a representation and the one place that knows Q's integer
rows.  Over Q it is :class:`_QWalk`, which keeps every matrix on one
denominator as the canonical pair ``(D, N)``, N = D M with D the lcm of M's
denominators.  Needing no division, Berkowitz runs there on N over a private
ring of Python ints, :class:`_Integers`, whose ``rmatmul`` is the one integer
product, and the results are divided by powers of D once: M^-1, adj M and
det M come from one integer pass ``(D, det N, adj N)``, and no Fraction but
Delta is built before the value is boxed.  Over every other ring the walk
ring is :class:`_RawWalk`, on raw rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul

from .errors import DimensionMismatch, NotInvertible, RingMismatch, WordmapError
from .rings import Rationals, RingDescriptor, Scalar, _parse_raw, _rpow, render_scalar

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


def _square(rows: tuple) -> tuple:
    """The row tuples, checked to form a square matrix."""
    n = len(rows)
    if not n:
        raise DimensionMismatch("matrix has no rows")
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("matrix is not square")
    return rows


class SquareMatrix:
    """An n x n matrix over an exact ring; immutable, hashable, raw-valued."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: RingDescriptor, rows):
        """Rows of Scalars of `ring` or ints (ints are coerced into the ring)."""
        rows = _square(tuple(tuple(_unbox(ring, e) for e in row) for row in rows))
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
        return SquareMatrix._raw(self.ring, self.ring.rmatmul(self.rows, other.rows))

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
        return self + other.scaled(-1)

    def scaled(self, c) -> "SquareMatrix":
        """c * M for a Scalar (or int) c."""
        ring = self.ring
        return SquareMatrix._raw(ring, _scaled_rows(ring, self.rows, _unbox(ring, c)))

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return SquareMatrix.identity(self.ring, self.n)
        return SquareMatrix._raw(self.ring, _rpow(self.ring.rmatmul, self.rows, k))

    def trace(self) -> Scalar:
        ring = self.ring
        acc = ring.raw_from_int(0)
        for i, row in enumerate(self.rows):
            acc = ring.radd(acc, row[i])
        return Scalar(ring, acc)

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._raw(self.ring, tuple(zip(*self.rows)))

    def inverse(self) -> "SquareMatrix":
        walk = _walk_ring(self.ring)
        return SquareMatrix._raw(self.ring, walk.box(walk.inverse(walk.det_adjugate(self.rows))))

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


def _scaled_rows(ring: RingDescriptor, rows: tuple, c) -> tuple:
    """c M on raw rows, for a raw scalar c."""
    mul = ring.rmul
    return tuple(tuple([mul(c, e) for e in row]) for row in rows)


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


class _Integers(RingDescriptor):
    """Z on Python ints: the ring of the integer rows N = D M of
    :class:`_QWalk`, on which its products and Berkowitz run."""

    def raw_from_int(self, n):
        return n

    def radd(self, x, y):
        return x + y

    def rneg(self, x):
        return -x

    def rdot(self, xs, ys):
        return sum(map(mul, xs, ys))

    def rmatmul(self, x, y):
        cols = tuple(zip(*y))
        return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in x])


_INTEGERS = _Integers()


def _det_from(ring: RingDescriptor, coeffs):
    """det M = (-1)^n c_n."""
    c = coeffs[-1]
    return c if len(coeffs) % 2 else ring.rneg(c)


def _det_adjugate(ring: RingDescriptor, rows) -> tuple:
    """(det M, adj M) on raw rows: closed forms for n <= 2, else one Berkowitz pass.

    By Cayley-Hamilton, adj M = (-1)^(n-1) (M^(n-1) + c_1 M^(n-2) + ... + c_(n-1) I),
    taken by Horner with n - 2 products.
    """
    n = len(rows)
    neg = ring.rneg
    if n == 1:
        return rows[0][0], ((ring.raw_from_int(1),),)
    if n == 2:
        (a, b), (c, d) = rows
        nb, nc = neg(b), neg(c)
        return ring.rdot((a, b), (d, nc)), ((d, nb), (nc, a))
    coeffs, add = _berkowitz(ring, rows), ring.radd
    if n % 2 == 0:  # fold the sign (-1)^(n-1) into M and the coefficients
        signed, acc = [neg(c) for c in coeffs], tuple(tuple(map(neg, row)) for row in rows)
    else:
        signed, acc = coeffs, rows
    for k in range(1, n):
        if k > 1:
            acc = ring.rmatmul(acc, rows)
        c = signed[k]
        acc = tuple(row[:i] + (add(row[i], c),) + row[i + 1:] for i, row in enumerate(acc))
    return _det_from(ring, coeffs), acc


# ---------------------------------------------------------------------------
# walk rings: the representation a word walk multiplies on (see wordmap.evaluate)
#
# A walk ring has ``lift`` (raw rows to a walk value), ``box`` (back),
# ``rmatmul``, ``det_adjugate`` (raw rows to an opaque pass), ``adjugate(pass)``,
# ``inverse(pass)``, ``delta`` (prod det^b over pairs of a pass and b, as a raw
# scalar of the ring), ``scaled(value, c)`` for a raw scalar c and
# ``coefficients`` (raw rows to Berkowitz's list, as raw values of the ring).
# It holds only the representation: the identity is the lift of the raw
# identity rows.


def _walk_ring(ring: RingDescriptor):
    """The walk ring over ``ring``: :class:`_QWalk` over Q, raw rows elsewhere."""
    return _QWalk if isinstance(ring, Rationals) else _RawWalk(ring)


class _RawWalk:
    """The walk ring on raw rows: a value is the rows and a pass is
    ``(det M, adj M)`` from :func:`_det_adjugate`."""

    def __init__(self, ring: RingDescriptor):
        self.ring = ring
        self.rmatmul = ring.rmatmul

    @staticmethod
    def lift(value):
        return value

    box = lift

    def det_adjugate(self, rows) -> tuple:
        return _det_adjugate(self.ring, rows)

    @staticmethod
    def adjugate(p) -> tuple:
        return p[1]

    def inverse(self, p) -> tuple:
        """M^-1 = det(M)^-1 adj M."""
        d, adj = p
        try:
            dinv = self.ring.rinv(d)
        except NotInvertible:
            raise NotInvertible("matrix determinant is not a unit") from None
        return self.scaled(adj, dinv)

    def delta(self, factors):
        """prod det(M)^b over ``factors``, pairs of a pass and b >= 1."""
        mul = self.ring.rmul
        acc = self.ring.raw_from_int(1)
        for (d, _adj), b in factors:
            acc = mul(acc, _rpow(mul, d, b))
        return acc

    def scaled(self, rows, c) -> tuple:
        return _scaled_rows(self.ring, rows, c)

    def coefficients(self, rows) -> list:
        return _berkowitz(self.ring, rows)


def _lowest(d: int, rows: tuple) -> tuple:
    """The pair ``(D, N)`` of :class:`_QWalk` for the matrix rows / d, d > 0:
    d and the integer rows divided by the gcd of them all."""
    g = math.gcd(d, *chain.from_iterable(rows))
    if g == 1:
        return d, rows
    return d // g, tuple([tuple([e // g for e in row]) for row in rows])


class _QWalk:
    """The walk ring over Q: matrices on one denominator.

    A value is a pair ``(D, N)`` of an int D > 0 and integer row tuples
    N = D M with gcd(D, N) = 1.  Then D is the lcm of the denominators of M's
    entries, as ``lift`` gives it, so the pair is canonical: equal matrices
    have equal pairs.  It is as large as M's reduced Fractions, so a matrix
    of finite order stays small at any power.  ``lift`` takes raw rows to
    their pair, ``rmatmul`` multiplies the integer rows
    (``_Integers.rmatmul``) and divides the pair by its gcd, and ``box``
    builds one reduced Fraction per entry, once per walk.  ``det_adjugate``
    is one pass on the integer rows, ``(D, det N, adj N)``, from which the
    inverse, the adjugate and the determinant of M come with no Fraction
    built; a scalar, such as Delta, is a Fraction, and the only one built
    before the value is boxed.
    """

    @staticmethod
    def lift(rows) -> tuple:
        """``(D, N)`` for raw rows over Q: D is the lcm of the entries'
        denominators and N = D * rows; as the entries are reduced,
        gcd(D, N) = 1."""
        ratios = [[x.as_integer_ratio() for x in row] for row in rows]
        d = math.lcm(*[q for row in ratios for _p, q in row])
        return d, tuple([tuple([p * (d // q) for p, q in row]) for row in ratios])

    @staticmethod
    def box(pair) -> tuple:
        """The raw rows over Q of a pair: one reduced Fraction per entry."""
        d, rows = pair
        return tuple([tuple([Fraction(e, d) for e in row]) for row in rows])

    @staticmethod
    def rmatmul(x, y) -> tuple:
        (dx, nx), (dy, ny) = x, y
        return _lowest(dx * dy, _INTEGERS.rmatmul(nx, ny))

    @staticmethod
    def det_adjugate(rows) -> tuple:
        """``(D, det N, adj N)`` for raw rows M over Q and their integer rows
        N = D M: det M = det N / D^n and adj M = adj N / D^(n-1)."""
        d, ints = _QWalk.lift(rows)
        return (d, *_det_adjugate(_INTEGERS, ints))

    @staticmethod
    def adjugate(p) -> tuple:
        """adj M = adj N / D^(n-1)."""
        d, _det_n, adj_n = p
        return _lowest(d ** (len(adj_n) - 1), adj_n)

    @staticmethod
    def inverse(p) -> tuple:
        """M^-1 = D adj N / det N; the sign moves so that the denominator is
        positive."""
        d, det_n, adj_n = p
        if not det_n:
            raise NotInvertible("matrix determinant is not a unit")
        if det_n < 0:
            d, det_n = -d, -det_n
        return _lowest(det_n, tuple([tuple([d * e for e in row]) for row in adj_n]))

    @staticmethod
    def delta(factors) -> Fraction:
        """prod det(M)^b over ``factors``, pairs of a pass of ``det_adjugate``
        and b; det M = det N / D^n is put in lowest terms before the power."""
        num = den = 1
        for (d, det_n, adj_n), b in factors:
            d_n = d ** len(adj_n)
            g = math.gcd(det_n, d_n)
            num, den = num * (det_n // g) ** b, den * (d_n // g) ** b
        return Fraction(num, den)

    @staticmethod
    def scaled(pair, c: Fraction) -> tuple:
        """c M for a scalar c."""
        (num, den), (d, rows) = c.as_integer_ratio(), pair
        return _lowest(den * d, tuple([tuple([num * e for e in row]) for row in rows]))

    @staticmethod
    def coefficients(rows) -> list:
        """Berkowitz's [1, c_1, ..., c_n] of M, taken on the integer rows:
        c_k(M) = c_k(N) / D^k."""
        d, ints = _QWalk.lift(rows)
        return [Fraction(c, d ** k) for k, c in enumerate(_berkowitz(_INTEGERS, ints))]


def _det(ring: RingDescriptor, rows):
    if len(rows) <= 2:
        return _det_adjugate(ring, rows)[0]
    return _det_from(ring, _walk_ring(ring).coefficients(rows))


def det(m: SquareMatrix) -> Scalar:
    return Scalar(m.ring, _det(m.ring, m.rows))


def charpoly(m: SquareMatrix) -> tuple:
    """``(chi_1, ..., chi_n)``, the signed elementary symmetric functions of
    the eigenvalues: chi_i = (-1)^i c_i, so chi_1 = trace and chi_n = det."""
    ring = m.ring
    coeffs = _walk_ring(ring).coefficients(m.rows)
    return tuple(Scalar(ring, ring.rneg(c) if i % 2 else c) for i, c in enumerate(coeffs) if i)


# ---------------------------------------------------------------------------
# sampling and rank


def random_sl2(ring: RingDescriptor, rng) -> SquareMatrix:
    """det-1 matrix drawn by :func:`_random_sl2_rows`."""
    return SquareMatrix._raw(ring, _random_sl2_rows(ring, rng))


def _random_sl2_rows(ring: RingDescriptor, rng) -> tuple:
    """Raw rows of a det-1 matrix: draw a, b, c and solve d = (1 + bc) / a;
    draw again while a is not invertible."""
    draw, mul = ring.rrandom, ring.rmul
    one = ring.raw_from_int(1)
    while True:
        a, b, c = draw(rng), draw(rng), draw(rng)
        try:
            a_inv = ring.rinv(a)
        except NotInvertible:
            continue
        return (a, b), (c, mul(ring.radd(one, mul(b, c)), a_inv))


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
# JSON literals and reductions


def matrix_from_json(ring: RingDescriptor, rows) -> SquareMatrix:
    """Row-major arrays of scalar literal strings or ints (not bools), read
    straight to raw rows."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise WordmapError(f"a matrix is a list of rows, got {rows!r}")
    raw = []
    for row in rows:
        values = []
        for e in row:
            if isinstance(e, str):
                values.append(_parse_raw(ring, e))
            elif isinstance(e, int) and not isinstance(e, bool):
                values.append(ring.raw_from_int(e))
            else:
                raise WordmapError(f"a matrix entry is a scalar string or an int, got {e!r}")
        raw.append(tuple(values))
    return SquareMatrix._raw(ring, _square(tuple(raw)))


def matrix_to_json(m: SquareMatrix):
    return [[render_scalar(e) for e in row] for row in m.entries]


def _reduced(m: SquareMatrix, field: RingDescriptor, phi) -> SquareMatrix:
    """The entrywise image of m under ``phi``, a map from raw values of its
    ring to raw values of ``field`` (see :func:`wordmap.rings._reductions`)."""
    return SquareMatrix._raw(field, tuple(tuple(map(phi, row)) for row in m.rows))

