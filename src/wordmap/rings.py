"""Exact coefficient domains: Q, F_p and single quadratic extensions.

A :class:`RingDescriptor` does all arithmetic on canonical raw values, so
equality is bit-exact.  Raw representations:

* ``Rationals``      -- :class:`fractions.Fraction` (always reduced)
* ``PrimeField(p)``  -- ``int`` residue in ``[0, p)``
* ``QuadraticExt``   -- pair ``(a, b)`` of base raws, meaning ``a + b*sqrt(d)``

The raw protocol is ``radd``, ``rmul``, ``rneg``, ``rinv``, ``is_zero_raw``,
the fused dot product ``rdot``, the matrix product ``rmatmul`` and the draw
``rrandom``.  ``rdot`` takes one reduction mod p per dot product over F_p,
one :class:`~fractions.Fraction` (one reduction) per dot product over Q, and
over ``base[sqrt(d)]`` a combination of the base ring's ``rdot``.
``rmatmul`` is the product kernel of raw rows: over F_p one reduction per
entry written inline; elsewhere one ``rdot`` per entry.  Every power, of a
scalar, of matrix rows, of a walk value or of a jet, is one :func:`_rpow`
under the product that fits.  This module knows scalars and per-ring
products only, and no matrix format: Q's integer rows over one denominator
belong to the walk ring that :func:`wordmap.matrices._walk_ring` picks.

The matrix kernel works on raw values only, and scalar literals are read to
raw values by :func:`_parse_raw` (a plain integer by one ``int()``), which
:func:`parse_scalar` boxes and :func:`wordmap.matrices.matrix_from_json` does
not.  A :class:`Scalar` (descriptor plus raw value) is the API-boundary form
of an element, with ring-checked operators.

Ranks over Q and ``Q[sqrt(d)]`` are first taken mod p: :func:`_reductions`
maps raw values to F_p for each of a fixed tuple of primes below 2^61 (a
ring homomorphism, sqrt(d) going to its least root mod p), and the rank of
an image is a lower bound for the exact rank.  The callers of
:func:`_first_reduction`, in :mod:`wordmap.evaluate` and
:mod:`wordmap.geometry`, accept a bound only when it decides the answer and
otherwise take the exact path, so no output depends on the reduction.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from operator import mul

from .errors import NotInvertible, RingMismatch, RingLacksRoots, WordmapError


class RingDescriptor:
    """Abstract exact ring.  Subclasses implement arithmetic on raw values."""

    def scalar(self, raw) -> "Scalar":
        return Scalar(self, self.canon(raw))

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, self.raw_from_int(n))

    @property
    def zero(self) -> "Scalar":
        return self.from_int(0)

    @property
    def one(self) -> "Scalar":
        return self.from_int(1)

    # -- raw-value protocol --------------------------------------------------

    def canon(self, raw):
        raise NotImplementedError

    def raw_from_int(self, n: int):
        raise NotImplementedError

    def radd(self, x, y):
        raise NotImplementedError

    def rmul(self, x, y):
        raise NotImplementedError

    def rneg(self, x):
        raise NotImplementedError

    def rinv(self, x):
        raise NotImplementedError

    def rdot(self, xs, ys):
        """sum(x * y for x, y in zip(xs, ys)) on raw values."""
        raise NotImplementedError

    def rmatmul(self, x, y):
        """The product of two n x n tuples of raw row tuples: one ``rdot`` per entry."""
        dot = self.rdot
        cols = tuple(zip(*y))
        return tuple([tuple([dot(row, col) for col in cols]) for row in x])

    def is_zero_raw(self, x) -> bool:
        return x == self.raw_from_int(0)

    def rrandom(self, rng):
        """Draw a raw value; deterministic for a fixed rng state."""
        raise NotImplementedError


@dataclass(frozen=True)
class Rationals(RingDescriptor):
    def canon(self, raw):
        return Fraction(raw)

    def raw_from_int(self, n):
        return Fraction(n)

    def radd(self, x, y):
        return x + y

    def rmul(self, x, y):
        return x * y

    def rneg(self, x):
        return -x

    def rinv(self, x):
        if x == 0:
            raise NotInvertible("0 has no inverse in Q")
        return 1 / x

    def rdot(self, xs, ys):
        # one Fraction built (and reduced) per dot product of up to 16 terms;
        # its denominator is the product of all the terms' denominators, so a
        # longer dot (the jet sums of a long word) adds up 8-term Fractions.
        # A word walk multiplies integer rows instead (matrices._QWalk)
        if len(xs) > 16:
            return sum(
                [self.rdot(xs[i:i + 8], ys[i:i + 8]) for i in range(0, len(xs), 8)],
                Fraction(0),
            )
        num, den = 0, 1
        for x, y in zip(xs, ys):
            d = x.denominator * y.denominator
            num = num * d + x.numerator * y.numerator * den
            den *= d
        return Fraction(num, den)

    def is_zero_raw(self, x):
        return x == 0

    def rrandom(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField(RingDescriptor):
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise WordmapError(f"{self.p} is not prime")

    def canon(self, raw):
        return int(raw) % self.p

    def raw_from_int(self, n):
        return n % self.p

    def radd(self, x, y):
        return (x + y) % self.p

    def rmul(self, x, y):
        return (x * y) % self.p

    def rneg(self, x):
        return (-x) % self.p

    def rinv(self, x):
        if x % self.p == 0:
            raise NotInvertible(f"0 has no inverse in F_{self.p}")
        return pow(x, -1, self.p)

    def rdot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def rmatmul(self, x, y):
        # one reduction per entry, inline; the 2 x 2 case written out
        p = self.p
        if len(x) == 2:
            (a, b), (c, d) = x
            (e, f), (g, h) = y
            return (((a * e + b * g) % p, (a * f + b * h) % p),
                    ((c * e + d * g) % p, (c * f + d * h) % p))
        cols = tuple(zip(*y))
        return tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in x])

    def is_zero_raw(self, x):
        return x == 0

    def rrandom(self, rng):
        # randrange(p)'s own rejection loop, without its argument checks: the
        # same values, and the generator left in the same state
        p = self.p
        k = p.bit_length()
        r = rng.getrandbits(k)
        while r >= p:
            r = rng.getrandbits(k)
        return r

    def __str__(self):
        return f"Fp:{self.p}"


def _split(pairs):
    """Two lists: the first and the second components of raw pairs."""
    return [x[0] for x in pairs], [x[1] for x in pairs]


@dataclass(frozen=True)
class QuadraticExt(RingDescriptor):
    """``base[r]/(r**2 - d)`` over Q or F_p; d must not be a square in base."""

    base: RingDescriptor
    d: object  # raw value of the base ring

    def __post_init__(self):
        if isinstance(self.base, QuadraticExt):
            raise WordmapError("quadratic extensions are single-level only")
        object.__setattr__(self, "d", self.base.canon(self.d))
        if _base_sqrt(self.base, self.d) is not None:
            raise WordmapError(f"{self.d} already has a square root in {self.base}")

    def canon(self, raw):
        if isinstance(raw, tuple):
            a, b = raw
            return (self.base.canon(a), self.base.canon(b))
        return (self.base.canon(raw), self.base.raw_from_int(0))

    def raw_from_int(self, n):
        return (self.base.raw_from_int(n), self.base.raw_from_int(0))

    def radd(self, x, y):
        return (self.base.radd(x[0], y[0]), self.base.radd(x[1], y[1]))

    def rmul(self, x, y):
        a, b = x
        c, e = y
        base = self.base
        return (
            base.radd(base.rmul(a, c), base.rmul(self.d, base.rmul(b, e))),
            base.radd(base.rmul(a, e), base.rmul(b, c)),
        )

    def rdot(self, xs, ys):
        # sum (a + b r)(c + e r) = (a.c + d b.e) + (a.e + b.c) r
        base = self.base
        a, b = _split(xs)
        c, e = _split(ys)
        return (
            base.radd(base.rdot(a, c), base.rmul(self.d, base.rdot(b, e))),
            base.rdot(a + b, e + c),
        )

    def rneg(self, x):
        return (self.base.rneg(x[0]), self.base.rneg(x[1]))

    def rinv(self, x):
        a, b = x
        base = self.base
        norm = base.radd(base.rmul(a, a), base.rneg(base.rmul(self.d, base.rmul(b, b))))
        if base.is_zero_raw(norm):
            raise NotInvertible(f"zero norm in {self}")
        ninv = base.rinv(norm)
        return (base.rmul(a, ninv), base.rmul(base.rneg(b), ninv))

    def rrandom(self, rng):
        return (self.base.rrandom(rng), self.base.rrandom(rng))

    @property
    def root(self) -> "Scalar":
        """The adjoined square root of d."""
        return self.scalar((self.base.raw_from_int(0), self.base.raw_from_int(1)))

    @property
    def symbol(self) -> str:
        """The adjoined root as literals write it: ``i`` or ``sqrt(d)``."""
        return "i" if self.d == self.base.raw_from_int(-1) else f"sqrt({self.d})"

    def __str__(self):
        return f"{self.base}[{self.symbol}]"


def _rpow(mul, x, k: int):
    """x^k for k >= 1 under the product ``mul``, by repeated squaring from x
    itself: k = 1 costs no product.  The one square-and-multiply over ring
    values: ``mul`` is ``rmul`` on raw scalars, an ``rmatmul`` on raw rows or
    walk values, or the product rule on jets (:mod:`wordmap.evaluate`)."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if not k:
            return result
        x = mul(x, x)


@dataclass(frozen=True)
class Scalar:
    ring: RingDescriptor
    value: object

    def _operand(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.radd(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.radd(self.value, self.ring.rneg(o.value)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.rmul(self.value, o.value))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.ring, self.ring.rneg(self.value))

    def __truediv__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        ring, x = self.ring, self.value
        if k < 0:
            x, k = ring.rinv(x), -k
        return Scalar(ring, _rpow(ring.rmul, x, k) if k else ring.raw_from_int(1))

    def inv(self) -> "Scalar":
        return Scalar(self.ring, self.ring.rinv(self.value))

    def is_zero(self) -> bool:
        return self.ring.is_zero_raw(self.value)

    def is_invertible(self) -> bool:
        try:
            self.ring.rinv(self.value)
            return True
        except NotInvertible:
            return False

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({self.ring}, {render_scalar(self)})"


# ---------------------------------------------------------------------------
# primality and factoring

# The first 13 primes, the trial divisors and the Miller-Rabin bases.
# _MR_BOUNDS[k - 1] = psi_k is the least composite that passes Miller-Rabin to
# each of the first k primes (OEIS A014233; Sorenson and Webster, Math. Comp.
# 2017), so below psi_k those k bases prove primality.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
              3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
_MR_BOUND = _MR_BOUNDS[-1]


def _is_prime(n: int) -> bool:
    """Whether n is prime: proven below _MR_BOUND by deterministic Miller-Rabin,
    and from there on BPSW (strong base-2 Miller-Rabin and a strong Lucas
    test; Baillie and Wagstaff, Math. Comp. 1980), with no known counterexample."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True  # no prime factor up to sqrt(n)
    if n < _MR_BOUND:
        k = bisect.bisect_right(_MR_BOUNDS, n) + 1  # the least k with n < psi_k
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES[:k])
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2^s, n passes when U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D and n share a factor
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def halve(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k, Q^k from k = 1 along the bits of d: k -> 2k, then k -> k + 1
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = halve(u + v), halve(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _prime_factors(k: int) -> list:
    """The distinct primes dividing k >= 1, increasing, by trial division up to sqrt(k)."""
    primes, q = [], 2
    while q * q <= k:
        if k % q == 0:
            primes.append(q)
            while k % q == 0:
                k //= q
        q += 1 if q == 2 else 2
    if k > 1:
        primes.append(k)
    return primes


# ---------------------------------------------------------------------------
# square roots and roots of unity


def _base_sqrt(base: RingDescriptor, x):
    """A raw r of Q or F_p with r*r = x, or None.  Over F_p the least such r
    (Tonelli-Shanks), over Q the one >= 0."""
    if isinstance(base, Rationals):
        num, den = math.isqrt(max(x.numerator, 0)), math.isqrt(x.denominator)
        if num * num != x.numerator or den * den != x.denominator:
            return None
        return Fraction(num, den)
    p = base.p
    if x == 0 or p == 2:
        return x
    if pow(x, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def sqrt_in_ring(ring: RingDescriptor, n: int):
    """A scalar s with s*s = n in the ring, or None.

    Over ``base[sqrt(d)]`` this is a root in base if one exists, else
    ``b*sqrt(d)`` with ``b*b = n/d`` (the least such b over F_p).
    """
    if not isinstance(ring, QuadraticExt):
        r = _base_sqrt(ring, ring.raw_from_int(n))
        return None if r is None else ring.scalar(r)
    base = ring.base
    s = sqrt_in_ring(base, n)
    if s is not None:
        return ring.scalar((s.value, base.raw_from_int(0)))
    b = _base_sqrt(base, base.rmul(base.raw_from_int(n), base.rinv(ring.d)))
    return None if b is None else ring.scalar((base.raw_from_int(0), b))


def primitive_root_of_unity(ring: PrimeField, k: int):
    """The least element of F_p of multiplicative order exactly k, or None.

    h = x^((p-1)/k) has exact order k when h^(k/q) != 1 for every prime q | k;
    the elements of order k are then the h^j with gcd(j, k) = 1.
    """
    if not isinstance(ring, PrimeField):
        raise WordmapError("primitive_root_of_unity needs a prime field")
    if k < 1:
        raise WordmapError("order must be positive")
    p = ring.p
    if (p - 1) % k != 0:
        return None
    qs = _prime_factors(k)
    x = 1
    while True:
        h = pow(x, (p - 1) // k, p)
        if all(pow(h, k // q, p) != 1 for q in qs):
            break
        x += 1
    least, power = h, h
    for j in range(2, k):
        power = power * h % p
        if power < least and math.gcd(j, k) == 1:
            least = power
    return ring.scalar(least)


# ---------------------------------------------------------------------------
# reduction mod a prime

# the eight largest primes below 2^61, tried in this order
_REDUCTION_PRIMES = tuple(2**61 - k for k in (1, 31, 45, 229, 259, 283, 339, 391))


def _residue(p: int, x: Fraction) -> int:
    """The image of x in F_p; NotInvertible when p divides its denominator."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return num % p
    if den % p == 0:
        raise NotInvertible(f"{x} has no image mod {p}")
    return num * pow(den, -1, p) % p


def _reductions(ring: RingDescriptor):
    """``(F_p, phi)`` for Q or ``Q[sqrt(d)]``, one per usable p of _REDUCTION_PRIMES, in order.

    phi maps raw values of ``ring`` to raw values of F_p: a/b to a b^-1 and
    sqrt(d) to r, the least root of d mod p from :func:`_base_sqrt`.  A p
    where d is not a square is skipped; phi raises NotInvertible on a
    denominator that p divides.  Other rings (F_p, F_p[sqrt(d)]) yield nothing
    and keep their exact path.

    Soundness.  On the ring R of a + b sqrt(d) with a, b in Z_(p), phi is a
    ring homomorphism onto F_p (it is Z_(p)[t]/(t^2 - d) -> F_p, t -> r), and
    it extends to the localisation O of R at its kernel, whose units are the
    elements with a nonzero image.  So a computation that completes over F_p,
    by ring operations and inverses of elements with a nonzero image, is phi of
    the same computation over the field: wherever the F_p inverse exists, the
    exact inverse is a unit of O.  Every minor of an exact matrix over O maps
    to the same minor of its image, so the rank mod p is at most the exact
    rank.  The primes are fixed and tried in order, with no randomness, so a
    result never depends on a draw.
    """
    if isinstance(ring, Rationals):
        d = None
    elif type(ring) is QuadraticExt and isinstance(ring.base, Rationals):
        d = ring.d
    else:
        return
    for p in _REDUCTION_PRIMES:
        reduction = _reduction(p, d)
        if reduction is not None:
            yield reduction


def _first_reduction(ring: RingDescriptor, attempt):
    """``attempt(F_p, phi)`` at the first reduction of :func:`_reductions`
    where it completes; a prime where it raises NotInvertible (a vanishing
    inverse, or a denominator that p divides) gives way to the next one.
    None when no prime completes, as over F_p."""
    for field, phi in _reductions(ring):
        try:
            return attempt(field, phi)
        except NotInvertible:
            continue
    return None


@cache
def _reduction(p: int, d):
    """``(F_p, phi)`` for Q (d None) or Q[sqrt(d)], or None when sqrt(d) has
    no image mod p; cached, as the primality test of F_p and the root of d
    cost more than a small rank."""
    field = PrimeField(p)
    if d is None:
        return field, partial(_residue, p)
    try:
        r = _base_sqrt(field, _residue(p, d))
    except NotInvertible:
        return None
    return None if r is None else (field, partial(_quadratic_residue, p, r))


def _quadratic_residue(p: int, r: int, x) -> int:
    """The image a + b r in F_p of a raw a + b sqrt(d) of Q[sqrt(d)]."""
    return (_residue(p, x[0]) + r * _residue(p, x[1])) % p


# ---------------------------------------------------------------------------
# ring spec strings and scalar literals

_RING_RE = re.compile(r"^(Q|Fp:(\d+))((\[i\]|\[sqrt\((-?\d+)\)\])?)$")


def parse_ring(spec: str) -> RingDescriptor:
    """Parse a ring spec: ``Q``, ``Fp:13``, ``Q[i]``, ``Fp:7[i]``, ``Q[sqrt(2)]``."""
    m = _RING_RE.match(spec.strip())
    if not m:
        raise WordmapError(f"bad ring spec: {spec!r}")
    base = Rationals() if m.group(1) == "Q" else PrimeField(int(m.group(2)))
    ext = m.group(3)
    if not ext:
        return base
    if ext == "[i]":
        return QuadraticExt(base, base.raw_from_int(-1))
    return QuadraticExt(base, base.raw_from_int(int(m.group(5))))


# a term is a coefficient, a monomial (i or sqrt(d)), or both with an
# optional "*" between
_MONOMIAL = r"(?:i|sqrt\(-?\d+\))"
_TERM_RE = re.compile(
    rf"\s*([+-])?\s*(?:(-?\d+(?:/\d+)?)(?:\s*\*?\s*({_MONOMIAL}))?|({_MONOMIAL}))\s*"
)
# a plain integer, the common literal, is read without the term loop
_INT_RE = re.compile(r"-?\d+")


def parse_scalar(ring: RingDescriptor, text: str) -> Scalar:
    """Parse a scalar literal: integers, ``a/b``, ``i``, ``sqrt(d)``, their
    products such as ``3*i``, and sums thereof.

    A term's coefficient may carry its own sign, so rendered literals such as
    ``1+-2*i`` parse back.
    """
    return Scalar(ring, _parse_raw(ring, text))


def _parse_raw(ring: RingDescriptor, text: str):
    """The raw value of a scalar literal (the grammar of :func:`parse_scalar`).
    A plain integer is one ``int()``; other literals add up their terms."""
    text = text.strip()
    if not text:
        raise WordmapError("empty scalar literal")
    if _INT_RE.fullmatch(text):
        return ring.raw_from_int(int(text))
    result = ring.raw_from_int(0)
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise WordmapError(f"bad scalar literal {text!r} at {pos}")
        sign, coef, mono1, mono2 = m.groups()
        if sign is None and not first:
            raise WordmapError(f"missing sign in scalar literal {text!r}")
        if coef is None:
            term = ring.raw_from_int(1)
        elif "/" in coef:
            num, den = coef.split("/")
            term = ring.rmul(ring.raw_from_int(int(num)), ring.rinv(ring.raw_from_int(int(den))))
        else:
            term = ring.raw_from_int(int(coef))
        mono = mono1 or mono2
        if mono is not None:  # i or sqrt(d)
            s = sqrt_in_ring(ring, -1 if mono == "i" else int(mono[5:-1]))
            if s is None:
                raise RingLacksRoots(f"no {mono} in {ring}")
            term = ring.rmul(term, s.value)
        if sign == "-":
            term = ring.rneg(term)
        result = ring.radd(result, term)
        pos = m.end()
        first = False
    return result


def render_scalar(s: Scalar) -> str:
    """The literal of s, one term per monomial (``1+-2*i``, ``3*sqrt(2)``);
    :func:`parse_scalar` reads it back."""
    ring = s.ring
    if not isinstance(ring, QuadraticExt):
        return str(s.value)
    a, b = s.value
    terms = [(a, str(a)), (b, f"{b}*{ring.symbol}")]
    return "+".join(t for x, t in terms if not ring.base.is_zero_raw(x)) or "0"
