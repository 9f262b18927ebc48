"""Exact coefficient domains: Q, F_p, single quadratic extensions, dual numbers.

A :class:`RingDescriptor` does all arithmetic on canonical raw values, so
equality is bit-exact.  Raw representations:

* ``Rationals``      -- :class:`fractions.Fraction` (always reduced)
* ``PrimeField(p)``  -- ``int`` residue in ``[0, p)``
* ``QuadraticExt``   -- pair ``(a, b)`` of base raws, meaning ``a + b*sqrt(d)``
* ``DualNumbers``    -- pair ``(a, b)`` of base raws, meaning ``a + b*eps`` with ``eps**2 = 0``

The raw protocol is ``radd``, ``rmul``, ``rneg``, ``rinv``, ``is_zero_raw`` and
the fused dot product ``rdot``: one reduction mod p per dot product over F_p,
one :class:`~fractions.Fraction` (one reduction) per dot product over Q, and
for the pair rings a combination of the base ring's ``rdot``.  The matrix kernel works on raw values
only.  A :class:`Scalar` (descriptor plus raw value) is the API-boundary form
of an element, with ring-checked operators.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from sympy import isprime, primefactors

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

    def is_field(self) -> bool:
        return True

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

    def is_zero_raw(self, x) -> bool:
        return x == self.raw_from_int(0)

    def random(self, rng) -> "Scalar":
        """Draw a scalar; deterministic for a fixed rng state."""
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
        # one Fraction built (and reduced) per dot product
        num, den = 0, 1
        for x, y in zip(xs, ys):
            d = x.denominator * y.denominator
            num = num * d + x.numerator * y.numerator * den
            den *= d
        return Fraction(num, den)

    def is_zero_raw(self, x):
        return x == 0

    def random(self, rng):
        return self.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField(RingDescriptor):
    p: int

    def __post_init__(self):
        if not isprime(self.p):
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
        return pow(x, self.p - 2, self.p)

    def rdot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def is_zero_raw(self, x):
        return x == 0

    def random(self, rng):
        return self.scalar(rng.randrange(self.p))

    def __str__(self):
        return f"Fp:{self.p}"


def _has_sqrt(base: RingDescriptor, d) -> bool:
    """Does d have a square root in base?  Euler's criterion for F_p, exact for Q."""
    if isinstance(base, PrimeField):
        return d == 0 or base.p == 2 or pow(d, (base.p - 1) // 2, base.p) == 1
    if isinstance(base, Rationals):
        f = Fraction(d)
        if f < 0:
            return False
        num, den = f.numerator, f.denominator
        return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
    raise WordmapError("quadratic extensions are single-level only")


def _split(pairs):
    """Two lists: the first and the second components of raw pairs."""
    return [x[0] for x in pairs], [x[1] for x in pairs]


@dataclass(frozen=True)
class QuadraticExt(RingDescriptor):
    base: RingDescriptor
    d: object  # raw value of the base ring

    def __post_init__(self):
        if isinstance(self.base, (QuadraticExt, DualNumbers)):
            raise WordmapError("quadratic extensions are single-level only")
        object.__setattr__(self, "d", self.base.canon(self.d))
        if _has_sqrt(self.base, self.d):
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
            raise NotInvertible("zero norm in quadratic extension")
        ninv = base.rinv(norm)
        return (base.rmul(a, ninv), base.rmul(base.rneg(b), ninv))

    def random(self, rng):
        return self.scalar((self.base.random(rng).value, self.base.random(rng).value))

    @property
    def root(self) -> "Scalar":
        """The adjoined square root of d."""
        return self.scalar((self.base.raw_from_int(0), self.base.raw_from_int(1)))

    def __str__(self):
        if self.d == self.base.raw_from_int(-1):
            return f"{self.base}[i]"
        return f"{self.base}[sqrt({self.d})]"


@dataclass(frozen=True)
class DualNumbers(RingDescriptor):
    base: RingDescriptor

    def __post_init__(self):
        if isinstance(self.base, DualNumbers):
            raise WordmapError("dual numbers do not nest")

    def is_field(self) -> bool:
        return False

    def canon(self, raw):
        # over a quadratic base a pair is read as (real, eps) parts
        if isinstance(raw, tuple) and len(raw) == 2:
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
            base.rmul(a, c),
            base.radd(base.rmul(a, e), base.rmul(b, c)),
        )

    def rdot(self, xs, ys):
        # sum (a + b eps)(c + e eps) = a.c + (a.e + b.c) eps
        base = self.base
        a, b = _split(xs)
        c, e = _split(ys)
        return (base.rdot(a, c), base.rdot(a + b, e + c))

    def rneg(self, x):
        return (self.base.rneg(x[0]), self.base.rneg(x[1]))

    def rinv(self, x):
        a, b = x
        if self.base.is_zero_raw(a):
            raise NotInvertible("a + b*eps with a = 0 is a zero divisor")
        ainv = self.base.rinv(a)
        # (a + b eps)^-1 = a^-1 - a^-2 b eps
        return (ainv, self.base.rneg(self.base.rmul(self.base.rmul(ainv, ainv), b)))

    def random(self, rng):
        return self.scalar((self.base.random(rng).value, self.base.random(rng).value))

    @property
    def eps(self) -> "Scalar":
        return self.scalar((self.base.raw_from_int(0), self.base.raw_from_int(1)))

    def lift(self, s: "Scalar") -> "Scalar":
        if s.ring != self.base:
            raise RingMismatch(f"cannot lift {s.ring} into {self}")
        return self.scalar((s.value, self.base.raw_from_int(0)))

    def real_part(self, s: "Scalar") -> "Scalar":
        return Scalar(self.base, s.value[0])

    def eps_part(self, s: "Scalar") -> "Scalar":
        return Scalar(self.base, s.value[1])

    def __str__(self):
        return f"Dual({self.base})"


@dataclass(frozen=True)
class Scalar:
    ring: RingDescriptor
    value: object

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.radd(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.radd(self.value, self.ring.rneg(o.value)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.rmul(self.value, o.value))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.ring, self.ring.rneg(self.value))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.ring.from_int(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
# roots of unity and -1


def _sqrt_mod(n: int, p: int):
    """The least r in [0, p) with r*r = n mod p, or None (Tonelli-Shanks)."""
    n %= p
    if n == 0 or p == 2:
        return n
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def sqrt_minus_one(ring: RingDescriptor):
    """A scalar s with s*s = -1 in the ring, or None if no such s exists."""
    if isinstance(ring, Rationals):
        return None
    if isinstance(ring, PrimeField):
        r = _sqrt_mod(-1, ring.p)
        return None if r is None else ring.scalar(r)
    if isinstance(ring, QuadraticExt):
        s = sqrt_minus_one(ring.base)
        if s is not None:
            return ring.scalar((s.value, ring.base.raw_from_int(0)))
        # (b*sqrt(d))^2 = d b^2 = -1  <=>  b^2 = -1/d
        base = ring.base
        target = base.rneg(base.rinv(ring.d))
        if isinstance(base, PrimeField):
            b = _sqrt_mod(target, base.p)
            return None if b is None else ring.scalar((base.raw_from_int(0), b))
        if isinstance(base, Rationals):
            f = Fraction(target)
            if f >= 0 and _has_sqrt(base, f):
                num = math.isqrt(f.numerator)
                den = math.isqrt(f.denominator)
                return ring.scalar((Fraction(0), Fraction(num, den)))
            return None
    raise WordmapError(f"sqrt_minus_one not supported for {ring}")


def sqrt_in_ring(ring: RingDescriptor, n: int):
    """A scalar s with s*s = n, or None.  Used for sqrt(2) in Lemma-101 style checks."""
    if isinstance(ring, PrimeField):
        r = _sqrt_mod(n, ring.p)
        return None if r is None else ring.scalar(r)
    if isinstance(ring, Rationals):
        if n >= 0 and _has_sqrt(ring, Fraction(n)):
            return ring.scalar(Fraction(math.isqrt(n)))
        return None
    if isinstance(ring, QuadraticExt):
        s = sqrt_in_ring(ring.base, n)
        if s is not None:
            return ring.scalar((s.value, ring.base.raw_from_int(0)))
        if ring.d == ring.base.raw_from_int(n):
            return ring.root
        return None
    raise WordmapError(f"sqrt_in_ring not supported for {ring}")


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
    qs = primefactors(k)
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


_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(-?\d+(?:/\d+)?)\s*\*?\s*(i|sqrt\((-?\d+)\))?|(i|sqrt\((-?\d+)\)))\s*"
)


def parse_scalar(ring: RingDescriptor, text: str) -> Scalar:
    """Parse a scalar literal: integers, ``a/b``, ``i``, ``sqrt(d)`` and sums thereof.

    A term's coefficient may carry its own sign, so rendered literals such as
    ``1+-2*i`` parse back.
    """
    text = text.strip()
    if not text:
        raise WordmapError("empty scalar literal")
    result = ring.zero
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise WordmapError(f"bad scalar literal {text!r} at {pos}")
        sign, coef, root1, d1, root2, d2 = m.groups()
        if sign is None and not first:
            raise WordmapError(f"missing sign in scalar literal {text!r}")
        term = ring.one
        if coef is not None:
            if "/" in coef:
                num, den = coef.split("/")
                term = ring.from_int(int(num)) / ring.from_int(int(den))
            else:
                term = ring.from_int(int(coef))
        root = root1 or root2
        if root is not None:
            if root == "i":
                s = sqrt_minus_one(ring)
                if s is None:
                    raise RingLacksRoots(f"no i in {ring}")
            else:
                d = int(d1 if d1 is not None else d2)
                s = sqrt_in_ring(ring, d)
                if s is None:
                    raise RingLacksRoots(f"no sqrt({d}) in {ring}")
            term = term * s
        if sign == "-":
            term = -term
        result = result + term
        pos = m.end()
        first = False
    return result


def render_scalar(s: Scalar) -> str:
    ring = s.ring
    if isinstance(ring, Rationals):
        return str(s.value)
    if isinstance(ring, PrimeField):
        return str(s.value)
    if isinstance(ring, (QuadraticExt, DualNumbers)):
        a, b = s.value
        sa = render_scalar(Scalar(ring.base, a))
        sb = render_scalar(Scalar(ring.base, b))
        if isinstance(ring, QuadraticExt):
            sym = "i" if ring.d == ring.base.raw_from_int(-1) else f"sqrt({ring.d})"
        else:
            sym = "eps"
        if sb == "0":
            return sa
        if sa == "0":
            return f"{sb}*{sym}"
        return f"{sa}+{sb}*{sym}"
    raise WordmapError(f"cannot render {ring}")
