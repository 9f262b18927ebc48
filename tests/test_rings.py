"""Ring arithmetic: axioms at random, roots of unity, literals."""

import random
from fractions import Fraction

import pytest
from sympy import divisors, isprime, primerange

from wordmap import (
    DualNumbers,
    NotInvertible,
    PrimeField,
    QuadraticExt,
    Rationals,
    Scalar,
    WordmapError,
    parse_ring,
    parse_scalar,
    primitive_root_of_unity,
    render_scalar,
    sqrt_in_ring,
    sqrt_minus_one,
)

Q = Rationals()
F13 = PrimeField(13)
F17 = PrimeField(17)
F101 = PrimeField(101)
QI = QuadraticExt(Q, Fraction(-1))
F13I = QuadraticExt(PrimeField(7), 3)  # 3 is a non-square mod 7
DQ = DualNumbers(Q)


RINGS = [Q, F13, F101, QI, F13I, DQ]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ring_axioms_random(ring):
    rng = random.Random(2024)
    zero, one = ring.zero, ring.one
    for _ in range(1000):
        a = ring.random(rng)
        b = ring.random(rng)
        c = ring.random(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a.is_invertible():
            assert a * a.inv() == one


def test_field_vs_non_field():
    assert Q.is_field() and F13.is_field() and QI.is_field()
    assert not DQ.is_field()


def test_dual_number_law():
    eps = DQ.eps
    assert (eps * eps).is_zero()
    a = DQ.scalar((Fraction(3), Fraction(5)))  # 3 + 5 eps
    inv = a.inv()
    assert a * inv == DQ.one
    # (a + b eps)^-1 = 1/a - b/a^2 eps
    assert DQ.real_part(inv) == Q.scalar(Fraction(1, 3))
    assert DQ.eps_part(inv) == Q.scalar(Fraction(-5, 9))
    with pytest.raises(NotInvertible):
        eps.inv()


def test_dual_first_derivative():
    # f(x) = x^3 at 2 + eps: value 8, derivative 12
    x = DQ.lift(Q.from_int(2)) + DQ.eps
    y = x ** 3
    assert DQ.real_part(y) == Q.from_int(8)
    assert DQ.eps_part(y) == Q.from_int(12)


def test_sqrt_minus_one_iff_p_1_mod_4():
    for p in range(3, 100, 2):
        if not isprime(p):
            continue
        s = sqrt_minus_one(PrimeField(p))
        if p % 4 == 1:
            assert s is not None and s * s == PrimeField(p).from_int(-1)
        else:
            assert s is None


def test_sqrt_minus_one_examples():
    assert sqrt_minus_one(F13) == F13.from_int(5)
    assert sqrt_minus_one(F17) == F17.from_int(4)
    assert sqrt_minus_one(Q) is None
    i = sqrt_minus_one(QI)
    assert i is not None and i * i == QI.from_int(-1)


def test_sqrt_in_ring():
    assert sqrt_in_ring(F17, 2) == F17.from_int(6)
    assert sqrt_in_ring(Q, 9) == Q.from_int(3)
    assert sqrt_in_ring(Q, 2) is None
    q2 = parse_ring("Q[sqrt(2)]")
    r = sqrt_in_ring(q2, 2)
    assert r is not None and r * r == q2.from_int(2)


def test_primitive_root_of_unity():
    F11 = PrimeField(11)
    z = primitive_root_of_unity(F11, 5)
    assert z == F11.from_int(3)
    assert z ** 5 == F11.one and z != F11.one
    assert primitive_root_of_unity(F11, 7) is None
    assert primitive_root_of_unity(F101, 5) is not None


def _least_square_root(n, p):
    return next((x for x in range(p) if (x * x - n) % p == 0), None)


def test_square_roots_match_scan_below_500():
    for p in primerange(2, 500):
        f = PrimeField(p)
        for n in (-1, 2, 3, 5, 7):
            s = sqrt_in_ring(f, n)
            expected = _least_square_root(n, p)
            assert (s is None) == (expected is None) and (s is None or s.value == expected)
        s = sqrt_minus_one(f)
        expected = _least_square_root(-1, p)
        assert (s is None) == (expected is None) and (s is None or s.value == expected)
        if p % 4 == 3:
            # no i in F_p: i = b*sqrt(d) with b^2 = -1/d for the least non-square d
            d = next(x for x in range(2, p) if _least_square_root(x, p) is None)
            ext = QuadraticExt(f, d)
            target = (-pow(d, p - 2, p)) % p
            assert sqrt_minus_one(ext).value == (0, _least_square_root(target, p))


def test_primitive_roots_match_scan_below_500():
    for p in primerange(2, 500):
        f = PrimeField(p)
        order = {}
        for x in range(1, p):
            order.setdefault(min(d for d in divisors(p - 1) if pow(x, d, p) == 1), x)
        for k in divisors(p - 1):
            assert primitive_root_of_unity(f, k).value == order[k]
        assert primitive_root_of_unity(f, p) is None


def test_roots_for_a_prime_above_10_12():
    p = 1000000000061  # p = 1 mod 4; p - 1 = 2^2 * 5 * 3947 * 12667849
    f = PrimeField(p)
    i = sqrt_minus_one(f)
    assert (i.value * i.value + 1) % p == 0 and i.value <= p - i.value
    r = sqrt_in_ring(f, 5)
    assert r is not None and (r.value * r.value - 5) % p == 0 and r.value <= p - r.value
    for k, primes in ((4, (2,)), (3947, (3947,)), (20, (2, 5))):
        z = primitive_root_of_unity(f, k).value
        assert pow(z, k, p) == 1 and all(pow(z, k // q, p) != 1 for q in primes)
    assert str(parse_ring("Fp:1000000000039[i]")) == "Fp:1000000000039[i]"  # p = 3 mod 4


def test_single_level_extension_only():
    with pytest.raises(WordmapError):
        QuadraticExt(QI, (Fraction(2), Fraction(0)))
    with pytest.raises(WordmapError):
        QuadraticExt(Q, Fraction(4))  # already a square
    with pytest.raises(WordmapError):
        DualNumbers(DualNumbers(Q))


def test_parse_ring():
    assert parse_ring("Q") == Q
    assert parse_ring("Fp:13") == F13
    assert str(parse_ring("Fp:7[i]")) == "Fp:7[i]"
    assert str(parse_ring("Q[sqrt(2)]")) == "Q[sqrt(2)]"
    with pytest.raises(WordmapError):
        parse_ring("Fp:12")
    with pytest.raises(WordmapError):
        parse_ring("Zmod:6")


def test_scalar_literals_round_trip():
    for text, ring, expect in [
        ("5", Q, Q.from_int(5)),
        ("-3/4", Q, Q.scalar(Fraction(-3, 4))),
        ("7", F13, F13.from_int(7)),
        ("i", QI, QI.root),
        ("2+3*i", QI, QI.from_int(2) + QI.from_int(3) * QI.root),
        ("sqrt(2)", parse_ring("Q[sqrt(2)]"), parse_ring("Q[sqrt(2)]").root),
    ]:
        s = parse_scalar(ring, text)
        assert s == expect
        assert parse_scalar(ring, render_scalar(s)) == s


def test_scalar_pow_and_hash():
    a = F13.from_int(2)
    assert a ** 12 == F13.one  # Fermat
    assert a ** -1 == a.inv()
    assert len({F13.from_int(3), F13.from_int(16)}) == 1
