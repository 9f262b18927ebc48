"""Ring arithmetic: axioms at random, roots of unity, literals, and primality
and factoring against sympy."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import divisors, isprime, nextprime, primefactors, primerange

from wordmap import rings
from wordmap import (
    NotInvertible,
    PrimeField,
    QuadraticExt,
    Rationals,
    RingLacksRoots,
    Scalar,
    WordmapError,
    parse_ring,
    parse_scalar,
    primitive_root_of_unity,
    render_scalar,
    sqrt_in_ring,
)

from jet_oracle import DualNumbers
from scalar_parse_oracle import boxed_parse_scalar

Q = Rationals()
F13 = PrimeField(13)
F17 = PrimeField(17)
F101 = PrimeField(101)
QI = QuadraticExt(Q, Fraction(-1))
F13I = QuadraticExt(PrimeField(7), 3)  # 3 is a non-square mod 7
DQ = DualNumbers(Q)


RINGS = [Q, F13, F101, QI, F13I, DQ, DualNumbers(QI), DualNumbers(F13I)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ring_axioms_random(ring):
    rng = random.Random(2024)
    zero, one = ring.zero, ring.one
    for _ in range(1000):
        a = ring.scalar(ring.rrandom(rng))
        b = ring.scalar(ring.rrandom(rng))
        c = ring.scalar(ring.rrandom(rng))
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


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_rrandom_draws_canonical_raw_values(ring):
    # the probes deduplicate raw values with ==, so a draw must be canonical
    rng = random.Random(7)
    for _ in range(200):
        x = ring.rrandom(rng)
        assert ring.canon(x) == x
        assert type(ring.canon(x)) is type(x)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65537, 1000003, 2**61 - 1, 2**127 - 1])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_prime_field_draws_are_randranges(p, seed):
    # F_p draws by randrange's rejection loop, so every seeded output over F_p
    # stays the same on each Python: the same values, the same final state
    ring, mine, theirs = PrimeField(p), random.Random(seed), random.Random(seed)
    assert [ring.rrandom(mine) for _ in range(2000)] == [theirs.randrange(p) for _ in range(2000)]
    assert mine.getstate() == theirs.getstate()


def test_field_vs_non_field():
    rng = random.Random(57)
    for ring in (Q, F13, QI):
        for _ in range(50):
            a = ring.scalar(ring.rrandom(rng))
            if not a.is_zero():
                assert a * a.inv() == ring.one
    # eps is a nonzero zero divisor, so Dual(Q) is not a field
    assert not DQ.root.is_zero() and (DQ.root * DQ.root).is_zero()
    with pytest.raises(NotInvertible):
        DQ.root.inv()


@pytest.mark.parametrize("p", [2, 3, 1000003, 2**61 - 1])
@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(x=st.integers(-(2**70), 2**70))
def test_prime_field_inverse_matches_fermat(p, x):
    assume(x % p)
    inv = PrimeField(p).rinv(x)
    assert inv * x % p == 1
    assert inv == pow(x, p - 2, p)  # Fermat: x^(p-1) = 1 for x != 0


@pytest.mark.parametrize("p", [2, 3, 1000003, 2**61 - 1])
def test_prime_field_inverse_of_zero_raises(p):
    for zero in (0, p, -3 * p):
        with pytest.raises(NotInvertible, match=f"^0 has no inverse in F_{p}$"):
            PrimeField(p).rinv(zero)


def test_dual_number_law():
    eps = DQ.root
    assert (eps * eps).is_zero()
    a = DQ.scalar((Fraction(3), Fraction(5)))  # 3 + 5 eps
    inv = a.inv()
    assert a * inv == DQ.one
    # (a + b eps)^-1 = 1/a - b/a^2 eps
    assert inv.value[0] == Fraction(1, 3)
    assert inv.value[1] == Fraction(-5, 9)
    with pytest.raises(NotInvertible):
        eps.inv()


@pytest.mark.parametrize("dual", [DQ, DualNumbers(F13), DualNumbers(QI), DualNumbers(F13I)], ids=str)
def test_dual_products_match_the_general_quadratic_forms(dual):
    # the d = 0 rmul/rdot are shortcuts of QuadraticExt's general forms
    rng = random.Random(11)
    for _ in range(200):
        x, y = dual.rrandom(rng), dual.rrandom(rng)
        assert dual.rmul(x, y) == QuadraticExt.rmul(dual, x, y)
        xs = [dual.rrandom(rng) for _ in range(4)]
        ys = [dual.rrandom(rng) for _ in range(4)]
        assert dual.rdot(xs, ys) == QuadraticExt.rdot(dual, xs, ys)


def test_dual_first_derivative():
    # f(x) = x^3 at 2 + eps: value 8, derivative 12
    x = DQ.lift(Q.from_int(2)) + DQ.root
    y = x ** 3
    assert y.value[0] == 8
    assert y.value[1] == 12


def test_sqrt_minus_one_iff_p_1_mod_4():
    for p in range(3, 100, 2):
        if not isprime(p):
            continue
        s = sqrt_in_ring(PrimeField(p), -1)
        if p % 4 == 1:
            assert s is not None and s * s == PrimeField(p).from_int(-1)
        else:
            assert s is None


def test_sqrt_minus_one_examples():
    assert sqrt_in_ring(F13, -1) == F13.from_int(5)
    assert sqrt_in_ring(F17, -1) == F17.from_int(4)
    assert sqrt_in_ring(Q, -1) is None
    i = sqrt_in_ring(QI, -1)
    assert i is not None and i * i == QI.from_int(-1)


def test_sqrt_in_ring():
    assert sqrt_in_ring(F17, 2) == F17.from_int(6)
    assert sqrt_in_ring(Q, 9) == Q.from_int(3)
    assert sqrt_in_ring(Q, 2) is None
    q2 = parse_ring("Q[sqrt(2)]")
    r = sqrt_in_ring(q2, 2)
    assert r is not None and r * r == q2.from_int(2)
    assert sqrt_in_ring(q2, 3) is None  # 3/2 is no square in Q
    # off the base a root is b*sqrt(d): (3i)^2 = 2 in F_11[i], (sqrt(8)/2)^2 = 2
    f11i = parse_ring("Fp:11[i]")
    assert sqrt_in_ring(f11i, 2) == f11i.from_int(3) * f11i.root
    q8 = parse_ring("Q[sqrt(8)]")
    assert sqrt_in_ring(q8, 2) == parse_scalar(q8, "sqrt(2)") == q8.root / 2


def test_every_element_of_f_p_is_a_square_in_f_p2():
    # F_p^2 = F_p[i] for p = 3 mod 4, and F_p* lies in the squares of its cyclic group
    for p in primerange(3, 200):
        if p % 4 != 3:
            continue
        ring = parse_ring(f"Fp:{p}[i]")
        for n in range(p):
            s = sqrt_in_ring(ring, n)
            assert s is not None and s * s == ring.from_int(n)


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
        s = sqrt_in_ring(f, -1)
        expected = _least_square_root(-1, p)
        assert (s is None) == (expected is None) and (s is None or s.value == expected)
        if p % 4 == 3:
            # no i in F_p: i = b*sqrt(d) with b^2 = -1/d for the least non-square d
            d = next(x for x in range(2, p) if _least_square_root(x, p) is None)
            ext = QuadraticExt(f, d)
            target = (-pow(d, p - 2, p)) % p
            assert sqrt_in_ring(ext, -1).value == (0, _least_square_root(target, p))


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
    i = sqrt_in_ring(f, -1)
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


def test_eps_is_no_scalar_literal():
    cases = [(ring, text) for ring in (Q, F13, QI) for text in ("eps", "1+eps", "2*eps")]
    for ring, text in cases + [(QI, "3*i*eps")]:
        with pytest.raises(WordmapError, match="bad scalar literal"):
            parse_scalar(ring, text)


LITERAL_RINGS = [Q, F101, parse_ring("Fp:7[i]"), QI, parse_ring("Q[sqrt(2)]")]


def _outcome(parse, ring, text):
    """("ok", repr of the raw value) or (exception type, message)."""
    try:
        value = parse(ring, text)
    except Exception as exc:  # every error is compared, type and message
        return type(exc), str(exc)
    return "ok", repr(value.value if isinstance(value, Scalar) else value)


def _assert_parses_like_the_oracle(ring, text):
    expected = _outcome(boxed_parse_scalar, ring, text)
    assert _outcome(parse_scalar, ring, text) == expected, (ring, text)
    assert _outcome(rings._parse_raw, ring, text) == expected, (ring, text)


_pad = st.sampled_from(["", " ", "  "])
_int = st.integers(-10**30, 10**30).map(str)
_coef = st.one_of(_int, st.builds("{}/{}".format, _int, st.integers(0, 40)))
_mono = st.one_of(st.just("i"), st.integers(-12, 12).map("sqrt({})".format))
_term = st.one_of(
    _coef,
    _mono,
    st.builds("{}{}{}{}".format, _coef, _pad, st.sampled_from(["*", ""]), _mono),
)
_sign = st.sampled_from(["", "+", "-", "+ ", "- "])


@st.composite
def _literals(draw):
    """Sums of terms in the literal grammar, signed and space-padded, and
    now and then a missing sign or a stray character."""
    terms = draw(st.lists(st.tuples(_sign, _term), min_size=1, max_size=4))
    text = "".join(f"{sign}{draw(_pad)}{term}{draw(_pad)}" for sign, term in terms)
    return draw(_pad) + text + draw(st.sampled_from(["", "", "", "x", "_0", "*", "/"]))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(ring=st.sampled_from(LITERAL_RINGS), text=_literals())
def test_raw_literal_parse_matches_the_boxed_oracle(ring, text):
    _assert_parses_like_the_oracle(ring, text)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(ring=st.sampled_from(LITERAL_RINGS), text=st.text("0123456789+-*/ isqrt()_x", max_size=10))
def test_raw_literal_parse_matches_the_boxed_oracle_on_any_text(ring, text):
    _assert_parses_like_the_oracle(ring, text)


@pytest.mark.parametrize("ring", LITERAL_RINGS, ids=str)
@pytest.mark.parametrize("text", [
    "0", "-0", "7", "-7", " 12 ", "+5", "- 5", "--5", "007", "1_000", "", "   ", "x",
    "1/0", "3*i", "3 i", "i", "-i", "sqrt(2)", "2*sqrt(2)", "1+-2*i", "1 -2", "1 2",
    "-3/4", "3/-4", "12345678901234567890123", "9" * 5000,
])
def test_raw_literal_parse_matches_the_boxed_oracle_on_edge_cases(ring, text):
    _assert_parses_like_the_oracle(ring, text)


def test_raw_literal_parse_errors_over_q():
    # the messages that matrix arguments report, pinned on both parsers
    for text, error, message in [
        ("1_000", WordmapError, "bad scalar literal '1_000' at 1"),
        ("", WordmapError, "empty scalar literal"),
        ("x", WordmapError, "bad scalar literal 'x' at 0"),
        ("1/0", NotInvertible, "0 has no inverse in Q"),
        ("3*i", RingLacksRoots, "no i in Q"),
    ]:
        for parse in (boxed_parse_scalar, parse_scalar, rings._parse_raw):
            assert _outcome(parse, Q, text) == (error, message)


def test_scalar_pow_and_hash():
    a = F13.from_int(2)
    assert a ** 12 == F13.one  # Fermat
    assert a ** -1 == a.inv()
    assert len({F13.from_int(3), F13.from_int(16)}) == 1


@pytest.mark.parametrize("ring", [F101, Q, QI], ids=str)
def test_division_into_an_int_and_only_an_int(ring):
    s = ring.from_int(3)
    assert 1 / s == s.inv()
    assert 2 / s == ring.from_int(2) * s.inv()
    # a float or a Fraction is no element of the ring, so Scalar does not
    # coerce it: 2.5 / Scalar(Fp:101, 3) once gave the raw value 85.0
    for other in (2.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            other / s


# ---------------------------------------------------------------------------
# primality and factoring against sympy

# composites that pass Miller-Rabin to base 2 (below 10**5)
STRONG_BASE2_PSEUDOPRIMES = [
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
    74665, 80581, 85489, 88357, 90751,
]
# composites that pass the strong Lucas test with Selfridge's parameters (below 10**5)
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
]
# Arnault (1993, 1995): strong pseudoprimes to many prime bases
ARNAULT_1993 = int(
    "803837457453639491257079614341942108138837688287558145837488917522297"
    "427376533365218650233616396004545791504202360320876656996676098728404"
    "396540823292873879185086916685732826776177102938969773947016708230428"
    "687109997439976544144845341155872450633409279022275296229414984230688"
    "1685404326457534018329786111298960644845216191652872597534901"
)
ARNAULT_1995 = int(
    "288714823805077121267142959713039399197760945927972270092651602419743"
    "230379915273311632898314463922594197780311092934965557841894944174093"
    "380561511397999942154241693397290542371100275104208013496673175515285"
    "922696291677532547504444585610194940420003990443211677661994962953925"
    "045269871932907037356403227370127845389912612030924484149472897688540"
    "6024976768122077071687938121709811322297802059565867"
)
HARD_COMPOSITES = [
    561, 41041, 825265,  # Carmichael numbers
    2152302898747, 3474749660383, 341550071728321, 9188353522314541,
    3825123056546413051,  # strong pseudoprime to the first 9 prime bases
    318665857834031151167461,  # ... to the first 12
    3317044064679887385961981,  # ... to the first 13: the first n that takes BPSW
    877777777777777777777777, 564132928021909221014087501701,
    ARNAULT_1993, ARNAULT_1995, 2**601 - 1,
    *STRONG_BASE2_PSEUDOPRIMES, *STRONG_LUCAS_PSEUDOPRIMES,
]
HARD_PRIMES = [
    1000000000061, 179424673, 20678048681, 1968188556461, 2614941710599,
    65635624165761929287, 1162566711635022452267983,
    77123077103005189615466924501, 3991617775553178702574451996736229,
    273952953553395851092382714516720001799,
    2**61 - 1, 2**89 - 1, 2**127 - 1, 2**521 - 1, 2**607 - 1,
]


def test_is_prime_matches_sympy_below_10_6():
    assert [n for n in range(10**6) if rings._is_prime(n) != isprime(n)] == []


def test_is_prime_matches_a_sieve_below_10_5():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, math.isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n, q))
    assert [k for k in range(n) if rings._is_prime(k) != sieve[k]] == []


@pytest.mark.parametrize("k", range(1, len(rings._MR_BOUNDS) + 1))
def test_psi_k_passes_the_first_k_bases_and_is_rejected(k):
    # psi_k is a strong pseudoprime to the first k prime bases, so _is_prime
    # must take more bases there than below it
    psi = rings._MR_BOUNDS[k - 1]
    assert not isprime(psi)
    assert all(rings._strong_probable_prime(psi, a) for a in rings._SMALL_PRIMES[:k])
    assert not rings._is_prime(psi)


@pytest.mark.parametrize("p,bases", [(1847, 0), (1999, 1), (2053, 2), (1000003, 2), (2**31 - 1, 4)])
def test_is_prime_takes_the_bases_its_size_needs(monkeypatch, p, bases):
    calls = []
    original = rings._strong_probable_prime

    def spy(n, a):
        calls.append(a)
        return original(n, a)

    monkeypatch.setattr(rings, "_strong_probable_prime", spy)
    assert rings._is_prime(p)
    assert calls == list(rings._SMALL_PRIMES[:bases])


def test_bpsw_path_matches_sympy_below_10_5(monkeypatch):
    # every n past trial division takes the path used at and above _MR_BOUND
    monkeypatch.setattr(rings, "_MR_BOUND", 0)
    assert [n for n in range(10**5) if rings._is_prime(n) != isprime(n)] == []


def test_strong_pseudoprimes_below_10_5():
    odd = range(3, 10**5, 2)
    assert [n for n in odd if rings._strong_probable_prime(n, 2) != isprime(n)] == (
        STRONG_BASE2_PSEUDOPRIMES
    )
    assert [n for n in odd if rings._strong_lucas_probable_prime(n) != isprime(n)] == (
        STRONG_LUCAS_PSEUDOPRIMES
    )


@pytest.mark.parametrize("n", HARD_COMPOSITES, ids=lambda n: str(n)[:24])
def test_hard_composites(n):
    assert not isprime(n)
    assert not rings._is_prime(n)


@pytest.mark.parametrize("n", HARD_PRIMES, ids=lambda n: str(n)[:24])
def test_hard_primes(n):
    assert isprime(n)
    assert rings._is_prime(n)
    assert PrimeField(n).p == n


primality = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@primality
@given(st.integers(0, 2**256))
def test_is_prime_matches_sympy_up_to_2_256(n):
    assert rings._is_prime(n) == isprime(n)
    p = nextprime(n)
    assert rings._is_prime(p)


@primality
@given(st.integers(1, 2**128), st.integers(1, 2**128))
def test_odd_composites_are_not_prime(a, b):
    assert not rings._is_prime((2 * a + 1) * (2 * b + 1))


@primality
@given(st.integers(2, 128).flatmap(
    lambda bits: st.tuples(*[st.integers(2 ** (bits - 1), 2**bits - 1)] * 2)
))
def test_products_of_two_primes_of_one_size_are_not_prime(pair):
    p, q = (nextprime(x) for x in pair)
    assert rings._is_prime(p) and rings._is_prime(q)
    assert not rings._is_prime(p * q)


def test_prime_factors_match_sympy_to_10_5():
    assert [k for k in range(1, 10**5 + 1) if rings._prime_factors(k) != primefactors(k)] == []
