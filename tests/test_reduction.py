"""Ranks over Q and Q[sqrt(d)] taken mod a prime, against the exact path.

With no reduction primes wordmap takes the exact path, so patching
``rings._REDUCTION_PRIMES`` to ``()`` gives the oracle.  Patching it to small
primes makes denominators vanish and ranks drop, so that the fallback runs.
"""

import contextlib
import io
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import prevprime

from wordmap import NotInvertible, WordmapError, det, dominance_probe, evaluate, geometry, rings
from wordmap.cli import main
from wordmap.geometry import COMPONENT_IDS, component, dimension_certificate
from wordmap.matrices import matrix_from_json, random_sl2
from wordmap.rings import (
    PrimeField,
    QuadraticExt,
    Rationals,
    _reductions,
    parse_ring,
)
from wordmap.words import ConstLetter, EmptyInnerWord, parse, word

from jet_oracle import DualNumbers

Q = Rationals()
SPECS = ("Q", "Q[i]", "Q[sqrt(2)]")
# each tuple makes some reductions fail or fall short: 3 and 5 divide small
# denominators, ranks drop more often mod a small prime, and -1 and 2 are
# squares mod some of them only
SMALL_PRIMES = ((3, 5, 13), (5,), (7,), (13, 17))


def with_primes(primes):
    return mock.patch.object(rings, "_REDUCTION_PRIMES", tuple(primes))


def exact():
    return with_primes(())


@contextlib.contextmanager
def jet_rings():
    """The rings of every jet sweep and fiber Jacobian taken inside, in order."""
    seen = []
    sweep, jacobian = evaluate.jet_sweep, geometry.jet_jacobian

    def spy_sweep(w, point):
        seen.append(point[0].ring)
        return sweep(w, point)

    def spy_jacobian(w, point, equations="W"):
        seen.append(point[0].ring)
        return jacobian(w, point, equations)

    with mock.patch.object(evaluate, "jet_sweep", spy_sweep), \
            mock.patch.object(geometry, "jet_jacobian", spy_jacobian):
        yield seen


# ---------------------------------------------------------------------------
# the reduction


def test_reduction_primes_are_the_eight_largest_below_2_61():
    expected, p = [], 2**61
    while len(expected) < 8:
        p = prevprime(p)
        expected.append(p)
    assert rings._REDUCTION_PRIMES == tuple(expected)


@pytest.mark.parametrize(
    "ring",
    [PrimeField(101), parse_ring("Fp:7[i]"), DualNumbers(Q), DualNumbers(parse_ring("Q[i]"))],
    ids=str,
)
def test_finite_and_dual_rings_have_no_reduction(ring):
    assert list(_reductions(ring)) == []


def test_a_prime_where_d_is_not_a_square_is_skipped():
    def primes(spec):
        return [field.p for field, _phi in _reductions(parse_ring(spec))]

    assert primes("Q") == list(rings._REDUCTION_PRIMES)
    assert primes("Q[i]")[0] == 2**61 - 31  # 2^61 - 1 = 3 mod 4
    assert primes("Q[sqrt(2)]")[0] == 2**61 - 1
    with with_primes((3, 5, 7, 13, 17)):
        assert primes("Q[i]") == [5, 13, 17]
        assert primes("Q[sqrt(2)]") == [7, 17]
        # sqrt(-3) goes to 0 mod 3, where d = 0
        assert primes("Q[sqrt(-3)]") == [3, 7, 13]


_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    st.sampled_from(SPECS + ("Q[sqrt(-3)]", "Q[sqrt(5/4)]")),
    st.sampled_from([None, 3, 5, 7, 11, 13, 17, 19]),
    st.tuples(_FRACTIONS, _FRACTIONS),
    st.tuples(_FRACTIONS, _FRACTIONS),
)
def test_the_reduction_is_a_ring_homomorphism(spec, small, xs, ys):
    ring = QuadraticExt(Q, Fraction(5, 4)) if spec == "Q[sqrt(5/4)]" else parse_ring(spec)
    with with_primes(rings._REDUCTION_PRIMES if small is None else (small,)):
        reductions = list(_reductions(ring))
    assume(reductions)
    field, phi = reductions[0]
    p = field.p

    def in_r(v):
        """Whether phi is defined at v: no denominator divisible by p."""
        return all(part.denominator % p for part in ((v,) if ring == Q else v))

    x, y = (v[0] if ring == Q else ring.canon(v) for v in (xs, ys))
    if not in_r(x):
        with pytest.raises(NotInvertible):
            phi(x)
        return
    assume(in_r(y))
    if ring != Q:
        r = phi(ring.root.value)
        assert r * r % p == phi(ring.canon(ring.d))
    assert phi(ring.radd(x, y)) == (phi(x) + phi(y)) % p
    assert phi(ring.rmul(x, y)) == phi(x) * phi(y) % p
    assert phi(ring.rneg(x)) == -phi(x) % p
    assert phi(ring.raw_from_int(1)) == 1
    if phi(x):
        inverse = ring.rinv(x)
        # over Q[sqrt(d)] the inverse of an element with a nonzero image may
        # leave R, though it is a unit of the local ring
        if ring == Q or in_r(inverse):
            assert phi(inverse) == pow(phi(x), -1, p)


# ---------------------------------------------------------------------------
# dominance


def _special_points(ring):
    rows = ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]], [[1, 1], [0, 1]],
            [["2", "0"], ["0", "1/2"]], [["5", "1"], ["-1", "0"]])
    return [matrix_from_json(ring, r) for r in rows]


# words in one to three generators; one-generator words at the special
# points are where ranks drop most.  A word may hold the constants s1 and s2.
_CONSTANTS = st.builds(ConstLetter, st.sampled_from(["s1", "s2"]), st.booleans())
_WORDS = st.integers(1, 3).flatmap(lambda m: st.lists(st.one_of(
    st.tuples(st.integers(1, m), st.sampled_from([-3, -2, -1, 1, 2, 3, 4])), _CONSTANTS,
), min_size=1, max_size=6))


def _small_invertible(ring, rng):
    """A random invertible matrix with entries of denominator at most 3: the
    small primes divide some denominators and make some of them singular."""
    while True:
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)]
                for _ in range(2)]
        m = matrix_from_json(ring, [[str(v) for v in row] for row in rows])
        if det(m).is_invertible():
            return m


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    st.sampled_from(SPECS),
    st.sampled_from((rings._REDUCTION_PRIMES,) + SMALL_PRIMES),
    _WORDS,
    st.lists(st.integers(-1, 5), min_size=3, max_size=3),
    st.integers(0, 2**32),
)
def test_dominance_mod_p_matches_the_exact_path(spec, primes, items, picks, seed):
    try:
        w = word(items)
    except EmptyInnerWord:
        assume(False)
    ring = parse_ring(spec)
    rng = random.Random(seed)
    special = _special_points(ring)
    # a pick of -1 draws a random point
    point = [random_sl2(ring, rng) if k < 0 else special[k] for k in picks]
    point = point[:max(w.max_generator(), 1)]
    w = w.with_binding({c: _small_invertible(ring, rng) for c in ("s1", "s2")})
    with exact():
        expected = dominance_probe(w, point)
    with with_primes(primes):
        assert dominance_probe(w, point) == expected


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize(
    "text,picks,expected",
    [
        ("[x,y]", (0, 0), 0),  # the identity pair
        ("[x,y]", (4, 4), 2),  # a torus pair
        ("x^2", (2,), 1),  # the Weyl element squares to -1
        ("x^4 y^2", (2, 2), 1),
        ("[x,y]^2", (3, 3), 2),
        ("x^-2 y x^2", (2, 0), 3),
    ],
)
def test_dominance_at_special_points_matches_the_exact_path(spec, text, picks, expected):
    ring = parse_ring(spec)
    point = [_special_points(ring)[k] for k in picks]
    w = parse(text)
    with exact():
        assert dominance_probe(w, point) == expected
    assert dominance_probe(w, point) == expected


@pytest.mark.parametrize("spec,prime", [("Q", 2**61 - 1), ("Q[i]", 2**61 - 31),
                                        ("Q[sqrt(2)]", 2**61 - 1)])
def test_full_rank_over_q_is_decided_mod_p_alone(spec, prime):
    ring = parse_ring(spec)
    rng = random.Random(1)
    point = [random_sl2(ring, rng) for _ in range(3)]
    with jet_rings() as seen:
        assert dominance_probe(word([(1, 1), (2, 1), (1, -1), (3, -2)]), point) == 3
    assert seen == [PrimeField(prime)]


def test_a_lower_rank_mod_p_takes_the_exact_path():
    ring = parse_ring("Q")
    weyl = _special_points(ring)[2]
    with jet_rings() as seen:
        assert dominance_probe(word([(1, 2)]), [weyl]) == 1
    assert seen == [PrimeField(2**61 - 1), ring]


@pytest.mark.parametrize("spec,text,prime", [("Q[i]", "x s1 y s1^-1", 2**61 - 31),
                                             ("Q", "([x,y] s1)^200", 2**61 - 1)])
def test_a_word_with_constants_is_decided_mod_p_alone(spec, text, prime):
    ring = parse_ring(spec)
    rng = random.Random(2)
    w = parse(text).with_binding({"s1": random_sl2(ring, rng)})
    with jet_rings() as seen:
        assert dominance_probe(w, [random_sl2(ring, rng) for _ in range(2)]) == 3
    assert seen == [PrimeField(prime)]


# ---------------------------------------------------------------------------
# dimension certificates


def _constructs(spec, cid):
    try:
        component(cid, parse_ring(spec))
    except WordmapError:  # ex2.Wj and ex3.W1 need i, ex4.Tj a prime field
        return False
    return True


_COMPONENTS = [(spec, cid) for spec in SPECS for cid in COMPONENT_IDS if _constructs(spec, cid)]


def test_the_components_over_q_cover_all_but_ex4():
    assert {cid for _spec, cid in _COMPONENTS} == set(COMPONENT_IDS) - {"ex4.Tj"}
    assert {spec for spec, cid in _COMPONENTS if cid == "ex3.W1"} == {"Q[i]"}


@pytest.mark.parametrize("spec,cid", _COMPONENTS)
def test_certificate_mod_p_matches_the_exact_path(spec, cid):
    comp = component(cid, parse_ring(spec))
    with exact():
        expected = dimension_certificate(comp)
    with jet_rings() as seen:
        assert dimension_certificate(comp) == expected
    # every catalogued component is certified by the first usable prime
    assert len(seen) == 1 and isinstance(seen[0], PrimeField)


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(
    st.sampled_from(_COMPONENTS),
    st.sampled_from((rings._REDUCTION_PRIMES,) + SMALL_PRIMES),
    _FRACTIONS,
)
def test_certificate_with_small_primes_matches_the_exact_path(case, primes, a):
    spec, cid = case
    ring = parse_ring(spec)
    try:
        comp = component(cid, ring, a=ring.scalar(a) if cid == "Sa" else None)
    except WordmapError:  # a = +-2 and levels that leave no generic torus parameter
        assume(False)
    with exact():
        try:
            expected = dimension_certificate(comp)
        except WordmapError as exc:
            expected = type(exc)
    with with_primes(primes):
        try:
            got = dimension_certificate(comp)
        except WordmapError as exc:
            got = type(exc)
    assert got == expected


def test_the_reduced_instance_keeps_the_exact_torus_parameter():
    # lambda = 2 gives lambda^2 + lambda^-2 = 17/4, so the instance over Q
    # takes lambda = 3; the reduction keeps it, where a component rebuilt
    # over F_p would choose afresh
    comp = component("Sa", Q, a=Q.scalar(Fraction(17, 4)))
    assert comp.scalars[0] == Q.from_int(3)
    reduced = []
    rank = geometry.parametrization_rank

    def spy(c):
        reduced.append(c)
        return rank(c)

    with mock.patch.object(geometry, "parametrization_rank", spy):
        cert = dimension_certificate(comp)
    assert cert.lower == cert.upper == 5
    (c,) = reduced
    p = c.ring.p
    assert c.scalars[0].value == 3
    assert c.target.value == 17 * pow(4, -1, p) % p


# ---------------------------------------------------------------------------
# the fallback, end to end


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "primes,argv,rings_swept",
    [
        # 1/5 has no image mod 5
        ((5,), ["--ring", "Q", "dimcert", "--example", "Sa", "--a", "1/5"], ["Q"]),
        # the ranks do not meet mod 5; -1 is not a square mod 3
        ((5,), ["--ring", "Q", "dimcert", "--example", "ex5.W1"], ["Fp:5", "Q"]),
        ((3, 5, 13), ["--ring", "Q[i]", "dimcert", "--example", "ex5.T1"], ["Fp:5", "Q[i]"]),
        # the differential of x^3 drops rank in characteristic 3
        ((3,), ["--ring", "Q", "dominance", "--word", "x^3", "--seed", "1"], ["Fp:3", "Q"]),
        # the point's denominators vanish mod 5 and mod 13
        ((5, 13), ["--ring", "Q[i]", "dominance", "--word", "[x,y]", "--seed", "1"], ["Q[i]"]),
    ],
)
def test_the_exact_path_runs_when_no_prime_decides(primes, argv, rings_swept):
    with exact():
        expected = _run(argv)
    with with_primes(primes), jet_rings() as seen:
        assert _run(argv) == expected
    assert expected[0] == 0
    assert [str(ring) for ring in seen] == rings_swept


@pytest.mark.parametrize(
    "primes,argv,rings_swept",
    [
        # 1/5 has no image mod 5; -1 is not a square mod 2^61 - 1
        ((5, 2**61 - 1), ["--ring", "Q", "dimcert", "--example", "Sa", "--a", "1/5"],
         [f"Fp:{2**61 - 1}"]),
        ((5, 13, 2**61 - 1, 2**61 - 31),
         ["--ring", "Q[i]", "dominance", "--word", "[x,y]", "--seed", "1"], [f"Fp:{2**61 - 31}"]),
    ],
)
def test_a_prime_that_meets_a_vanishing_inverse_gives_way_to_the_next(primes, argv, rings_swept):
    with exact():
        expected = _run(argv)
    with with_primes(primes), jet_rings() as seen:
        assert _run(argv) == expected
    assert expected[0] == 0
    assert [str(ring) for ring in seen] == rings_swept
