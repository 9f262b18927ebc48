"""Word walks over Q on one denominator, against a plain Fraction oracle.

The oracle writes every power out and multiplies reduced Fractions entry by
entry; it inverts by cofactors.  Draws are seeded: a slow oracle does not
shrink well.
"""

import math
import random
from fractions import Fraction

import pytest

from wordmap import (
    NotInvertible,
    PrimeField,
    Rationals,
    check_restriction_identities,
    eval_adjugate_extension,
    eval_group,
    matrix_from_json,
    parse,
)
from wordmap.matrices import _QWalk, _RawWalk
from wordmap.words import ConstLetter, Power

Q = Rationals()
# the six largest primes below 10^6: pairwise coprime denominators
BIG = (999983, 999979, 999961, 999959, 999953, 999931)
DENOMINATORS = BIG + (1, 2, 3)
WORDS = [
    "x",
    "x^-1",
    "x x^-1",
    "x^-1 y^2",
    "(x s1 y^-1)^-3",
    "x s1^-1 y^-2 s1",
    "[x,y]^2 s1 x^-3",
    "(x^2 y^-1)^3 s2^-1 y",
    "([x,y^-1] s1)^2 x^-1",
]
# an order-4 matrix of SL_2(Q) on denominators near 10^6: trace 0, det 1
ORDER_4 = [["1/1001", "-1002002/1002001"], ["1", "-1/1001"]]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _det(a):
    """Gaussian elimination on Fractions; the empty matrix has det 1."""
    a = [row[:] for row in a]
    n, result = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def _adj(a):
    """The adjugate by cofactors: adj(a)_ij = (-1)^(i+j) det(a without row j, column i)."""
    n = len(a)
    return [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
             for j in range(n)] for i in range(n)]


def _inv(a):
    d = _det(a)
    if not d:
        raise ZeroDivisionError("singular")
    return [[x / d for x in row] for row in _adj(a)]


def _oracle(items, gens, binding, invert_gen):
    """The product of the written-out letters: x_g^-1 is invert_gen(x_g), an
    inverted constant its true inverse."""
    acc = _identity(len(gens[0]))
    for item in items:
        if type(item) is Power:
            core = _oracle(item.core, gens, binding, invert_gen)
            factors = [core] * item.k
        elif type(item) is ConstLetter:
            factors = [_inv(binding[item.name]) if item.inv else binding[item.name]]
        else:
            g, e = item
            factors = [gens[g - 1] if e > 0 else invert_gen(gens[g - 1])] * abs(e)
        for f in factors:
            acc = _mul(acc, f)
    return acc


def _negative_mass(items, out, scale=1):
    """{generator: written-out letters with a negative exponent}."""
    for item in items:
        if type(item) is Power:
            _negative_mass(item.core, out, scale * item.k)
        elif type(item) is not ConstLetter and item[1] < 0:
            out[item[0]] = out.get(item[0], 0) + scale * -item[1]
    return out


def _draw(rng, n, det_sign=0):
    """n x n Fraction rows on DENOMINATORS; with det_sign, invertible and of that sign."""
    while True:
        m = [[Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(n)]
             for _ in range(n)]
        d = _det(m)
        if not det_sign:
            return m
        if d:
            if (d > 0) != (det_sign > 0):
                m[0] = [-x for x in m[0]]
            return m


def _box(rows):
    """The matrix parsed from its literals, as the CLI reads it."""
    return matrix_from_json(Q, [[str(x) for x in row] for row in rows])


def _assert_reduced(m, expected):
    """m equals the oracle's rows, each entry a reduced Fraction, so that ==
    and hash agree with the parsed matrix."""
    for row in m.rows:
        for e in row:
            assert type(e) is Fraction and e.denominator > 0
            assert math.gcd(e.numerator, e.denominator) == 1
    parsed = _box(expected)
    assert m == parsed and hash(m) == hash(parsed)


def _case(n, seed):
    """A seeded tuple (x of det < 0, y of det > 0) and binding (s1 of det < 0, s2)."""
    rng = random.Random(1000 * n + seed)
    gens = [_draw(rng, n, -1), _draw(rng, n, 1)]
    binding = {"s1": _draw(rng, n, -1), "s2": _draw(rng, n, 1)}
    return gens, binding


@pytest.mark.parametrize("text", WORDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_q_walks_match_the_fraction_oracle(n, text):
    for seed in range(2):
        gens, binding = _case(n, seed)
        w = parse(text).with_binding({c: _box(m) for c, m in binding.items()})
        tup = [_box(g) for g in gens]
        hat = _oracle(w.letters, gens, binding, _inv)
        tilde = _oracle(w.letters, gens, binding, _adj)
        delta = math.prod(_det(gens[g - 1]) ** b
                          for g, b in _negative_mass(w.letters, {}).items())

        _assert_reduced(eval_group(w, tup), hat)
        _assert_reduced(eval_adjugate_extension(w, tup), tilde)
        check = check_restriction_identities(w, tup)
        _assert_reduced(check.extended, tilde)
        assert type(check.delta.value) is Fraction and check.delta.value == delta
        assert check.holds is True
        assert tilde == [[delta * e for e in row] for row in hat]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_singular_generator_or_constant_is_not_inverted(n):
    gens, binding = _case(n, 0)
    gens[1] = [row[:] for row in gens[0]]
    gens[1][-1] = [2 * x for x in gens[1][0]] if n > 1 else [Fraction(0)]  # det 0
    tup = [_box(g) for g in gens]
    w = parse("x s1 y^-1").with_binding({"s1": _box(binding["s1"])})
    for f in (eval_group, check_restriction_identities):
        with pytest.raises(NotInvertible, match="matrix determinant is not a unit"):
            f(w, tup)
    # the adjugate extension is defined on all of M_n
    _assert_reduced(eval_adjugate_extension(w, tup), _oracle(w.letters, gens, binding, _adj))

    singular = {"s1": _box(gens[1])}
    for f in (eval_group, eval_adjugate_extension, check_restriction_identities):
        with pytest.raises(NotInvertible, match="matrix determinant is not a unit"):
            f(parse("x s1^-1").with_binding(singular), tup)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_walk_pairs_are_canonical(n):
    # D is the lcm of the entries' denominators: the pair lift reads off
    # the boxed value, also after a product that cancels
    rng = random.Random(n)
    for _ in range(5):
        a, b = _draw(rng, n, 1), _draw(rng, n, -1)
        for x, y in ((a, b), (a, _inv(a)), (_inv(b), b)):
            pair = _QWalk.rmatmul(_QWalk.lift(_box(x).rows), _QWalk.lift(_box(y).rows))
            assert pair[0] > 0 and pair == _QWalk.lift(_QWalk.box(pair))
            assert [list(row) for row in _QWalk.box(pair)] == _mul(x, y)


def test_huge_powers_stay_on_a_reduced_denominator():
    # the pair is divided by its gcd after every product, so a matrix of
    # finite order stays as small as its reduced Fractions at any power
    m = matrix_from_json(Q, ORDER_4)
    assert eval_group(parse("x^1000001"), [m]) == m
    assert eval_group(parse("x^9999999"), [m]) == m.scaled(-1)
    assert eval_group(parse("x^-9999999"), [m]) == m
    check = check_restriction_identities(parse("x^1000003 y^-1000003"), [m, m])
    assert check.holds and check.delta.value == 1
    assert check.extended == matrix_from_json(Q, [["1", "0"], ["0", "1"]])


def test_a_q_walk_builds_fractions_only_to_box_its_value(monkeypatch):
    # one Fraction per entry of the value (and one for Delta), none per product
    gens, binding = _case(3, 0)
    tup = [_box(g) for g in gens]
    w = parse("(x s1 y^-1)^-3 x^-2").with_binding({"s1": _box(binding["s1"])})
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for f, boxed in ((eval_group, 9), (eval_adjugate_extension, 9),
                     (check_restriction_identities, 10)):
        built.clear()
        f(w, tup)
        assert len(built) == boxed, f.__name__


def test_walk_rings_carry_only_their_representation():
    # the identity is the lift of the raw identity rows, and a scalar is raw
    names = {"lift", "box", "rmatmul", "det_adjugate", "adjugate", "inverse", "delta", "scaled",
             "coefficients"}
    assert {a for a in dir(_QWalk) if not a.startswith("_")} == names
    assert {a for a in dir(_RawWalk(PrimeField(101))) if not a.startswith("_")} - {"ring"} == names
    assert type(_QWalk.delta([])) is Fraction
