"""Property tests of the raw-value ring and matrix kernels: ring axioms, and
matrix operations against Scalar-level references."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmap import (
    DimensionMismatch,
    NotInvertible,
    PrimeField,
    QuadraticExt,
    Rationals,
    RingMismatch,
    SquareMatrix,
    charpoly,
    det,
    eval_adjugate_extension,
    matrix_from_json,
    matrix_to_json,
    parse,
    parse_ring,
)

from wordmap.matrices import _QWalk

from jet_oracle import DualNumbers

Q = Rationals()
RINGS = [
    Q,
    PrimeField(101),
    PrimeField(2**61 - 1),  # products of residues exceed 2^64
    parse_ring("Q[i]"),
    parse_ring("Fp:7[i]"),
    parse_ring("Q[sqrt(2)]"),
    DualNumbers(PrimeField(5)),
    DualNumbers(Q),
    DualNumbers(parse_ring("Q[i]")),
]

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def adjugate(m):
    """adj M, which is by definition the adjugate extension of x^-1 at M."""
    return eval_adjugate_extension(parse("x^-1"), [m])


def raw_values(ring):
    if isinstance(ring, Rationals):
        return st.fractions(min_value=-9, max_value=9, max_denominator=9)
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1)
    # QuadraticExt and DualNumbers: pairs of base raws
    return st.tuples(raw_values(ring.base), raw_values(ring.base))


def loose_raw_values(ring):
    """Raw values before canon: any integer over F_p, pairs of loose base raws."""
    if isinstance(ring, Rationals):
        return raw_values(ring)
    if isinstance(ring, PrimeField):
        return st.integers(-10**6, 10**6)
    return st.tuples(loose_raw_values(ring.base), loose_raw_values(ring.base))


@st.composite
def ring_and_raws(draw, count, raws=raw_values):
    ring = draw(st.sampled_from(RINGS))
    return ring, [draw(raws(ring)) for _ in range(count)]


@st.composite
def ring_and_vectors(draw, min_size=0, max_size=6):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(min_size, max_size))
    vector = st.lists(raw_values(ring), min_size=n, max_size=n)
    return ring, draw(vector), draw(vector)


def is_unit(ring, x):
    """Units of these rings: nonzero elements of a field, a + b eps with a a unit."""
    if isinstance(ring, DualNumbers):
        return is_unit(ring.base, x[0])
    return not ring.is_zero_raw(x)


@deterministic
@given(ring_and_raws(3))
def test_ring_axioms(case):
    ring, (x, y, z) = case
    add, mul = ring.radd, ring.rmul
    assert add(x, y) == add(y, x)
    assert mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, ring.raw_from_int(0)) == x
    assert mul(x, ring.raw_from_int(1)) == x


@deterministic
@given(ring_and_raws(1))
def test_rneg_and_rinv_are_inverses(case):
    ring, (x,) = case
    assert ring.is_zero_raw(ring.radd(x, ring.rneg(x)))
    assert ring.rneg(ring.rneg(x)) == x
    if not is_unit(ring, x):
        with pytest.raises(NotInvertible):
            ring.rinv(x)
        return
    inv = ring.rinv(x)
    assert ring.rmul(x, inv) == ring.raw_from_int(1)
    assert ring.rinv(inv) == x


@deterministic
@given(ring_and_vectors())
def test_rdot_is_the_sum_of_products(case):
    ring, xs, ys = case
    total = ring.raw_from_int(0)
    for x, y in zip(xs, ys):
        total = ring.radd(total, ring.rmul(x, y))
    assert ring.rdot(xs, ys) == total


@deterministic
@given(ring_and_vectors(15, 40))
def test_long_rdot_is_the_sum_of_products(case):
    # over Q a dot of more than 16 terms is added up from 8-term chunks
    ring, xs, ys = case
    total = ring.raw_from_int(0)
    for x, y in zip(xs, ys):
        total = ring.radd(total, ring.rmul(x, y))
    assert ring.rdot(xs, ys) == total


@deterministic
@given(ring_and_raws(1, raws=loose_raw_values))
def test_canon_is_idempotent(case):
    ring, (x,) = case
    c = ring.canon(x)
    assert ring.canon(c) == c


def matrices(ring, n):
    row = st.lists(raw_values(ring).map(ring.scalar), min_size=n, max_size=n)
    rows = st.lists(row, min_size=n, max_size=n)
    return rows.map(lambda rs: SquareMatrix.from_rows(ring, rs))


@st.composite
def ring_and_matrices(draw, count, max_n=6, rings=RINGS):
    ring = draw(st.sampled_from(rings))
    n = draw(st.integers(1, max_n))
    return ring, [draw(matrices(ring, n)) for _ in range(count)]


def reference_product(a, b):
    """Entry by entry with Scalar arithmetic only."""
    ring, n = a.ring, a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return rows


@deterministic
@given(ring_and_matrices(2))
def test_product_matches_scalar_reference(case):
    ring, (a, b) = case
    product = a * b
    assert [list(row) for row in product.entries] == reference_product(a, b)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(deterministic, max_examples=4)
@given(st.data())
def test_every_product_kernel_branch_matches_scalar_reference(ring, n, data):
    # drawn cases need not reach every ring at every n; this grid, like those
    # of the two tests below, takes each branch of each ring's rmatmul (over
    # F_p: n = 2 and n != 2)
    a, b, c = (data.draw(matrices(ring, n)) for _ in range(3))
    assert [list(row) for row in (a * b).entries] == reference_product(a, b)
    assert (a * b) * c == a * (b * c)
    assert a * adjugate(a) == SquareMatrix.identity(ring, n).scaled(det(a))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(deterministic, max_examples=4)
@given(st.data())
def test_adjugate_law(ring, n, data):
    m = data.draw(matrices(ring, n))
    d_identity = SquareMatrix.identity(ring, m.n).scaled(det(m))
    adj = adjugate(m)
    assert m * adj == d_identity
    assert adj * m == d_identity


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(deterministic, max_examples=4)
@given(st.data())
def test_cayley_hamilton_and_inverse(ring, n, data):
    m = data.draw(matrices(ring, n))
    # chi_M(M) = sum_k (-1)^k chi_k M^(n-k), with chi_0 = 1
    value = m ** n
    for k, chi_k in enumerate(charpoly(m), start=1):
        value = value + (m ** (n - k)).scaled(-chi_k if k % 2 else chi_k)
    assert value == SquareMatrix.zero(ring, n)
    if det(m).is_invertible():
        assert m * m.inverse() == SquareMatrix.identity(ring, n)


@deterministic
@given(ring_and_matrices(3, max_n=4))
def test_product_is_associative(case):
    ring, (a, b, c) = case
    assert (a * b) * c == a * (b * c)


@deterministic
@given(ring_and_matrices(2, max_n=3))
def test_eq_and_hash_agree(case):
    ring, (a, b) = case
    copy = SquareMatrix.from_rows(ring, [list(row) for row in a.entries])
    assert copy == a and hash(copy) == hash(a)
    assert (a == b) == (a.entries == b.entries)
    if a == b:
        assert hash(a) == hash(b)


@deterministic
@given(ring_and_matrices(1, rings=[r for r in RINGS if not isinstance(r, DualNumbers)]))
def test_json_round_trip(case):
    # dual numbers, a test-side ring, have no scalar literals
    ring, (m,) = case
    assert matrix_from_json(ring, matrix_to_json(m)) == m


@deterministic
@given(ring_and_matrices(1, max_n=3), st.sampled_from(RINGS))
def test_foreign_ring_raises(case, other):
    ring, (m,) = case
    if other == ring:
        other = PrimeField(3)
    foreign = SquareMatrix.identity(other, m.n)
    rows = [list(row) for row in m.entries]
    rows[0][0] = other.one
    with pytest.raises(RingMismatch):
        SquareMatrix.from_rows(ring, rows)
    with pytest.raises(RingMismatch):
        m * foreign


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ragged_rows_raise(ring):
    with pytest.raises(DimensionMismatch):
        SquareMatrix.from_rows(ring, [[1, 0], [0]])
    with pytest.raises(DimensionMismatch):
        SquareMatrix.from_rows(ring, [[1, 0, 0], [0, 1, 0]])


def test_product_of_different_sizes_raises():
    with pytest.raises(DimensionMismatch):
        SquareMatrix.identity(Q, 2) * SquareMatrix.identity(Q, 3)


def test_quadratic_entries_are_pairs():
    ring = QuadraticExt(Q, Fraction(2))
    m = SquareMatrix.from_rows(ring, [[ring.root, 1], [0, ring.root]])
    assert m.rows[0][0] == (Fraction(0), Fraction(1))
    assert (m * m)[0, 0] == ring.from_int(2)


# ---------------------------------------------------------------------------
# powers: every power of a scalar or a matrix is one square-and-multiply,
# checked here against products taken one factor at a time

POWER_RINGS = [
    PrimeField(101), Q, parse_ring("Q[i]"), parse_ring("Q[sqrt(2)]"), parse_ring("Fp:7[i]"),
]


def repeated_products(one, base, count):
    """``[base^0, base^1, ..., base^count]``, each the last times ``base``."""
    powers = [one]
    for _ in range(count):
        powers.append(powers[-1] * base)
    return powers


def power_scalars():
    return st.sampled_from(POWER_RINGS).flatmap(lambda ring: raw_values(ring).map(ring.scalar))


def power_matrices():
    rings_and_sizes = st.tuples(st.sampled_from(POWER_RINGS), st.sampled_from([2, 3]))
    return rings_and_sizes.flatmap(lambda rn: matrices(*rn))


@deterministic
@given(power_scalars())
def test_scalar_powers_are_repeated_products(s):
    assert [s ** k for k in range(41)] == repeated_products(s.ring.one, s, 40)
    if s.is_zero():
        for k in range(-6, 0):
            with pytest.raises(NotInvertible):
                s ** k
    else:
        assert [s ** -k for k in range(7)] == repeated_products(s.ring.one, s.inv(), 6)


@deterministic
@given(power_matrices())
def test_matrix_powers_are_repeated_products(m):
    identity = SquareMatrix.identity(m.ring, m.n)
    assert [m ** k for k in range(41)] == repeated_products(identity, m, 40)
    if det(m).is_invertible():
        assert [m ** -k for k in range(7)] == repeated_products(identity, m.inverse(), 6)
    else:
        for k in range(-6, 0):
            with pytest.raises(NotInvertible):
                m ** k


@pytest.mark.parametrize("ring", POWER_RINGS, ids=str)
def test_zeroth_powers_of_non_units_are_one_and_negative_powers_raise(ring):
    singular = [
        SquareMatrix.from_rows(ring, [[1, 2], [2, 4]]),
        SquareMatrix.from_rows(ring, [[1, 2, 3], [0, 1, 1], [2, 4, 6]]),
    ]
    zeros = [SquareMatrix.zero(ring, 2), SquareMatrix.zero(ring, 3)]
    assert ring.zero ** 0 == ring.one
    for m in singular + zeros:
        assert m ** 0 == SquareMatrix.identity(ring, m.n)
    for k in range(-6, 0):
        with pytest.raises(NotInvertible):
            ring.zero ** k
        for m in singular + zeros:
            with pytest.raises(NotInvertible):
                m ** k


# ---------------------------------------------------------------------------
# the Q kernel against Fraction oracles.  Over Q a product from 3 x 3 up
# clears each operand's denominators to their lcm, and det, adjugate and
# charpoly run on the cleared integer rows; the strategies above cap
# denominators at 9, so these cases bring large and pairwise coprime ones.


def _primes_from(start, count):
    primes, k = [], start
    while len(primes) < count:
        if all(k % d for d in range(2, int(k ** 0.5) + 1)):
            primes.append(k)
        k += 1
    return primes


_COPRIME = _primes_from(999_000, 36)  # 36 distinct primes just below 10^6


def q_matrix(rows):
    return SquareMatrix._raw(Q, tuple(tuple(Fraction(e) for e in row) for row in rows))


def q_product(a, b):
    """``Q.rmatmul`` on the raw rows of a and b, as lists of Scalars."""
    return [list(row) for row in SquareMatrix._raw(Q, Q.rmatmul(a.rows, b.rows)).entries]


def q_walk_product(a, b):
    """``_QWalk.rmatmul``, the integer product, on the pairs of a and b,
    boxed, as lists of Scalars."""
    pair = _QWalk.rmatmul(_QWalk.lift(a.rows), _QWalk.lift(b.rows))
    return [list(row) for row in SquareMatrix._raw(Q, _QWalk.box(pair)).entries]


def named_q_matrices(n):
    """All-integer, pairwise coprime 1/p, singular (a repeated row) and
    zero-row matrices at size n."""
    integer = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(n)] for i in range(n)]
    primes = [[Fraction((-1) ** (i + j) * (i + 2 * j + 1), _COPRIME[n * i + j]) for j in range(n)]
              for i in range(n)]
    singular = [row[:] for row in primes]
    singular[-1] = [2 * e for e in singular[0]]
    zero_row = [row[:] for row in primes]
    zero_row[n // 2] = [0] * n
    cases = {"integer": integer, "coprime": primes, "zero-row": zero_row}
    if n > 1:
        cases["singular"] = singular
    return {name: q_matrix(rows) for name, rows in cases.items()}


def _minor(rows, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]


def laplace_det(rows):
    """det by cofactor expansion along the first row, on Fractions."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * e * laplace_det(_minor(rows, 0, j))
               for j, e in enumerate(rows[0]) if e)


def laplace_adjugate(rows):
    """adj M with entries (-1)^(i+j) det M_(j,i), on Fractions."""
    n = len(rows)
    return [[(-1) ** (i + j) * laplace_det(_minor(rows, j, i)) for j in range(n)]
            for i in range(n)]


def principal_minor_sums(rows):
    """chi_k, the sum of the k x k principal minors, for k = 1..n."""
    n = len(rows)
    return [sum(laplace_det([[rows[i][j] for j in s] for i in s])
                for s in combinations(range(n), k)) for k in range(1, n + 1)]


def assert_matches_laplace(m):
    rows = [list(row) for row in m.rows]
    d, adj = det(m).value, adjugate(m)
    assert d == laplace_det(rows)
    assert [list(row) for row in adj.rows] == laplace_adjugate(rows)
    if d:
        assert [list(row) for row in m.inverse().rows] == [
            [e / d for e in row] for row in laplace_adjugate(rows)]
    assert [c.value for c in charpoly(m)] == principal_minor_sums(rows)
    assert all(type(e) is Fraction for row in adj.rows for e in row)


@pytest.mark.parametrize("n", range(1, 7))
def test_q_det_adjugate_and_charpoly_match_laplace_on_named_matrices(n):
    for m in named_q_matrices(n).values():
        assert_matches_laplace(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_q_rmatmul_matches_scalar_reference_on_named_matrices(n):
    cases = list(named_q_matrices(n).values())
    for a in cases:
        for b in cases:
            for product in (q_product, q_walk_product):
                assert product(a, b) == reference_product(a, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_q_kernel_matches_oracles_on_wide_denominators(n):
    # seeded draws rather than hypothesis: shrinking a failure through the
    # Laplace oracle on entries this large takes minutes
    rng = random.Random(n)

    def draw():
        return q_matrix([[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                          for _ in range(n)] for _ in range(n)])

    for _ in range(4):
        a, b = draw(), draw()
        assert q_product(a, b) == reference_product(a, b)
        assert_matches_laplace(a)
