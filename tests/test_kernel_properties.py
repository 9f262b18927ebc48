"""Property tests of the raw-value matrix kernel against Scalar-level references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmap import (
    DimensionMismatch,
    DualNumbers,
    PrimeField,
    QuadraticExt,
    Rationals,
    RingMismatch,
    SquareMatrix,
    adjugate,
    det,
    matrix_from_json,
    matrix_to_json,
    parse_ring,
)

Q = Rationals()
RINGS = [
    Q,
    PrimeField(101),
    parse_ring("Fp:7[i]"),
    parse_ring("Q[sqrt(2)]"),
    DualNumbers(PrimeField(5)),
    DualNumbers(Q),
]

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def raw_values(ring):
    if isinstance(ring, Rationals):
        return st.fractions(min_value=-9, max_value=9, max_denominator=9)
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1)
    # QuadraticExt and DualNumbers: pairs of base raws
    return st.tuples(raw_values(ring.base), raw_values(ring.base))


def matrices(ring, n):
    row = st.lists(raw_values(ring).map(ring.scalar), min_size=n, max_size=n)
    rows = st.lists(row, min_size=n, max_size=n)
    return rows.map(lambda rs: SquareMatrix.from_rows(ring, rs))


@st.composite
def ring_and_matrices(draw, count, max_n=5):
    ring = draw(st.sampled_from(RINGS))
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


@deterministic
@given(ring_and_matrices(1))
def test_adjugate_law(case):
    ring, (m,) = case
    d_identity = SquareMatrix.identity(ring, m.n).scaled(det(m))
    adj = adjugate(m)
    assert m * adj == d_identity
    assert adj * m == d_identity


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
@given(ring_and_matrices(1))
def test_json_round_trip(case):
    ring, (m,) = case
    if isinstance(ring, DualNumbers):
        return  # scalar literals have no eps syntax; jets never enter through JSON
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
