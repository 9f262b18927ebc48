"""Matrix layer: determinant vs. an independent oracle, adjugate law, charpoly."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from wordmap import (
    DimensionMismatch,
    NotInvertible,
    PrimeField,
    Rationals,
    SquareMatrix,
    WordmapError,
    charpoly,
    det,
    eval_adjugate_extension,
    matrix_from_json,
    matrix_to_json,
    parse,
    parse_ring,
    random_sl2,
    rank,
)

from jet_oracle import DualNumbers

Q = Rationals()
F101 = PrimeField(101)
# quadratic extensions and dual numbers (which have zero divisors)
OTHER_RINGS = [parse_ring("Fp:7[i]"), parse_ring("Q[sqrt(2)]"), DualNumbers(PrimeField(5)), DualNumbers(Q)]


def adjugate(m):
    """adj M, which is by definition the adjugate extension of x^-1 at M."""
    return eval_adjugate_extension(parse("x^-1"), [m])


def leibniz_oracle(m):
    """Independent determinant: permutation expansion, computed in the test."""
    n = m.n
    acc = m.ring.zero
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = m.ring.from_int((-1) ** inversions)
        for i in range(n):
            term = term * m[i, perm[i]]
        acc = acc + term
    return acc


def random_matrix(ring, n, rng):
    return SquareMatrix.from_rows(
        ring, [[ring.scalar(ring.rrandom(rng)) for _ in range(n)] for _ in range(n)]
    )


@pytest.mark.parametrize("ring", [Q, F101, *OTHER_RINGS], ids=str)
def test_det_matches_leibniz_oracle(ring):
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = random_matrix(ring, n, rng)
            assert det(m) == leibniz_oracle(m)


def test_det_multiplicative():
    rng = random.Random(8)
    for ring in (Q, F101):
        for n in (2, 3, 4):
            for _ in range(30):
                a = random_matrix(ring, n, rng)
                b = random_matrix(ring, n, rng)
                assert det(a * b) == det(a) * det(b)


def test_adjugate_law_500():
    rng = random.Random(9)
    checked = 0
    for ring in (Q, F101):
        for n in (2, 3, 4):
            for _ in range(84):
                m = random_matrix(ring, n, rng)
                d = det(m)
                di = SquareMatrix.identity(ring, n).scaled(d)
                assert m * adjugate(m) == di
                assert adjugate(m) * m == di
                checked += 1
    assert checked >= 500


def test_adjugate_on_dual_numbers():
    dual = DualNumbers(Q)
    rng = random.Random(10)
    for n in (2, 3):
        for _ in range(20):
            m = random_matrix(dual, n, rng)
            d = det(m)
            assert m * adjugate(m) == SquareMatrix.identity(dual, n).scaled(d)


def test_inverse_and_singular():
    m = matrix_from_json(Q, [[1, 2], [3, 4]])
    assert m * m.inverse() == SquareMatrix.identity(Q, 2)
    singular = matrix_from_json(Q, [[1, 2], [2, 4]])
    with pytest.raises(NotInvertible):
        singular.inverse()
    # x * adj(x) on a singular matrix is the zero matrix
    assert singular * adjugate(singular) == SquareMatrix.zero(Q, 2)


def charpoly_oracle(m):
    """chi_i as the elementary symmetric sums of principal k-minors."""
    from itertools import combinations

    n = m.n
    chi = []
    for k in range(1, n + 1):
        acc = m.ring.zero
        for rows in combinations(range(n), k):
            sub = SquareMatrix(
                m.ring,
                tuple(tuple(m[i, j] for j in rows) for i in rows),
            )
            acc = acc + leibniz_oracle(sub)
        chi.append(acc)
    return tuple(chi)


def test_charpoly_against_minor_oracle():
    rng = random.Random(11)
    for ring in (Q, F101, *OTHER_RINGS):
        for n in (2, 3, 4):
            for _ in range(25):
                m = random_matrix(ring, n, rng)
                got = charpoly(m)
                assert type(got) is tuple
                assert got == charpoly_oracle(m)
                assert got[0] == m.trace()
                assert got[-1] == det(m)


def test_charpoly_conjugation_invariant():
    rng = random.Random(12)
    for _ in range(25):
        m = random_matrix(F101, 3, rng)
        while True:
            g = random_matrix(F101, 3, rng)
            if det(g).is_invertible():
                break
        assert charpoly(g * m * g.inverse()) == charpoly(m)


def test_cayley_hamilton_sl2():
    rng = random.Random(13)
    for _ in range(50):
        m = random_sl2(F101, rng)
        # m^2 - tr(m) m + I = 0
        t = m.trace()
        lhs = m * m - m.scaled(t) + SquareMatrix.identity(F101, 2)
        assert lhs == SquareMatrix.zero(F101, 2)


def test_random_sl2_deterministic_and_special():
    a = [random_sl2(F101, random.Random(99)) for _ in range(10)]
    b = [random_sl2(F101, random.Random(99)) for _ in range(10)]
    assert a == b
    for m in a:
        assert det(m) == F101.one


def test_rank():
    # rows of raw values
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 0]]
    assert rank(rows, F101) == 2
    assert rows == [[1, 2, 3], [2, 4, 6], [0, 1, 0]]  # the input is not changed
    assert rank([], F101) == 0


def test_matrix_json_round_trip():
    m = matrix_from_json(Q, [["1/2", "-3"], ["0", "7"]])
    assert matrix_from_json(Q, matrix_to_json(m)) == m


@pytest.mark.parametrize("rows", [
    [[1.5, 2], [3, 4]],  # not truncated to 1
    [[True, 2], [3, 4]],  # not read as 1
    [[None, 2], [3, 4]],
    [1, 2],
    [[1, 2], "34"],
    "[[1, 2], [3, 4]]",
])
def test_matrix_json_takes_only_lists_of_strings_and_ints(rows):
    with pytest.raises(WordmapError):
        matrix_from_json(Q, rows)


@pytest.mark.parametrize("rows, error, message", [
    ("[[1, 2], [3, 4]]", WordmapError, "a matrix is a list of rows, got '[[1, 2], [3, 4]]'"),
    ({"rows": [[1]]}, WordmapError, "a matrix is a list of rows, got {'rows': [[1]]}"),
    ([1, 2], WordmapError, "a matrix is a list of rows, got [1, 2]"),
    ([], DimensionMismatch, "matrix has no rows"),
    ([[1, 2], [3]], DimensionMismatch, "matrix is not square"),
    ([[1, 2]], DimensionMismatch, "matrix is not square"),
    ([[True, 2], [3, 4]], WordmapError, "a matrix entry is a scalar string or an int, got True"),
    ([[1.5, 2], [3, 4]], WordmapError, "a matrix entry is a scalar string or an int, got 1.5"),
    ([[None]], WordmapError, "a matrix entry is a scalar string or an int, got None"),
    # entries are read row by row before the shape is checked
    ([[1, 2], [False]], WordmapError, "a matrix entry is a scalar string or an int, got False"),
    ([["1", "x"], [2.5, 4]], WordmapError, "bad scalar literal 'x' at 0"),
    ([["1/0"]], NotInvertible, "0 has no inverse in Q"),
])
def test_matrix_json_errors(rows, error, message):
    with pytest.raises(error) as info:
        matrix_from_json(Q, rows)
    assert type(info.value) is error and str(info.value) == message


def test_matrix_json_reads_raw_values():
    qi = parse_ring("Q[i]")
    m = matrix_from_json(qi, [["1+i", 2], [" -3 ", "1/2*i"]])
    assert m.rows == (((1, 1), (2, 0)), ((-3, 0), (0, Fraction(1, 2))))
    assert all(type(v) is Fraction for row in m.rows for e in row for v in e)
    m = matrix_from_json(F101, [["-1", 205], ["1/2", "0"]])
    assert m.rows == ((100, 3), (51, 0))
    assert all(type(e) is int for row in m.rows for e in row)


def test_a_matrix_needs_at_least_one_row():
    for build in (SquareMatrix, SquareMatrix.from_rows, matrix_from_json):
        with pytest.raises(DimensionMismatch, match="no rows"):
            build(Q, [])
    # identity and zero take n from the caller and do not validate rows
    assert SquareMatrix.identity(Q, 0).rows == SquareMatrix.zero(Q, 0).rows == ()


def test_negative_matrix_power():
    rng = random.Random(14)
    m = random_sl2(F101, rng)
    assert m ** -2 == (m.inverse()) ** 2
    assert m ** 0 == SquareMatrix.identity(F101, 2)
