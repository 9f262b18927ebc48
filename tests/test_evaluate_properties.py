"""Property tests of the adjugate extension: the restriction identity
w~ = Delta * w^ on invertible tuples, and per-variable homogeneity.

Words mix generators x, y, z with bound constants s1, s2; tuples are
invertible n x n matrices, n = 2..4, over F_101, F_(2^61 - 1), Q and
F_103[i].  Delta and the homogeneity degrees are recounted here from the
reduced letters, and the group value from the drawn letters, multiplied one by
one with Scalar arithmetic.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordmap import (
    EmptyInnerWord,
    PrimeField,
    QuadraticExt,
    Rationals,
    SquareMatrix,
    check_restriction_identities,
    det,
    eval_adjugate_extension,
    eval_group,
    parse_ring,
    word,
)
from wordmap.words import ConstLetter, _masses

from closed_forms import homogeneity_check

RINGS = [PrimeField(101), PrimeField(2**61 - 1), Rationals(), parse_ring("Fp:103[i]"),
         parse_ring("Q[i]"), parse_ring("Q[sqrt(2)]")]

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def constant_names(w):
    """The constant names of ``w``, sorted."""
    return sorted(c for c in _masses(w.letters) if type(c) is str)

items = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])),
        st.builds(ConstLetter, st.sampled_from(["s1", "s2"]), st.booleans()),
    ),
    min_size=1,
    max_size=8,
)


def invertible(ring, n):
    entry = st.integers(-5, 5).map(ring.from_int)
    if isinstance(ring, QuadraticExt):
        entry = st.tuples(entry, entry).map(lambda ab: ab[0] + ab[1] * ring.root)
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return rows.map(lambda rs: SquareMatrix.from_rows(ring, rs)).filter(
        lambda m: det(m).is_invertible()
    )


@st.composite
def words_and_tuples(draw):
    """``(ring, n, w, tup, letters)``: ``letters`` are the drawn items of w,
    before reduction."""
    letters = draw(items)
    try:
        w = word(letters)
    except EmptyInnerWord:
        assume(False)
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(2, 4))
    w = w.with_binding({name: draw(invertible(ring, n)) for name in constant_names(w)})
    tup = [draw(invertible(ring, n)) for _ in range(max(w.max_generator(), 1))]
    return ring, n, w, tup, letters


def scalar_product(a, b):
    """Entry by entry with Scalar arithmetic only."""
    n, zero = len(a), a[0][0].ring.zero
    return [[sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)]


def scalar_inverse(a):
    """Gauss-Jordan elimination with Scalar arithmetic only; a is invertible."""
    n = len(a)
    one, zero = a[0][0].ring.one, a[0][0].ring.zero
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if not rows[i][col].is_zero())
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inv()
        rows[col] = [e * inv for e in rows[col]]
        for i in range(n):
            if i != col:
                f = rows[i][col]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def letter_by_letter(ring, n, w, tup, letters):
    """The group value of the drawn letters, multiplied one by one, left to right."""
    acc = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for item in letters:
        if isinstance(item, ConstLetter):
            m, e = [list(row) for row in w.binding[item.name].entries], -1 if item.inv else 1
        else:
            m, e = [list(row) for row in tup[item[0] - 1].entries], item[1]
        if e < 0:
            m = scalar_inverse(m)
        for _ in range(abs(e)):
            acc = scalar_product(acc, m)
    return acc


def exponents(w, gen):
    return [item[1] for item in w.letters
            if not isinstance(item, ConstLetter) and item[0] == gen]


@deterministic
@given(words_and_tuples())
def test_restriction_identity(case):
    ring, n, w, tup, letters = case
    check = check_restriction_identities(w, tup)
    assert check.holds
    value = eval_group(w, tup)
    assert [list(row) for row in value.entries] == letter_by_letter(ring, n, w, tup, letters)
    delta = ring.one
    for gen, g in enumerate(tup, start=1):
        delta = delta * det(g) ** -sum(e for e in exponents(w, gen) if e < 0)
    assert check.delta == delta


@deterministic
@given(words_and_tuples(), st.data())
def test_homogeneity(case, data):
    ring, n, w, tup, _letters = case
    r = data.draw(st.integers(1, len(tup)))
    c = ring.from_int(data.draw(st.integers(-3, 3)))  # 0 included
    assert homogeneity_check(w, tup, r, c)
    degree = sum(e if e > 0 else (1 - n) * e for e in exponents(w, r))
    scaled = list(tup)
    scaled[r - 1] = tup[r - 1].scaled(c)
    assert eval_adjugate_extension(w, scaled) == eval_adjugate_extension(w, tup).scaled(
        c ** degree
    )
