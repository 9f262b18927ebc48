"""Root systems and the orthogonal-A1 search."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmap import (
    InvalidType,
    build,
    expected_star,
    star_search,
    verify_lemma_table,
    verify_witness,
)
from wordmap import rootsys

from rootsys_oracle import validate

# ---------------------------------------------------------------------------
# oracle: every type written out root by root in doubled Bourbaki coordinates,
# independent of the simple roots and the reflection closure in build


def _unit(dim, i, scale=2):
    v = [0] * dim
    v[i] = scale
    return tuple(v)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _short_pairs(dim):
    """The roots +-e_i +-e_j for i < j, doubled."""
    roots = []
    for i, j in combinations(range(dim), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * dim
            v[i], v[j] = si, sj
            roots.append(tuple(v))
    return roots


def explicit_roots(type_label, rank):
    t = type_label.upper()
    roots = []
    if t == "A":
        if rank < 1:
            raise InvalidType("A requires rank >= 1")
        dim = rank + 1
        roots = [_sub(_unit(dim, i), _unit(dim, j)) for i in range(dim) for j in range(dim) if i != j]
    elif t in ("B", "C", "D"):
        if (t in ("B", "C") and rank < 2) or (t == "D" and rank < 4):
            raise InvalidType(f"{t} requires rank >= {2 if t in ('B', 'C') else 4}")
        roots = _short_pairs(rank)
        if t in ("B", "C"):
            scale = 2 if t == "B" else 4
            for i in range(rank):
                roots += [_unit(rank, i, scale), _unit(rank, i, -scale)]
    elif t == "E":
        if rank not in (6, 7, 8):
            raise InvalidType("E requires rank 6, 7 or 8")
        e8 = _short_pairs(8) + [s for s in product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
        # E7: the roots orthogonal to e7 + e8; E6: also orthogonal to e6 + e8
        probes = {8: [], 7: [(0,) * 6 + (2, 2)], 6: [(0,) * 6 + (2, 2), (0,) * 5 + (2, 0, 2)]}
        roots = [v for v in e8 if all(sum(a * b for a, b in zip(v, q)) == 0 for q in probes[rank])]
    elif t == "F":
        if rank != 4:
            raise InvalidType("F requires rank 4")
        roots = [_unit(4, i, s) for i in range(4) for s in (2, -2)]
        roots += _short_pairs(4) + list(product((1, -1), repeat=4))
    elif t == "G":
        if rank != 2:
            raise InvalidType("G requires rank 2")
        roots = [_sub(_unit(3, i), _unit(3, j)) for i in range(3) for j in range(3) if i != j]
        for i in range(3):  # long roots +-(2e_i - e_j - e_k)
            j, k = [a for a in range(3) if a != i]
            long = _sub(_sub(_unit(3, i, 4), _unit(3, j)), _unit(3, k))
            roots += [long, tuple(-c for c in long)]
    else:
        raise InvalidType(f"unknown type label {type_label!r}")
    return roots


ORACLE_CELLS = (
    [("A", r) for r in range(1, 21)]
    + [(t, r) for t in "BC" for r in range(2, 21)]
    + [("D", r) for r in range(4, 21)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_closure_matches_the_explicit_constructions():
    for t, r in ORACLE_CELLS:
        system = build(t, r)
        oracle = explicit_roots(t, r)
        assert len(oracle) == len(set(oracle)) == system.count() == rootsys._TYPES[t].count(r)
        assert set(system.roots) == set(oracle), (t, r)
        assert system.ambient_dim == len(oracle[0])
        assert list(system.roots) == sorted(oracle, reverse=True)


@pytest.mark.parametrize("label,rank", [
    ("A", 0), ("A", -3), ("B", 1), ("C", 0), ("D", 3), ("E", 5), ("E", 9), ("e", 4),
    ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("H", 2), ("", 1), ("AB", 2),
])
def test_invalid_types_match_the_explicit_constructions(label, rank):
    with pytest.raises(InvalidType) as want:
        explicit_roots(label, rank)
    with pytest.raises(InvalidType) as got:
        build(label, rank)
    assert str(got.value) == str(want.value)


def test_validate_rejects_a_wrong_count_a_missing_negative_and_a_bad_cartan_integer():
    b2 = build("B", 2).roots
    without = tuple(v for v in b2 if v not in ((2, 0), (-2, 0)))
    with pytest.raises(InvalidType, match="got 7 roots, expected 8"):
        validate(rootsys.RootSystem("B", 2, b2[1:], 2))
    with pytest.raises(InvalidType, match="not closed under negation"):
        validate(rootsys.RootSystem("B", 2, ((4, 4), (-2, 0)) + without, 2))
    with pytest.raises(InvalidType, match="Cartan integer is not an integer"):
        validate(rootsys.RootSystem("B", 2, ((2, 4), (-2, -4)) + without, 2))
    # A2 with +-(e1 - e3) swapped for +-(e1 + e2 - 2 e3): six roots, closed under
    # negation, holding both simple roots, and every Cartan integer of every pair
    # is an integer (0, +-1, +-3); but s_(e1 - e2) maps e2 - e3 to e1 - e3
    a1, a2, long = (2, -2, 0), (0, 2, -2), (2, 2, -4)
    roots = tuple(v for u in (a1, a2, long) for v in (u, tuple(-c for c in u)))
    for alpha, beta in product(roots, repeat=2):
        assert 2 * sum(a * b for a, b in zip(alpha, beta)) % sum(b * b for b in beta) == 0
    with pytest.raises(InvalidType, match="not the Weyl orbit of its simple roots"):
        validate(rootsys.RootSystem("A", 2, roots, 3))
    # the same six vectors rotated off the simple roots: a root system, not this one
    rotated = tuple(v for u in ((2, 2, -4), (2, -4, 2), (-4, 2, 2)) for v in (u, tuple(-c for c in u)))
    with pytest.raises(InvalidType, match="not the Weyl orbit of its simple roots"):
        validate(rootsys.RootSystem("A", 2, rotated, 3))


def test_every_built_system_passes_the_oracle():
    for t, r in ORACLE_CELLS:
        validate(build(t, r))


def _patched_type(monkeypatch, label, simple, count):
    least = rootsys._TYPES[label].least
    monkeypatch.setitem(rootsys._TYPES, label, rootsys._Type(least, None, count, simple))


def test_build_rejects_a_non_integral_cartan_integer(monkeypatch):
    # 2 <e1, (e1 + 2 e2) / 2> / |(e1 + 2 e2) / 2|^2 = 4 / 5, doubled coordinates
    _patched_type(monkeypatch, "B", lambda r: [(2, 0), (1, 2)], lambda r: 8)
    with pytest.raises(InvalidType, match="^Cartan integer is not an integer$"):
        build("B", 2)


def test_build_stops_once_the_orbit_outgrows_the_count(monkeypatch):
    # E8 with 10 roots expected: the walk stops at the 11th root, after forming
    # at most 11 r images, each with its carried pairings, where the whole
    # orbit forms r N = 1920
    images = 0

    def counting_sub(a, b):
        nonlocal images
        images += 1
        return a - b

    _patched_type(monkeypatch, "E", lambda r: rootsys._E8[:r], lambda r: 10)
    monkeypatch.setattr(rootsys, "sub", counting_sub)
    with pytest.raises(InvalidType, match="^E8: got more than 10 roots, expected 10$"):
        build("E", 8)
    assert 0 < images <= 2 * 11 * 8 * 8  # two length-8 tuples per image
    # too small an orbit gives the count it found
    _patched_type(monkeypatch, "A", lambda r: rootsys._chain(r + 1, r), lambda r: r * (r + 1) + 2)
    with pytest.raises(InvalidType, match="^A3: got 12 roots, expected 14$"):
        build("A", 3)


def test_build_walks_only_the_positive_roots(monkeypatch):
    # one sub per entry of a formed root or pairing tuple: walking all 240 roots
    # of E8 took 9152, walking the 120 positive ones takes 4480
    subs = 0

    def counting_sub(a, b):
        nonlocal subs
        subs += 1
        return a - b

    monkeypatch.setattr(rootsys, "sub", counting_sub)
    system = build("E", 8)
    assert subs < 5000
    assert set(system.roots) == set(explicit_roots("E", 8))


def test_build_rejects_dependent_simple_roots(monkeypatch):
    # (2, 0) and (-2, 0) reflect into each other, so the walk finds 2 "positive"
    # roots; their negations are the same two, and the count says so
    _patched_type(monkeypatch, "B", lambda r: [(2, 0), (-2, 0)], lambda r: 4)
    with pytest.raises(InvalidType, match="^B2: got 2 roots, expected 4$"):
        build("B", 2)
    # with (0, 2) added, the roots are the 4 of A1 x A1, but 3 "positive" roots
    # and no new image: the walk's own stop never fires
    _patched_type(monkeypatch, "B", lambda r: [(2, 0), (-2, 0), (0, 2)], lambda r: 4)
    with pytest.raises(InvalidType, match="^B2: got more than 4 roots, expected 4$"):
        build("B", 2)


def test_build_refuses_a_system_past_the_root_cap(monkeypatch):
    # the count is read off the type table before any list is built, so the
    # simple roots of A99999999999 are never asked for
    def no_simple_roots(r):
        raise AssertionError("simple roots built past the cap")

    _patched_type(monkeypatch, "A", no_simple_roots, lambda r: r * (r + 1))
    with pytest.raises(InvalidType, match=(
            "^A99999999999 has 9999999999900000000000 roots, capped at 10000$")):
        build("A", 99999999999)
    with pytest.raises(InvalidType, match="^A100 has 10100 roots, capped at 10000$"):
        build("A", 100)
    monkeypatch.undo()
    assert build("A", 99).count() == 9900 <= rootsys._ROOTS_MAX == 10000


def test_build_takes_each_pairing_once(monkeypatch):
    # every inner product in build goes through _dot; a separate check pass took
    # another r N + N of them after the closure's r N
    calls = 0
    dot = rootsys._dot

    def counting_dot(u, v):
        nonlocal calls
        calls += 1
        return dot(u, v)

    monkeypatch.setattr(rootsys, "_dot", counting_dot)
    system = build("E", 8)
    r, n = system.rank, system.count()
    assert calls <= r * n + n + r * r


def test_positive_roots_are_the_first_half():
    for t, r in ORACLE_CELLS:
        roots = build(t, r).roots
        assert roots[:len(roots) // 2] == tuple(v for v in roots if v > tuple(-c for c in v))


def test_counts_match_classical_formulas():
    assert build("A", 1).count() == 2
    assert build("A", 4).count() == 20
    assert build("B", 3).count() == 18
    assert build("C", 4).count() == 32
    assert build("D", 5).count() == 40
    assert build("E", 6).count() == 72
    assert build("E", 7).count() == 126
    assert build("E", 8).count() == 240
    assert build("F", 4).count() == 48
    assert build("G", 2).count() == 12


def test_negation_closure_and_cartan_integrality():
    # build checks these in its walk; spot-check them independently
    for label, rank in [("B", 3), ("G", 2), ("E", 6), ("F", 4)]:
        system = build(label, rank)
        roots = set(system.roots)
        for alpha in system.roots:
            assert tuple(-c for c in alpha) in roots
            for beta in system.roots:
                num = 2 * sum(a * b for a, b in zip(alpha, beta))
                den = sum(b * b for b in beta)
                assert num % den == 0


def test_g2_contains_expected_roots():
    system = build("G", 2)
    assert (2, -2, 0) in system.roots  # e1 - e2 (doubled)
    assert (2, 2, -4) in system.roots  # e1 + e2 - 2 e3 (doubled)


def test_invalid_types():
    for label, rank in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(InvalidType):
            build(label, rank)


def test_b3_witness():
    result = star_search(build("B", 3))
    assert result.holds
    assert set(result.witness) == {(2, 2, 0), (2, -2, 0), (0, 0, 2)}


def test_c3_witness_long_roots():
    result = star_search(build("C", 3))
    assert result.holds
    assert set(result.witness) == {(4, 0, 0), (0, 4, 0), (0, 0, 4)}


def test_failures():
    for label, rank in [("A", 2), ("A", 5), ("D", 5), ("D", 7), ("E", 6)]:
        assert not star_search(build(label, rank)).holds


def test_successes_with_verified_witnesses():
    for label, rank in [
        ("A", 1), ("B", 2), ("B", 7), ("C", 2), ("C", 8),
        ("D", 4), ("D", 6), ("D", 8), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
    ]:
        system = build(label, rank)
        result = star_search(system)
        assert result.holds, (label, rank)
        assert verify_witness(system, result.witness)


def test_witness_verification_rejects_bad_sets():
    system = build("C", 3)
    # wrong cardinality
    assert not verify_witness(system, [(4, 0, 0)])
    # not orthogonal
    assert not verify_witness(system, [(4, 0, 0), (2, 2, 0), (0, 0, 4)])
    # sums present in R: in B3, {e1, e2, e3} fails because e1+e2 is a root
    b3 = build("B", 3)
    assert not verify_witness(b3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])


# ---------------------------------------------------------------------------
# oracle: plain backtracking over the positive roots, without bitsets, span
# bound, memo or orbit fixing


def plain_star_search(system):
    roots = set(system.roots)
    positive = sorted((v for v in system.roots if v > tuple(-c for c in v)), reverse=True)
    chosen = []

    def compatible(alpha, beta):
        if sum(a * b for a, b in zip(alpha, beta)) != 0:
            return False
        return tuple(a + b for a, b in zip(alpha, beta)) not in roots and _sub(alpha, beta) not in roots

    def search(start):
        if len(chosen) == system.rank:
            return True
        for idx in range(start, len(positive)):
            alpha = positive[idx]
            if all(compatible(alpha, beta) for beta in chosen):
                chosen.append(alpha)
                if search(idx + 1):
                    return True
                chosen.pop()
        return False

    if search(0):
        return rootsys.StarResult(holds=True, witness=tuple(chosen))
    return rootsys.StarResult(holds=False, witness=None)


# every table cell, and the larger ranks the plain search finishes in about 1 s
SEARCH_CELLS = [(t, r) for t, r in ORACLE_CELLS if r <= 8] + [
    ("A", 9), ("B", 9), ("B", 10), ("B", 11), ("C", 9), ("C", 10), ("C", 11)]


@pytest.mark.parametrize("label,rank", SEARCH_CELLS)
def test_search_matches_plain_backtracking(label, rank):
    system = build(label, rank)
    result = star_search(system)
    assert result == plain_star_search(system)
    assert result.holds == expected_star(label, rank)
    if result.holds:
        assert verify_witness(system, result.witness)


def test_orthogonal_roots_whose_sum_is_a_root_are_not_compatible():
    # B2 with its short positive roots listed first: e1 and e2 are orthogonal,
    # |e1|^2 + |e2|^2 is the long norm and e1 + e2 is a root, so the search
    # must pass over them, though its norm test alone would not rule them out
    positive = [(2, 0), (0, 2), (2, 2), (2, -2)]
    system = rootsys.RootSystem("B", 2, tuple(positive + [_sub((0, 0), v) for v in positive]), 2)
    result = star_search(system)
    assert result == rootsys.StarResult(holds=True, witness=((2, 2), (2, -2)))
    assert verify_witness(system, result.witness)


def _fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, written out for the oracle."""
    rows = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Small integer matrices, half of them with rows built as integer
    combinations of at most three rows, so rank-deficient ones are common."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    if draw(st.booleans()):
        return [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    base = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(n):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(m)])
    return rows


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(integer_matrices())
def test_exact_rank_matches_fraction_elimination(rows):
    rank = _fraction_rank(rows)
    assert rootsys._rank(rows) == rank
    assert rootsys._rank(tuple(map(tuple, rows))) == rank
    for enough in range(1, rank + 1):
        assert rootsys._rank(rows, enough) == enough


def test_search_deterministic():
    a = star_search(build("E", 7))
    b = star_search(build("E", 7))
    assert a == b


def test_lemma_table_no_discrepancies():
    rows = verify_lemma_table(8)
    assert all(row.holds == row.expected for row in rows)
    cells = {(r.type_label, r.rank) for r in rows}
    assert ("A", 1) in cells and ("A", 8) in cells
    assert ("B", 2) in cells and ("C", 8) in cells
    assert ("D", 4) in cells and ("D", 8) in cells
    assert ("E", 6) in cells and ("E", 8) in cells
    assert ("F", 4) in cells and ("G", 2) in cells
    # types A-G, ranks ascending
    assert [(r.type_label, r.rank) for r in rows] == [(t, r) for t, r in ORACLE_CELLS if r <= 8]
    with pytest.raises(InvalidType):
        verify_lemma_table(9)


def test_lemma_table_lists_a_system_only_up_to_max_rank():
    # G2 appears only from max_rank 2 on, and a table needs max_rank >= 1
    assert [(r.type_label, r.rank) for r in verify_lemma_table(1)] == [("A", 1)]
    assert [(r.type_label, r.rank) for r in verify_lemma_table(2)] == [
        ("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]
    for max_rank in (0, -1):
        with pytest.raises(InvalidType, match="max_rank must be >= 1"):
            verify_lemma_table(max_rank)


def test_expected_star_table():
    assert expected_star("A", 1) and not expected_star("A", 2)
    assert expected_star("D", 6) and not expected_star("D", 5)
    assert expected_star("E", 7) and not expected_star("E", 6)
    assert expected_star("B", 5) and expected_star("C", 5)
    assert expected_star("F", 4) and expected_star("G", 2)
