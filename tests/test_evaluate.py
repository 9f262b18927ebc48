"""Evaluation engine: closed forms, restriction identities, homogeneity, probes, jets."""

import random
from collections import Counter
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordmap import (
    DimensionMismatch,
    PrimeField,
    ProbeVerdict,
    Rationals,
    SquareMatrix,
    UnboundConstant,
    WordmapError,
    check_restriction_identities,
    chi_probe,
    det,
    dominance_probe,
    eval_adjugate_extension,
    eval_group,
    exponent_data,
    jet_sweep,
    parse,
    pure,
    random_sl2,
    rank,
    word,
)
from wordmap import evaluate, geometry
from wordmap.evaluate import _check_tuple, _jets
from wordmap.geometry import COMPONENT_IDS, component, jet_jacobian, parametrization_rank
from wordmap.matrices import lift_matrix, matrix_from_json
from wordmap.rings import DualNumbers, parse_ring
from wordmap.words import ConstLetter, EmptyInnerWord, from_items

from closed_forms import homogeneity_check

Q = Rationals()
F13 = PrimeField(13)
F101 = PrimeField(101)


def random_invertible(ring, n, rng):
    while True:
        m = matrix_from_json(
            ring, [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
        )
        if det(m).is_invertible():
            return m


def random_word_with_constants(rng, maxlen, nconst=2):
    items = []
    for _ in range(rng.randint(1, maxlen)):
        if rng.random() < 0.3:
            items.append(ConstLetter(f"s{rng.randint(1, nconst)}", rng.random() < 0.5))
        else:
            items.append((rng.randint(1, 2), rng.choice([1, -1, 2, -2])))
    try:
        return from_items(items)
    except EmptyInnerWord:
        return None


# ---------------------------------------------------------------------------
# closed-form reproduction of the two-sided conjugation word


def conjugation_word_closed_form(ring, s, y):
    """sigma y sigma^-1 adj(y) multiplied out entrywise; the independent oracle."""
    y11, y12 = y.entries[0]
    y21, y22 = y.entries[1]
    s2 = s * s
    s2i = s2.inv()
    return SquareMatrix.from_rows(
        ring,
        [
            [y11 * y22 - s2 * y12 * y21, y11 * y12 * (s2 - ring.one)],
            [y21 * y22 * (s2i - ring.one), y11 * y22 - s2i * y12 * y21],
        ],
    )


@pytest.mark.parametrize("ring", [Q, F13], ids=str)
def test_conjugation_word_matches_closed_form(ring):
    w = parse("s1 x s1^-1 x^-1")
    rng = random.Random(21)
    for _ in range(50):
        while True:
            s = ring.random(rng)
            if s.is_invertible() and not (s - ring.one).is_zero():
                break
        sigma = SquareMatrix.from_rows(ring, [[s, ring.zero], [ring.zero, s.inv()]])
        y = SquareMatrix.from_rows(
            ring, [[ring.random(rng) for _ in range(2)] for _ in range(2)]
        )
        wb = w.with_binding({"s1": sigma})
        assert eval_adjugate_extension(wb, [y]) == conjugation_word_closed_form(ring, s, y)


def test_conjugation_word_frozen_point():
    # sigma = diag(2, 1/2), y = [[1,2],[3,4]]: hand-computed value
    w = parse("s1 x s1^-1 x^-1")
    sigma = matrix_from_json(Q, [["2", "0"], ["0", "1/2"]])
    y = matrix_from_json(Q, [[1, 2], [3, 4]])
    value = eval_adjugate_extension(w.with_binding({"s1": sigma}), [y])
    assert value == matrix_from_json(Q, [["-20", "6"], ["-9", "5/2"]])


def test_singular_input_extension():
    # words reduce first, so x x^-1 is the empty word and extends to I;
    # the unreduced phenomenon mu * adj(mu) = det(mu) I is exercised via x y^-1
    # at (mu, mu), which does not reduce
    w = parse("x y^-1")
    singular = matrix_from_json(Q, [[1, 2], [2, 4]])
    assert eval_adjugate_extension(w, [singular, singular]) == SquareMatrix.zero(Q, 2)
    m = matrix_from_json(Q, [[1, 2], [3, 4]])
    assert eval_adjugate_extension(w, [m, m]) == SquareMatrix.identity(Q, 2).scaled(det(m))
    assert eval_adjugate_extension(parse("x x^-1"), [singular]) == SquareMatrix.identity(Q, 2)


# ---------------------------------------------------------------------------
# restriction identities and homogeneity


def test_restriction_identities_100_random():
    rng = random.Random(42)
    count = 0
    while count < 100:
        n = rng.choice([2, 3])
        w = random_word_with_constants(rng, 8)
        if w is None:
            continue
        binding = {
            name: random_invertible(F101, n, rng) for name in w.constant_names()
        }
        w = w.with_binding(binding)
        tup = [
            random_invertible(F101, n, rng) for _ in range(max(w.max_generator(), 1))
        ]
        check = check_restriction_identities(w, tup)
        assert check.holds
        # Delta recomputed independently from the exponent data
        data = exponent_data(w, n)
        delta = F101.one
        for g, b_r in data.b_neg.items():
            delta = delta * det(tup[g - 1]) ** b_r
        assert check.delta == delta
        count += 1


def test_restriction_check_runs_one_berkowitz_pass_per_generator(monkeypatch):
    """Delta, the adjugate extension and the plain value share one det/adjugate
    pass per inverted generator, however often it occurs."""
    import wordmap.matrices as matrices

    rng = random.Random(45)
    w = parse("x^2 y^-1 x^-1 y^-2 x^-1 y^-1")
    tup = [random_invertible(Q, 4, rng) for _ in range(2)]
    extended = eval_adjugate_extension(w, tup)
    passes = []
    berkowitz = matrices._berkowitz

    def counting(ring, rows):
        passes.append(len(rows))
        return berkowitz(ring, rows)

    monkeypatch.setattr(matrices, "_berkowitz", counting)
    check = check_restriction_identities(w, tup)
    assert passes == [4, 4]
    assert check.holds
    assert check.extended == extended
    assert check.delta == det(tup[0]) ** 2 * det(tup[1]) ** 4


def test_evaluation_inverts_each_generator_once(monkeypatch):
    calls = []
    inverse = SquareMatrix.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    rng = random.Random(46)
    tup = [random_sl2(F101, rng) for _ in range(2)]
    monkeypatch.setattr(SquareMatrix, "inverse", counting)
    value = eval_group(parse("(x y^-1 x^-1 y)^50"), tup)
    assert len(calls) == 2
    monkeypatch.undo()
    x, y = tup
    assert value == (x * y.inverse() * x.inverse() * y) ** 50


def test_restriction_to_sl_is_plain_evaluation():
    rng = random.Random(43)
    for _ in range(50):
        w = random_word_with_constants(rng, 8)
        if w is None:
            continue
        binding = {name: random_sl2(F101, rng) for name in w.constant_names()}
        w = w.with_binding(binding)
        tup = [random_sl2(F101, rng) for _ in range(max(w.max_generator(), 1))]
        assert eval_adjugate_extension(w, tup) == eval_group(w, tup)


def test_homogeneity_random_words():
    rng = random.Random(44)
    checked = 0
    while checked < 50:
        n = rng.choice([2, 3])
        w = random_word_with_constants(rng, 6)
        if w is None:
            continue
        binding = {
            name: random_invertible(F101, n, rng) for name in w.constant_names()
        }
        w = w.with_binding(binding)
        m = max(w.max_generator(), 1)
        tup = [random_invertible(F101, n, rng) for _ in range(m)]
        for r in range(1, m + 1):
            c = F101.from_int(rng.randrange(1, 101))
            assert homogeneity_check(w, tup, r, c)
        checked += 1


# ---------------------------------------------------------------------------
# evaluation pre-condition errors


def test_unbound_constant():
    w = parse("s1 x s1^-1 x^-1")
    with pytest.raises(UnboundConstant):
        eval_group(w, [random_sl2(F101, random.Random(0))])


def test_dimension_mismatch():
    w = parse("x y")
    with pytest.raises(DimensionMismatch):
        eval_group(w, [random_sl2(F101, random.Random(0))])


def test_generator_below_one_is_rejected():
    # x0 does not parse, but a hand-built word can still name generator 0
    tup = [random_sl2(F101, random.Random(0)) for _ in range(2)]
    for pairs in ([(0, 1)], [(1, 1), (0, -2)]):
        with pytest.raises(DimensionMismatch, match="start at 1"):
            eval_group(pure(word(pairs)), tup)


# ---------------------------------------------------------------------------
# chi probe


def test_chi_probe_commutator_takes_many_values():
    rng = random.Random(45)
    result = chi_probe(parse("[x,y]"), 1, F101, rng, 200)
    assert result.verdict == ProbeVerdict.TAKES_MANY_VALUES
    assert len(result.distinct_values) >= 2
    # every observed value re-checked by direct evaluation on fresh samples
    rng2 = random.Random(45)
    seen = set()
    for _ in range(200):
        tup = [random_sl2(F101, rng2) for _ in range(2)]
        seen.add(eval_group(parse("[x,y]"), tup).trace())
        if len(seen) >= 32:
            break
    assert set(result.distinct_values) == seen


def test_chi_probe_reports_samples_drawn():
    # the probe stops at 32 distinct values; it reports the draws it made
    result = chi_probe(parse("[x,y]"), 1, F101, random.Random(45), 1000)
    rng = random.Random(45)
    seen, drawn = set(), 0
    while len(seen) < 32:
        drawn += 1
        seen.add(eval_group(parse("[x,y]"), [random_sl2(F101, rng) for _ in range(2)]).trace())
    assert len(result.distinct_values) == 32
    assert result.samples == drawn < 1000
    # without the cap every requested sample is drawn
    assert chi_probe(parse("x x^-1"), 1, F101, random.Random(46), 50).samples == 50


def test_chi_probe_constant_word():
    rng = random.Random(46)
    result = chi_probe(parse("x x^-1"), 1, F101, rng, 50)
    assert result.verdict == ProbeVerdict.CONSTANT_SO_FAR
    assert result.distinct_values == (F101.from_int(2),)
    det_probe = chi_probe(parse("[x,y]"), 2, F101, rng, 50)
    assert det_probe.verdict == ProbeVerdict.CONSTANT_SO_FAR  # det is identically 1
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"coefficient index {i} out of range 1..2"):
            chi_probe(parse("[x,y]"), i, F101, rng, 50)


# ---------------------------------------------------------------------------
# jets and dominance


def test_jet_rows_are_trace_free():
    rng = random.Random(47)
    w = parse("[x,y]")
    point = [random_sl2(F101, rng) for _ in range(2)]
    base, derivs = jet_sweep(w, point)
    for deriv in derivs:
        a = deriv * base.inverse()
        assert a.trace().is_zero()


def test_jet_sweep_value_is_the_word_value():
    rng = random.Random(51)
    sigma = random_sl2(F101, rng)
    for text in ("[x,y]", "x s1 x^-1 y^2", "[[x,y],[x,z]]^3"):
        w = parse(text).with_binding({"s1": sigma})
        point = [random_sl2(F101, rng) for _ in range(w.max_generator())]
        value, derivs = jet_sweep(w, point)
        assert value == eval_group(w, point)
        assert len(derivs) == 3 * len(point)


def test_jets_evaluate_once_per_direction():
    rng = random.Random(52)
    scalars = [F101.from_int(3), F101.from_int(7)]
    mats = [random_sl2(F101, rng) for _ in range(3)]
    calls = []

    def f(s, m):
        calls.append(1)
        return (m[0].scaled(s[0] * s[1]), m[1] * m[2], m[2] ** 2)

    base, derivs = _jets(f, F101, scalars, mats)
    assert len(calls) == len(scalars) + 3 * len(mats)
    assert len(derivs) == len(calls)
    assert base == f(scalars, mats)
    assert all(m.ring == F101 for m in base + derivs[0])
    # d/ds_0 of s_0 s_1 g_0 is s_1 g_0, and the other factors do not move
    assert derivs[0] == (mats[0].scaled(scalars[1]),) + (SquareMatrix.zero(F101, 2),) * 2


def test_dominance_generic_rank_three():
    rng = random.Random(48)
    for text in ("[x,y]", "x^2", "[[x,y],y]"):
        w = parse(text)
        hits = 0
        for _ in range(10):
            tup = [random_sl2(F101, rng) for _ in range(max(w.max_generator(), 1))]
            if dominance_probe(w, tup) == 3:
                hits += 1
        assert hits >= 9


def test_dominance_conjugation_word_rank_two():
    rng = random.Random(49)
    sigma = matrix_from_json(F101, [[2, 0], [0, 51]])  # regular semisimple
    w = parse("x s1 x^-1").with_binding({"s1": sigma})
    for _ in range(10):
        assert dominance_probe(w, [random_sl2(F101, rng)]) == 2


def test_dominance_costs_one_evaluation(monkeypatch):
    # the jets share the evaluation's inverses: each generator and constant is
    # inverted once, and neither a prefix nor the value is
    rng = random.Random(50)
    sigma = random_sl2(F101, rng)
    w = parse("[[x,y],[x,z]]^20 s1^-1 x^-3 y^5 s1 z^-2").with_binding({"s1": sigma})
    point = [random_sl2(F101, rng) for _ in range(3)]
    evaluations, inverted = [], []
    original_eval, original_inverse = evaluate.eval_group, SquareMatrix.inverse

    def eval_group_counted(*args, **kwargs):
        evaluations.append(1)
        return original_eval(*args, **kwargs)

    def inverse(m):
        inverted.append(m)
        return original_inverse(m)

    monkeypatch.setattr(evaluate, "eval_group", eval_group_counted)
    monkeypatch.setattr(SquareMatrix, "inverse", inverse)
    dominance_probe(w, point)
    assert len(evaluations) == 1
    assert Counter(inverted) == Counter(point + [sigma])


def test_jets_of_a_power_take_logarithmically_many_products(monkeypatch):
    # every product, in the evaluation and in the jets, is made of ring dots
    g = random_sl2(F101, random.Random(53))
    dots = []
    original = PrimeField.rdot

    def rdot(self, xs, ys):
        dots.append(1)
        return original(self, xs, ys)

    monkeypatch.setattr(PrimeField, "rdot", rdot)
    counts = {}
    for e in (10**3, 10**6, -10**6):
        dots.clear()
        dominance_probe(parse(f"x^{e}"), [g])
        counts[e] = len(dots)
    assert counts[10**6] <= 3 * counts[10**3]
    assert counts[-10**6] <= 3 * counts[10**3]


_SL2_BASIS = {"E": [[0, 1], [0, 0]], "F": [[0, 0], [1, 0]], "H": [[1, 0], [0, -1]]}
_LETTERS = st.tuples(st.integers(1, 3), st.sampled_from([-3, -2, -1, 1, 2, 3]))
_CONSTANTS = st.builds(ConstLetter, st.just("s1"), st.booleans())


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    st.lists(st.one_of(_LETTERS, _LETTERS, _CONSTANTS), min_size=1, max_size=7),
    st.sampled_from([5, 13, 101]),
    st.integers(0, 2**32),
)
def test_jet_sweep_matches_the_product_rule(items, p, seed):
    # For V = L_1 ... L_N the derivative along (I + eps X) g_i is
    # sum over k with gen(L_k) = i of P_{k-1} D_k S_{k+1}, with D_k = X g for
    # the letter g and -g^-1 X for g^-1; constants contribute nothing.
    try:
        w = from_items(items)
    except EmptyInnerWord:
        assume(False)
    ring = PrimeField(p)
    rng = random.Random(seed)
    point = [random_sl2(ring, rng) for _ in range(max(w.max_generator(), 1))]
    w = w.with_binding({"s1": random_sl2(ring, rng)})
    factors = []  # (generator, or 0 for a constant; sign of the letter; its value)
    for i, seg in enumerate(w.segments):
        if i % 2 == 0:
            for gen, exp in seg.letters:
                g = point[gen - 1]
                sign = 1 if exp > 0 else -1
                factors += [(gen, sign, g if sign > 0 else g.inverse())] * abs(exp)
        else:
            s = w.binding[seg.name]
            factors.append((0, 0, s.inverse() if seg.inv else s))

    def product(part):
        acc = SquareMatrix.identity(ring, 2)
        for _gen, _sign, v in part:
            acc = acc * v
        return acc

    expected = {}
    for k, (gen, sign, v) in enumerate(factors):
        if gen == 0:
            continue
        for name, rows in _SL2_BASIS.items():
            x = SquareMatrix.from_rows(ring, rows)
            d = x * v if sign > 0 else (v * x).scaled(-1)
            term = product(factors[:k]) * d * product(factors[k + 1:])
            key = (gen - 1, name)
            expected[key] = expected.get(key, SquareMatrix.zero(ring, 2)) + term

    value, derivs = jet_sweep(w, point)
    keys = [(i, name) for i in range(len(point)) for name in _SL2_BASIS]
    assert len(derivs) == len(keys)  # argument-major, E, F, H
    assert value == product(factors)
    for key, deriv in zip(keys, derivs):
        assert deriv == expected.get(key, SquareMatrix.zero(ring, 2))


def test_jet_matches_finite_difference_structure():
    # directional derivative along E of x -> x^2 at diag(2, 1/2):
    # d/dt (I + tE) g (I + tE) g |_{t=0} = E g^2 + g E g
    g = matrix_from_json(Q, [["2", "0"], ["0", "1/2"]])
    e = matrix_from_json(Q, [[0, 1], [0, 0]])
    w = parse("x^2")
    rows = dict(zip(_SL2_BASIS, jet_sweep(w, [g])[1]))
    assert rows["E"] == e * g * g + g * e * g


def dual_jet_sweep(w, point):
    """The dual-number jet sweep that ``jet_sweep`` replaced, kept as an
    oracle: one evaluation of the word over dual numbers per direction,
    g_i -> (I + eps X) g_i, with the binding lifted too."""
    _n, ring = _check_tuple(w, point)
    dual = DualNumbers(ring)
    wl = w.with_binding({k: lift_matrix(v, dual) for k, v in w.binding.items()})
    (value,), derivs = _jets(lambda _scalars, mats: (eval_group(wl, mats),), ring, [], point)
    return value, [d for d, in derivs]


_JET_RINGS = ("Fp:5", "Fp:13", "Fp:101", "Q", "Q[i]", "Fp:19[sqrt(2)]")


@st.composite
def _word_items(draw):
    spec = draw(st.sampled_from(_JET_RINGS))
    small = st.sampled_from([-3, -2, -1, 1, 2, 3])
    big = small
    if spec.startswith("Fp"):
        # over Q and Q[i] the oracle's powers grow by digits per factor, so
        # the exponents up to 10^6 are drawn over the finite rings only
        sizes = st.sampled_from([10**6, 2**19, 999_983]) | st.integers(4, 10**6)
        big = st.builds(mul, st.sampled_from([1, -1]), sizes)
    letters = st.tuples(st.integers(1, 3), st.one_of(small, big))
    constants = st.builds(ConstLetter, st.just("s1"), st.booleans())
    items = draw(st.lists(st.one_of(letters, letters, constants), min_size=1, max_size=7))
    return spec, items, draw(st.integers(0, 2**32))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(_word_items())
def test_jet_sweep_matches_dual_numbers(case):
    spec, items, seed = case
    try:
        w = from_items(items)
    except EmptyInnerWord:
        assume(False)
    ring = parse_ring(spec)
    rng = random.Random(seed)
    point = [random_sl2(ring, rng) for _ in range(max(w.max_generator(), 1))]
    w = w.with_binding({"s1": random_sl2(ring, rng)})
    value, derivs = jet_sweep(w, point)
    expected_value, expected = dual_jet_sweep(w, point)
    assert value == expected_value
    assert derivs == expected


def tangent_rows(base, derivs) -> list:
    """The translation that the ranks were once taken on, kept as an oracle:
    per direction, the (a11, a12, a21) coordinates of d * V^-1 for each
    factor V of ``base`` and its derivative d, the tangent translated back to
    the identity (trace-free, so three coordinates suffice)."""
    inverses = [v.inverse() for v in base]
    rows = []
    for deriv in derivs:
        row = []
        for d, inverse in zip(deriv, inverses):
            a = d * inverse
            row += [a[0, 0], a[0, 1], a[1, 0]]
        rows.append(row)
    return rows


def translated_rank(base, derivs, ring) -> int:
    return rank([[s.value for s in row] for row in tangent_rows(base, derivs)], ring)


_RANK_RINGS = ("Fp:2", "Fp:3", "Fp:5", "Fp:101", "Q", "Q[i]", "Fp:7[i]")


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    st.sampled_from(_RANK_RINGS),
    st.lists(st.one_of(_LETTERS, _LETTERS, _CONSTANTS), min_size=1, max_size=7),
    st.integers(0, 2**32),
)
def test_dominance_rank_matches_the_translated_tangents(spec, items, seed):
    try:
        w = from_items(items)
    except EmptyInnerWord:
        assume(False)
    ring = parse_ring(spec)
    rng = random.Random(seed)
    point = [random_sl2(ring, rng) for _ in range(max(w.max_generator(), 1))]
    w = w.with_binding({"s1": random_sl2(ring, rng)})
    value, derivs = jet_sweep(w, point)
    assert dominance_probe(w, point) == translated_rank([value], [[d] for d in derivs], ring)


def _constructs(spec, cid):
    try:
        component(cid, parse_ring(spec))
    except WordmapError:  # ex3.W1 needs i, ex4.Tj a prime field F_q with 5 | q - 1, ...
        return False
    return True


_PARAMETRIZATIONS = [
    (spec, cid) for spec in ("Fp:101", "Fp:5", "Q", "Q[i]") for cid in COMPONENT_IDS
    if _constructs(spec, cid)
]


def test_parametrization_cases_cover_the_catalogue():
    assert {cid for _spec, cid in _PARAMETRIZATIONS} == set(COMPONENT_IDS)


@pytest.mark.parametrize("spec,cid", _PARAMETRIZATIONS)
def test_parametrization_rank_matches_the_translated_tangents(spec, cid):
    comp = component(cid, parse_ring(spec))
    base, derivs = _jets(comp.family, comp.ring, comp.scalars, comp.mats)
    assert parametrization_rank(comp) == translated_rank(base, derivs, comp.ring)


def _second_ring(cid):
    if cid in ("ex2.Wj", "ex3.W1"):
        return "Q[i]"  # they need i
    return "Fp:11" if cid == "ex4.Tj" else "Q"  # ex4.Tj needs a prime field with 5 | q - 1


@pytest.mark.parametrize(
    "spec,cid", [("Fp:101", cid) for cid in COMPONENT_IDS] + [(_second_ring(c), c) for c in COMPONENT_IDS]
)
def test_jet_jacobian_matches_dual_numbers_on_the_catalogue(monkeypatch, spec, cid):
    comp = component(cid, parse_ring(spec))
    point = list(comp.witness())
    jac = jet_jacobian(comp.equation, point, comp.kind)
    monkeypatch.setattr(geometry, "jet_sweep", dual_jet_sweep)
    expected = jet_jacobian(comp.equation, point, comp.kind)
    assert jac.rows == expected.rows
    assert jac.rank == expected.rank
    assert jac.value == expected.value


@pytest.mark.parametrize("ring", [F101, Q], ids=str)
@pytest.mark.parametrize("text", ["x^2 y x^5", "x y^3 x", "x^1000 y"])
def test_jet_sweep_needs_no_inverse_of_a_positive_word(ring, text):
    # prefixes are never inverted, so a singular point is fine
    point = [matrix_from_json(ring, [[1, 2], [2, 4]]), matrix_from_json(ring, [[0, 1], [0, 0]])]
    w = parse(text)
    value, derivs = jet_sweep(w, point)
    expected_value, expected = dual_jet_sweep(w, point)
    assert value == expected_value
    assert derivs == expected
