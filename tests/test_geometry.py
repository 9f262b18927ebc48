"""SL2 geometry: closed forms, preimages, certificates, scans, lemma checks."""

import random

import pytest

from wordmap import (
    DegenerateLambda,
    InvalidParams,
    PrimeField,
    ProbeResult,
    ProbeVerdict,
    Rationals,
    RingLacksRoots,
    SquareMatrix,
    chi_probe,
    component,
    dimension_certificate,
    eval_group,
    jet_jacobian,
    lemma78_check,
    lemma101_check,
    parametrization_rank,
    parse,
    random_sl2,
    relation_scan,
    render,
    separation_witness,
    sqrt_in_ring,
    trace_preimage_commutator,
)
from wordmap import geometry
from wordmap.geometry import (
    COMPONENT_IDS,
    diag,
    upper_unitriangular,
    value_fiber_membership,
    weyl_rep,
)
from wordmap.matrices import matrix_from_json

from closed_forms import assert_q8_order_eight, commutator_closed_form, commutator_trace, q8_witness
from jet_oracle import DualNumbers, lift_matrix

Q = Rationals()
F13 = PrimeField(13)
F17 = PrimeField(17)
F101 = PrimeField(101)

EX5_TEXT = "[ [x,y] , x [x,y] x^-1 ]"


def is_matrix_pair(point) -> bool:
    """A point of G^2 is a plain tuple (x, y) of matrices."""
    return type(point) is tuple and len(point) == 2 and all(
        isinstance(g, SquareMatrix) for g in point)


# ---------------------------------------------------------------------------
# commutator closed form and trace preimage


def test_commutator_closed_form_matches_group_evaluation():
    rng = random.Random(60)
    w = parse("[x,y]")
    for _ in range(100):
        lam = F101.from_int(rng.randrange(1, 101))
        t = diag(lam)
        g = random_sl2(F101, rng)
        assert commutator_closed_form(t, g) == eval_group(w, [t, g])


def test_commutator_trace_formula_200_random():
    rng = random.Random(61)
    for _ in range(200):
        lam = F101.from_int(rng.randrange(1, 101))
        t = diag(lam)
        g = random_sl2(F101, rng)
        expected = commutator_trace(lam, g[0, 1], g[1, 0])
        assert commutator_closed_form(t, g).trace() == expected


def test_trace_preimage_hits_every_value_of_f101():
    lam = F101.from_int(2)
    for a_int in range(101):
        a = F101.from_int(a_int)
        t, g = trace_preimage_commutator(a, lam, F101.one)
        comm = eval_group(parse("[x,y]"), (t, g))
        assert comm.trace() == a
        # det g = 1 is automatic from q - p = 1
        assert g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] == F101.one


def test_trace_preimage_q_minus_p_identity():
    rng = random.Random(62)
    for _ in range(100):
        a = F101.from_int(rng.randrange(101))
        lam = F101.from_int(rng.randrange(2, 100))
        if lam == F101.from_int(100):
            continue
        d = lam - lam.inv()
        if d.is_zero():
            continue
        p = (F101.from_int(2) - a) / (d * d)
        q = (lam * lam + (lam * lam).inv() - a) / (d * d)
        assert q - p == F101.one


def test_trace_preimage_recovers_q8_pair():
    # a = -2, lambda = i: the quaternion witness with t of order 4
    F = F13
    i = sqrt_in_ring(F, -1)
    pair = trace_preimage_commutator(F.from_int(-2), i, F.one)
    assert is_matrix_pair(pair)
    t, g = pair
    assert t == diag(i)
    # alpha = delta = 0 branch: g is anti-diagonal
    assert g[0, 0].is_zero() and g[1, 1].is_zero()
    comm = eval_group(parse("[x,y]"), pair)
    assert comm.trace() == F.from_int(-2)


def test_trace_preimage_degenerate_lambda():
    with pytest.raises(DegenerateLambda):
        trace_preimage_commutator(Q.from_int(3), Q.one, Q.one)
    with pytest.raises(InvalidParams):
        trace_preimage_commutator(Q.from_int(3), Q.from_int(2), Q.zero)


# ---------------------------------------------------------------------------
# fiber membership and separation witnesses


def test_w_contained_in_t():
    rng = random.Random(63)
    w = parse("[x,y]")
    for _ in range(50):
        tup = [random_sl2(F101, rng) for _ in range(2)]
        fm = value_fiber_membership(eval_group(w, tup))
        if fm.in_W:
            assert fm.in_T


def test_fiber_membership_known_points():
    w = parse("[x,y]")
    t = diag(F101.from_int(2))
    u = upper_unitriangular(F101.one)
    fm = value_fiber_membership(eval_group(w, [t, t]))  # commuting pair
    assert fm.in_W and fm.in_T
    fm = value_fiber_membership(eval_group(w, [t, u]))  # [t,u] nontrivial unipotent
    assert not fm.in_W and fm.in_T


FIVE_WORDS = ["[x,y]", "[x^2,y]", "[x,y]^2", "[x,y]^5", EX5_TEXT]


@pytest.mark.parametrize("text", FIVE_WORDS)
def test_separation_witness_for_each_example_word(text):
    w = parse(text)
    point = separation_witness(w, F101)
    assert is_matrix_pair(point)
    value = eval_group(w, point)
    assert value.trace() == F101.from_int(2)
    assert value != SquareMatrix.identity(F101, 2)


# ---------------------------------------------------------------------------
# jets


def test_jet_jacobian_shapes_and_linearity():
    rng = random.Random(64)
    w = parse("[x,y]")
    point = [random_sl2(F101, rng) for _ in range(2)]
    jw = jet_jacobian(w, point, "W")
    jt = jet_jacobian(w, point, "T")
    assert len(jw.rows) == 6 and len(jw.rows[0]) == 3
    assert len(jt.rows) == 6 and len(jt.rows[0]) == 1
    assert 0 <= jt.rank <= jw.rank <= 3

    # linearity in the direction: derivative along E+H equals sum of E and H rows
    dual = DualNumbers(F101)
    eps = dual.root
    lifted = [lift_matrix(g, dual) for g in point]
    ident = SquareMatrix.identity(dual, 2)

    def deriv(direction_rows):
        x = SquareMatrix.from_rows(dual, direction_rows).scaled(eps)
        perturbed = [(ident + x) * lifted[0], lifted[1]]
        v = eval_group(w, perturbed)
        return v.map_entries(lambda s: F101.scalar(s.value[1]), F101)

    d_e = deriv([[0, 1], [0, 0]])
    d_h = deriv([[1, 0], [0, -1]])
    d_eh = deriv([[1, 1], [0, -1]])
    assert d_eh == d_e + d_h


# ---------------------------------------------------------------------------
# the component catalogue


CLAIMED = {
    "ex1.W": 4,
    "ex1.T": 5,
    "ex2.Wj": 5,
    "ex3.W1": 3,
    "ex4.Tj": 5,
    "ex5.W1": 4,
    "ex5.T1": 5,
    "ex5.T2": 5,
    "Sa": 5,
}


@pytest.mark.parametrize("cid", COMPONENT_IDS)
def test_dimension_certificates_confirm(cid):
    comp = component(cid, F101)  # p = 5, and j = 4 for ex2.Wj, 1 for ex4.Tj
    cert = dimension_certificate(comp)
    assert cert.claimed == CLAIMED[cid]
    assert 0 <= cert.lower <= cert.upper <= 6
    assert cert.lower == cert.upper == cert.claimed
    assert cert.confirmed
    assert is_matrix_pair(cert.point)
    assert cert.point == comp.witness()


def test_certificate_witnesses_satisfy_membership():
    # ex1.W points commute; ex5.T2 points have word value I identically;
    # ex4.Tj points have trace([x,y]) = zeta + zeta^-1
    pair = component("ex1.W", F101).witness()
    assert is_matrix_pair(pair)
    x, y = pair
    assert x * y == y * x

    pair = component("ex5.T2", F101).witness()
    value = eval_group(parse(EX5_TEXT), pair)
    assert value == SquareMatrix.identity(F101, 2)

    comp = component("ex4.Tj", F101, p=5, j=2)
    pair = comp.witness()
    from wordmap.rings import primitive_root_of_unity

    zeta = primitive_root_of_unity(F101, 5)
    target = zeta ** 2 + zeta ** -2
    comm = eval_group(parse("[x,y]"), pair)
    assert comm.trace() == target
    # the word [x,y]^5 itself vanishes there: the commutator has order 5
    assert eval_group(parse("[x,y]^5"), pair) == SquareMatrix.identity(F101, 2)


def test_ex3_witness_in_w():
    comp = component("ex3.W1", F13)
    pair = comp.witness()
    minus_i2 = SquareMatrix.identity(F13, 2).scaled(F13.from_int(-1))
    assert eval_group(parse("[x,y]"), pair) == minus_i2
    assert eval_group(parse("[x,y]^2"), pair) == SquareMatrix.identity(F13, 2)


def test_parametrization_rank_bounded_by_parameters():
    comp = component("ex1.W", F101)
    lower = parametrization_rank(comp)
    assert lower <= len(comp.scalars) + 3 * len(comp.mats)


def test_component_needs_roots():
    with pytest.raises(RingLacksRoots):
        component("ex3.W1", Q)  # Q has no i
    with pytest.raises(RingLacksRoots):
        component("ex4.Tj", F13, p=5)  # 13 - 1 is not divisible by 5
    with pytest.raises(InvalidParams):
        component("nope", F101)
    with pytest.raises(DegenerateLambda):
        component("ex1.W", PrimeField(3))  # the torus parameter 2 is -1 in F_3
    with pytest.raises(InvalidParams):
        component("ex2.Wj", F101, j=2)  # catalogued for j = 4 only
    with pytest.raises(InvalidParams):
        component("ex4.Tj", Q)  # needs a prime field


@pytest.mark.parametrize("p,j", [(5, 0), (5, 5), (5, 10), (4, 2), (2, 1), (1, 1)])
def test_ex4_refuses_p_dividing_2j(p, j):
    # zeta_p^j = +-1 there, so the trace target +-2 puts the witness off w = 1
    with pytest.raises(InvalidParams, match="not to divide 2j"):
        component("ex4.Tj", F101, p=p, j=j)


@pytest.mark.parametrize("ring,p,j", [
    (F101, 5, 1), (F101, 5, 2), (F101, 5, 3), (F101, 5, 4), (F101, 4, 1), (F101, 4, 3),
    (F101, 10, 3), (PrimeField(11), 5, 1),
])
def test_ex4_witness_lies_on_w_equal_1(ring, p, j):
    comp = component("ex4.Tj", ring, p=p, j=j)
    assert eval_group(comp.word, list(comp.witness())) == SquareMatrix.identity(ring, 2)


@pytest.mark.parametrize(
    "cid,params",
    [
        ("Sa", {"j": 2}),
        ("ex1.W", {"a": F101.from_int(7)}),
        ("ex2.Wj", {"p": 7}),
        ("ex4.Tj", {"a": F101.from_int(3)}),
        ("ex5.T2", {"p": 5}),
    ],
)
def test_component_refuses_a_parameter_it_does_not_read(cid, params):
    with pytest.raises(InvalidParams, match=f"{cid} does not read --{next(iter(params))}"):
        component(cid, F101, **params)


def test_a_text_shared_by_word_and_equation_is_parsed_once(monkeypatch):
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(geometry, "parse", counted)
    comp = component("ex5.T1", F101)
    assert texts == [EX5_TEXT]
    assert comp.equation == comp.word == parse(EX5_TEXT)


def test_component_defaults_j_per_component():
    # ex2.Wj is catalogued for j = 4 only, and takes it when j is not given
    assert component("ex2.Wj", F101).target == component("ex2.Wj", F101, j=4).target
    assert dimension_certificate(component("ex2.Wj", F101)).confirmed
    with pytest.raises(InvalidParams, match="ex2.Wj is catalogued for j = 4"):
        component("ex2.Wj", F101, j=6)
    # ex4.Tj keeps j = 1: trace target zeta_5 + zeta_5^-1
    assert component("ex4.Tj", F101).target == component("ex4.Tj", F101, j=1).target
    assert component("ex4.Tj", F101).target != component("ex4.Tj", F101, j=2).target


def test_certificates_over_alternative_fields():
    # ex2/ex3 need i: F_13 works; ex4 with p=5 over F_11 (zeta_5 exists)
    assert dimension_certificate(component("ex2.Wj", F13, j=4)).confirmed
    assert dimension_certificate(component("ex3.W1", F13)).confirmed
    assert dimension_certificate(component("ex4.Tj", PrimeField(11), p=5, j=1)).confirmed
    assert dimension_certificate(component("ex1.W", Q)).confirmed
    assert dimension_certificate(component("ex5.W1", Q)).confirmed


# ---------------------------------------------------------------------------
# relation scan and the Q8 witness


def test_relation_scan_q8():
    pair = q8_witness(F13)
    result = relation_scan(pair, 8)
    assert not result.trivial
    rels = set(result.relations)
    assert "x^4" in rels
    assert "x^2 y^-2" in rels
    assert "x y x^-1 y^-1 x^-2" in rels  # [x,y] x^-2


def test_q8_closure_has_eight_elements():
    assert_q8_order_eight(q8_witness(F13))
    # and over F_101 with a different mu
    assert_q8_order_eight(q8_witness(F101, F101.from_int(7)))


def test_relation_scan_commuting_infinite_order():
    # commuting diagonal pair over Q: relations are exactly the reduced words
    # with zero exponent sums, i.e. consequences of [x,y]
    t1 = diag(Q.from_int(2))
    t2 = diag(Q.from_int(3))
    result = relation_scan((t1, t2), 6)
    assert not result.trivial
    for text in result.relations:
        letters = parse(text).letters
        assert sum(e for g, e in letters if g == 1) == 0
        assert sum(e for g, e in letters if g == 2) == 0
    assert "x y x^-1 y^-1" in set(result.relations)  # [x,y]


def test_relation_scan_trivial_pair():
    ident = SquareMatrix.identity(Q, 2)
    result = relation_scan((ident, ident), 6)
    assert result.trivial and result.relations == ()


def test_relation_scan_deterministic_and_capped():
    pair = q8_witness(F13)
    assert relation_scan(pair, 6) == relation_scan(pair, 6)
    with pytest.raises(InvalidParams):
        relation_scan(pair, 13)
    for max_len in (0, -1):
        with pytest.raises(InvalidParams, match="max_len must be >= 1"):
            relation_scan(pair, max_len)


def test_relation_scan_free_pair_finds_nothing():
    # ping-pong pair generating a free group: no short relations
    a = matrix_from_json(Q, [[1, 2], [0, 1]])
    b = matrix_from_json(Q, [[1, 0], [2, 1]])
    assert relation_scan((a, b), 6).relations == ()
    # the pair may be any sequence of two matrices
    assert relation_scan([a, b], 6) == relation_scan((a, b), 6)


# ---------------------------------------------------------------------------
# lemma checks


def test_lemma78_unit_u_gives_identity():
    rep = lemma78_check(Q.from_int(2), Q.zero)
    assert rep.value == SquareMatrix.identity(Q, 2)
    assert rep.in_Uminus and rep.trivial_iff_unit


def test_lemma78_exhaustive_f13():
    lam = F13.from_int(2)  # order 12 > 4
    for u in range(1, 13):
        rep = lemma78_check(lam, F13.from_int(u))
        assert rep.in_Uminus
        assert rep.value != SquareMatrix.identity(F13, 2)
        assert rep.trivial_iff_unit


def test_lemma78_rejects_degenerate_lambda():
    F5 = PrimeField(5)
    with pytest.raises(DegenerateLambda):
        lemma78_check(F5.from_int(2), F5.one)  # 2^4 = 16 = 1 in F_5


def test_lemma101_over_f17():
    rep = lemma101_check(F17)
    assert rep.ok
    half = F17.from_int(2).inv()
    assert rep.z == matrix_from_json(F17, [[0, half.value], [-2 % 17, 0]])
    assert rep.intermediate == matrix_from_json(F17, [[-1, 1], [4, -5]])
    assert rep.final_trace == F17.from_int(34)
    assert rep.final_trace != F17.from_int(2)


def test_lemma101_other_fields_and_refusal():
    # F_41, F_73, F_89 all contain i and sqrt(2)
    for p in (41, 73, 89):
        assert lemma101_check(PrimeField(p)).ok
    with pytest.raises(RingLacksRoots):
        lemma101_check(Q)


# ---------------------------------------------------------------------------
# trace probe of w_sigma: the word with a constant s1 bound to sigma for y


def wsigma(text, sigma):
    return parse(text).with_binding({"s1": sigma})


def test_wsigma_probe_regular_semisimple():
    rng = random.Random(65)
    result = chi_probe(wsigma("[x,s1]", diag(F101.from_int(2))), 1, F101, rng, 100)
    assert result.verdict == ProbeVerdict.TAKES_MANY_VALUES


def test_wsigma_probe_central_sigma():
    rng = random.Random(66)
    sigma = SquareMatrix.identity(F101, 2).scaled(F101.from_int(-1))
    result = chi_probe(wsigma("s1 x s1^-1 x^-1", sigma), 1, F101, rng, 50)
    assert isinstance(result, ProbeResult)
    assert result.verdict == ProbeVerdict.CONSTANT_SO_FAR
    assert result.distinct_values == (F101.from_int(2),)


def test_wsigma_probe_engel_word():
    # adjacent constants are refused, so [[x,y],y] is written out reduced
    # before s1 takes the place of y
    assert render(parse("[[x,y],y]")) == "x y x^-1 y x y^-1 x^-1 y^-1"
    rng = random.Random(67)
    w = wsigma("x s1 x^-1 s1 x s1^-1 x^-1 s1^-1", diag(F101.from_int(3)))
    assert chi_probe(w, 1, F101, rng, 100).verdict == ProbeVerdict.TAKES_MANY_VALUES


def test_wsigma_probe_reports_samples_drawn():
    # the probe stops at 32 distinct traces; it reports the draws it made
    w = wsigma("[x,s1]", diag(F101.from_int(2)))
    result = chi_probe(w, 1, F101, random.Random(69), 1000)
    rng = random.Random(69)
    seen, drawn = set(), 0
    while len(seen) < 32:
        drawn += 1
        seen.add(eval_group(w, [random_sl2(F101, rng)]).trace())
    assert len(result.distinct_values) == 32
    assert result.samples == drawn < 1000
    # a central sigma gives one trace, so every requested sample is drawn
    central = SquareMatrix.identity(F101, 2).scaled(F101.from_int(-1))
    result = chi_probe(wsigma("[x,s1]", central), 1, F101, random.Random(70), 200)
    assert result.samples == 200 and len(result.distinct_values) == 1
