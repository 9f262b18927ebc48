"""Acceptance gate: one test (and one pass/fail line under ``pytest -v``) per criterion.

Each test prints a single summary line; run with ``-s`` to see them inline.
"""

import json
import random
import time

from wordmap import (
    PrimeField,
    Rationals,
    SquareMatrix,
    check_restriction_identities,
    component,
    det,
    dimension_certificate,
    dominance_probe,
    eval_adjugate_extension,
    eval_group,
    lemma78_check,
    lemma101_check,
    parse,
    random_sl2,
    relation_scan,
    separation_witness,
    star_search,
    trace_preimage_commutator,
    verify_lemma_table,
)
from wordmap.cli import main
from wordmap.geometry import COMPONENT_IDS, diag
from wordmap.matrices import matrix_from_json
from wordmap.rootsys import build
from wordmap.words import ConstLetter, EmptyInnerWord, _masses, word

from closed_forms import (
    assert_q8_order_eight,
    commutator_closed_form,
    commutator_trace,
    homogeneity_check,
    q8_witness,
)

Q = Rationals()
F13 = PrimeField(13)
F17 = PrimeField(17)
F101 = PrimeField(101)


def constant_names(w):
    """The constant names of ``w``, sorted."""
    return sorted(c for c in _masses(w.letters) if type(c) is str)


def adjugate(m):
    """adj M, which is by definition the adjugate extension of x^-1 at M."""
    return eval_adjugate_extension(parse("x^-1"), [m])


def report(n, text):
    print(f"\nACCEPTANCE {n:2d}: {text} -- PASS")


def random_matrix(ring, n, rng, invertible=False):
    while True:
        m = SquareMatrix.from_rows(
            ring, [[ring.scalar(ring.rrandom(rng)) for _ in range(n)] for _ in range(n)]
        )
        if not invertible or det(m).is_invertible():
            return m


def random_word(rng, maxlen, with_constants=True):
    items = []
    for _ in range(rng.randint(1, maxlen)):
        if with_constants and rng.random() < 0.25:
            items.append(ConstLetter(f"s{rng.randint(1, 2)}", rng.random() < 0.5))
        else:
            items.append((rng.randint(1, 2), rng.choice([1, -1, 2, -2])))
    try:
        return word(items)
    except EmptyInnerWord:
        return None


def test_01_adjugate_laws():
    rng = random.Random(101)
    checked = 0
    for ring in (Q, F101):
        for n in (2, 3, 4):
            for _ in range(84):
                m = random_matrix(ring, n, rng)
                di = SquareMatrix.identity(ring, n).scaled(det(m))
                assert m * adjugate(m) == di and adjugate(m) * m == di
                checked += 1
    assert checked >= 500
    report(1, f"adjugate law M*adj(M)=adj(M)*M=det(M)I on {checked} random matrices")


def test_02_restriction_identities():
    rng = random.Random(102)
    count = 0
    while count < 100:
        n = rng.choice([2, 3])
        w = random_word(rng, 8)
        if w is None:
            continue
        binding = {
            name: random_matrix(F101, n, rng, invertible=True)
            for name in constant_names(w)
        }
        w = w.with_binding(binding)
        tup = [
            random_matrix(F101, n, rng, invertible=True)
            for _ in range(max(w.max_generator(), 1))
        ]
        assert check_restriction_identities(w, tup).holds
        count += 1
    # restriction to SL_n: the extension coincides with plain evaluation
    for _ in range(25):
        w = random_word(rng, 8)
        if w is None:
            continue
        binding = {name: random_sl2(F101, rng) for name in constant_names(w)}
        w = w.with_binding(binding)
        tup = [random_sl2(F101, rng) for _ in range(max(w.max_generator(), 1))]
        assert eval_adjugate_extension(w, tup) == eval_group(w, tup)
    report(2, "restriction identities (GL: delta factor; SL: exact match) on 100 random pairs")


def closed_form(ring, s, y):
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


def test_03_conjugation_example_closed_form():
    w = parse("s1 x s1^-1 x^-1")
    rng = random.Random(103)
    for ring in (Q, F13):
        for _ in range(50):
            while True:
                s = ring.scalar(ring.rrandom(rng))
                if s.is_invertible() and s != ring.one:
                    break
            sigma = SquareMatrix.from_rows(ring, [[s, ring.zero], [ring.zero, s.inv()]])
            y = random_matrix(ring, 2, rng)
            wb = w.with_binding({"s1": sigma})
            assert eval_adjugate_extension(wb, [y]) == closed_form(ring, s, y)
    report(3, "two-sided conjugation word matches its closed form at 100 points (Q and F_13)")


def test_04_homogeneity():
    rng = random.Random(104)
    checked = 0
    while checked < 50:
        n = rng.choice([2, 3])
        w = random_word(rng, 6)
        if w is None:
            continue
        binding = {
            name: random_matrix(F101, n, rng, invertible=True)
            for name in constant_names(w)
        }
        w = w.with_binding(binding)
        m = max(w.max_generator(), 1)
        tup = [random_matrix(F101, n, rng, invertible=True) for _ in range(m)]
        for r in range(1, m + 1):
            c = F101.from_int(rng.randrange(1, 101))
            assert homogeneity_check(w, tup, r, c)
        checked += 1
    report(4, "per-variable homogeneity of degree a_r+ + (n-1)b_r on 50 random words")


def test_05_trace_surjectivity():
    lam = F101.from_int(2)
    hits = 0
    for a_int in range(101):
        a = F101.from_int(a_int)
        pair = trace_preimage_commutator(a, lam, F101.one)
        if eval_group(parse("[x,y]"), pair).trace() == a:
            hits += 1
    assert hits == 101
    report(5, "commutator trace preimage hits all 101 values of F_101 exactly")


def test_06_commutator_trace_formula():
    rng = random.Random(106)
    for _ in range(200):
        lam = F101.from_int(rng.randrange(1, 101))
        t = diag(lam)
        g = random_sl2(F101, rng)
        value = commutator_closed_form(t, g)
        assert value == eval_group(parse("[x,y]"), [t, g])
        assert value.trace() == commutator_trace(lam, g[0, 1], g[1, 0])
    report(6, "trace [t,g] = 2 - beta*gamma*(lam - 1/lam)^2 at 200 random points")


def test_07_dimension_certificates():
    results = []
    for cid in COMPONENT_IDS:
        comp = component(cid, F101)  # p = 5, and j = 4 for ex2.Wj, 1 for ex4.Tj
        cert = dimension_certificate(comp)
        assert cert.lower == cert.upper == cert.claimed, cid
        assert cert.confirmed
        results.append(f"{cid}={cert.claimed}")
    report(7, "all nine component certificates confirm: " + ", ".join(results))


def test_08_separation_witnesses():
    for text in ["[x,y]", "[x^2,y]", "[x,y]^2", "[x,y]^5",
                 "[ [x,y] , x [x,y] x^-1 ]"]:
        w = parse(text)
        point = separation_witness(w, F101)
        assert point is not None, text
        value = eval_group(w, point)
        assert value.trace() == F101.from_int(2)
        assert value != SquareMatrix.identity(F101, 2)
    report(8, "nontrivial unipotent value (trace 2, != I) produced for all five example words")


def test_09_q8_detection():
    pair = q8_witness(F13)
    rels = set(relation_scan(pair, 8).relations)
    assert "x^4" in rels
    assert "x^2 y^-2" in rels
    assert "x y x^-1 y^-1 x^-2" in rels  # [x,y] x^-2
    assert_q8_order_eight(pair)
    report(9, "Q8 witness: finds x^4, x^2 y^-2, [x,y] x^-2; the group has exactly 8 elements")


def test_10_lemma78_exhaustive():
    lam = F13.from_int(2)
    rep0 = lemma78_check(lam, F13.zero)
    assert rep0.value == SquareMatrix.identity(F13, 2)
    for u in range(1, 13):
        rep = lemma78_check(lam, F13.from_int(u))
        assert rep.in_Uminus and rep.trivial_iff_unit
        assert rep.value != SquareMatrix.identity(F13, 2)
    report(10, "lower-unitriangular lemma exhaustive over F_13: trivial iff u = 0")


def test_11_lemma101():
    rep = lemma101_check(F17)
    assert rep.ok
    assert rep.z == matrix_from_json(F17, [[0, 9], [15, 0]])  # [[0,1/2],[-2,0]] mod 17
    assert rep.intermediate == matrix_from_json(F17, [[-1, 1], [4, -5]])
    assert rep.final_trace == F17.from_int(34) != F17.from_int(2)
    report(11, "explicit unipotent-class computation over F_17: z, square, trace 34 != 2")


def test_12_root_system_table():
    t0 = time.time()
    rows = verify_lemma_table(8)
    assert all(row.holds == row.expected for row in rows)
    failures = sorted(
        (r.type_label, r.rank) for r in rows if not r.holds
    )
    assert failures == [("A", r) for r in range(2, 9)] + [("D", 5), ("D", 7), ("E", 6)]
    e8 = time.time()
    assert star_search(build("E", 8)).holds
    e8_time = time.time() - e8
    assert e8_time < 60
    report(12, f"verdict table matches the except-list; E8 search in {e8_time:.2f}s")


def test_13_dominance_probe():
    rng = random.Random(113)
    for text in ("[x,y]", "x^2", "[[x,y],y]"):
        w = parse(text)
        hits = sum(
            dominance_probe(
                w, [random_sl2(F101, rng) for _ in range(max(w.max_generator(), 1))]
            ) == 3
            for _ in range(10)
        )
        assert hits >= 9, text
    sigma = matrix_from_json(F101, [[2, 0], [0, 51]])
    w = parse("x s1 x^-1").with_binding({"s1": sigma})
    assert all(dominance_probe(w, [random_sl2(F101, rng)]) == 2 for _ in range(10))
    report(13, "jet rank 3 for [x,y], x^2, Engel word; rank 2 for conjugation word")


def test_14_determinism(capsys):
    argvs = [
        ["chi-probe", "--ring", "Fp:101", "--word", "[x,y]", "--seed", "11",
         "--samples", "60"],
        ["dominance", "--ring", "Fp:101", "--word", "[[x,y],y]", "--seed", "4"],
        ["--ring", "Fp:101", "dimcert", "--example", "ex5.T1"],
        ["roots", "table", "--max-rank", "6"],
    ]
    for argv in argvs:
        assert main(argv) == 0
        out1 = capsys.readouterr().out
        assert main(argv) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        json.loads(out1)  # valid JSON
    report(14, "identical (argv, seed) produce byte-identical JSON across 4 subcommands")
