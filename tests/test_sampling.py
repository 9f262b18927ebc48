"""Sampling on raw values against the boxed sampler it replaced.

``boxed_random_sl2``, ``boxed_value`` and ``boxed_sample_distinct`` below
are the sampler as it was when it drew Scalars, inverted every letter with
``SquareMatrix.inverse`` and scanned a list of values with ``==``.  Each
ring's draw is spelled out in ``boxed_draw``, apart from ``rrandom``, and the
word is multiplied out letter by letter with boxed matrix products, apart
from the product loop of :mod:`wordmap.evaluate`.  The raw sampler must draw
the same matrices, leave the rng in the same state after each draw, and give
the probes the same distinct values, verdict and sample count.
"""

import random
from fractions import Fraction

import pytest

import wordmap.evaluate as evaluate
import wordmap.geometry as geometry
import wordmap.matrices as matrices
from wordmap import (
    ConstLetter,
    Power,
    PrimeField,
    ProbeResult,
    ProbeVerdict,
    Rationals,
    SquareMatrix,
    chi_probe,
    charpoly,
    parse,
    parse_ring,
    random_sl2,
)
from wordmap.evaluate import _DISTINCT_CAP

RINGS = ("Fp:5", "Fp:10007", "Q", "Q[i]", "Fp:7[i]", "Q[sqrt(2)]")
WORDS = ("[x,y]", "x^2", "[x^2,y^-1]", "x y x^-1", "(x y)^5 z", "x x^-1", "([x,y] x)^7",
         "x^5 y^-3")
# words with bound constants s1 = diag(2, 1), whose det is not 1, and s2 = s1^2;
# the last three are w_sigma for [x,y], y x y^-1 and [x,y^2] z with s1 = sigma
# in place of y (s2 = sigma^2 for y^2, as adjacent constants are refused)
CONSTANT_WORDS = ("x s1^-1 y", "(s1 x)^3 y^-1 s1^-1", "x s1 x^-1 s1^-1", "s1 x s1^-1",
                  "x s2 x^-1 s2^-1 z")


def boxed_draw(ring, rng):
    """A Scalar of ``ring``, drawn as the sampler has always drawn it."""
    if isinstance(ring, PrimeField):
        return ring.scalar(rng.randrange(ring.p))
    if isinstance(ring, Rationals):
        return ring.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    re, im = boxed_draw(ring.base, rng), boxed_draw(ring.base, rng)
    return ring.scalar((re.value, im.value))


def boxed_random_sl2(ring, rng):
    while True:
        a = boxed_draw(ring, rng)
        b = boxed_draw(ring, rng)
        c = boxed_draw(ring, rng)
        if a.is_invertible():
            d = (ring.one + b * c) / a
            return SquareMatrix.from_rows(ring, [[a, b], [c, d]])


def boxed_value(items, tup, binding):
    """The product of a word's items, one boxed factor at a time."""
    acc = SquareMatrix.identity(tup[0].ring, tup[0].n)
    for item in items:
        if type(item) is Power:
            factor = boxed_value(item.core, tup, binding) ** item.k
        elif type(item) is ConstLetter:
            factor = binding[item.name].inverse() if item.inv else binding[item.name]
        else:
            g, e = item
            factor = tup[g - 1].inverse() ** -e if e < 0 else tup[g - 1] ** e
        acc = acc * factor
    return acc


def boxed_sample_distinct(draw, samples):
    seen = []
    drawn = 0
    while drawn < samples and len(seen) < _DISTINCT_CAP:
        drawn += 1
        value = draw()
        if value not in seen:
            seen.append(value)
    verdict = (
        ProbeVerdict.CONSTANT_SO_FAR if len(seen) <= 1 else ProbeVerdict.TAKES_MANY_VALUES
    )
    return tuple(seen), verdict, drawn


def boxed_chi_probe(w, i, ring, rng, samples):
    m = max(w.max_generator(), 1)

    def draw():
        tup = [boxed_random_sl2(ring, rng) for _ in range(m)]
        return charpoly(boxed_value(w.letters, tup, w.binding))[i - 1]

    return ProbeResult(*boxed_sample_distinct(draw, samples))


def diag21(ring):
    return SquareMatrix.from_rows(ring, [[2, 0], [0, 1]])


@pytest.mark.parametrize("spec", RINGS)
def test_random_sl2_draws_what_the_boxed_sampler_drew(spec):
    ring = parse_ring(spec)
    raw, boxed = random.Random(spec), random.Random(spec)
    for _ in range(200):  # over Fp:5 some a = 0 draws are retried
        assert random_sl2(ring, raw) == boxed_random_sl2(ring, boxed)
        assert raw.getstate() == boxed.getstate()


@pytest.mark.parametrize("spec", RINGS)
@pytest.mark.parametrize("text", WORDS)
@pytest.mark.parametrize("index", (1, 2))
def test_chi_probe_matches_the_boxed_sampler(spec, text, index):
    ring, w = parse_ring(spec), parse(text)
    for seed in range(3):
        raw, boxed = random.Random(seed), random.Random(seed)
        assert chi_probe(w, index, ring, raw, 40) == boxed_chi_probe(w, index, ring, boxed, 40)
        assert raw.getstate() == boxed.getstate()


@pytest.mark.parametrize("spec", RINGS)
@pytest.mark.parametrize("text", CONSTANT_WORDS)
@pytest.mark.parametrize("index", (1, 2))
def test_chi_probe_inverts_constants_truly(spec, text, index):
    # an adjugate in place of the inverse of s1 would scale each value
    ring = parse_ring(spec)
    w = parse(text).with_binding({"s1": diag21(ring), "s2": diag21(ring) ** 2})
    for seed in range(3):
        raw, boxed = random.Random(seed), random.Random(seed)
        assert chi_probe(w, index, ring, raw, 40) == boxed_chi_probe(w, index, ring, boxed, 40)
        assert raw.getstate() == boxed.getstate()


def test_the_cases_reach_both_verdicts_and_the_cap():
    results = [
        chi_probe(parse(text), index, parse_ring(spec), random.Random(0), 40)
        for spec in RINGS
        for text in WORDS
        for index in (1, 2)
    ]
    assert {r.verdict for r in results} == set(ProbeVerdict)  # chi_2 = det = 1
    assert any(r.samples < 40 for r in results)  # stopped at _DISTINCT_CAP


def test_probes_check_once_and_draw_raw(monkeypatch):
    """Each probe checks its word once; no draw evaluates a boxed word, takes
    a charpoly or inverts a drawn point.  Over F_5 no probe reaches the cap,
    so both make all 200 draws."""
    ring = parse_ring("Fp:5")
    s1 = diag21(ring)
    checks, inverted = [], []
    check_tuple, inverse = evaluate._check_tuple, SquareMatrix.inverse

    def counting_check(w, tup):
        checks.append(w)
        return check_tuple(w, tup)

    def counting_inverse(self):
        inverted.append(self)
        return inverse(self)

    def forbidden(*args, **kwargs):
        raise AssertionError("a probe draw took the boxed path")

    monkeypatch.setattr(evaluate, "_check_tuple", counting_check)
    monkeypatch.setattr(SquareMatrix, "inverse", counting_inverse)
    for module in (evaluate, geometry, matrices):
        for name in ("eval_group", "charpoly"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)

    w = parse("x s1^-1 y x^-2").with_binding({"s1": s1})
    result = chi_probe(w, 1, ring, random.Random(1), 200)
    assert result.samples == 200
    assert len(checks) == 1 and inverted == [s1]

    checks.clear(), inverted.clear()
    sigma = SquareMatrix.from_rows(ring, [[3, 0], [0, 1]])
    w = parse("[x,s1] z^-1").with_binding({"s1": sigma})
    result = chi_probe(w, 1, ring, random.Random(1), 200)
    assert result.samples == 200
    assert len(checks) == 1 and inverted == [sigma]
