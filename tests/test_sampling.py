"""Sampling on raw values against the boxed sampler it replaced.

``boxed_random_sl2`` and ``boxed_sample_distinct`` below are the sampler as
it was when it drew Scalars and scanned a list of them with ``==``.  The raw
sampler must draw the same matrices, leave the rng in the same state after
each draw, and give the probes the same distinct values, verdict and sample
count.
"""

import random

import pytest

from wordmap import (
    ProbeResult,
    ProbeVerdict,
    SquareMatrix,
    chi_probe,
    charpoly,
    eval_group,
    parse,
    parse_ring,
    pure,
    random_sl2,
    wsigma_trace_probe,
)
from wordmap.evaluate import _DISTINCT_CAP

RINGS = ("Fp:5", "Fp:10007", "Q", "Q[i]")
WORDS = ("[x,y]", "x^2", "[x^2,y^-1]", "x y x^-1", "(x y)^5 z")


def boxed_random_sl2(ring, rng):
    while True:
        a = ring.random(rng)
        b = ring.random(rng)
        c = ring.random(rng)
        if a.is_invertible():
            d = (ring.one + b * c) / a
            return SquareMatrix.from_rows(ring, [[a, b], [c, d]])


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
        return charpoly(eval_group(w, tup)).chi[i - 1]

    return ProbeResult(*boxed_sample_distinct(draw, samples))


def boxed_wsigma_trace_probe(w, sigma, rng, samples):
    ring = sigma.ring
    m = max(w.max_generator(), 2)

    def draw():
        tup = [boxed_random_sl2(ring, rng) for _ in range(m)]
        tup[1] = sigma
        return eval_group(pure(w), tup).trace()

    return ProbeResult(*boxed_sample_distinct(draw, samples))


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
@pytest.mark.parametrize("text", ("[x,y]", "y x y^-1", "[x, y^2] z"))
def test_wsigma_trace_probe_matches_the_boxed_sampler(spec, text):
    ring, w = parse_ring(spec), parse(text).word
    for seed in range(3):
        sigma = random_sl2(ring, random.Random(seed + 100))
        raw, boxed = random.Random(seed), random.Random(seed)
        assert wsigma_trace_probe(w, sigma, raw, 40) == boxed_wsigma_trace_probe(
            w, sigma, boxed, 40
        )
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
