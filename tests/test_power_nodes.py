"""Power nodes against the written-out word.

The oracle is the parser with its power written out: ``_expanding_power``
below is the parser's power as it was before powers of a multi-syllable core
were kept as :class:`~wordmap.words.Power` nodes.  With it in place of
``wordmap.words._power`` no node is ever built, so the parse is the reduced
word letter by letter.  Every reader of a Word (evaluation, the adjugate
extension, jets, exponent data, length, render) must give on the word with
nodes what it gives on the written-out word.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordmap.words as words
from wordmap import (
    EmptyInnerWord,
    Power,
    PrimeField,
    SquareMatrix,
    eval_adjugate_extension,
    eval_group,
    exponent_data,
    jet_sweep,
    parse,
    parse_ring,
    random_sl2,
    render,
    word,
)
from wordmap.words import ConstLetter, _invert

RINGS = ("Fp:101", "Q", "Q[i]")


def _expanding_power(syllables, k):
    """The reduced k-th power of a reduced syllable list, written out."""
    if k < 0:
        syllables, k = _invert(syllables), -k
    i, j = 0, len(syllables) - 1
    while i < j and type(syllables[i]) is not ConstLetter and syllables[j] == (
        syllables[i][0], -syllables[i][1]
    ):
        i, j = i + 1, j - 1
    core = syllables[i:j + 1]
    if not core:
        return []
    first, last = core[0], core[-1]
    if ConstLetter not in (type(first), type(last)) and first[0] == last[0]:
        if len(core) == 1:
            core_k = [(first[0], first[1] * k)]
        else:
            middle = core[1:-1]
            joint = (first[0], first[1] + last[1])
            core_k = [first] + (middle + [joint]) * (k - 1) + middle + [last]
    else:
        core_k = core * k
    return syllables[:i] + core_k + syllables[j + 1:]


def written_out(text):
    with mock.patch.object(words, "_power", _expanding_power):
        return parse(text)


def _nodes(letters):
    return sum(1 + _nodes(s.core) for s in letters if type(s) is Power)


# ---------------------------------------------------------------------------
# word texts with powers of cores

_GENS = ("x", "y", "z")
_K = st.integers(1, 60).flatmap(lambda k: st.sampled_from([k, -k]))
_SMALL_K = st.integers(1, 6).flatmap(lambda k: st.sampled_from([k, -k]))
_EXP = st.sampled_from([-3, -2, -1, 1, 2, 3])


def _text(syllables):
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in syllables)


def _core(max_exp, constants=False):
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    syllable = st.tuples(st.sampled_from(_GENS), st.sampled_from(exps))
    core = st.lists(syllable, min_size=1, max_size=6).map(_text)
    if not constants:
        return core
    # a c b, or a c in one case of four: the constant c is s1, s2 or an
    # inverse, and where powers and commutators join, it can meet another
    constant = st.sampled_from(["s1", "s1^-1", "s2", "s2^-1"])
    return st.tuples(core, constant, st.one_of(core, core, core, st.just(""))).map(" ".join)


def _shapes(core, k):
    return st.one_of(
        st.tuples(core, k).map(lambda t: f"({t[0]})^{t[1]}"),
        # conjugated: (u c u^-1)^k
        st.tuples(core, core, k).map(lambda t: f"({t[0]} {t[1]} ({t[0]})^-1)^{t[2]}"),
        # merged ends: (g^a c g^b)^k
        st.tuples(st.sampled_from(_GENS), _EXP, core, _EXP, k).map(
            lambda t: f"({t[0]}^{t[1]} {t[2]} {t[0]}^{t[3]})^{t[4]}"
        ),
        # facing powers that cancel in part: (c)^j (c)^-k, (c)^j (c c)^-k
        st.tuples(core, k, k).map(lambda t: f"({t[0]})^{t[1]} ({t[0]})^{-t[2]}"),
        st.tuples(core, k, k).map(lambda t: f"({t[0]})^{t[1]} ({t[0]} {t[0]})^{-t[2]}"),
        # (a b)^j (a b)^-k spelt b^-1 (b a)^-(k-1) a^-1: nodes out of phase
        st.tuples(core, core, k, k).map(
            lambda t: f"({t[0]} {t[1]})^{t[2]} ({t[1]})^-1 ({t[1]} {t[0]})^{t[3]} ({t[0]})^-1"
        ),
        st.tuples(core, core).map(lambda t: f"[{t[0]}, {t[1]}]"),
    )


# Written out, a word below has at most a few thousand letters: one level of
# k in +-1..60, or two levels of smaller powers, such as ((x y)^3 z)^4
_WORD = _shapes(_core(3), _K)
_SMALL = _shapes(_core(2), _SMALL_K)
_PURE_CORES = st.one_of(
    _WORD,
    _shapes(_SMALL, _SMALL_K),
    st.tuples(_SMALL, st.booleans(), _SMALL).map(  # a bound constant beside a node
        lambda t: f"{t[0]} s1{'^-1' if t[1] else ''} {t[2]}"
    ),
)
_CONSTANT_CORES = st.one_of(  # at one level or two
    _shapes(_core(3, constants=True), _K),
    _shapes(_shapes(_core(2, constants=True), _SMALL_K), _SMALL_K),
)
WORD_TEXTS = st.booleans().flatmap(lambda c: _CONSTANT_CORES if c else _PURE_CORES)

# small integer SL2 matrices, so that exact entries over Q and Q[i] grow by
# well under a digit per letter
_ELEMENTARY = ([[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [-1, 1]])


def _point(ring, rng):
    if isinstance(ring, PrimeField):
        return random_sl2(ring, rng)
    m = SquareMatrix.identity(ring, 2)
    for _ in range(3):
        m = m * SquareMatrix.from_rows(ring, rng.choice(_ELEMENTARY))
    return m


@st.composite
def cases(draw):
    text = draw(WORD_TEXTS)
    ring = parse_ring(draw(st.sampled_from(RINGS)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    point = [_point(ring, rng) for _ in range(3)]
    binding = {c: _point(ring, rng) for c in ("s1", "s2")}
    return text, point, binding


def outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except EmptyInnerWord as exc:
        return type(exc), str(exc)


def check_against_written_out(text, point, binding):
    """Every reader of the parsed word gives what it gives on the written-out
    word; where two constants meet, both raise the same error."""
    expanded = outcome(written_out, text)
    assert outcome(parse, text) == expanded
    if isinstance(expanded, tuple):
        return
    w, expanded = parse(text).with_binding(binding), expanded.with_binding(binding)
    assert not _nodes(expanded.letters)
    assert hash(w) == hash(expanded)
    assert render(w) == render(expanded)
    assert parse(render(w)) == w
    plain = expanded.letters
    letters = sum(1 if type(s) is ConstLetter else abs(s[1]) for s in plain)
    assert w.length() == expanded.length() == letters
    assert w.max_generator() == expanded.max_generator()
    assert words._masses(w.letters) == words._masses(expanded.letters)
    assert w.r == expanded.r == sum(type(s) is ConstLetter for s in plain)
    for n in (2, 3):
        assert exponent_data(w, n) == exponent_data(expanded, n)
    assert eval_group(w, point) == eval_group(expanded, point)
    assert eval_adjugate_extension(w, point) == eval_adjugate_extension(expanded, point)
    value, derivs = jet_sweep(w, point)
    expected_value, expected = jet_sweep(expanded, point)
    assert value == expected_value
    assert derivs == expected


deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@deterministic
@given(cases())
def test_power_nodes_match_the_written_out_word(case):
    check_against_written_out(*case)


@pytest.mark.parametrize("spec", RINGS)
@pytest.mark.parametrize("k", [2, 3, 7, -5])
@pytest.mark.parametrize("text", [
    "([x,y] s1)^{k}",
    "(x s1 y^-1 s2^-1)^{k}",
    "((x s1)^3 y)^{k}",
    "(x y s1 z y^-1 x^-1)^{k}",  # a conjugated core
    "(x s1 x)^{k}",  # ends merged across the copies
    "(y^-1 s2 ([x,y] s1)^3 z y)^{k} x s1^-1",
])
def test_cores_with_constants_match_the_written_out_word(text, k, spec):
    ring = parse_ring(spec)
    rng = random.Random(k)
    point = [_point(ring, rng) for _ in range(3)]
    text = text.format(k=k)
    check_against_written_out(text, point, {c: _point(ring, rng) for c in ("s1", "s2")})
    assert k == 2 or _nodes(parse(text).letters)


@pytest.mark.parametrize("text,index", [
    ("(s1 x s2)^3", 3), ("(x s1 x^-1)^2", 2), ("(s1 x s1^-1)^3", 3), ("x (y s1 y^-1)^4", 2),
    ("(x s1)^4 (s2 y)^2", 5), ("((s1 x)^2 s2)^3", 4),
])
def test_constants_that_meet_across_copies_are_an_empty_inner_word(text, index):
    """The error names the same inner word as on the written-out word."""
    message = f"inner word w_{index} reduced to the identity"
    assert outcome(parse, text) == outcome(written_out, text) == (EmptyInnerWord, message)


def test_a_long_power_of_a_core_with_a_constant_is_one_node():
    tracemalloc.start()
    try:
        w = parse("([x,y] s1)^1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    core = ((1, 1), (2, 1), (1, -1), (2, -1), ConstLetter("s1"))
    assert w.letters == (Power(core, 1000000),)
    assert w.length() == 5000000 and w.r == 1000000
    assert peak < 2**20


def test_the_shapes_build_nodes():
    """Each shape of the generator above keeps its power as a node."""
    texts = [
        "(x y)^3",
        "((x y)^3 z)^4",
        "(x y^2 x^-1 z)^-5",
        "(x^2 y x)^7",
        "(x y)^9 (x y)^-4",
        "s1 (x y)^3",
        "(x s1 y)^3",
        # a core whose ends merge, with a node at its front or back
        "((x y)^3 x)^2",
        "(x (y x)^3)^2",
        "(x^-1 (y x)^3)^4",
    ]
    for text in texts:
        w = parse(text)
        assert _nodes(w.letters), text
        assert w == written_out(text)
    assert parse("((x y)^3)^4").letters == (Power(((1, 1), (2, 1)), 12),)
    assert parse("((x y)^3 z)^4").letters == (
        Power((Power(((1, 1), (2, 1)), 3), (3, 1)), 4),
    )
    # facing nodes that cancel, in or out of phase, in whole or in part, or
    # whose blocks differ only in an exponent; conjugations by a power
    assert parse("(x y)^9 (y^-1 x^-1)^9").is_identity()
    assert parse("(x y)^9 y^-1 (x^-1 y^-1)^8 x^-1").is_identity()
    for text in (
        "(x y)^9 (y^-1 x^-1 y^-1 x^-1)^4",
        "((x y)^9 z (y^-1 x^-1 y^-1 x^-1)^4)^5",
        "(x y)^2 (y^-1 x^-1 y^-1 x^-1)^2",
        "((x y)^2 z (y^-1 x^-1 y^-1 x^-1)^2)^3",
        "(x y)^5 (y^-2 x^-1)^3",
        "(x y^2)^5 (y^-1 x^-1)^3",
        "(x y)^6 (y^-1 x^-1 y^-1 x^-2)^2",
        "((x y)^5 z (y^-2 x^-1)^3)^2",
    ):
        assert parse(text) == written_out(text), text
    # x y^5 x^-1 is no node
    assert parse("(x y x^-1)^5").letters == ((1, 1), (2, 5), (1, -1))


def test_equality_and_hash_follow_the_written_out_word():
    a, b = parse("(x y)^4"), parse("x y x y (x y)^2")
    assert a == b and hash(a) == hash(b)
    assert a != parse("(x y)^3 x")
    c = parse("(y x)^4")  # the same masses, other syllables
    assert a != c and hash(a) != hash(c)
    assert len({a, b, parse("x y x y x y x y")}) == 1


def test_words_rebuild_from_their_letters():
    """word() takes a Word's letters, nodes included."""
    for text in ("(x y)^3", "((x y)^3 z)^4", "x^-1 (x y)^5 y^2", "(x^2 y x)^7 x^-1"):
        w = parse(text)
        assert word(w.letters) == w, text
        assert word([(1, 1)] + list(w.letters)) == parse(f"x {text}"), text
        assert word(list(w.letters) + [(2, -1)]) == parse(f"{text} y^-1"), text
    assert word(parse("(y^-1 x^-1)^4").letters + parse("(x y)^6").letters) == (
        parse("(x y)^2")
    )

