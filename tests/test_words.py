"""Word algebra and the parser."""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmap import (
    ConstLetter,
    EmptyInnerWord,
    Power,
    SquareMatrix,
    Word,
    WordmapError,
    WordSyntaxError,
    ZeroExponent,
    exponent_data,
    parse,
    parse_ring,
    render,
    word,
)
from wordmap.words import _SYLLABLE_TEXT


def test_parse_basic():
    w = parse("x y^-1 x^2")
    assert w.r == 0
    assert w == word([(1, 1), (2, -1), (1, 2)])


def test_trailing_whitespace_is_ignored():
    assert parse("x ") == parse(" x\t\n") == parse("x")
    assert parse("s1 x ").letters == parse("s1 x").letters


def test_parse_commutator():
    w = parse("[x,y]")
    assert w == word([(1, 1), (2, 1), (1, -1), (2, -1)])
    assert parse("[x^2,y]") == word([(1, 2), (2, 1), (1, -2), (2, -1)])


def test_parse_nested_commutator():
    w = parse("[ [x,y] , x [x,y] x^-1 ]")
    # [a, b] with a = x y x^-1 y^-1 and b = x^2 y x^-1 y^-1 x^-1: the junction
    # a^-1 b^-1 = y x y^-1 x^-1 . x y x y^-1 x^-2 cancels to y x^2 y^-1 x^-2
    assert w == word(
        [(1, 1), (2, 1), (1, -1), (2, -1), (1, 2), (2, 1), (1, -1), (2, -1), (1, -1),
         (2, 1), (1, 2), (2, -1), (1, -2)]
    )


def test_parse_constants():
    w = parse("s1 x s1^-1 x^-1")
    assert w.r == 2
    assert w.letters == (ConstLetter("s1", False), (1, 1), ConstLetter("s1", True), (1, -1))


def test_parse_power_and_parens():
    assert parse("(x y)^2") == word([(1, 1), (2, 1), (1, 1), (2, 1)])
    assert parse("x^-3") == word([(1, -3)])
    with pytest.raises(ZeroExponent):
        parse("x^0")


def test_parse_generators():
    w = parse("x4 z y")
    assert w == word([(4, 1), (3, 1), (2, 1)])


def test_parse_rejects_generator_zero_and_padded_indices():
    for text in ("x0", "x01", "x0^-1 x1", "[x00, y]"):
        with pytest.raises(WordSyntaxError, match="must start with 1-9"):
            parse(text)
    assert parse("x10") == word([(10, 1)])


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse("[x,y")
    with pytest.raises(WordSyntaxError):
        parse("x )")
    with pytest.raises(WordSyntaxError):
        parse("x ^")


def test_expanded_letter_cap(monkeypatch):
    monkeypatch.setattr("wordmap.words._MAX_LETTERS", 12)
    assert parse("x^12") == word([(1, 12)])
    assert parse("(x y)^6").length() == 12
    assert parse("[x^3, y^3]").length() == 12
    for text in ("x^13", "(x y)^-7", "[x^3, y^4]", "x^12 y", "(x^6 y^6) x"):
        with pytest.raises(WordSyntaxError, match="more than 12 letters"):
            parse(text)


def test_powers_parse_in_memory_bounded_by_the_text():
    tracemalloc.start()
    try:
        w = parse("x^9999999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w == word([(1, 9999999)])
    assert w.letters == ((1, 9999999),)
    assert peak < 2**20
    assert parse("x^300123 y^-300456").letters == ((1, 300123), (2, -300456))
    # (u c u^-1)^k = u c^k u^-1, and a core a m b with ends on one generator
    assert parse("(x y x^-1)^-1000000") == word([(1, 1), (2, -1000000), (1, -1)])
    merged = [(1, 2), (2, 1), (1, 5), (2, 1), (1, 5), (2, 1), (1, 3)]
    assert parse("(x^2 y x^3)^3") == word(merged)


def test_long_powers_hold_their_core_once():
    """A power of a multi-syllable core is one Power node, so parsing it
    takes memory in the core, not in the exponent; it still equals, and
    renders as, the written-out word."""
    tracemalloc.start()
    try:
        w = parse("(y x)^1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.letters == (Power(((2, 1), (1, 1)), 1000000),)
    assert w.length() == 2000000
    assert peak < 2**20
    assert parse("(y x)^50") == word([(2, 1), (1, 1)] * 50)
    assert render(parse("(y x)^3")) == "y x y x y x"


def _parse_line_events(text):
    """Parse ``text`` and count the lines run inside wordmap.words."""
    import wordmap.words as words

    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != words.__file__:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        parse(text)
    finally:
        sys.settrace(previous)
    return count


def test_nested_concatenation_costs_the_junction_only():
    """Each level of x (x (... (y x)^k ...)) joins at one syllable, so the
    parser's extra work for the nesting does not grow with k."""
    depth = 30

    def overhead(k):
        inner = f"(y x)^{k}"
        nested = "x (" * depth + inner + ")" * depth
        return _parse_line_events(nested) - _parse_line_events(inner)

    assert parse("x (" * depth + "(y x)^3" + ")" * depth) == word(
        [(1, depth)] + [(2, 1), (1, 1)] * 3
    )
    assert overhead(10) == overhead(1000)


def test_algebra_reduces_hand_built_words():
    w = Word(((1, 1), (1, 1), (2, 1), (2, -1)))
    assert word(w.letters) == word([(1, 2)])
    assert word(w.letters + ((1, -2),)).is_identity()
    # any two-item sequence is a pair, and the Word stores it as a tuple
    assert word([[1, 2], [2, 1]]).letters == ((1, 2), (2, 1))
    assert word([[1, 1], ConstLetter("a"), [2, 1]]) == parse("x a y")


def free_reduction(items):
    """The reduced syllables of unreduced (gen, exp) pairs and constants, by a
    stack over single letters: a letter cancels its inverse on top, a
    constant is a barrier, and maximal runs of one letter become syllables."""
    stack = []
    for item in items:
        if type(item) is ConstLetter:
            stack.append(item)
            continue
        g, e = item
        for _ in range(abs(e)):
            letter = (g, 1 if e > 0 else -1)
            if stack and stack[-1] == (g, -letter[1]):
                stack.pop()
            else:
                stack.append(letter)
    syllables = []
    for letter in stack:
        if syllables and type(letter) is tuple and type(syllables[-1]) is tuple \
                and syllables[-1][0] == letter[0]:
            syllables[-1] = (letter[0], syllables[-1][1] + letter[1])
        else:
            syllables.append(letter)
    return tuple(syllables)


# few generators and small exponents, zeros included, so that runs on one
# generator merge and cancel, with constants between them as barriers
unreduced_items = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 2), st.integers(-3, 3)),
        st.builds(ConstLetter, st.sampled_from(["a", "b"]), st.booleans()),
    ),
    max_size=16,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(unreduced_items)
def test_word_matches_a_stack_free_reduction(items):
    reduced = free_reduction(items)
    if any(type(a) is type(b) is ConstLetter for a, b in zip(reduced, reduced[1:])):
        with pytest.raises(EmptyInnerWord):
            word(items)
    else:
        assert word(items).letters == reduced


def test_expanded_letter_cap_at_default():
    with pytest.raises(WordSyntaxError, match="more than 10000000 letters") as info:
        parse("x^10000001")
    assert info.value.pos == 2
    with pytest.raises(WordSyntaxError, match="more than 10000000 letters") as info:
        parse("x y (x^5000000 y^5000000)")
    assert info.value.pos == 3  # a token starts at the whitespace before it


def test_empty_inner_word_rejected():
    with pytest.raises(EmptyInnerWord):
        parse("s1 s2")
    with pytest.raises(EmptyInnerWord):
        parse("s1^2 x")  # expands to s1 s1 x with an empty inner word
    # constants at the ends are fine
    w = parse("s1 x s2")
    assert w.r == 2


def test_reduction():
    assert parse("x x^-1") == Word()
    assert parse("x y y^-1 x") == word([(1, 2)])
    w = word([(1, 1), (1, -1), (2, 3), (2, -3)])
    assert w.is_identity()
    assert w == Word()


def test_free_group_identities():
    # the laws of the word algebra, stated through the parser's text syntax
    rng = random.Random(5)
    for _ in range(100):
        u = word([(rng.randint(1, 3), rng.choice([1, -1, 2])) for _ in range(5)])
        v = word([(rng.randint(1, 3), rng.choice([1, -1, 2])) for _ in range(5)])
        U, V = f"({render(u)})", f"({render(v)})"
        assert parse(f"{U} {U}^-1").is_identity()
        assert parse(f"({U}^-1)^-1") == u
        assert parse(f"({U} {V})^-1") == parse(f"{V}^-1 {U}^-1")
        assert parse(f"{U}^3") == parse(f"{U} {U} {U}")
        assert parse(f"[{U},{U}]").is_identity()


def test_render_round_trip():
    rng = random.Random(6)
    texts = ["[x,y]", "x^2 y^-1", "s1 x s1^-1 x^-1", "x x^-1", "[ [x,y] , x [x,y] x^-1 ]"]
    for t in texts:
        w = parse(t)
        assert parse(render(w)) == w
    for _ in range(100):
        syllables = [(rng.randint(1, 4), rng.choice([1, -1, 2, -3])) for _ in range(6)]
        w = word(syllables)
        assert parse(render(w)) == w


def reference_render(w):
    """Every syllable spelled out, as the parser reads it back."""
    names = {1: "x", 2: "y", 3: "z"}
    parts = []
    for g, e in w.letters:
        name = names.get(g, f"x{g}")
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) or "x x^-1"


# generators 1-5 and |e| <= 40 reach the syllable table (x, y, z with
# |e| <= 16) and both ways past it (x4, x5 and the larger exponents)
syllable_lists = st.lists(
    st.tuples(st.integers(1, 5), st.integers(-40, 40).filter(bool)), max_size=12)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(syllable_lists)
def test_render_matches_the_reference_and_parses_back(syllables):
    w = word(syllables)
    text = render(w)
    assert text == reference_render(w) == render(w)
    assert parse(text) == w


def test_render_leaves_the_syllable_table_as_it_is():
    size = len(_SYLLABLE_TEXT)
    assert render(parse("x^13 x4^-2 y^300")) == "x^13 x4^-2 y^300"
    assert len(_SYLLABLE_TEXT) == size


def test_exponent_data_sect2_word():
    w = parse("s1 x s1^-1 x^-1")
    data = exponent_data(w, 2)
    assert data.a == 1 and data.b == 1
    assert data.degrees == {1: 2}
    assert data.total_degree == 2


def test_exponent_data_degrees():
    w = parse("x^3 y^-2 x^-1")
    data = exponent_data(w, 3)
    assert data.a == 3 and data.b == 3
    assert data.a_pos == {1: 3} and data.b_neg == {1: 1, 2: 2}
    # d_r = a_r+ + (n-1) b_r
    assert data.degrees == {1: 3 + 2 * 1, 2: 0 + 2 * 2}
    assert data.total_degree == 3 + 2 * 3


def test_word_with_constants_shape():
    w = parse("x s1 y s2 z")
    assert w.r == 2
    assert w.max_generator() == 3
    items = [(1, 1), ConstLetter("a"), (2, 1)]
    assert word(items).r == 1


@pytest.mark.parametrize("key", ["y", "x1"])
def test_with_binding_refuses_a_generator_key(key):
    # a generator key was once kept: chi_probe of [x,y] bound by {"y": sigma}
    # drew y all the same and read TakesManyValues without a word
    sigma = SquareMatrix.from_rows(parse_ring("Fp:101"), [[2, 0], [0, 51]])
    w = parse("[x,y]")
    with pytest.raises(WordmapError, match=f"'{key}' is not a constant; write a constant such as s1"):
        w.with_binding({key: sigma})
    assert w.with_binding({"s1": sigma, "sigma": sigma}).binding == {"s1": sigma, "sigma": sigma}
