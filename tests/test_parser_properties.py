"""Property tests of the word parser against an expand-then-reduce oracle.

The oracle is the parser as it was before powers were kept as syllables: it
expands every power and commutator letter by letter, then reduces the letters
between constants.  The parser under test must give the same written-out
items, or raise the same exception type with the same message.
"""

import re
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import wordmap.words as words
from wordmap import EmptyInnerWord, WordmapError, WordSyntaxError, ZeroExponent, parse, render
from wordmap.words import ConstLetter, _syllables, _tokenize

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=400)


# ---------------------------------------------------------------------------
# the oracle


def _oracle_check(count, pos):
    if count > words._MAX_LETTERS:
        raise WordSyntaxError(f"word expands to more than {words._MAX_LETTERS} letters", pos)


def _oracle_invert(items):
    return [
        (i[0], -i[1]) if isinstance(i, tuple) else ConstLetter(i.name, not i.inv)
        for i in reversed(items)
    ]


def _oracle_reduce(items):
    """Merge and cancel letters on one generator; a constant is a barrier."""
    out = []
    for item in items:
        if isinstance(item, tuple) and out and isinstance(out[-1], tuple) and (
            out[-1][0] == item[0]
        ):
            merged = out.pop()[1] + item[1]
            if merged:
                out.append((item[0], merged))
        else:
            out.append(item)
    return out


class _OracleParser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise WordSyntaxError(f"expected {kind}, got {tok[1]!r}", tok[2])
        return tok

    def parse_word(self):
        items = self.parse_term()
        while self.peek()[0] in ("lbrack", "lparen", "ident"):
            pos = self.peek()[2]
            term = self.parse_term()
            _oracle_check(len(items) + len(term), pos)
            items += term
        return items

    def parse_term(self):
        items = self.parse_factor()
        if self.peek()[0] == "caret":
            self.next()
            tok = self.expect("int")
            k = int(tok[1])
            if k == 0:
                raise ZeroExponent(f"zero exponent at position {tok[2]}")
            _oracle_check(len(items) * abs(k), tok[2])
            items = (items if k > 0 else _oracle_invert(items)) * abs(k)
        return items

    def parse_factor(self):
        kind, val, pos = self.peek()
        if kind == "lbrack":
            self.next()
            u = self.parse_word()
            self.expect("comma")
            v = self.parse_word()
            self.expect("rbrack")
            _oracle_check(2 * (len(u) + len(v)), pos)
            return u + v + _oracle_invert(u) + _oracle_invert(v)
        if kind == "lparen":
            self.next()
            items = self.parse_word()
            self.expect("rparen")
            return items
        if kind == "ident":
            self.next()
            if val in ("x", "y", "z"):
                return [("xyz".index(val) + 1, 1)]
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                return [(int(m.group(1)), 1)]
            if val.isidentifier():
                return [ConstLetter(val)]
        raise WordSyntaxError(f"unexpected token {val!r}", pos)


def oracle_parse(text):
    parser = _OracleParser(text)
    items = parser.parse_word()
    if parser.peek()[0] != "eof":
        tok = parser.peek()
        raise WordSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    items = _oracle_reduce(items)
    constants = 0
    for left, right in zip([None] + items, items):
        if isinstance(left, ConstLetter) and isinstance(right, ConstLetter):
            raise EmptyInnerWord(f"inner word w_{constants + 1} reduced to the identity")
        constants += isinstance(right, ConstLetter)
    return items


def written_out_parse(text):
    return list(_syllables(parse(text).letters))


# ---------------------------------------------------------------------------
# word texts: nested commutators, signed powers, xN generators, constants

LEAVES = st.sampled_from(["x", "y", "z", "x1", "x4", "s1", "c"])
EXPONENTS = st.sampled_from([-99, -37, -4, -3, -2, -1, 1, 2, 3, 4, 25, 100])


def _compound(children):
    return st.one_of(
        st.tuples(children, children).map(lambda uv: f"[{uv[0]},{uv[1]}]"),
        st.tuples(children, EXPONENTS).map(lambda wk: f"({wk[0]})^{wk[1]}"),
        st.tuples(LEAVES, EXPONENTS).map(lambda lk: f"{lk[0]}^{lk[1]}"),
        st.lists(children, min_size=2, max_size=4).map(" ".join),
        # (u c u^-1)^k: the power of a conjugate
        st.tuples(children, children, EXPONENTS).map(
            lambda uck: f"({uck[0]} {uck[1]} ({uck[0]})^-1)^{uck[2]}"
        ),
        # (g^a c g^b)^k: a power whose base starts and ends with one generator
        st.tuples(LEAVES, EXPONENTS, children, EXPONENTS, EXPONENTS).map(
            lambda t: f"({t[0]}^{t[1]} {t[2]} {t[0]}^{t[3]})^{t[4]}"
        ),
    )


WORD_TEXTS = st.recursive(LEAVES, _compound, max_leaves=10)


@st.composite
def word_texts(draw):
    """A word text; one in four has a character deleted or a token inserted."""
    text = draw(WORD_TEXTS)
    if draw(st.sampled_from([True, True, True, False])):
        return text
    i = draw(st.integers(0, len(text)))
    patch = draw(st.sampled_from(["", "(", ")", "[", "]", ",", "^", "^-", "^0", "7", "$"]))
    return text[:i] + patch + text[i + (not patch):]


def outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except WordmapError as exc:
        return type(exc), str(exc)


@deterministic
@given(word_texts(), st.sampled_from([5000, 60]))
def test_parser_matches_expand_then_reduce_oracle(text, cap):
    with mock.patch.object(words, "_MAX_LETTERS", cap):
        assert outcome(written_out_parse, text) == outcome(oracle_parse, text)


@deterministic
@given(WORD_TEXTS)
def test_render_round_trip(text):
    try:
        w = parse(text)
    except WordmapError:
        return
    assert parse(render(w)) == w
