"""Free-group words, words with constants, the parser, and exponent bookkeeping.

Concrete syntax (whitespace-separated juxtaposition is the product):

    word     := term { term }
    term     := factor [ "^" signed-int ]
    factor   := variable | constant | "[" word "," word "]" | "(" word ")"
    variable := "x" int | "x" | "y" | "z"
    constant := "s" int | identifier

``x`` is generator 1, ``y`` generator 2, ``z`` generator 3, ``xN`` generator N.
Anything else that looks like an identifier is a constant symbol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EmptyInnerWord, WordSyntaxError, ZeroExponent


@dataclass(frozen=True)
class Letter:
    """A variable letter x_gen^exp in a reduced word."""

    gen: int
    exp: int


@dataclass(frozen=True)
class ConstLetter:
    """A constant symbol occurrence; after normalization exp is carried as inv in {False, True}."""

    name: str
    inv: bool = False


@dataclass(frozen=True)
class Word:
    """Reduced word: adjacent letters never share a generator, exponents are nonzero."""

    letters: tuple = ()

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(l.exp) for l in self.letters)

    def generators(self):
        return sorted({l.gen for l in self.letters})

    def max_generator(self) -> int:
        return max((l.gen for l in self.letters), default=0)


def _reduce_pairs(pairs):
    out = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return out


def word(pairs) -> Word:
    """Build a reduced Word from (generator, exponent) pairs."""
    return Word(tuple(Letter(g, e) for g, e in _reduce_pairs(pairs)))


def reduce(w: Word) -> Word:
    return word((l.gen, l.exp) for l in w.letters)


def concat(u: Word, v: Word) -> Word:
    return word([(l.gen, l.exp) for l in u.letters] + [(l.gen, l.exp) for l in v.letters])


def invert(w: Word) -> Word:
    return word((l.gen, -l.exp) for l in reversed(w.letters))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(invert(w), -k)
    out = Word()
    for _ in range(k):
        out = concat(out, w)
    return out


def commutator(u: Word, v: Word) -> Word:
    return concat(concat(u, v), concat(invert(u), invert(v)))


def zero_exponent_sum_in_y(w: Word, y_gen: int = 2) -> bool:
    """True iff the exponents of the distinguished variable sum to zero."""
    return sum(l.exp for l in w.letters if l.gen == y_gen) == 0


@dataclass
class WordWithConstants:
    """Alternating w_1 s_1 w_2 s_2 ... w_r s_r w_{r+1}; constants may bind to matrices.

    ``segments`` has odd length 2r+1: Word at even indices, ConstLetter at odd
    indices.  Inner words w_2..w_r are nonempty.  A pure word has r = 0.
    """

    segments: tuple
    binding: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.segments) % 2 != 1:
            raise ValueError("segments must alternate word, const, ..., word")
        for i, seg in enumerate(self.segments):
            if i % 2 == 0 and not isinstance(seg, Word):
                raise ValueError("even segments must be Words")
            if i % 2 == 1 and not isinstance(seg, ConstLetter):
                raise ValueError("odd segments must be constant letters")
        for i in range(2, len(self.segments) - 1, 2):
            if self.segments[i].is_identity():
                raise EmptyInnerWord(f"inner word w_{i // 2 + 1} reduced to the identity")

    @property
    def r(self) -> int:
        return len(self.segments) // 2

    @property
    def is_pure(self) -> bool:
        return self.r == 0

    @property
    def word(self) -> Word:
        if not self.is_pure:
            raise ValueError("not a pure variable word")
        return self.segments[0]

    @property
    def words(self):
        return self.segments[0::2]

    @property
    def constants(self):
        return self.segments[1::2]

    def constant_names(self):
        return sorted({c.name for c in self.constants})

    def max_generator(self) -> int:
        return max((w.max_generator() for w in self.words), default=0)

    def total_length(self) -> int:
        return sum(w.length() for w in self.words) + self.r

    def with_binding(self, binding: dict) -> "WordWithConstants":
        return WordWithConstants(self.segments, dict(binding))

    def __eq__(self, other):
        return isinstance(other, WordWithConstants) and self.segments == other.segments


def pure(w: Word) -> WordWithConstants:
    return WordWithConstants((w,))


def from_items(items) -> WordWithConstants:
    """Normalize a flat stream of Letter / ConstLetter into the alternating shape."""
    segments = []
    current = []
    for item in items:
        if isinstance(item, Letter):
            current.append(item)
        else:
            segments.append(word((l.gen, l.exp) for l in current))
            segments.append(item)
            current = []
    segments.append(word((l.gen, l.exp) for l in current))
    return WordWithConstants(tuple(segments))


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(?:(\[)|(\])|(\()|(\))|(,)|(\^)|(-?\d+)|([A-Za-z_][A-Za-z0-9_]*))")

_VAR_MAP = {"x": 1, "y": 2, "z": 3}

# Powers, commutators and products are expanded letter by letter while parsing,
# so the expanded length bounds the parser's time and memory.
_MAX_LETTERS = 10**7


def _check_letters(count: int, pos: int) -> None:
    if count > _MAX_LETTERS:
        raise WordSyntaxError(f"word expands to more than {_MAX_LETTERS} letters", pos)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        groups = m.groups()
        for kind, val in zip(
            ("lbrack", "rbrack", "lparen", "rparen", "comma", "caret", "int", "ident"),
            groups,
        ):
            if val is not None:
                tokens.append((kind, val, m.start()))
                break
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise WordSyntaxError(f"expected {kind}, got {tok[1]!r}", tok[2])
        return tok

    def parse_word(self):
        """Returns a flat list of Letter / ConstLetter items."""
        items = self.parse_term()
        while self.peek()[0] in ("lbrack", "lparen", "ident"):
            pos = self.peek()[2]
            term = self.parse_term()
            _check_letters(len(items) + len(term), pos)
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
            _check_letters(len(items) * abs(k), tok[2])
            items = _items_power(items, k)
        return items

    def parse_factor(self):
        kind, val, pos = self.peek()
        if kind == "lbrack":
            self.next()
            u = self.parse_word()
            self.expect("comma")
            v = self.parse_word()
            self.expect("rbrack")
            _check_letters(2 * (len(u) + len(v)), pos)
            return u + v + _items_invert(u) + _items_invert(v)
        if kind == "lparen":
            self.next()
            items = self.parse_word()
            self.expect("rparen")
            return items
        if kind == "ident":
            self.next()
            if val in _VAR_MAP:
                return [Letter(_VAR_MAP[val], 1)]
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                return [Letter(int(m.group(1)), 1)]
            m = re.fullmatch(r"s\d+", val)
            if m or val.isidentifier():
                return [ConstLetter(val)]
        raise WordSyntaxError(f"unexpected token {val!r}", pos)


def _items_invert(items):
    out = []
    for item in reversed(items):
        if isinstance(item, Letter):
            out.append(Letter(item.gen, -item.exp))
        else:
            out.append(ConstLetter(item.name, not item.inv))
    return out


def _items_power(items, k: int):
    if k < 0:
        items = _items_invert(items)
        k = -k
    return items * k


def parse(text: str) -> WordWithConstants:
    """Parse word text into a reduced, normalized word with constants."""
    parser = _Parser(text)
    try:
        items = parser.parse_word()
    except RecursionError:
        raise WordSyntaxError("parentheses nested too deeply", parser.peek()[2]) from None
    if parser.peek()[0] != "eof":
        tok = parser.peek()
        raise WordSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return from_items(items)


def render(w: WordWithConstants) -> str:
    """Inverse of parse up to normalization: parse(render(w)) == w."""
    parts = []
    for i, seg in enumerate(w.segments):
        if i % 2 == 0:
            for l in seg.letters:
                name = _render_gen(l.gen)
                parts.append(name if l.exp == 1 else f"{name}^{l.exp}")
        else:
            parts.append(seg.name if not seg.inv else f"{seg.name}^-1")
    if not parts:
        return "x x^-1"  # canonical spelling of the empty word
    return " ".join(parts)


def _render_gen(gen: int) -> str:
    for name, idx in _VAR_MAP.items():
        if idx == gen:
            return name
    return f"x{gen}"


def render_word(w: Word) -> str:
    return render(pure(w))


# ---------------------------------------------------------------------------
# exponent data


@dataclass(frozen=True)
class ExponentData:
    """Positive/negative exponent masses and per-variable homogeneity degrees."""

    a: int
    b: int
    a_pos: dict
    b_neg: dict
    degrees: dict
    total_degree: int


def exponent_data(w: WordWithConstants, n: int) -> ExponentData:
    """Masses a, b and the degree d_r = a_r+ + (n-1) b_r of the adjugate extension."""
    a = 0
    b = 0
    a_pos = {}
    b_neg = {}
    for seg in w.words:
        for l in seg.letters:
            if l.exp > 0:
                a += l.exp
                a_pos[l.gen] = a_pos.get(l.gen, 0) + l.exp
            else:
                b += -l.exp
                b_neg[l.gen] = b_neg.get(l.gen, 0) - l.exp
    gens = sorted(set(a_pos) | set(b_neg))
    degrees = {
        g: a_pos.get(g, 0) + (n - 1) * b_neg.get(g, 0) for g in gens
    }
    return ExponentData(
        a=a,
        b=b,
        a_pos=a_pos,
        b_neg=b_neg,
        degrees=degrees,
        total_degree=a + (n - 1) * b,
    )
