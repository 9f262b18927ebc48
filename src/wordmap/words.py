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
class ConstLetter:
    """A constant symbol occurrence; after normalization exp is carried as inv in {False, True}."""

    name: str
    inv: bool = False


@dataclass(frozen=True)
class Word:
    """Reduced word: a tuple of (generator, exponent) syllables in which
    adjacent syllables never share a generator and exponents are nonzero."""

    letters: tuple = ()

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(e) for _g, e in self.letters)

    def max_generator(self) -> int:
        return max((g for g, _e in self.letters), default=0)


# Syllable lists: the word algebra and the parser work on lists of
# (generator, exponent) pairs and ConstLetters; a Word holds the pairs as a tuple.


def _append(out: list, items) -> list:
    """Append (gen, exp) pairs and ConstLetters to the reduced syllable list ``out``.

    A stack: a pair merges with, or cancels, the pair on top, and a
    cancellation exposes the next one.  Constants are barriers and zero
    exponents vanish.  The items need not be reduced; for two reduced lists
    use :func:`_join`.
    """
    for item in items:
        if type(item) is ConstLetter:
            out.append(item)
        elif out and type(out[-1]) is not ConstLetter and out[-1][0] == item[0]:
            exp = out[-1][1] + item[1]
            if exp:
                out[-1] = (item[0], exp)
            else:
                out.pop()
        elif item[1]:
            out.append((item[0], item[1]))  # a Word holds hashable pairs
    return out


def _join(out: list, term: list) -> list:
    """Concatenate the reduced syllable list ``term`` onto the reduced ``out``.

    Only the junction can cancel: facing pairs on one generator merge, or
    cancel and expose the next pair; a constant, a nonzero merge or two
    different generators end it.  The rest of ``term`` is copied unchanged.
    """
    i = 0
    while out and i < len(term):
        top, item = out[-1], term[i]
        if type(top) is ConstLetter or type(item) is ConstLetter or top[0] != item[0]:
            break
        i += 1
        exp = top[1] + item[1]
        if exp:
            out[-1] = (item[0], exp)
            break
        out.pop()
    out += term[i:]
    return out


def _invert(syllables) -> list:
    return [
        ConstLetter(s.name, not s.inv) if type(s) is ConstLetter else (s[0], -s[1])
        for s in reversed(syllables)
    ]


def _power(syllables, k: int) -> list:
    """The reduced k-th power of a reduced syllable list, built in time linear
    in the result rather than in k times the input.

    Write the word as u c u^-1 with c cyclically reduced (u is peeled off the
    ends while the end syllables are mutual inverses, never across a
    constant); then w^k = u c^k u^-1.  A one-letter core becomes one letter;
    a core a m b whose ends share a generator becomes a (m (ba))^(k-1) m b;
    any other core repeats unchanged.
    """
    if k == 0:
        return []
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


def _commutator(u: list, v: list) -> list:
    return _join(_join(_join(list(u), v), _invert(u)), _invert(v))


def _word(pairs) -> Word:
    return Word(tuple(pairs))


def word(pairs) -> Word:
    """Build a reduced Word from (generator, exponent) pairs."""
    return _word(_append([], pairs))


def zero_exponent_sum_in_y(w: Word) -> bool:
    """True iff the exponents of the distinguished variable y sum to zero."""
    return sum(e for g, e in w.letters if g == 2) == 0


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

    def with_binding(self, binding: dict) -> "WordWithConstants":
        return WordWithConstants(self.segments, dict(binding))

    def __eq__(self, other):
        return isinstance(other, WordWithConstants) and self.segments == other.segments


def pure(w: Word) -> WordWithConstants:
    return WordWithConstants((w,))


def from_items(items) -> WordWithConstants:
    """Normalize a flat stream of (gen, exp) pairs and ConstLetters into the
    alternating shape.

    The programmatic counterpart of :func:`parse`: the items need not be
    reduced, and the result equals ``parse`` of their rendering.
    """
    return _segments(_append([], items))


def _segments(syllables) -> WordWithConstants:
    """Split a reduced syllable list at its constants."""
    segments = []
    current = []
    for s in syllables:
        if type(s) is ConstLetter:
            segments += (_word(current), s)
            current = []
        else:
            current.append(s)
    segments.append(_word(current))
    return WordWithConstants(tuple(segments))


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(?:(\[)|(\])|(\()|(\))|(,)|(\^)|(-?\d+)|([A-Za-z_][A-Za-z0-9_]*))")

_VAR_MAP = {"x": 1, "y": 2, "z": 3}

# The parser works on reduced syllable lists and builds each power from its
# cyclic core, so its time and memory follow the text and the reduced length
# (x^9999999 is one syllable).  It still counts the letters of the expansion
# and refuses a word whose expansion would exceed _MAX_LETTERS.
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
        """A reduced syllable list and the letter count of its expansion."""
        syllables, count = self.parse_term()
        while self.peek()[0] in ("lbrack", "lparen", "ident"):
            pos = self.peek()[2]
            term, term_count = self.parse_term()
            count += term_count
            _check_letters(count, pos)
            _join(syllables, term)
        return syllables, count

    def parse_term(self):
        syllables, count = self.parse_factor()
        if self.peek()[0] == "caret":
            self.next()
            tok = self.expect("int")
            k = int(tok[1])
            if k == 0:
                raise ZeroExponent(f"zero exponent at position {tok[2]}")
            count *= abs(k)
            _check_letters(count, tok[2])
            syllables = _power(syllables, k)
        return syllables, count

    def parse_factor(self):
        kind, val, pos = self.peek()
        if kind == "lbrack":
            self.next()
            u, u_count = self.parse_word()
            self.expect("comma")
            v, v_count = self.parse_word()
            self.expect("rbrack")
            count = 2 * (u_count + v_count)
            _check_letters(count, pos)
            return _commutator(u, v), count
        if kind == "lparen":
            self.next()
            result = self.parse_word()
            self.expect("rparen")
            return result
        if kind == "ident":
            self.next()
            if val in _VAR_MAP:
                return [(_VAR_MAP[val], 1)], 1
            if re.fullmatch(r"x\d+", val):
                if val[1] == "0":
                    raise WordSyntaxError(f"generator index {val[1:]!r} must start with 1-9", pos)
                return [(int(val[1:]), 1)], 1
            m = re.fullmatch(r"s\d+", val)
            if m or val.isidentifier():
                return [ConstLetter(val)], 1
        raise WordSyntaxError(f"unexpected token {val!r}", pos)


def parse(text: str) -> WordWithConstants:
    """Parse word text into a reduced, normalized word with constants."""
    parser = _Parser(text)
    try:
        syllables, _count = parser.parse_word()
    except RecursionError:
        raise WordSyntaxError("parentheses nested too deeply", parser.peek()[2]) from None
    if parser.peek()[0] != "eof":
        tok = parser.peek()
        raise WordSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return _segments(syllables)


def render(w: WordWithConstants) -> str:
    """Inverse of parse up to normalization: parse(render(w)) == w."""
    parts = []
    for i, seg in enumerate(w.segments):
        if i % 2 == 0:
            for g, e in seg.letters:
                name = _render_gen(g)
                parts.append(name if e == 1 else f"{name}^{e}")
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
        for g, e in seg.letters:
            if e > 0:
                a += e
                a_pos[g] = a_pos.get(g, 0) + e
            else:
                b -= e
                b_neg[g] = b_neg.get(g, 0) - e
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
