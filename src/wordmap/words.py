"""Words with constants, the parser, and exponent bookkeeping.

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

import itertools
import re
from collections import deque
from dataclasses import dataclass, field

from .errors import EmptyInnerWord, WordmapError, WordSyntaxError, ZeroExponent


@dataclass(frozen=True)
class ConstLetter:
    """A constant symbol occurrence; after normalization exp is carried as inv in {False, True}."""

    name: str
    inv: bool = False


@dataclass(frozen=True)
class Power:
    """A power node of a Word: ``core`` written out ``k`` > 1 times.

    The core is a tuple of syllables, constants and nested nodes.  It is
    cyclically reduced and its ends lie on different generators, or one of
    them is a constant, so the k copies written out one after another are
    already reduced.
    """

    core: tuple
    k: int


@dataclass(frozen=True, eq=False)
class Word:
    """Reduced word w_1 s_1 w_2 ... s_r w_(r+1) with constants s_i, which may
    bind to matrices: a tuple of (generator, exponent) syllables,
    :class:`ConstLetter` constants and :class:`Power` nodes, and the binding
    by constant name.  A word without constants has r = 0.

    Written out (see :func:`_syllables`), adjacent syllables never share a
    generator, exponents are nonzero, nothing cancels across a constant and
    no two constants are adjacent: the inner words w_2..w_r are nonempty.
    Two Words are equal exactly when their written-out items are; the
    binding is not compared.
    """

    letters: tuple = ()
    binding: dict = field(default_factory=dict)

    def __post_init__(self):
        _constants_written_out(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        """The number of letters written out, constants included."""
        return sum(sum(mass) for mass in _masses(self.letters).values())

    def generators(self) -> set:
        return {g for g in _masses(self.letters) if type(g) is int}

    def max_generator(self) -> int:
        return max(self.generators(), default=0)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.letters == other.letters:
            return True
        if _masses(self.letters) != _masses(other.letters):
            return False
        # equal masses: neither written-out word is a proper prefix of the other
        pairs = zip(_syllables(self.letters), _syllables(other.letters))
        return all(a == b for a, b in pairs)

    def __hash__(self):
        masses = frozenset((g, tuple(m)) for g, m in _masses(self.letters).items())
        return hash((masses, tuple(itertools.islice(_syllables(self.letters), 8))))

    # ``words`` and ``r`` are the views that perfbench/tracing.py reads
    @property
    def words(self):
        return (self,)

    @property
    def r(self) -> int:
        return _constants_written_out(self.letters)

    def with_binding(self, binding: dict) -> Word:
        """This word with ``binding``, keyed by constant tokens such as s1; a
        generator such as y or x1 is refused, not kept."""
        _check_constant_keys(binding)
        return Word(self.letters, dict(binding))


def _check_constant_keys(names) -> None:
    """Refuse the first of ``names`` that :func:`parse` does not read as one
    constant of that name."""
    for name in names:
        try:
            constant = isinstance(name, str) and parse(name).letters == (ConstLetter(name),)
        except WordmapError:
            constant = False
        if not constant:
            raise WordmapError(f"{name!r} is not a constant; "
                               f"write a constant such as s1 in the word and bind that")


def _masses(letters, scale: int = 1, out=None) -> dict:
    """{generator or constant name: [positive mass, negative mass]} of the
    written-out letters, in order of first sight, read off the nodes without
    writing them out."""
    out = {} if out is None else out
    for item in letters:
        if type(item) is Power:
            _masses(item.core, scale * item.k, out)
        elif type(item) is ConstLetter:
            out.setdefault(item.name, [0, 0])[item.inv] += scale
        else:
            g, e = item
            out.setdefault(g, [0, 0])[e < 0] += scale * abs(e)
    return out


def _syllables(letters):
    """The written-out syllables and constants of a Word's letters, in
    order, generated without writing out any node."""
    for item in letters:
        if type(item) is Power:
            for _ in range(item.k):
                yield from _syllables(item.core)
        else:
            yield item


def _constants_written_out(letters, before: int = 0) -> int:
    """The number of constants in the written-out letters, which follow
    ``before`` constants.  Raises EmptyInnerWord at the first two constants
    that are adjacent written out, naming the inner word w_j between them;
    no node is written out."""
    count, last = before, None
    for item in letters:
        first = type(_end(item, 0)) is ConstLetter
        if last and first:
            break
        last = type(_end(item, -1)) is ConstLetter
        if type(item) is Power:
            per_copy = _constants_written_out(item.core, count) - count
            count += per_copy
            if last and first:  # the copies meet at two constants
                break
            count += per_copy * (item.k - 1)
        else:
            count += type(item) is ConstLetter
    else:
        return count
    raise EmptyInnerWord(f"inner word w_{count + 1} reduced to the identity")


# Syllable lists: the word algebra and the parser work on lists of
# (generator, exponent) pairs, Power nodes and ConstLetters; a Word holds them
# as a tuple.


def _end(item, i: int):
    """The first (i = 0) or last (i = -1) syllable of a pair, node or constant."""
    while type(item) is Power:
        item = item.core[i]
    return item


def _repeat(core: list, k: int) -> list:
    """core^k, k >= 0, for a core whose copies join without reduction: one
    node, unless k < 2."""
    if k < 2:
        return core * k
    if len(core) == 1 and type(core[0]) is Power:
        return [Power(core[0].core, core[0].k * k)]
    return [Power(tuple(core), k)]


def _unroll_front(node: Power, m: int = 1) -> list:
    """The node as its first m copies of the core written out, then the
    rest of the power."""
    m = min(m, node.k)
    return list(node.core) * m + _repeat(list(node.core), node.k - m)


def _unroll_back(node: Power, m: int = 1) -> list:
    m = min(m, node.k)
    return _repeat(list(node.core), node.k - m) + list(node.core) * m


def _join(out: list, term: list) -> list:
    """Concatenate the reduced syllable list ``term`` onto the reduced ``out``.

    Only the junction can cancel: facing pairs on one generator merge, or
    cancel and expose the next pair; a constant, a nonzero merge or two
    different generators end it.  A node at the junction is unrolled, 1, 2,
    4, ... copies at a time, so the copies written out are at most about
    twice those that cancel; a node that ends in a constant is a barrier.
    The rest of ``term`` is copied unchanged.
    """
    stack = term[::-1]  # the front of term on top
    copies = 1  # doubled at each unroll, so a long cancellation unrolls O(log) times
    while out and stack:
        top, item = out[-1], stack[-1]
        a, b = _end(top, -1), _end(item, 0)
        if ConstLetter in (type(a), type(b)) or a[0] != b[0]:
            break
        if type(top) is Power or type(item) is Power:
            if type(top) is Power:
                out[-1:] = _unroll_back(top, copies)
            else:
                stack[-1:] = _unroll_front(item, copies)[::-1]
            copies *= 2
            continue
        stack.pop()
        exp = top[1] + item[1]
        if exp:
            out[-1] = (item[0], exp)
            break
        out.pop()
    out += reversed(stack)
    return out


def _inverse(item):
    if type(item) is ConstLetter:
        return ConstLetter(item.name, not item.inv)
    if type(item) is Power:
        return Power(tuple(_invert(item.core)), item.k)
    return (item[0], -item[1])


def _invert(syllables) -> list:
    return [_inverse(s) for s in reversed(syllables)]


def _power(syllables, k: int) -> list:
    """The reduced k-th power, k != 0, of a reduced syllable list, in memory
    linear in the list rather than in k times it.

    Write the word as u c u^-1 with c cyclically reduced (u is peeled off the
    ends while the end syllables are mutual inverses, never across a
    constant; a node at either end is unrolled one copy at a time); then
    w^k = u c^k u^-1.  A one-letter core becomes one letter; a core a m b
    whose ends share a generator becomes a (m (ba))^(k-1) m b; any other
    core, one that ends in a constant too, becomes the :class:`Power` node
    (c)^k.
    """
    if k < 0:
        syllables, k = _invert(syllables), -k
    core = deque(syllables)
    head, tail = [], []  # u, and u^-1 from its end
    while core:
        a, b = _end(core[0], 0), _end(core[-1], -1)
        if type(a) is ConstLetter or b != _inverse(a):
            break
        if type(core[0]) is Power:
            core.extendleft(reversed(_unroll_front(core.popleft())))
        elif type(core[-1]) is Power:
            core.extend(_unroll_back(core.pop()))
        else:
            head.append(core.popleft())
            tail.append(core.pop())
    if not core:
        return []
    a, b = _end(core[0], 0), _end(core[-1], -1)
    if ConstLetter not in (type(a), type(b)) and a[0] == b[0]:
        while type(core[0]) is Power:
            core.extendleft(reversed(_unroll_front(core.popleft())))
        while type(core[-1]) is Power:
            core.extend(_unroll_back(core.pop()))
        if len(core) == 1:
            core_k = [(core[0][0], core[0][1] * k)]
        else:
            first, last = core.popleft(), core.pop()
            middle = list(core)
            joint = (first[0], first[1] + last[1])
            core_k = [first] + _repeat(middle + [joint], k - 1) + middle + [last]
    else:
        core_k = _repeat(list(core), k)
    return head + core_k + tail[::-1]


def _commutator(u: list, v: list) -> list:
    return _join(_join(_join(list(u), v), _invert(u)), _invert(v))


def word(pairs) -> Word:
    """Build a reduced Word from (generator, exponent) pairs, Power nodes and
    ConstLetters, which need not be reduced: each is joined by :func:`_join`
    in turn, so constants are barriers, and zero exponents vanish.  The
    result equals ``parse`` of its rendering; it raises EmptyInnerWord where
    two constants end up adjacent."""
    out = []
    for item in pairs:
        if type(item) in (Power, ConstLetter):
            _join(out, [item])
        elif item[1]:
            _join(out, [(item[0], item[1])])  # a Word holds hashable pairs
    return Word(tuple(out))


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lbrack>\[)|(?P<rbrack>\])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<caret>\^)|(?P<int>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)

_VAR_MAP = {"x": 1, "y": 2, "z": 3}

# The parser works on reduced syllable lists and keeps each power of a
# multi-syllable cyclic core as a Power node, so its time and memory follow
# the text, not the expansion: x^9999999 is one syllable and (y x)^1000000
# one node.  It still counts the letters of the expansion and refuses a word
# whose expansion would exceed _MAX_LETTERS, since render writes every
# syllable out.
_MAX_LETTERS = 10**7


def _check_letters(count: int, pos: int) -> None:
    if count > _MAX_LETTERS:
        raise WordSyntaxError(f"word expands to more than {_MAX_LETTERS} letters", pos)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if rest:  # named at its own position, past the spaces before it
                raise WordSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
            break
        kind = m.lastgroup
        tokens.append((kind, m[kind], pos))
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
            return [ConstLetter(val)], 1
        raise WordSyntaxError(f"unexpected token {val!r}", pos)


def parse(text: str) -> Word:
    """Parse word text into a reduced, normalized word with constants."""
    parser = _Parser(text)
    try:
        syllables, _count = parser.parse_word()
    except RecursionError:
        raise WordSyntaxError("parentheses nested too deeply", parser.peek()[2]) from None
    if parser.peek()[0] != "eof":
        tok = parser.peek()
        raise WordSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return Word(tuple(syllables))


def render(w: Word) -> str:
    """Inverse of parse up to normalization: parse(render(w)) == w."""
    # the canonical spelling of the empty word
    return _render(w.letters) or "x x^-1"


def _render(letters) -> str:
    """The written-out letters as text; a node's core is rendered once."""
    parts = []
    for item in letters:
        if type(item) is tuple:
            text = _SYLLABLE_TEXT.get(item)
            if text is None:
                g, e = item
                name = _SYLLABLE_TEXT.get((g, 1)) or f"x{g}"
                text = name if e == 1 else f"{name}^{e}"
            parts.append(text)
        elif type(item) is Power:
            parts += [_render(item.core)] * item.k
        else:
            parts.append(item.name if not item.inv else f"{item.name}^-1")
    return " ".join(parts)


# The text of every syllable of x, y and z with |exponent| <= 16, made once at
# import; _render spells out any other syllable.  The entry for exponent 1 is
# the generator's name.  geometry.relation_scan writes its relations, whose
# exponents are at most its length cap of 12, from this table alone.
_SYLLABLE_TEXT = {
    (g, e): name if e == 1 else f"{name}^{e}"
    for name, g in _VAR_MAP.items()
    for e in range(-16, 17)
    if e
}


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


def exponent_data(w: Word, n: int) -> ExponentData:
    """Masses a, b and the degree d_r = a_r+ + (n-1) b_r of the adjugate extension."""
    masses = [(g, m) for g, m in _masses(w.letters).items() if type(g) is int]
    a_pos = {g: pos for g, (pos, _neg) in masses if pos}
    b_neg = {g: neg for g, (_pos, neg) in masses if neg}
    a, b = sum(a_pos.values()), sum(b_neg.values())
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
