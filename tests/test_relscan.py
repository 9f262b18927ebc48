"""relation_scan against the depth-first oracle, and what the scan costs."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmap import (
    PrimeField,
    QuadraticExt,
    Rationals,
    SquareMatrix,
    eval_group,
    matrix_from_json,
    parse,
    random_sl2,
    relation_scan,
    render,
)
from wordmap.geometry import _CODE_TEXT, _SCAN_MAX, _code
from wordmap.words import _SYLLABLE_TEXT
from relscan_oracle import dfs_relations

Q = Rationals()
QI = QuadraticExt(Q, Fraction(-1))
F101 = PrimeField(101)
ORACLE_LEN = 10


def _pair(ring, a, b):
    return matrix_from_json(ring, a), matrix_from_json(ring, b)


def _seeded(p, seed):
    rng, ring = random.Random(seed), PrimeField(p)
    return random_sl2(ring, rng), random_sl2(ring, rng)


def _with(first, seed):
    """(first, a seeded SL2(F_101) element)."""
    return first, random_sl2(F101, random.Random(seed))


PAIRS = {
    # dense finite groups
    "q8-golden": lambda: _pair(PrimeField(13), [[5, 0], [0, 8]], [[0, 1], [12, 0]]),
    "sl2-f3": lambda: _seeded(3, 1),
    "sl2-f5": lambda: _seeded(5, 2),
    "sl2-f7": lambda: _seeded(7, 3),
    # short relations
    "identity": lambda: _with(SquareMatrix.identity(F101, 2), 4),
    "minus-identity": lambda: _with(SquareMatrix.identity(F101, 2).scaled(-1), 5),
    "orders-2-and-3": lambda: _pair(F101, [[0, 1], [1, 0]], [[0, -1], [1, -1]]),
    "scalar-2I": lambda: _pair(F101, [[2, 0], [0, 2]], [[2, 0], [0, 2]]),
    # free-like: Sanov's pair over Q; over Q[i] the first relation has length 8
    "free-f100003": lambda: _seeded(100003, 6),
    "sanov-q": lambda: _pair(Q, [[1, 2], [0, 1]], [[1, 0], [2, 1]]),
    "near-free-qi": lambda: _pair(QI, [[1, "1+i"], [0, 1]], [[1, 0], ["1-i", 1]]),
}


@cache
def _oracle(name):
    """The pair and its relations up to ORACLE_LEN, as (length, rendered text)."""
    pair = PAIRS[name]()
    return pair, [(w.length(), render(w)) for w in dfs_relations(pair, ORACLE_LEN)]


@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("max_len", range(1, ORACLE_LEN + 1))
def test_scan_matches_the_dfs_oracle(name, max_len):
    # the DFS at max_len visits exactly the words of length <= max_len, so its
    # output is the one at ORACLE_LEN cut at that length; the scan writes each
    # relation's text itself, which must be render's, byte for byte
    pair, expected = _oracle(name)
    expected = tuple(text for length, text in expected if length <= max_len)
    result = relation_scan(pair, max_len)
    assert not result.trivial
    assert result.relations == expected


def test_oracle_pairs_reach_every_kind_of_relation():
    # the grid is only as strong as its relations: dense, short and long ones
    counts = {name: len(_oracle(name)[1]) for name in PAIRS}
    assert counts["q8-golden"] == 21960
    assert counts["free-f100003"] == counts["sanov-q"] == 0
    first = {name: min((length for length, _ in _oracle(name)[1]), default=None)
             for name in PAIRS}
    assert first["identity"] == 1
    assert first["minus-identity"] == first["orders-2-and-3"] == first["scalar-2I"] == 2
    assert first["near-free-qi"] == 8


def test_a_free_pair_costs_two_products_per_half_word(monkeypatch):
    # one product per reduced half-word of length <= 5, 2 * (3^5 - 1) of them;
    # the DFS took one per reduced word of length <= 10, 2 * (3^10 - 1)
    calls = []
    mul = SquareMatrix.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(SquareMatrix, "__mul__", counted)
    pair = PAIRS["free-f100003"]()
    assert relation_scan(pair, 10).relations == ()
    assert len(calls) <= 2 * 3**5 + 4


# x has order 12: at the cap its relations include x^12 and x^-12, syllables
# merged where the two half-words meet, at the largest exponent a scan writes
ORDER_12 = _pair(PrimeField(13), [[2, 0], [0, 7]], [[1, 1], [0, 1]])


@pytest.mark.parametrize("pair, max_len", [
    (PAIRS["q8-golden"](), 8),
    (_seeded(7, 0), 6),  # 44 relations, x^-6 among them
    (ORDER_12, _SCAN_MAX),
], ids=["q8-f13", "sl2-f7", "order-12-f13"])
def test_relation_texts_parse_back_to_relations(pair, max_len):
    # each text is a canonical word that vanishes at the pair, and the texts
    # come by length and, within a length, in the order of their syllables
    ident = SquareMatrix.identity(pair[0].ring, 2)
    relations = relation_scan(pair, max_len).relations
    assert relations
    keys = []
    for text in relations:
        w = parse(text)
        assert render(w) == text
        assert eval_group(w, pair) == ident
        assert 1 <= w.length() <= max_len
        keys.append((w.length(), w.letters))
    assert keys == sorted(set(keys))


def test_the_scan_writes_syllables_up_to_its_cap():
    relations = relation_scan(ORDER_12, _SCAN_MAX).relations
    assert len(relations) == 9600
    assert {"x^12", "x^-12"} <= set(relations)


def test_every_exponent_up_to_the_cap_fits_the_syllable_byte():
    # a byte holds |e| <= 15; a larger cap would spill into the generator bits
    assert _SCAN_MAX <= 15
    for g in (1, 2):
        for e in range(-_SCAN_MAX, _SCAN_MAX + 1):
            if e:
                code = _code(g, e)
                assert code >> 5 == g
                assert _CODE_TEXT[code] == _SYLLABLE_TEXT[g, e] == render(parse(_SYLLABLE_TEXT[g, e]))


@st.composite
def _reduced_syllables(draw):
    """A reduced word in x and y as its syllables (g, e), |e| <= _SCAN_MAX."""
    first = draw(st.sampled_from([1, 2]))
    exponents = draw(st.lists(st.integers(-_SCAN_MAX, _SCAN_MAX).filter(bool), max_size=_SCAN_MAX))
    return tuple((first if i % 2 == 0 else 3 - first, e) for i, e in enumerate(exponents))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_reduced_syllables(), _reduced_syllables())
def test_the_byte_key_orders_syllables_as_their_tuples(a, b):
    # the scan joins, sorts and writes its relations by these keys, so two
    # words share a key only if they are equal, and keys compare as words do
    def key(syllables):
        return bytes(_code(g, e) for g, e in syllables)

    assert (key(a) == key(b)) == (a == b)
    assert (key(a) < key(b)) == (a < b)
    assert [_CODE_TEXT[code] for code in key(a)] == [_SYLLABLE_TEXT[s] for s in a]
