"""relation_scan against the depth-first oracle, and what the scan costs."""

import random
from fractions import Fraction
from functools import cache

import pytest

from wordmap import (
    PrimeField,
    QuadraticExt,
    Rationals,
    SquareMatrix,
    matrix_from_json,
    random_sl2,
    relation_scan,
)
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
    pair = PAIRS[name]()
    return pair, [w.letters for w in dfs_relations(pair, ORACLE_LEN)]


@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("max_len", range(1, ORACLE_LEN + 1))
def test_scan_matches_the_dfs_oracle(name, max_len):
    # the DFS at max_len visits exactly the words of length <= max_len, so its
    # output is the one at ORACLE_LEN cut at that length
    pair, expected = _oracle(name)
    expected = [letters for letters in expected if sum(abs(e) for _, e in letters) <= max_len]
    result = relation_scan(pair, max_len)
    assert not result.trivial
    assert [w.letters for w in result.relations] == expected


def test_oracle_pairs_reach_every_kind_of_relation():
    # the grid is only as strong as its relations: dense, short and long ones
    counts = {name: len(_oracle(name)[1]) for name in PAIRS}
    assert counts["q8-golden"] == 21960
    assert counts["free-f100003"] == counts["sanov-q"] == 0
    first = {name: min((sum(abs(e) for _, e in w) for w in _oracle(name)[1]), default=None)
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
