"""Golden CLI corpus: exact stdout and exit code of fixed invocations.

``tests/golden/cli.jsonl`` holds one ``{"argv", "exit", "stdout"}`` object per
line.  Refactors must leave every line byte-identical.  After a deliberate
output change, rewrite the corpus with ``python tests/test_golden_cli.py``
and review the diff.
"""

import contextlib
import functools
import io
import json
import os
import sys

import pytest

from wordmap.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "cli.jsonl")

GL5_A = '[["2","1","0","0","1"],["0","1","3","0","0"],["1","0","1","2","0"],["0","0","1","1","4"],["3","0","0","1","1"]]'
GL5_B = '[["1","0","2","0","0"],["1","1","0","0","3"],["0","2","1","1","0"],["0","0","0","1","1"],["2","0","1","0","1"]]'
Q8_PAIR = ['[["5","0"],["0","8"]]', '[["0","1"],["12","0"]]']

_DIMCERT_FLAGS = {"ex2.Wj": ["--j", "4"], "ex4.Tj": ["--p", "5", "--j", "2"]}
_COMPONENTS = ("ex1.W", "ex1.T", "ex2.Wj", "ex3.W1", "ex4.Tj", "ex5.W1", "ex5.T1", "ex5.T2", "Sa")

CASES = [
    # the README commands
    ["--ring", "Fp:101", "eval", "--word", "[x,y]",
     "--at", '[["2","0"],["0","51"]]', '[["1","1"],["0","1"]]'],
    ["--ring", "Fp:101", "extend", "--word", "x y^-1 x^-1 y",
     "--at", '[["3","1"],["5","2"]]', '[["7","2"],["4","3"]]'],
    ["chi-probe", "--ring", "Fp:101", "--word", "[x,y]", "--seed", "11", "--samples", "60"],
    ["dominance", "--ring", "Fp:101", "--word", "[[x,y],y]", "--seed", "4"],
    ["--ring", "Fp:101", "preimage", "--a", "77"],
    ["--ring", "Fp:101", "sep-witness", "--word", "[x,y]^2"],
    ["--ring", "Fp:13", "relscan", "--max-len", "8", "--at", *Q8_PAIR],
    ["--ring", "Fp:13", "lemma-check", "78", "--lam", "2", "--u", "1"],
    ["--ring", "Fp:17", "lemma-check", "101"],
    ["roots", "check", "B3"],
    ["roots", "table", "--max-rank", "8"],
    # the same Q8 relation scan as text
    ["--ring", "Fp:13", "--output", "text", "relscan", "--max-len", "8", "--at", *Q8_PAIR],
    # adjugate extension on GL_5
    ["--ring", "Q", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", GL5_A, GL5_B],
    ["--ring", "Fp:101", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", GL5_A, GL5_B],
    # dominance over Q and F_101
    ["--ring", "Q", "dominance", "--word", "[[x,y],y]", "--seed", "4"],
    ["--ring", "Fp:101", "dominance", "--word", "[x,y]^2", "--seed", "9"],
    # all nine dimension certificates over F_101, two over Q[i]
    *[["--ring", "Fp:101", "dimcert", "--example", c, *_DIMCERT_FLAGS.get(c, [])]
      for c in _COMPONENTS],
    ["--ring", "Q[i]", "dimcert", "--example", "ex3.W1"],
    ["--ring", "Q[i]", "dimcert", "--example", "ex2.Wj", "--j", "4"],
    # chi-probe of a determinant over Q
    ["chi-probe", "--ring", "Q", "--word", "[x,y] x", "--index", "2", "--seed", "3", "--samples", "20"],
    # usage errors
    ["eval", "--at", '[["1","0"],["0","1"]]'],
    ["--ring", "Fp:12", "eval", "--word", "x", "--at", '[["1","0"],["0","1"]]'],
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@functools.cache
def recorded():
    with open(CORPUS) as fh:
        return [json.loads(line) for line in fh]


def test_corpus_lists_every_case():
    assert [entry["argv"] for entry in recorded()] == CASES


@pytest.mark.parametrize("i", range(len(CASES)), ids=lambda i: " ".join(CASES[i])[:60])
def test_golden_output(i):
    entry = recorded()[i]
    code, out = run(entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


if __name__ == "__main__":
    with open(CORPUS, "w") as fh:
        for argv in CASES:
            code, out = run(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out}) + "\n")
    sys.exit(0)
