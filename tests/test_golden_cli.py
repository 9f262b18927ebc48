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


def _gl(n, entry):
    """An n x n JSON matrix argument with entries entry(i, j)."""
    return json.dumps([[entry(i, j) for j in range(n)] for i in range(n)])


def _a(i, j):
    return (7 * i + 3 * j + i * j) ** 2 % 11 - 5


def _b(i, j):
    return (5 * i + 2 * j + 1) ** 3 % 13 - 6


# invertible pairs for n = 3, 6 and 7, over Q and over a quadratic extension:
# det and adjugate beyond the 2 x 2 closed forms
GL3_Q = [_gl(3, lambda i, j: str(_a(i, j))), _gl(3, lambda i, j: str(_b(i, j)))]
GL6_FP103I = [_gl(6, lambda i, j: f"{_a(i, j)}+{_b(i, j)}*i"),
              _gl(6, lambda i, j: f"{_b(i, j)}+{_a(j, i)}*i")]
GL7_Q = [_gl(7, lambda i, j: str(_a(i, j))), _gl(7, lambda i, j: str(_b(i, j)))]
GL4_Q = [_gl(4, lambda i, j: str(_a(i, j))), _gl(4, lambda i, j: str(_b(i, j)))]
# fractional entries, such as "4/3" and "-5/7", with denominators 1 to 7
GL3_QFRAC = [_gl(3, lambda i, j: f"{_a(i, j)}/{(3 * i + 2 * j) % 7 + 1}"),
             _gl(3, lambda i, j: f"{_b(i, j)}/{(2 * i + 5 * j) % 7 + 1}")]
GL5_QFRAC = [_gl(5, lambda i, j: f"{_a(i, j)}/{(3 * i + 2 * j) % 7 + 1}"),
             _gl(5, lambda i, j: f"{_b(i, j)}/{(2 * i + 5 * j) % 7 + 1}")]
SL2_PAIR = ['[["3","5"],["1","2"]]', '[["2","1"],["7","4"]]']
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
    # adjugate extension on GL_3 and GL_7 over Q, GL_6 over F_103[i]
    ["--ring", "Q", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", *GL3_Q],
    ["--ring", "Fp:103[i]", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", *GL6_FP103I],
    ["--ring", "Q", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", *GL7_Q],
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
    ["chi-probe", "--ring", "Fp:101", "--word", "[x,y] y", "--index", "2", "--seed", "5", "--samples", "40"],
    # usage errors
    ["eval", "--at", '[["1","0"],["0","1"]]'],
    ["--ring", "Fp:12", "eval", "--word", "x", "--at", '[["1","0"],["0","1"]]'],
    # long words: huge exponents, a long cyclically reduced power, a power whose
    # base has the same generator at both ends, a negative power through a constant
    ["--ring", "Fp:10007", "eval", "--word", "x^300123 y^-300456", "--at", *SL2_PAIR],
    ["--ring", "Fp:101", "eval", "--word", "(x y^-1 x^-1 y x y x^-1 y^-1)^75", "--at", *SL2_PAIR],
    ["--ring", "Fp:101", "eval", "--word", "(x^2 y x^3)^4", "--at", *SL2_PAIR],
    ["--ring", "Fp:101", "eval", "--word", "(x s1 y^-1)^-3", "--sigma", "golden/sigma_s1.json",
     "--at", *SL2_PAIR],
    # adjugate extension with several negative powers on GL_4 over Q
    ["--ring", "Q", "extend", "--word", "x^2 y^-1 x^-1 y^-2 x^-1 y^-1", "--at", *GL4_Q],
    # dimension certificates over Q, over small primes and at other trace levels
    ["--ring", "Q", "dimcert", "--example", "ex1.T"],
    ["--ring", "Q", "dimcert", "--example", "ex5.T2"],
    ["--ring", "Q", "dimcert", "--example", "Sa", "--a", "7"],
    ["--ring", "Fp:13", "dimcert", "--example", "ex2.Wj", "--j", "4"],
    ["--ring", "Fp:11", "dimcert", "--example", "ex4.Tj", "--p", "5", "--j", "1"],
    ["--ring", "Fp:101", "dimcert", "--example", "Sa", "--a", "2"],
    # jets through a bound constant, and a rank-deficient point
    ["--ring", "Fp:101", "dominance", "--word", "x s1 x^-1 y", "--sigma", "golden/sigma_s1.json",
     "--seed", "6"],
    ["--ring", "Fp:101", "dominance", "--word", "x^2", "--at", '[["0","1"],["-1","0"]]'],
    # stress cases: a long nested commutator power under jets, a long power
    ["--ring", "Fp:101", "dominance", "--word", "[[x,y],[x,z]]^20", "--seed", "2"],
    ["--ring", "Fp:101", "eval", "--word", "[x,y]^3000", "--at", *SL2_PAIR],
    # square roots off the base: sqrt(2) = 3i in F_11[i], sqrt(8)/2 in Q[sqrt(8)]
    ["--ring", "Fp:11[i]", "lemma-check", "101"],
    ["--ring", "Q[sqrt(8)]", "preimage", "--a", "sqrt(2)"],
    # dimension certificates with a generic torus parameter over Q, and the
    # bad-input exits, characteristic 2 among them
    ["--ring", "Q", "dimcert", "--example", "ex5.W1"],
    ["--ring", "Q", "dimcert", "--example", "ex5.T1"],
    ["--ring", "Fp:2", "dimcert", "--example", "ex5.T2"],
    ["--ring", "Fp:3", "dimcert", "--example", "ex1.W"],
    ["--ring", "Fp:101", "dimcert", "--example", "ex2.Wj", "--j", "2"],
    ["--ring", "Fp:7", "dimcert", "--example", "ex3.W1"],
    ["--ring", "Q", "dimcert", "--example", "ex4.Tj"],
    ["--ring", "Fp:101", "dimcert", "--example", "ex4.Tj", "--p", "7"],
    # a flag the component does not read
    ["--ring", "Fp:101", "dimcert", "--example", "ex1.W", "--a", "7"],
    ["--ring", "Fp:101", "dimcert", "--example", "ex1.W", "--p", "7"],
    # the witness coordinates of one system per type, which `roots table` does not print
    *[["roots", "check", label] for label in ("A1", "B8", "C8", "D8", "E6", "E7", "E8", "F4", "G2")],
    # ex2.Wj takes j = 4 when --j is not given; a scan length below 1 is bad
    # input; the roots table lists G2 only from rank 2 and needs a rank >= 1
    ["--ring", "Fp:101", "dimcert", "--example", "ex2.Wj"],
    ["--ring", "Fp:101", "relscan", "--max-len", "0", "--at", '[[1,0],[0,1]]', '[[1,1],[0,1]]'],
    ["roots", "table", "--max-rank", "1"],
    ["roots", "table", "--max-rank", "0"],
    # a 0 x 0 matrix is bad input
    ["--ring", "Q", "eval", "--word", "x", "--at", "[]"],
    ["--ring", "Q", "extend", "--word", "x y^-1", "--at", "[]", "[]"],
    # a failing D of odd rank and a failing A beyond the roots table
    ["roots", "check", "D9"],
    ["roots", "check", "A11"],
    # jets through negative and huge syllables, an inverted constant, and Q[i]
    ["--ring", "Fp:101", "dominance", "--word", "x^-3 y^5 x^2 y^-1", "--seed", "3"],
    ["--ring", "Fp:101", "dominance", "--word", "x^5000000 y^-4000000", "--seed", "1"],
    ["--ring", "Fp:101", "dominance", "--word", "x s1^-1 y^-2 s1", "--sigma", "golden/sigma_s1.json",
     "--seed", "6"],
    ["--ring", "Q[i]", "dominance", "--word", "[x,y^-2]", "--seed", "2"],
    # ranks over Q and Q[sqrt(d)]: certificates with a torus parameter chosen
    # past a trace level, ex2.Wj at its default j over Q[i], a long word's
    # jets over Q[i], and a rank-deficient point over Q
    ["--ring", "Q[i]", "dimcert", "--example", "ex2.Wj"],
    ["--ring", "Q", "dimcert", "--example", "ex1.W"],
    ["--ring", "Q", "dimcert", "--example", "Sa", "--a", "17/4"],
    ["--ring", "Q[sqrt(2)]", "dimcert", "--example", "ex1.T"],
    ["--ring", "Q[i]", "dominance", "--word", "[[x,y],[x,z]]^3", "--seed", "1"],
    ["--ring", "Q", "dominance", "--word", "x^2", "--at", '[["0","1"],["-1","0"]]'],
    # chi-probes over the quadratic extensions, of a power node, of the empty
    # word, and of a word with an unbound constant
    ["chi-probe", "--ring", "Q[i]", "--word", "[x,y^-1] x^2", "--seed", "2", "--samples", "30"],
    ["chi-probe", "--ring", "Q[sqrt(2)]", "--word", "x y^-2", "--index", "2", "--seed", "4",
     "--samples", "25"],
    ["chi-probe", "--ring", "Fp:7[i]", "--word", "[x,y]", "--seed", "8", "--samples", "50"],
    ["chi-probe", "--ring", "Fp:101", "--word", "([x,y] x)^7", "--seed", "1", "--samples", "40"],
    ["chi-probe", "--ring", "Fp:101", "--word", "x x^-1", "--index", "1", "--seed", "1",
     "--samples", "10"],
    ["chi-probe", "--ring", "Fp:101", "--word", "x s1", "--seed", "1"],
    # extension and fibers through a bound, inverted constant; x s1 x^-1 s1^-1
    # at x = s1 lies in W
    ["--ring", "Fp:101", "extend", "--word", "x s1^-1 y^-2 s1", "--sigma", "golden/sigma_s1.json",
     "--at", '[[3,1],[5,2]]', '[[7,2],[4,3]]'],
    ["--ring", "Fp:101", "extend", "--word", "(x s1 y^-1)^-2", "--sigma", "golden/sigma_s1.json",
     "--at", '[[3,1],[5,2]]', '[[7,2],[4,3]]'],
    ["--ring", "Fp:101", "fiber", "--word", "x s1^-1 y^-2 s1", "--sigma", "golden/sigma_s1.json",
     "--at", *SL2_PAIR],
    ["--ring", "Fp:101", "fiber", "--word", "x s1 x^-1 s1^-1", "--sigma", "golden/sigma_s1.json",
     "--at", '[["4","1"],["3","1"]]'],
    # text mode writes matrices, lists and tables as JSON, scalars and enums
    # as their strings, and ints, bools and None as Python prints them
    ["--ring", "Fp:101", "--output", "text", "eval", "--word", "[x,y]",
     "--at", '[["2","0"],["0","51"]]', '[["1","1"],["0","1"]]'],
    ["--ring", "Fp:101", "--output", "text", "extend", "--word", "x y^-1 x^-1 y",
     "--at", '[["3","1"],["5","2"]]', '[["7","2"],["4","3"]]'],
    ["--output", "text", "chi-probe", "--ring", "Fp:101", "--word", "[x,y]", "--seed", "11",
     "--samples", "60"],
    ["--output", "text", "dominance", "--ring", "Fp:101", "--word", "[[x,y],y]", "--seed", "4"],
    ["--ring", "Fp:101", "--output", "text", "preimage", "--a", "77"],
    ["--ring", "Fp:101", "--output", "text", "fiber", "--word", "x s1 x^-1 s1^-1",
     "--sigma", "golden/sigma_s1.json", "--at", '[["4","1"],["3","1"]]'],
    ["--ring", "Fp:101", "--output", "text", "dimcert", "--example", "ex1.W"],
    ["--ring", "Fp:101", "--output", "text", "sep-witness", "--word", "[x,y]^2"],
    ["--ring", "Fp:101", "--output", "text", "sep-witness", "--word", "[[x,y],[x,y^2]]"],
    ["--ring", "Fp:13", "--output", "text", "lemma-check", "78", "--lam", "2", "--u", "1"],
    ["--ring", "Fp:17", "--output", "text", "lemma-check", "101"],
    ["--output", "text", "roots", "check", "B3"],
    ["--output", "text", "roots", "check", "E6"],
    ["--output", "text", "roots", "table", "--max-rank", "8"],
    # adjugate extension on GL_3 and GL_5 over Q with fractional entries, and
    # a word value that inverts a fractional GL_3 matrix
    ["--ring", "Q", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", *GL3_QFRAC],
    ["--ring", "Q", "extend", "--word", "x^2 y^-1 x^-1 y^-2", "--at", *GL5_QFRAC],
    ["--ring", "Q", "eval", "--word", "x y^-1 x", "--at", *GL3_QFRAC],
    # word walks over Q: a fractional GL_3 constant of det -6/5, inverted, and
    # inside a negative power; a fractional 2 x 2 pair whose inverted y has
    # det -13/20; a huge power of an order-4 matrix on denominators near 10^6
    ["--ring", "Q", "extend", "--word", "x s1^-1 y^-2 s1", "--sigma", "golden/sigma_q3.json",
     "--at", *GL3_QFRAC],
    ["--ring", "Q", "eval", "--word", "(x s1 y^-1)^-3", "--sigma", "golden/sigma_q3.json",
     "--at", *GL3_QFRAC],
    ["--ring", "Q", "extend", "--word", "x^2 y^-3 x y",
     "--at", '[["1/2","3"],["-2/3","5/7"]]', '[["2/3","-1/5"],["7/4","-3/2"]]'],
    ["--ring", "Q", "eval", "--word", "x^1000001",
     "--at", '[["1/1001","-1002002/1002001"],["1","-1/1001"]]'],
]


def run(argv):
    """Run the CLI from this directory, so that file arguments such as
    ``golden/sigma_s1.json`` resolve wherever the tests are started."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(os.path.dirname(os.path.abspath(__file__)))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
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
