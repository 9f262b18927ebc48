"""A standing fuzz of the CLI's exit-code contract.

Every subcommand is driven with malformed rings, words, scalars, flags, matrix
arguments and binding files.  Whatever the input, ``main`` returns 0 (ok),
1 (a property failed) or 2 (bad input); it never raises, so nothing ends in a
traceback; on 2 it prints nothing to stdout, and on 0 and 1 it prints one JSON
report.  Inputs stay small (``--max-len`` and root ranks at most 6, a few
samples) so that the whole run takes seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmap.cli import main

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=400)

RINGS = ["Q", "Fp:2", "Fp:7", "Fp:13", "Fp:101", "Fp:12", "Fp:1", "Fp:-5", "Fp:",
         "Q[i]", "Fp:13[i]", "Fp:7[i]", "Q[sqrt(2)]", "Q[sqrt(4)]", "Fp:5[sqrt(0)]",
         "Z", "", " Q "]

WORD_PIECES = ["x", "y", "z", "x2", "x4", "x0", "x01", "s1", "s2", "foo", "[x,y]", "[x^2,y]",
               "[[x,y],x]", "[x,", "[", "]", ",", "(", ")", "^", "^-1", "^2", "^7", "^0",
               "^-3", "^100000000000", "x^1000", "!", "é"]

SCALARS = ["0", "1", "2", "-1", "3/2", "1/0", "i", "sqrt(2)", "eps", "3*i*eps", "1+-2*i",
           "1+", "abc", "", " 7 ", "99999999999999999999"]

MATRICES = ['[[1,1],[0,1]]', '[["2","0"],["0","1/2"]]', '[["3","1"],["5","2"]]',
            '[[0,1],[-1,0]]', '[[0,0],[0,0]]', '[[2,0],[0,1]]', '[["i",0],[0,"-i"]]',
            '[[1,0,0],[0,1,0],[0,0,1]]', '[[2,1,0],[0,1,0],[1,0,1]]', '[[2]]', '[[0]]',
            '[]', '[[]]', '[1,2]', '[[1,2],[3]]', '[[1.5,2],[3,4]]', '[[true,0],[0,1]]',
            '[[null,0],[0,1]]', '[["x",0],[0,1]]', '[["1/0",0],[0,1]]', '[[1,', '[' * 5000,
            'no/such/file.json', '{"rows": [[1,0],[0,1]]}']

# a binding file is written with one of these contents; None names a missing file
BINDINGS = ['{"s1": [[1,1],[0,1]]}', '{"ring": "Fp:7", "s1": [[2,0],[0,4]]}',
            '{"ring": "Q", "s1": [[2,0],[0,1]], "s2": [[1,0],[1,1]]}',
            '{"s1": [[0,0],[0,0]]}', '{"s1": [[1,0,0],[0,1,0],[0,0,1]]}', '{"s1": "abc"}',
            '{"s1": [[1.5,0],[0,1]]}', '{"ring": "Fp:12"}', '{"ring": null}', '{}',
            '[1,2]', '"x"', '5', 'null', '{"ring": 5, "s1": [[1,0],[0,1]]}',
            '{"ring": ["Q"]}', '{', '', '[' * 5000, b'\xff\xfe', '{"y": [[2,0],[0,1]]}', None]

COMPONENTS = ["ex1.W", "ex1.T", "ex2.Wj", "ex3.W1", "ex4.Tj", "ex5.W1", "ex5.T1",
              "ex5.T2", "Sa", "ex9"]

ints = st.integers(-2, 8).map(str) | st.sampled_from(["x", "", "1e3", "99999999999"])
words = st.sampled_from(["x", "x^-2 y", "[x,y]", "[x,y]^5", "x s1", "s1 x s1^-1 x^-1"]) | st.lists(
    st.sampled_from(WORD_PIECES), max_size=6).map(" ".join)
scalars = st.sampled_from(SCALARS)
matrices = st.sampled_from(MATRICES)


def opt(flag, values):
    """The flag with a value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def mats(flag, lo, hi):
    return st.lists(matrices, min_size=lo, max_size=hi).map(lambda ms: [flag, *ms])


@st.composite
def commands(draw):
    """A subcommand with its arguments, and the binding-file content it reads."""
    binding = draw(st.sampled_from(BINDINGS))
    sigma = draw(st.sampled_from([[], ["--sigma", "SIGMA"]]))
    name = draw(st.sampled_from(["eval", "extend", "chi-probe", "dominance", "preimage",
                                 "fiber", "dimcert", "sep-witness", "relscan",
                                 "lemma-check", "roots"]))
    word = ["--word", draw(words)]
    if name in ("eval", "extend", "fiber"):
        argv = word + draw(mats("--at", 0, 3)) + sigma
    elif name == "dominance":
        argv = word + draw(st.one_of(st.just([]), mats("--at", 0, 2))) + sigma
    elif name == "chi-probe":
        argv = word + draw(opt("--index", ints))
    elif name == "sep-witness":
        argv = word
    elif name == "preimage":
        argv = (draw(opt("--a", scalars)) + draw(opt("--lam", scalars))
                + draw(opt("--beta", scalars)))
    elif name == "dimcert":
        argv = (draw(opt("--example", st.sampled_from(COMPONENTS))) + draw(opt("--p", ints))
                + draw(opt("--j", ints)) + draw(opt("--a", scalars)))
    elif name == "relscan":
        argv = draw(mats("--at", 1, 3)) + draw(opt("--max-len", st.integers(-1, 6).map(str)))
    elif name == "lemma-check":
        argv = ([draw(st.sampled_from(["78", "101", "99"]))] + draw(opt("--lam", scalars))
                + draw(opt("--u", scalars)))
    else:
        label = draw(st.sampled_from("ABCDEFGHb ")) + draw(st.sampled_from(
            ["0", "1", "2", "3", "4", "5", "6", "01", "x", ""]))
        argv = draw(st.sampled_from([["check", label], ["table"], ["frobnicate"]]))
        argv += draw(opt("--max-rank", st.integers(-1, 6).map(str)))
    return [name, *argv], binding


shared = st.tuples(
    opt("--ring", st.sampled_from(RINGS)),
    opt("--seed", st.integers(-3, 3).map(str) | st.just("s")),
    opt("--samples", st.integers(-1, 12).map(str) | st.just("many")),
    opt("--output", st.sampled_from(["json", "json", "xml"])),
    st.sampled_from([[]] * 4 + [["--bogus"], ["--ring"]]),
).map(lambda parts: [a for part in parts for a in part])


@pytest.fixture(scope="module")
def sigma_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "sigma.json"


@deterministic
@given(shared, commands(), st.booleans())
def test_cli_keeps_its_exit_code_contract(sigma_path, flags, command, flags_first):
    argv, binding = command
    if binding is None:
        sigma_path.unlink(missing_ok=True)
    else:
        (sigma_path.write_bytes if isinstance(binding, bytes) else sigma_path.write_text)(binding)
    argv = [str(sigma_path) if a == "SIGMA" else a for a in argv]
    argv = flags + argv if flags_first else argv[:1] + flags + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue())
