"""CLI: subcommand behavior, exit codes, JSON schemas, byte-level determinism."""

import json
import os
import subprocess
import sys

import pytest
from jsonschema import validate

from wordmap.cli import main
from wordmap.geometry import COMPONENT_IDS

G1 = '[["2","0"],["0","51"]]'
G2 = '[["1","1"],["0","1"]]'


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "string"}},
}


def test_eval(capsys):
    code, rep = run_json(
        capsys, ["--ring", "Fp:101", "eval", "--word", "[x,y]", "--at", G1, G2]
    )
    assert code == 0
    validate(
        rep,
        {
            "type": "object",
            "required": ["value", "word", "in_W", "in_T"],
            "properties": {
                "value": MATRIX_SCHEMA,
                "word": {"type": "string"},
                "in_W": {"type": "boolean"},
                "in_T": {"type": "boolean"},
            },
        },
    )
    assert rep["in_T"] and not rep["in_W"]
    assert rep["value"] == [["1", "3"], ["0", "1"]]


def test_eval_with_sigma_file(capsys, tmp_path):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps({"ring": "Fp:101", "s1": [["2", "0"], ["0", "51"]]}))
    code, rep = run_json(
        capsys,
        ["--ring", "Fp:101", "eval", "--word", "s1 x s1^-1 x^-1",
         "--sigma", str(sigma), "--at", G2],
    )
    assert code == 0
    assert rep["in_T"]


def test_eval_matrix_from_file(capsys, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(G1)
    code, rep = run_json(
        capsys, ["--ring", "Fp:101", "eval", "--word", "x^2", "--at", str(f)]
    )
    assert code == 0
    # 51 = 2^-1 mod 101, so the square is diag(4, 4^-1) = diag(4, 76)
    assert rep["value"] == [["4", "0"], ["0", "76"]]


def test_extend(capsys):
    code, rep = run_json(
        capsys,
        ["--ring", "Fp:101", "extend", "--word", "x y^-1 x^-1 y", "--at",
         '[["3","1"],["5","2"]]', '[["7","2"],["4","3"]]'],
    )
    assert code == 0
    assert rep["restriction_identity_holds"]
    validate(
        rep,
        {
            "type": "object",
            "required": ["extended", "delta", "restriction_identity_holds"],
        },
    )


def test_chi_probe_and_determinism(capsys):
    argv = ["chi-probe", "--ring", "Fp:101", "--word", "[x,y]", "--seed", "3",
            "--samples", "50"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    rep = json.loads(out1)
    assert rep["verdict"] == "TakesManyValues"


def test_dominance(capsys):
    code, rep = run_json(
        capsys, ["dominance", "--ring", "Fp:101", "--word", "[x,y]", "--seed", "1"]
    )
    assert code == 0
    assert rep["rank"] == 3


def test_dominance_at_without_matrices_is_a_usage_error(capsys):
    # it once sampled a random point, as if --at were not given
    assert main(["--ring", "Fp:101", "dominance", "--word", "x", "--at"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--at: expected at least one argument" in captured.err


def test_dominance_at_a_singular_value_is_a_usage_error(capsys):
    # the rank of the raw derivatives equals the tangents' only at an
    # invertible word value
    argv = ["--ring", "Q", "dominance", "--word", "x", "--at", "[[1,0],[0,0]]"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix determinant is not a unit\n"


def test_unbound_constant_names_itself_and_the_flag_that_binds_it(capsys):
    # the message was the bare name: "error: s1"
    argv = ["--ring", "Fp:101", "dominance", "--word", "x s1", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: constant s1 is unbound; --sigma binds it" in captured.err


def test_preimage(capsys):
    code, rep = run_json(capsys, ["--ring", "Fp:101", "preimage", "--a", "77"])
    assert code == 0
    assert rep["hit"] and rep["commutator_trace"] == "77"


def test_fiber(capsys):
    code, rep = run_json(
        capsys, ["--ring", "Fp:101", "fiber", "--word", "[x,y]", "--at", G1, G2]
    )
    assert code == 0
    assert rep == {"in_W": False, "in_T": True}


@pytest.mark.parametrize(
    "example,flags,claimed",
    [
        ("ex1.W", [], 4),
        ("ex5.W1", [], 4),
        ("ex4.Tj", ["--p", "5", "--j", "2"], 5),
        ("ex2.Wj", ["--j", "4"], 5),
        ("Sa", ["--a", "7"], 5),
    ],
)
def test_dimcert(capsys, example, flags, claimed):
    code, rep = run_json(
        capsys, ["--ring", "Fp:101", "dimcert", "--example", example] + flags
    )
    assert code == 0
    validate(
        rep,
        {
            "type": "object",
            "required": ["component", "point", "lower", "upper", "claimed", "confirmed"],
            "properties": {
                "lower": {"type": "integer"},
                "upper": {"type": "integer"},
                "claimed": {"type": "integer"},
                "confirmed": {"type": "boolean"},
            },
        },
    )
    assert rep["confirmed"] and rep["claimed"] == claimed


@pytest.mark.parametrize(
    "example,flags,unread",
    [
        ("ex1.W", ["--j", "4"], "--j"),
        ("ex2.Wj", ["--j", "4", "--p", "5"], "--p"),
        ("ex4.Tj", ["--p", "5", "--j", "2", "--a", "3"], "--a"),
        ("Sa", ["--a", "7", "--j", "1"], "--j"),
        ("ex5.T2", ["--a", "7"], "--a"),
    ],
)
def test_dimcert_rejects_a_flag_the_component_does_not_read(capsys, example, flags, unread):
    code = main(["--ring", "Fp:101", "dimcert", "--example", example] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert unread in captured.err


def test_dimcert_ex2_takes_j_4_when_j_is_not_given(capsys):
    base = ["--ring", "Fp:101", "dimcert", "--example", "ex2.Wj"]
    code, out = run(capsys, base)
    assert code == 0 and json.loads(out)["confirmed"]
    assert run(capsys, base + ["--j", "4"]) == (code, out)
    assert main(base + ["--j", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ex2.Wj is catalogued for j = 4" in captured.err


@pytest.mark.parametrize("cid", COMPONENT_IDS)
def test_dimcert_refuses_characteristic_2(capsys, cid):
    # ex2.Wj and ex5.T2 once printed an unconfirmed certificate (exit 1)
    assert main(["--ring", "Fp:2", "dimcert", "--example", cid]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "characteristic 2" in captured.err


def test_sep_witness(capsys):
    code, rep = run_json(
        capsys, ["--ring", "Fp:101", "sep-witness", "--word", "[x,y]^2"]
    )
    assert code == 0
    assert rep["found"] and rep["trace"] == "2"


def test_relscan(capsys):
    code, rep = run_json(
        capsys,
        ["--ring", "Fp:13", "relscan", "--max-len", "4", "--at",
         '[["5","0"],["0","8"]]', '[["0","1"],["12","0"]]'],
    )
    assert code == 0
    assert not rep["trivial"]
    assert "x^4" in rep["relations"]


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_relscan_max_len_below_one_is_a_usage_error(capsys, max_len):
    # not a scan of the length-1 words, which finds x^-1 and x here
    argv = ["--ring", "Fp:101", "relscan", "--max-len", max_len,
            "--at", '[[1,0],[0,1]]', '[[1,1],[0,1]]']
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_len must be >= 1" in captured.err


def test_lemma_checks(capsys):
    code, rep = run_json(capsys, ["--ring", "Fp:13", "lemma-check", "78", "--lam", "2", "--u", "1"])
    assert code == 0 and rep["in_Uminus"] and rep["trivial_iff_unit"]
    code, rep = run_json(capsys, ["--ring", "Fp:17", "lemma-check", "101"])
    assert code == 0 and rep["ok"]


def test_roots_check_and_table(capsys):
    code, rep = run_json(capsys, ["roots", "check", "B3"])
    assert code == 0 and rep["holds"]
    validate(
        rep,
        {
            "type": "object",
            "required": ["type", "rank", "holds", "witness"],
        },
    )
    code, rep = run_json(capsys, ["roots", "table", "--max-rank", "4"])
    assert code == 0 and rep["discrepancies"] == []


def test_roots_table_lists_systems_up_to_max_rank(capsys):
    # G2 appears only from --max-rank 2 on, and --max-rank 0 is bad input
    code, rep = run_json(capsys, ["roots", "table", "--max-rank", "1"])
    assert code == 0
    assert [(row["type"], row["rank"]) for row in rep["table"]] == [("A", 1)]
    for max_rank in ("0", "-2"):
        assert main(["roots", "table", "--max-rank", max_rank]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max_rank must be >= 1" in captured.err


def test_text_output(capsys):
    code, out = run(
        capsys,
        ["--ring", "Fp:101", "--output", "text", "fiber", "--word", "[x,y]",
         "--at", G1, G2],
    )
    assert code == 0
    assert "in_T: True" in out


def test_global_flags_after_subcommand(capsys):
    code1, out1 = run(capsys, ["--ring", "Fp:101", "preimage", "--a", "5"])
    code2, out2 = run(capsys, ["preimage", "--ring", "Fp:101", "--a", "5"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_errors(capsys):
    assert main(["nonsense"]) == 2
    assert main(["--ring", "Fp:12", "preimage", "--a", "1"]) == 2
    assert main(["--ring", "Fp:101", "eval", "--word", "[x,", "--at", G1]) == 2
    assert main(["--ring", "Fp:101", "eval", "--word", "x", "--at", "/no/such/file"]) == 2


@pytest.mark.parametrize("matrix,message", [
    ('[[1.5,2],[3,4]]', "got 1.5"),  # not evaluated as [[1,2],[3,4]]
    ('[[true,2],[3,4]]', "got True"),  # not read as 1
    ('[1,2]', "a matrix is a list of rows"),
    ('[[null,2],[3,4]]', "got None"),
])
def test_matrix_literal_takes_only_strings_and_ints(capsys, matrix, message):
    assert main(["--ring", "Q", "eval", "--word", "x", "--at", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("content,message", [
    ("[1,2]", "a binding file holds a JSON object"),
    ('"x"', "a binding file holds a JSON object"),
    ('{"ring": 5, "s1": [[1,0],[0,1]]}', "binding file ring is a ring spec string"),
], ids=["list", "string", "ring-not-a-string"])
def test_malformed_binding_file_is_a_usage_error(capsys, tmp_path, content, message):
    # each once ended in a traceback with exit 1
    sigma = tmp_path / "sigma.json"
    sigma.write_text(content)
    argv = ["--ring", "Fp:7", "eval", "--word", "x s1", "--at", "[[1,0],[0,1]]",
            "--sigma", str(sigma)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_deeply_nested_matrix_json_is_a_usage_error(capsys):
    # json gives up with a RecursionError, which once ended in a traceback
    assert main(["--ring", "Fp:7", "eval", "--word", "x", "--at", "[" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "JSON nested too deeply" in captured.err


def test_huge_power_is_a_usage_error(capsys):
    code = main(["--ring", "Fp:101", "eval", "--word", "x^100000000000", "--at", G2])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "word expands to more than 10000000 letters" in captured.err


def test_generator_zero_is_a_usage_error(capsys):
    # x0 once evaluated silently to the last matrix of the tuple
    assert main(["--ring", "Fp:101", "eval", "--word", "x0", "--at", G1, G2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "generator index '0' must start with 1-9" in captured.err


def test_deep_nesting_is_a_usage_error(capsys):
    text = "(" * 3000 + "x" + ")" * 3000
    assert main(["--ring", "Fp:101", "eval", "--word", text, "--at", G2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parentheses nested too deeply" in captured.err


@pytest.mark.parametrize("label", ["B", "Bx", "3B"])
def test_roots_check_bad_label(capsys, label):
    assert main(["roots", "check", label]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a type letter A-G followed by a positive rank, e.g. B3" in captured.err
    assert "invalid literal" not in captured.err


def test_property_failure_exit_code(capsys):
    # a = 2 forces p = 0, so gamma = 0 and the hit still lands: stays 0
    assert main(["--ring", "Fp:101", "preimage", "--a", "2"]) == 0
    # degenerate lambda is a usage error, not a property failure
    assert main(["--ring", "Fp:101", "preimage", "--a", "5", "--lam", "1"]) == 2


# Run the CLI in a fresh interpreter; with "block", importing sympy fails there.
_CLI_SCRIPT = """
import sys
if sys.argv[1] == "block":
    sys.modules["sympy"] = None
from wordmap.cli import main
code = main(sys.argv[2:])
assert "sympy" not in sys.modules or sys.modules["sympy"] is None
sys.exit(code)
"""


def _run_fresh(mode, argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", _CLI_SCRIPT, mode, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--ring", "Fp:1000000000061", "eval", "--word", "[x,y]^3 x^-5",
         "--at", '[["3","5"],["1","2"]]', '[["2","1"],["7","4"]]'],
        ["--ring", "Fp:1000000000061", "lemma-check", "78", "--lam", "3", "--u", "5"],
        ["--ring", "Fp:17", "lemma-check", "101"],
    ],
    ids=["eval", "lemma-78", "lemma-101"],
)
def test_runs_without_sympy(argv):
    blocked = _run_fresh("block", argv)
    assert blocked.returncode == 0, blocked.stderr
    plain = _run_fresh("plain", argv)
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout and blocked.stdout
