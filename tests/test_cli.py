"""CLI: subcommand behavior, exit codes, JSON schemas, byte-level determinism."""

import json

import pytest
from jsonschema import validate

from wordmap.cli import main

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
