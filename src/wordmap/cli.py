"""Command-line front end: every probe and certificate, reproducible seeds,
machine-readable output.

Exit codes: 0 success, 1 a property that should hold failed, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from .errors import InvalidType, WordmapError
from .evaluate import (
    check_restriction_identities,
    chi_probe,
    dominance_probe,
    eval_adjugate_extension,
    eval_group,
)
from .geometry import (
    COMPONENT_IDS,
    Sl2Pair,
    component,
    dimension_certificate,
    fiber_membership,
    lemma78_check,
    lemma101_check,
    relation_scan,
    separation_witness,
    trace_preimage_commutator,
)
from .matrices import (
    SquareMatrix,
    matrix_from_json,
    matrix_to_json,
    random_sl2,
)
from .rings import parse_ring, parse_scalar, render_scalar
from .rootsys import build, star_search, verify_lemma_table, verify_witness
from .words import parse, render

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2


def _load_matrix(ring, text: str) -> SquareMatrix:
    """A matrix argument: inline JSON rows, or the path of a JSON file."""
    stripped = text.strip()
    if stripped.startswith("["):
        data = json.loads(stripped)
    else:
        with open(text) as fh:
            data = json.load(fh)
    if isinstance(data, dict):
        data = data["rows"]
    return matrix_from_json(ring, data)


def _load_sigma(ring, path: str) -> dict:
    """Binding file: {"ring": "...", "s1": [[...]], ...}."""
    with open(path) as fh:
        data = json.load(fh)
    file_ring = data.pop("ring", None)
    if file_ring is not None and parse_ring(file_ring) != ring:
        raise WordmapError(
            f"binding file ring {file_ring!r} does not match --ring"
        )
    return {name: matrix_from_json(ring, rows) for name, rows in data.items()}


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {_text_value(report[key])}")


def _text_value(v):
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return v


def _pair_json(p: Sl2Pair):
    return [matrix_to_json(p.g1), matrix_to_json(p.g2)]


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser's defaults from clobbering values given
    # before the subcommand; unset flags fall back in main().
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--ring", default=argparse.SUPPRESS,
                        help="Q | Fp:P, optionally [i] or [sqrt(D)] (default Q)")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)

    top = argparse.ArgumentParser(
        prog="wordmap",
        description="Exact word-map probes and certificates on SL2/SLn.",
        parents=[shared],
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("eval", help="evaluate a word at a matrix tuple")
    p.add_argument("--word", required=True)
    p.add_argument("--at", nargs="+", required=True, metavar="MATRIX")
    p.add_argument("--sigma", help="JSON binding file for constant symbols")

    p = add_parser("extend", help="adjugate extension + restriction identity")
    p.add_argument("--word", required=True)
    p.add_argument("--at", nargs="+", required=True, metavar="MATRIX")
    p.add_argument("--sigma")

    p = add_parser("chi-probe", help="sample a charpoly coefficient of the word value")
    p.add_argument("--word", required=True)
    p.add_argument("--index", type=int, default=1)

    p = add_parser("dominance", help="jet-Jacobian rank of the word map at a point")
    p.add_argument("--word", required=True)
    p.add_argument("--at", nargs="*", metavar="MATRIX", default=None)
    p.add_argument("--sigma")

    p = add_parser("preimage", help="commutator with prescribed trace")
    p.add_argument("--a", required=True)
    p.add_argument("--lam", default="2")
    p.add_argument("--beta", default="1")

    p = add_parser("fiber", help="membership in W (word = 1) and T (trace = 2)")
    p.add_argument("--word", required=True)
    p.add_argument("--at", nargs="+", required=True, metavar="MATRIX")
    p.add_argument("--sigma")

    p = add_parser("dimcert", help="dimension certificate for a catalogued component")
    p.add_argument("--example", required=True, choices=COMPONENT_IDS)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--a", default=None)

    p = add_parser("sep-witness", help="point with trace 2 but word value != 1")
    p.add_argument("--word", required=True)

    p = add_parser("relscan", help="short relations of a two-generator matrix group")
    p.add_argument("--at", nargs=2, required=True, metavar="MATRIX")
    p.add_argument("--max-len", type=int, default=8)

    p = add_parser("lemma-check", help="executable checks of the explicit lemmas")
    p.add_argument("which", choices=("78", "101"))
    p.add_argument("--lam", default="2")
    p.add_argument("--u", default="1")

    p = add_parser("roots", help="root-system property-(*) search")
    rsub = p.add_subparsers(dest="roots_command", required=True)
    pc = rsub.add_parser("check", parents=[shared])
    pc.add_argument("system", metavar="TYPERANK", help="e.g. B3, E8")
    pt = rsub.add_parser("table", parents=[shared])
    pt.add_argument("--max-rank", type=int, default=8)

    return top


def _cmd_eval(args, ring, rng):
    w = parse(args.word)
    if args.sigma:
        w = w.with_binding(_load_sigma(ring, args.sigma))
    tup = [_load_matrix(ring, t) for t in args.at]
    value = eval_group(w, tup)
    report = {"value": matrix_to_json(value), "word": render(w)}
    if value.n == 2:
        fm = fiber_membership(w, tup)
        report["in_W"] = fm.in_W
        report["in_T"] = fm.in_T
    return report, EXIT_OK


def _cmd_extend(args, ring, rng):
    w = parse(args.word)
    if args.sigma:
        w = w.with_binding(_load_sigma(ring, args.sigma))
    tup = [_load_matrix(ring, t) for t in args.at]
    extended = eval_adjugate_extension(w, tup)
    check = check_restriction_identities(w, tup)
    report = {
        "extended": matrix_to_json(extended),
        "delta": render_scalar(check.delta),
        "restriction_identity_holds": check.holds,
    }
    return report, EXIT_OK if check.holds else EXIT_PROPERTY_FAILED


def _cmd_chi_probe(args, ring, rng):
    w = parse(args.word)
    result = chi_probe(w, args.index, ring, rng, args.samples)
    report = {
        "distinct_values": [render_scalar(v) for v in result.distinct_values],
        "verdict": result.verdict.value,
        "samples": result.samples,
    }
    return report, EXIT_OK


def _cmd_dominance(args, ring, rng):
    w = parse(args.word)
    if args.sigma:
        w = w.with_binding(_load_sigma(ring, args.sigma))
    if args.at:
        tup = [_load_matrix(ring, t) for t in args.at]
    else:
        m = max(w.max_generator(), 1)
        tup = [random_sl2(ring, rng) for _ in range(m)]
    rank_value = dominance_probe(w, tup)
    report = {"rank": rank_value, "point": [matrix_to_json(g) for g in tup]}
    return report, EXIT_OK


def _cmd_preimage(args, ring, rng):
    a = parse_scalar(ring, args.a)
    lam = parse_scalar(ring, args.lam)
    beta = parse_scalar(ring, args.beta)
    pair = trace_preimage_commutator(a, lam, beta)
    comm = pair.g1 * pair.g2 * pair.g1.inverse() * pair.g2.inverse()
    hit = comm.trace() == a
    report = {
        "t": matrix_to_json(pair.g1),
        "g": matrix_to_json(pair.g2),
        "commutator_trace": render_scalar(comm.trace()),
        "hit": hit,
    }
    return report, EXIT_OK if hit else EXIT_PROPERTY_FAILED


def _cmd_fiber(args, ring, rng):
    w = parse(args.word)
    if args.sigma:
        w = w.with_binding(_load_sigma(ring, args.sigma))
    tup = [_load_matrix(ring, t) for t in args.at]
    fm = fiber_membership(w, tup)
    report = {"in_W": fm.in_W, "in_T": fm.in_T}
    # W is contained in T; a point in W but not T breaks the containment
    ok = fm.in_T or not fm.in_W
    return report, EXIT_OK if ok else EXIT_PROPERTY_FAILED


def _cmd_dimcert(args, ring, rng):
    a = parse_scalar(ring, args.a) if args.a is not None else None
    comp = component(args.example, ring, p=args.p, j=args.j, a=a)
    cert = dimension_certificate(comp)
    report = {
        "component": cert.component,
        "point": _pair_json(cert.point),
        "lower": cert.lower,
        "upper": cert.upper,
        "claimed": cert.claimed,
        "confirmed": cert.confirmed,
    }
    return report, EXIT_OK if cert.confirmed else EXIT_PROPERTY_FAILED


def _cmd_sep_witness(args, ring, rng):
    w = parse(args.word)
    point = separation_witness(w, ring)
    if point is None:
        return {"found": False}, EXIT_PROPERTY_FAILED
    value = eval_group(w, list(point))
    report = {
        "found": True,
        "point": _pair_json(point),
        "value": matrix_to_json(value),
        "trace": render_scalar(value.trace()),
    }
    return report, EXIT_OK


def _cmd_relscan(args, ring, rng):
    pair = Sl2Pair(*[_load_matrix(ring, t) for t in args.at])
    result = relation_scan(pair, args.max_len)
    from .words import pure

    report = {
        "trivial": result.trivial,
        "relations": [render(pure(w)) for w in result.relations],
    }
    return report, EXIT_OK


def _cmd_lemma_check(args, ring, rng):
    if args.which == "78":
        lam = parse_scalar(ring, args.lam)
        u = parse_scalar(ring, args.u)
        rep = lemma78_check(lam, u)
        ok = rep.in_Uminus and rep.trivial_iff_unit
        report = {
            "value": matrix_to_json(rep.value),
            "in_Uminus": rep.in_Uminus,
            "trivial_iff_unit": rep.trivial_iff_unit,
        }
        return report, EXIT_OK if ok else EXIT_PROPERTY_FAILED
    rep = lemma101_check(ring)
    report = {
        "z": matrix_to_json(rep.z),
        "intermediate": matrix_to_json(rep.intermediate),
        "final_trace": render_scalar(rep.final_trace),
        "ok": rep.ok,
    }
    return report, EXIT_OK if rep.ok else EXIT_PROPERTY_FAILED


_ROOT_LABEL = re.compile(r"([A-Ga-g])([1-9][0-9]*)")


def _parse_root_label(text: str):
    """'B3' -> ('B', 3): a type letter A-G followed by a positive rank."""
    m = _ROOT_LABEL.fullmatch(text.strip())
    if not m:
        raise InvalidType(
            f"bad root-system label {text!r}: expected a type letter A-G "
            f"followed by a positive rank, e.g. B3"
        )
    return m.group(1), int(m.group(2))


def _cmd_roots(args, ring, rng):
    if args.roots_command == "check":
        system = build(*_parse_root_label(args.system))
        result = star_search(system)
        ok = not result.holds or verify_witness(system, result.witness)
        report = {
            "type": system.type_label,
            "rank": system.rank,
            "holds": result.holds,
            "witness": [list(v) for v in result.witness] if result.witness else None,
        }
        return report, EXIT_OK if ok else EXIT_PROPERTY_FAILED
    rows = verify_lemma_table(args.max_rank)
    table = [
        {"type": row.type_label, "rank": row.rank, "holds": row.holds,
         "expected": row.expected}
        for row in rows
    ]
    discrepancies = [r for r in table if r["holds"] != r["expected"]]
    report = {"table": table, "discrepancies": discrepancies}
    return report, EXIT_OK if not discrepancies else EXIT_PROPERTY_FAILED


_COMMANDS = {
    "eval": _cmd_eval,
    "extend": _cmd_extend,
    "chi-probe": _cmd_chi_probe,
    "dominance": _cmd_dominance,
    "preimage": _cmd_preimage,
    "fiber": _cmd_fiber,
    "dimcert": _cmd_dimcert,
    "sep-witness": _cmd_sep_witness,
    "relscan": _cmd_relscan,
    "lemma-check": _cmd_lemma_check,
    "roots": _cmd_roots,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    ring_spec = getattr(args, "ring", "Q")
    seed = getattr(args, "seed", 0)
    samples = getattr(args, "samples", 100)
    output = getattr(args, "output", "json")
    args.samples = samples
    try:
        ring = parse_ring(ring_spec)
        rng = random.Random(seed)
        if samples < 1:
            raise WordmapError("--samples must be >= 1")
        report, code = _COMMANDS[args.command](args, ring, rng)
    except (WordmapError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(report, output)
    return code


if __name__ == "__main__":
    sys.exit(main())
