"""Command-line front end: every probe and certificate, reproducible seeds,
machine-readable output.

Exit codes: 0 success, 1 a property that should hold failed, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import fields
from enum import Enum

from .errors import InvalidType, UnboundConstant, WordmapError
from .evaluate import (
    _point_count,
    check_restriction_identities,
    chi_probe,
    dominance_probe,
    eval_group,
)
from .geometry import (
    _SCAN_MAX,
    COMPONENT_IDS,
    component,
    dimension_certificate,
    lemma78_check,
    lemma101_check,
    relation_scan,
    separation_witness,
    trace_preimage_commutator,
    value_fiber_membership,
)
from .matrices import (
    SquareMatrix,
    matrix_from_json,
    matrix_to_json,
    random_sl2,
)
from .rings import Scalar, parse_ring, parse_scalar, render_scalar
from .rootsys import build, star_search, verify_lemma_table, verify_witness
from .words import _check_constant_keys, parse, render

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2

# a probe's time is linear in --samples, about 4 us a draw over Fp:101 (10^6
# draws of [x,x] took 3.9 s), so the count is capped
_SAMPLES_MAX = 100_000


def _read_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise WordmapError("JSON nested too deeply") from None


def _read_json_file(path: str):
    with open(path) as fh:
        return _read_json(fh.read())


def _load_matrix(ring, text: str) -> SquareMatrix:
    """A matrix argument: inline JSON (rows, or an object with a "rows" key),
    or the path of a JSON file holding either."""
    stripped = text.strip()
    data = _read_json(stripped) if stripped.startswith(("[", "{")) else _read_json_file(text)
    if isinstance(data, dict):
        if "rows" not in data:
            raise WordmapError('a matrix object has no "rows" key')
        data = data["rows"]
    return matrix_from_json(ring, data)


def _load_sigma(ring, path: str) -> dict:
    """Binding file: {"ring": "...", "s1": [[...]], ...}.  Every other key
    must be a constant token, checked as :meth:`~wordmap.words.Word.with_binding`
    checks it and before any matrix is read: a generator such as y is
    refused, not dropped."""
    data = _read_json_file(path)
    if not isinstance(data, dict):
        raise WordmapError(f"a binding file holds a JSON object, got {data!r}")
    file_ring = data.pop("ring", None)
    if file_ring is not None:
        if not isinstance(file_ring, str):
            raise WordmapError(f"binding file ring is a ring spec string, got {file_ring!r}")
        if parse_ring(file_ring) != ring:
            raise WordmapError(f"binding file ring {file_ring!r} does not match --ring")
    try:
        _check_constant_keys(data)
    except WordmapError as exc:
        raise WordmapError(f"binding file key {exc}") from None
    return {name: matrix_from_json(ring, rows) for name, rows in data.items()}


def _word_at(args, ring):
    """The --word, bound by --sigma if given, and the --at matrices (None if absent)."""
    w = parse(args.word)
    if args.sigma:
        w = w.with_binding(_load_sigma(ring, args.sigma))
    return w, [_load_matrix(ring, t) for t in args.at] if args.at else None


def _plain(v):
    """The JSON hook: a matrix as its rows of entry strings, a scalar as its
    string, an enum as its value and a result dataclass as its fields."""
    if isinstance(v, SquareMatrix):
        return matrix_to_json(v)
    if isinstance(v, Scalar):
        return render_scalar(v)
    if isinstance(v, Enum):
        return v.value
    return {f.name: getattr(v, f.name) for f in fields(v)}


def _emit(report, output: str) -> None:
    """Write a report, a dict or a result dataclass whose fields are its keys:
    as one JSON object, or in text mode one ``key: value`` line per key, with
    str, int, bool and None as Python prints them, scalars and enums by
    :func:`_plain` and the rest as JSON."""
    if not isinstance(report, dict):
        report = _plain(report)
    if output == "json":
        print(json.dumps(report, sort_keys=True, default=_plain))
        return
    for key in sorted(report):
        v = report[key]
        if isinstance(v, (Scalar, Enum)):
            v = _plain(v)
        elif not isinstance(v, (str, int, type(None))):
            v = json.dumps(v, sort_keys=True, default=_plain)
        print(f"{key}: {v}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # main() builds this on its first call and every later call reuses it, so
    # nothing may change the parser once built.  SUPPRESS keeps a subparser's
    # defaults from clobbering values given before the subcommand; unset flags
    # fall back in main().
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--ring", default=argparse.SUPPRESS,
                        help="Q | Fp:P, optionally [i] or [sqrt(D)] (default Q)")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)

    word = argparse.ArgumentParser(add_help=False)
    word.add_argument("--word", required=True)
    at = argparse.ArgumentParser(add_help=False)
    at.add_argument("--at", nargs="+", required=True, metavar="MATRIX")
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument("--sigma", help="JSON binding file for constant symbols")

    top = argparse.ArgumentParser(
        prog="wordmap",
        description="Exact word-map probes and certificates on SL2/SLn.",
        parents=[shared],
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, run, parents=(), **kw):
        """A subcommand whose handler is ``run(args, ring, rng)``."""
        p = sub.add_parser(name, parents=[shared, *parents], **kw)
        p.set_defaults(run=run)
        return p

    add_parser("eval", _cmd_eval, (word, at, sigma), help="evaluate a word at a matrix tuple")

    add_parser("extend", _cmd_extend, (word, at, sigma),
               help="adjugate extension + restriction identity")

    p = add_parser("chi-probe", _cmd_chi_probe, (word,),
                   help="sample a charpoly coefficient of the word value")
    p.add_argument("--index", type=int, default=1)

    p = add_parser("dominance", _cmd_dominance, (word, sigma),
                   help="jet-Jacobian rank of the word map at a point")
    p.add_argument("--at", nargs="+", metavar="MATRIX", default=None)

    p = add_parser("preimage", _cmd_preimage, help="commutator with prescribed trace")
    p.add_argument("--a", required=True)
    p.add_argument("--lam", default="2")
    p.add_argument("--beta", default="1")

    add_parser("fiber", _cmd_fiber, (word, at, sigma),
               help="membership in W (word = 1) and T (trace = 2)")

    p = add_parser("dimcert", _cmd_dimcert, help="dimension certificate for a catalogued component")
    p.add_argument("--example", required=True, choices=COMPONENT_IDS)
    p.add_argument("--p", type=int, default=None, help="Ex4 power (ex4.Tj; default 5)")
    p.add_argument("--j", type=int, default=None,
                   help="Ex2 exponent (ex2.Wj: only 4, the default) or "
                        "Ex4 root index (ex4.Tj; default 1; p must not divide 2j)")
    p.add_argument("--a", default=None, help="trace level (Sa)")

    add_parser("sep-witness", _cmd_sep_witness, (word,),
               help="point with trace 2 but word value != 1")

    p = add_parser("relscan", _cmd_relscan, help="short relations of a two-generator matrix group")
    p.add_argument("--at", nargs=2, required=True, metavar="MATRIX")
    p.add_argument("--max-len", type=int, default=8, help=f"1 to {_SCAN_MAX}, default %(default)s")

    p = add_parser("lemma-check", _cmd_lemma_check, help="executable checks of the explicit lemmas")
    p.add_argument("which", choices=("78", "101"))
    p.add_argument("--lam", default="2")
    p.add_argument("--u", default="1")

    p = add_parser("roots", _cmd_roots, help="root-system property-(*) search")
    rsub = p.add_subparsers(dest="roots_command", required=True)
    pc = rsub.add_parser("check", parents=[shared])
    pc.add_argument("system", metavar="TYPERANK", help="e.g. B3, E8")
    pt = rsub.add_parser("table", parents=[shared])
    pt.add_argument("--max-rank", type=int, default=8)

    return top


def _cmd_eval(args, ring, rng):
    w, tup = _word_at(args, ring)
    value = eval_group(w, tup)
    report = {"value": value, "word": render(w)}
    if value.n == 2:
        report.update(_plain(value_fiber_membership(value)))
    return report, EXIT_OK


def _cmd_extend(args, ring, rng):
    w, tup = _word_at(args, ring)
    check = check_restriction_identities(w, tup)
    report = {
        "extended": check.extended,
        "delta": check.delta,
        "restriction_identity_holds": check.holds,
    }
    return report, EXIT_OK if check.holds else EXIT_PROPERTY_FAILED


def _cmd_chi_probe(args, ring, rng):
    return chi_probe(parse(args.word), args.index, ring, rng, args.samples), EXIT_OK


def _cmd_dominance(args, ring, rng):
    w, tup = _word_at(args, ring)
    if tup is None:
        tup = [random_sl2(ring, rng) for _ in range(_point_count(w))]
    return {"rank": dominance_probe(w, tup), "point": tup}, EXIT_OK


def _cmd_preimage(args, ring, rng):
    a = parse_scalar(ring, args.a)
    lam = parse_scalar(ring, args.lam)
    beta = parse_scalar(ring, args.beta)
    t, g = trace_preimage_commutator(a, lam, beta)
    trace = (t * g * t.inverse() * g.inverse()).trace()
    hit = trace == a
    report = {"t": t, "g": g, "commutator_trace": trace, "hit": hit}
    return report, EXIT_OK if hit else EXIT_PROPERTY_FAILED


def _cmd_fiber(args, ring, rng):
    w, tup = _word_at(args, ring)
    fm = value_fiber_membership(eval_group(w, tup))
    # W is contained in T; a point in W but not T breaks the containment
    return fm, EXIT_OK if fm.in_T or not fm.in_W else EXIT_PROPERTY_FAILED


def _cmd_dimcert(args, ring, rng):
    a = None if args.a is None else parse_scalar(ring, args.a)
    cert = dimension_certificate(component(args.example, ring, p=args.p, j=args.j, a=a))
    return cert, EXIT_OK if cert.confirmed else EXIT_PROPERTY_FAILED


def _cmd_sep_witness(args, ring, rng):
    w = parse(args.word)
    point = separation_witness(w, ring)
    if point is None:
        return {"found": False}, EXIT_PROPERTY_FAILED
    value = eval_group(w, point)
    report = {"found": True, "point": point, "value": value, "trace": value.trace()}
    return report, EXIT_OK


def _cmd_relscan(args, ring, rng):
    return relation_scan([_load_matrix(ring, t) for t in args.at], args.max_len), EXIT_OK


def _cmd_lemma_check(args, ring, rng):
    if args.which == "78":
        rep = lemma78_check(parse_scalar(ring, args.lam), parse_scalar(ring, args.u))
        ok = rep.in_Uminus and rep.trivial_iff_unit
    else:
        rep = lemma101_check(ring)
        ok = rep.ok
    return rep, EXIT_OK if ok else EXIT_PROPERTY_FAILED


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
            "witness": result.witness,
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


def main(argv=None) -> int:
    # an exact result may have more digits than Python converts between int
    # and str by default (4300 since 3.10.7), so the limit is lifted for the call
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
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
        if samples > _SAMPLES_MAX:
            raise WordmapError(f"--samples {samples} capped at {_SAMPLES_MAX}")
        report, code = args.run(args, ring, rng)
    except (WordmapError, OSError, ValueError) as exc:
        if isinstance(exc, UnboundConstant) and hasattr(args, "sigma"):
            exc = f"{exc}; --sigma binds it"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(report, output)
    return code


if __name__ == "__main__":
    sys.exit(main())
