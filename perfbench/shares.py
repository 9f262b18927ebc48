#!/usr/bin/env python3
"""Where each layer does its work: per-layer shares across the workloads.

    python3 perfbench/shares.py --seed 1

Runs ``run.py --trace 1`` once per workload (one after another) and prints,
for each row of the layer-to-end-to-end table in README.md, every listed
metric in the workload that should move it and in the one that should not,
as a share of its total over all three workloads, with the base values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "long-words", "certify")

_N4 = ("extend-q/n4", "extend-q/n5", "extend-q/n6", "extend-fp/n4", "extend-fp/n5", "extend-fp/n6")
LABELS = {_N4: "extend, n >= 4"}

# (metrics, where they should move, where they should not); a place is a
# workload and, optionally, the job kinds within it
TABLE = [
    (("rings.boxes", "rings.ops.fp", "matrices.mul.self_s"),
     [("search", None)], [("long-words", ("extend-q",))]),
    (("geometry.relscan.nodes", "geometry.relscan.self_s", "cli.output_bytes"),
     [("search", ("relscan-q8",))], [("certify", None)]),
    (("rootsys.build.self_s", "rootsys.star_search.calls", "rootsys.star_search.self_s",
      "rootsys.self_s"),
     [("search", None)], [("long-words", None), ("certify", None)]),
    (("matrices.det.self_s", "matrices.adjugate.self_s"),
     [("long-words", None), ("long-words", _N4)], [("search", None)]),
    (("words.letters_parsed", "words.parse.self_s", "words.self_s"),
     [("long-words", None)], [("certify", None)]),
    (("geometry.dimcert.word_evals", "rings.ops.dual"),
     [("certify", None)], [("search", None)]),
    (("rings.sqrt.self_s",),
     [("certify", ("lemma-101",))], [("search", None)]),
]


def load(seed, workload):
    """Trace the workload now and read the full results that run wrote."""
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
    path = HERE / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def value(results, workload, kinds, metric):
    r = results[workload]
    if kinds is None:
        return r["metrics"][metric]["value"]
    return sum(r["by_kind"].get(k, {}).get(metric, 0) for k in kinds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    results = {w: load(args.seed, w) for w in WORKLOADS}
    print(f"seed {args.seed}; share = value / sum over {', '.join(WORKLOADS)}")
    print("| metric | moves in | value | share | should not move in | value | share |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for metrics, moves, nots in TABLE:
        for metric in metrics:
            total = sum(value(results, w, None, metric) for w in WORKLOADS)
            for mw, mk in moves:
                for nw, nk in nots:
                    cells = []
                    for w, k in ((mw, mk), (nw, nk)):
                        v = value(results, w, k, metric)
                        where = w + (f" ({LABELS.get(k, ', '.join(k))})" if k else "")
                        cells += [where, f"{v:.4g}", f"{v / total:.3f}" if total else "-"]
                    print(f"| {metric} | " + " | ".join(cells) + " |")
    for w in WORKLOADS:
        m = results[w]["metrics"]
        print(f"{w}: evaluate.word_evals_per_dominance = "
              f"{m['evaluate.word_evals_per_dominance']['value']:.4g}, "
              f"evaluate.chi.samples_drawn_ratio = "
              f"{m['evaluate.chi.samples_drawn_ratio']['value']:.4g}, "
              f"trace.overhead_ratio = {m['trace.overhead_ratio']['value']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
