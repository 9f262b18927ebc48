"""Traced run: spans and counts for each wordmap module, recorded from outside.

:class:`Tracer` wraps every public function of the modules named in
``LAYERS`` at every site where that function is bound (``wordmap.cli.eval_group``
as well as ``wordmap.evaluate.eval_group``), plus the ``SquareMatrix`` methods.
Each call becomes a span (name, start, end, parent span, job id) kept in
memory.  ``Scalar`` arithmetic is counted by ring kind but not timed, so its
time stays in the calling span (mostly ``matrices``).  ``restore`` puts every
original back.

A span's self time is its duration minus its child spans' durations.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "words", "evaluate", "geometry", "matrices", "rings", "rootsys")

ALIASES = {
    "eval_adjugate_extension": "adjugate_ext",
    "chi_probe": "chi",
    "relation_scan": "relscan",
    "dimension_certificate": "dimcert",
    "sqrt_minus_one": "sqrt",
    "sqrt_in_ring": "sqrt",
}

# __getitem__ and the constructor are plain accessors; their cost stays in the caller.
MATRIX_METHODS = (
    "__mul__", "__add__", "__sub__", "__pow__", "__eq__", "scaled", "trace",
    "transpose", "inverse", "map_entries", "identity", "zero", "from_rows",
)

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "__pow__", "inv",
)

RING_KINDS = {"PrimeField": "fp", "Rationals": "q", "QuadraticExt": "quad", "DualNumbers": "dual"}

# spans whose descendants are counted: (descendant, ancestor)
NESTED = (
    ("evaluate.eval_group", "evaluate.dominance_probe"),
    ("evaluate.eval_group", "evaluate.chi"),
    ("evaluate.eval_group", "geometry.dimcert"),
    ("matrices.mul", "geometry.relscan"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.t0, self.t1 = array("d"), array("d")
        self.parent, self.name, self.job = array("q"), array("q"), array("q")
        self._stack = [-1]
        self.job_id = -1
        self.ops = {kind: 0 for kind in RING_KINDS.values()}
        self.misc = Counter()  # boxes, letters parsed, relations found
        self.job_counts: dict[int, Counter] = {}
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, on_result=None):
        nid = self._name_id(name)
        t0, t1, parent, names, jobs, stack = (
            self.t0, self.t1, self.parent, self.name, self.job, self._stack)
        clock = time.perf_counter
        tracer = self

        def begin():
            i = len(t0)
            parent.append(stack[-1])
            names.append(nid)
            jobs.append(tracer.job_id)
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            return i

        def end(i):
            t1[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the work lands where it runs
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end(i)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                i = begin()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(i)
                if on_result is not None:
                    on_result(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _count_op(self, fn):
        ops = self.ops

        def wrapper(self_, *args):
            ops[RING_KINDS[type(self_.ring).__name__]] += 1
            return fn(self_, *args)

        return functools.update_wrapper(wrapper, fn)

    def _count_boxes(self, init):
        misc = self.misc

        def wrapper(*args, **kwargs):
            misc["boxes"] += 1
            init(*args, **kwargs)

        return functools.update_wrapper(wrapper, init)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / restore -------------------------------------------------------

    def install(self):
        mods = {layer: sys.modules[f"wordmap.{layer}"] for layer in LAYERS}
        misc = self.misc

        def letters(w):
            misc["letters_parsed"] += sum(len(seg.letters) for seg in w.words) + w.r

        def relations(result):
            misc["relations"] += len(result.relations)

        hooks = {"words.parse": letters, "geometry.relscan": relations}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{ALIASES.get(attr, attr)}"
                wrapped[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        sites = [m for n, m in sys.modules.items() if n == "wordmap" or n.startswith("wordmap.")]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(site, attr, hit[1])

        matrix = mods["matrices"].SquareMatrix
        for meth in MATRIX_METHODS:
            raw = matrix.__dict__[meth]
            name = f"matrices.{meth.strip('_')}"
            if isinstance(raw, staticmethod):
                self._set(matrix, meth, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(matrix, meth, self._wrap(name, raw))
        scalar = mods["rings"].Scalar
        for meth in SCALAR_OPS:
            self._set(scalar, meth, self._count_op(scalar.__dict__[meth]))
        self._set(scalar, "__init__", self._count_boxes(scalar.__dict__["__init__"]))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- per-job counters ----------------------------------------------------------

    def _counters(self) -> Counter:
        c = Counter({f"rings.ops.{k}": v for k, v in self.ops.items()})
        c["rings.boxes"] = self.misc["boxes"]
        c["words.letters_parsed"] = self.misc["letters_parsed"]
        c["geometry.relscan.relations"] = self.misc["relations"]
        return c

    def run_job(self, job_id, fn):
        """Run fn() as job `job_id`; counter deltas are kept per job."""
        self.job_id = job_id
        before = self._counters()
        try:
            return fn()
        finally:
            after = self._counters()
            after.subtract(before)
            self.job_counts[job_id] = after
            self.job_id = -1

    # -- results --------------------------------------------------------------------

    def aggregate(self):
        """Per job: a Counter of span calls, self seconds and nested counts."""
        n = len(self.t0)
        t0, t1, parent, name, job = self.t0, self.t1, self.parent, self.name, self.job
        dur = [t1[i] - t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        ids = {v: self._ids.get(v, -1) for pair in NESTED for v in pair}
        ancestors = {ids[a] for _d, a in NESTED}
        nested = {(ids[d], ids[a]): f"{d}@{a}" for d, a in NESTED}
        anc = [-1] * n
        per_job = defaultdict(Counter)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                anc[i] = name[p] if name[p] in ancestors else anc[p]
            c = per_job[job[i]]
            nm = self.names[name[i]]
            c[f"{nm}.calls"] += 1
            c[f"{nm}.self_s"] += dur[i] - child[i]
            key = nested.get((name[i], anc[i]))
            if key is not None:
                c[key] += 1
        for j, counts in self.job_counts.items():
            per_job[j].update(counts)
        return per_job

    def write_spans(self, path, kinds):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "job_kinds": kinds}) + "\n")
            for i in range(len(self.t0)):
                fh.write(json.dumps([i, self.parent[i], self.job[i], self.name[i],
                                     self.t0[i], self.t1[i]]) + "\n")


def layer_metrics(c: Counter, chi_samples: int, output_bytes: int) -> dict:
    """The per-layer metrics from a sum of per-job counters."""

    def layer_self(layer):
        return sum(v for k, v in c.items() if k.startswith(layer + ".") and k.endswith(".self_s"))

    def ratio(a, b):
        return a / b if b else 0.0

    nodes = c["matrices.mul@geometry.relscan"]
    m = {
        "cli.calls": c["cli.main.calls"],
        "cli.self_s": layer_self("cli"),
        "cli.output_bytes": output_bytes,
        "words.parse.calls": c["words.parse.calls"],
        "words.parse.self_s": c["words.parse.self_s"],
        "words.render.self_s": c["words.render.self_s"],
        "words.letters_parsed": c["words.letters_parsed"],
        "words.self_s": layer_self("words"),
        "evaluate.eval_group.calls": c["evaluate.eval_group.calls"],
        "evaluate.eval_group.self_s": c["evaluate.eval_group.self_s"],
        "evaluate.adjugate_ext.calls": c["evaluate.adjugate_ext.calls"],
        "evaluate.adjugate_ext.self_s": c["evaluate.adjugate_ext.self_s"],
        "evaluate.word_evals_per_dominance": ratio(
            c["evaluate.eval_group@evaluate.dominance_probe"], c["evaluate.dominance_probe.calls"]),
        "evaluate.chi.samples_drawn_ratio": ratio(
            c["evaluate.eval_group@evaluate.chi"], chi_samples),
        "evaluate.self_s": layer_self("evaluate"),
        "geometry.relscan.self_s": c["geometry.relscan.self_s"],
        "geometry.relscan.nodes": nodes,
        "geometry.relscan.relation_ratio": ratio(c["geometry.relscan.relations"], nodes),
        "geometry.dimcert.self_s": c["geometry.dimcert.self_s"],
        "geometry.dimcert.word_evals": c["evaluate.eval_group@geometry.dimcert"],
        "geometry.self_s": layer_self("geometry"),
        "matrices.mul.calls": c["matrices.mul.calls"],
        "matrices.mul.self_s": c["matrices.mul.self_s"],
        "matrices.inverse.calls": c["matrices.inverse.calls"],
        "matrices.det.calls": c["matrices.det.calls"],
        "matrices.det.self_s": c["matrices.det.self_s"],
        "matrices.adjugate.calls": c["matrices.adjugate.calls"],
        "matrices.adjugate.self_s": c["matrices.adjugate.self_s"],
        "matrices.charpoly.calls": c["matrices.charpoly.calls"],
        "matrices.rank.calls": c["matrices.rank.calls"],
        "matrices.rank.self_s": c["matrices.rank.self_s"],
        "matrices.eq.calls": c["matrices.eq.calls"],
        "matrices.self_s": layer_self("matrices"),
        "rings.ops.fp": c["rings.ops.fp"],
        "rings.ops.q": c["rings.ops.q"],
        "rings.ops.quad": c["rings.ops.quad"],
        "rings.ops.dual": c["rings.ops.dual"],
        "rings.boxes": c["rings.boxes"],
        "rings.sqrt.calls": c["rings.sqrt.calls"],
        "rings.sqrt.self_s": c["rings.sqrt.self_s"],
        "rings.parse_ring.self_s": c["rings.parse_ring.self_s"],
        "rootsys.build.self_s": c["rootsys.build.self_s"],
        "rootsys.star_search.calls": c["rootsys.star_search.calls"],
        "rootsys.star_search.self_s": c["rootsys.star_search.self_s"],
        "rootsys.self_s": layer_self("rootsys"),
    }
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"
