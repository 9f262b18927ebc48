"""Independent correctness oracles for the benchmark.

Nothing here imports wordmap.  Scalars are raw Python ints (mod p),
``Fraction`` (Q) or pairs of ``Fraction`` (Q[i]); matrices are tuples of row
tuples; words are the generator's own expression trees.  Each ``check_*``
function takes a job's exit code and stdout and raises :class:`Mismatch` when
the output is wrong.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


# ---------------------------------------------------------------------------
# fields


class Fp:
    def __init__(self, p):
        self.p = p
        self.zero, self.one = 0, 1

    def of(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def parse(self, s):
        v = int(s)
        expect(0 <= v < self.p and str(v) == s, f"non-canonical F_{self.p} literal {s!r}")
        return v

    def render(self, a):
        return str(a)


class Rat:
    zero, one = Fraction(0), Fraction(1)

    def of(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def parse(self, s):
        v = Fraction(s)
        expect(str(v) == s, f"non-canonical rational literal {s!r}")
        return v

    def render(self, a):
        return str(a)


_GAUSS_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\+)?(-?\d+(?:/\d+)?)\*i$")


class GaussRat:
    """Q[i]: pairs (a, b) meaning a + b*i."""

    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def of(self, n):
        return (Fraction(n), Fraction(0))

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(self, x):
        norm = x[0] * x[0] + x[1] * x[1]
        return (x[0] / norm, -x[1] / norm)

    def parse(self, s):
        m = _GAUSS_RE.match(s)
        if m:
            return (Fraction(m.group(1) or 0), Fraction(m.group(2)))
        return (Fraction(s), Fraction(0))


def field_of(spec: str):
    """The oracle field for a ring spec the generator emits."""
    if spec == "Q":
        return Rat()
    if spec == "Q[i]":
        return GaussRat()
    m = re.fullmatch(r"Fp:(\d+)", spec)
    expect(m is not None, f"no oracle field for ring {spec!r}")
    return Fp(int(m.group(1)))


# ---------------------------------------------------------------------------
# matrices


def identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def mat_mul(F, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = F.zero
            for k in range(n):
                acc = F.add(acc, F.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(F, c, a):
    return tuple(tuple(F.mul(c, e) for e in row) for row in a)


def mat_pow(F, a, k):
    result = identity(F, len(a))
    while k:
        if k & 1:
            result = mat_mul(F, result, a)
        a = mat_mul(F, a, a)
        k >>= 1
    return result


def mat_det(F, a):
    """Gaussian elimination with row swaps; every oracle field is a field."""
    m = [list(r) for r in a]
    n = len(m)
    d = F.one
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != F.zero), None)
        if piv is None:
            return F.zero
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = F.sub(F.zero, d)
        d = F.mul(d, m[k][k])
        inv = F.inv(m[k][k])
        for i in range(k + 1, n):
            f = F.mul(m[i][k], inv)
            if f != F.zero:
                for j in range(k, n):
                    m[i][j] = F.sub(m[i][j], F.mul(f, m[k][j]))
    return d


def mat_inv(F, a):
    """Gauss-Jordan inverse."""
    n = len(a)
    m = [list(r) + list(e) for r, e in zip(a, identity(F, n))]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k] != F.zero)
        m[k], m[piv] = m[piv], m[k]
        inv = F.inv(m[k][k])
        m[k] = [F.mul(inv, e) for e in m[k]]
        for i in range(n):
            if i != k and m[i][k] != F.zero:
                f = m[i][k]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[k])]
    return tuple(tuple(r[n:]) for r in m)


def mat_adj(F, a):
    """Transposed cofactor matrix, from determinants of minors."""
    n = len(a)
    if n == 1:
        return ((F.one,),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j]
            c = mat_det(F, minor)
            row.append(F.sub(F.zero, c) if (i + j) % 2 else c)
        out.append(tuple(row))
    return tuple(out)


def trace(F, a):
    acc = F.zero
    for i in range(len(a)):
        acc = F.add(acc, a[i][i])
    return acc


def parse_matrix(F, rows):
    return tuple(tuple(F.parse(e) for e in row) for row in rows)


def render_matrix(F, a):
    return [[F.render(e) for e in row] for row in a]


def matrix_arg(F, a):
    """A matrix as the inline JSON argument the CLI reads."""
    return json.dumps(render_matrix(F, a), separators=(",", ":"))


# ---------------------------------------------------------------------------
# words: ("g", gen, exp) | ("seq", [e, ...]) | ("comm", a, b) | ("pow", e, k)

_NAMES = {1: "x", 2: "y", 3: "z"}


def gen_name(g):
    return _NAMES.get(g, f"x{g}")


def word_text(e) -> str:
    tag = e[0]
    if tag == "g":
        name = gen_name(e[1])
        return name if e[2] == 1 else f"{name}^{e[2]}"
    if tag == "seq":
        return " ".join(word_text(x) for x in e[1])
    if tag == "comm":
        return f"[{word_text(e[1])},{word_text(e[2])}]"
    body = word_text(e[1])
    if e[1][0] != "comm":
        body = f"({body})"
    return f"{body}^{e[2]}"


def _invert_letters(pairs):
    return [(g, -x) for g, x in reversed(pairs)]


def word_letters(e):
    """Flat, unreduced (gen, exp) pairs; a power of one letter stays one pair."""
    tag = e[0]
    if tag == "g":
        return [(e[1], e[2])]
    if tag == "seq":
        return [p for x in e[1] for p in word_letters(x)]
    if tag == "comm":
        a, b = word_letters(e[1]), word_letters(e[2])
        return a + b + _invert_letters(a) + _invert_letters(b)
    base, k = word_letters(e[1]), e[2]
    if k < 0:
        base, k = _invert_letters(base), -k
    if len(base) == 1:
        return [(base[0][0], base[0][1] * k)]
    return base * k


def free_reduce(pairs):
    out = []
    for g, x in pairs:
        if x == 0:
            continue
        if out and out[-1][0] == g:
            merged = out.pop()[1] + x
            if merged:
                out.append((g, merged))
        else:
            out.append((g, x))
    return out


def render_reduced(pairs) -> str:
    if not pairs:
        return "x x^-1"
    return " ".join(gen_name(g) if x == 1 else f"{gen_name(g)}^{x}" for g, x in pairs)


def word_eval(F, e, tup):
    """Group value of a word at a tuple of invertible matrices."""
    tag = e[0]
    if tag == "g":
        m = tup[e[1] - 1]
        return mat_pow(F, m, e[2]) if e[2] > 0 else mat_pow(F, mat_inv(F, m), -e[2])
    if tag == "seq":
        acc = identity(F, len(tup[0]))
        for x in e[1]:
            acc = mat_mul(F, acc, word_eval(F, x, tup))
        return acc
    if tag == "comm":
        a, b = word_eval(F, e[1], tup), word_eval(F, e[2], tup)
        return mat_mul(F, mat_mul(F, a, b), mat_mul(F, mat_inv(F, a), mat_inv(F, b)))
    v = word_eval(F, e[1], tup)
    k = e[2]
    return mat_pow(F, v, k) if k > 0 else mat_pow(F, mat_inv(F, v), -k)


def _load(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None


def _exit_ok(code):
    expect(code == 0, f"exit code {code}, expected 0")


def _keys(report, keys):
    """Every key the oracle reads is present; added keys are allowed."""
    expect(set(keys) <= set(report), f"report keys {sorted(report)}")


# ---------------------------------------------------------------------------
# eval / extend / chi-probe


def check_eval(spec, expr, mats, code, stdout):
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("value", "word", "in_W", "in_T"))
    value = word_eval(F, expr, mats)
    expect(r["value"] == render_matrix(F, value), "eval value differs")
    expect(r["word"] == render_reduced(free_reduce(word_letters(expr))), "reduced word differs")
    expect(r["in_W"] == (value == identity(F, 2)), "in_W differs")
    expect(r["in_T"] == (trace(F, value) == F.of(2)), "in_T differs")


def check_extend(spec, expr, mats, code, stdout):
    """Adjugate extension letter by letter on the reduced word, with an
    adjugate from cofactors that must satisfy M adj(M) = det(M) I."""
    _exit_ok(code)
    F = field_of(spec)
    n = len(mats[0])
    r = _load(stdout)
    _keys(r, ("extended", "delta", "restriction_identity_holds"))
    adj = []
    for m in mats:
        a = mat_adj(F, m)
        expect(
            mat_mul(F, m, a) == mat_scale(F, mat_det(F, m), identity(F, n)),
            "oracle adjugate fails M adj(M) = det(M) I",
        )
        adj.append(a)
    reduced = free_reduce(word_letters(expr))
    extended = identity(F, n)
    delta = F.one
    for g, x in reduced:
        if x > 0:
            extended = mat_mul(F, extended, mat_pow(F, mats[g - 1], x))
        else:
            extended = mat_mul(F, extended, mat_pow(F, adj[g - 1], -x))
            for _ in range(-x):
                delta = F.mul(delta, mat_det(F, mats[g - 1]))
    expect(r["extended"] == render_matrix(F, extended), "adjugate extension differs")
    expect(r["delta"] == F.render(delta), "delta differs")
    plain = word_eval(F, expr, mats)
    expect(extended == mat_scale(F, delta, plain), "oracle restriction identity fails")
    expect(r["restriction_identity_holds"] is True, "restriction identity reported false")


def check_chi(spec, index, samples, cap, code, stdout):
    """Structural checks: the values themselves are random draws."""
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("distinct_values", "verdict", "samples"))
    vals = r["distinct_values"]
    for v in vals:
        F.parse(v)
    expect(len(set(vals)) == len(vals), "distinct values repeat")
    expect(1 <= len(vals) <= min(cap, F.p), "distinct value count out of range")
    # wordmap reports the request even when it stops early at the cap; the
    # samples drawn are measured by evaluate.chi.samples_drawn_ratio instead
    expect(len(vals) <= r["samples"] <= samples, "samples out of range")
    if index == 2:
        expect(vals == ["1"], "det of an SL2 word value must be 1")
    elif F.p > 10 * cap:
        expect(len(vals) == cap, "trace over a large field should reach the cap")
    verdict = "ConstantSoFar" if len(vals) <= 1 else "TakesManyValues"
    expect(r["verdict"] == verdict, "verdict inconsistent with values")


# ---------------------------------------------------------------------------
# relation scan


def _mul2(a, b, p):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        (a0 * b0 + a1 * b2) % p,
        (a0 * b1 + a1 * b3) % p,
        (a2 * b0 + a3 * b2) % p,
        (a2 * b1 + a3 * b3) % p,
    )


def relations(p, g1, g2, max_len):
    """All reduced words of length <= max_len vanishing at (g1, g2), by a
    raw-int DFS, in wordmap's order: by length, then by letters."""
    flat = lambda m: (m[0][0], m[0][1], m[1][0], m[1][1])
    inv = lambda m: (m[3], -m[1] % p, -m[2] % p, m[0])  # det 1
    a, b = flat(g1), flat(g2)
    gens = {(1, 1): a, (1, -1): inv(a), (2, 1): b, (2, -1): inv(b)}
    ident = (1, 0, 0, 1)
    found = []
    stack = [((), ident)]
    while stack:
        prefix, m = stack.pop()
        for letter, g in gens.items():
            if prefix and prefix[-1] == (letter[0], -letter[1]):
                continue
            m2 = _mul2(m, g, p)
            w = prefix + (letter,)
            if m2 == ident:
                found.append(w)
            if len(w) < max_len:
                stack.append((w, m2))
    keyed = []
    for w in found:
        merged = tuple(free_reduce(w))
        keyed.append(((len(w), merged), render_reduced(merged)))
    keyed.sort()
    return [text for _key, text in keyed]


def check_relscan(spec, pair, max_len, code, stdout):
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("trivial", "relations"))
    expect(r["trivial"] is False, "non-identity pair reported trivial")
    expect(r["relations"] == relations(F.p, pair[0], pair[1], max_len), "relations differ")


# ---------------------------------------------------------------------------
# root systems: membership by coordinate shape (doubled Bourbaki coordinates)

_E7_PROBES = ((0, 0, 0, 0, 0, 0, 2, 2),)
_E6_PROBES = _E7_PROBES + ((0, 0, 0, 0, 0, 2, 0, 2),)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def is_root(t, r, v):
    nz = sorted(x for x in v if x)
    two_long = len(nz) == 2 and all(abs(x) == 2 for x in nz)
    if t == "A":
        return len(v) == r + 1 and nz == [-2, 2]
    if t in ("B", "C", "D"):
        short = {"B": 2, "C": 4, "D": None}[t]
        return len(v) == r and (two_long or (len(nz) == 1 and abs(nz[0]) == short))
    if t == "E":
        if len(v) != 8:
            return False
        e8 = two_long or (
            all(abs(x) == 1 for x in v) and sum(1 for x in v if x < 0) % 2 == 0
        )
        probes = {8: (), 7: _E7_PROBES, 6: _E6_PROBES}[r]
        return e8 and all(_dot(v, q) == 0 for q in probes)
    if t == "F":
        return len(v) == 4 and (
            two_long
            or (len(nz) == 1 and abs(nz[0]) == 2)
            or all(abs(x) == 1 for x in v)
        )
    if t == "G":
        return len(v) == 3 and sum(v) == 0 and sorted(map(abs, v)) in ([0, 2, 2], [2, 2, 4])
    raise Mismatch(f"unknown root type {t}")


def star_expected(t, r):
    """Property (*) fails exactly for A_r (r > 1), D_r (r odd) and E6."""
    if t == "A":
        return r == 1
    if t == "D":
        return r % 2 == 0
    if t == "E":
        return r != 6
    return True


TABLE_CELLS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def check_roots(t, r, code, stdout):
    _exit_ok(code)
    rep = _load(stdout)
    _keys(rep, ("type", "rank", "holds", "witness"))
    expect((rep["type"], rep["rank"]) == (t, r), "wrong system echoed")
    expect(rep["holds"] == star_expected(t, r), f"verdict for {t}{r} differs")
    if not rep["holds"]:
        expect(rep["witness"] is None, "witness given for a failing system")
        return
    wit = [tuple(v) for v in rep["witness"]]
    expect(len(wit) == r, "witness size differs from rank")
    expect(all(is_root(t, r, v) for v in wit), "witness vector is not a root")
    for a, b in combinations(wit, 2):
        expect(_dot(a, b) == 0, "witness roots not orthogonal")
        s = tuple(x + y for x, y in zip(a, b))
        d = tuple(x - y for x, y in zip(a, b))
        expect(not is_root(t, r, s) and not is_root(t, r, d), "witness sum or difference is a root")


def check_roots_table(code, stdout):
    _exit_ok(code)
    rep = _load(stdout)
    _keys(rep, ("table", "discrepancies"))
    cells = [(row["type"], row["rank"]) for row in rep["table"]]
    expect(sorted(cells) == sorted(TABLE_CELLS), "table cells differ")
    for row in rep["table"]:
        want = star_expected(row["type"], row["rank"])
        expect(row["holds"] == want and row["expected"] == want, f"row {row} differs")
    expect(rep["discrepancies"] == [], "discrepancies reported")


# ---------------------------------------------------------------------------
# jets: dominance rank from dual-number matrices (A + eps B)


def _dual_mul(F, x, y):
    return (mat_mul(F, x[0], y[0]), _madd(F, mat_mul(F, x[0], y[1]), mat_mul(F, x[1], y[0])))


def _madd(F, a, b):
    return tuple(tuple(F.add(p, q) for p, q in zip(ra, rb)) for ra, rb in zip(a, b))


def _dual_inv(F, x):
    ai = mat_inv(F, x[0])
    return (ai, mat_scale(F, F.sub(F.zero, F.one), mat_mul(F, mat_mul(F, ai, x[1]), ai)))


def _dual_pow(F, x, k):
    if k < 0:
        x, k = _dual_inv(F, x), -k
    n = len(x[0])
    result = (identity(F, n), mat_scale(F, F.zero, identity(F, n)))
    while k:
        if k & 1:
            result = _dual_mul(F, result, x)
        x = _dual_mul(F, x, x)
        k >>= 1
    return result


def _dual_eval(F, e, tup):
    tag = e[0]
    if tag == "g":
        return _dual_pow(F, tup[e[1] - 1], e[2])
    if tag == "seq":
        acc = _dual_pow(F, tup[0], 0)
        for x in e[1]:
            acc = _dual_mul(F, acc, _dual_eval(F, x, tup))
        return acc
    if tag == "comm":
        a, b = _dual_eval(F, e[1], tup), _dual_eval(F, e[2], tup)
        return _dual_mul(F, _dual_mul(F, a, b), _dual_mul(F, _dual_inv(F, a), _dual_inv(F, b)))
    return _dual_pow(F, _dual_eval(F, e[1], tup), e[2])


def rank(F, rows):
    m = [list(r) for r in rows]
    rk = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rk, len(m)) if m[i][col] != F.zero), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = F.inv(m[rk][col])
        for i in range(len(m)):
            if i != rk and m[i][col] != F.zero:
                f = F.mul(m[i][col], inv)
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


def dominance_rank(F, expr, point):
    """Rank of v -> dV V^-1 over the directions (I + eps X) g_i, X in E, F, H."""
    z = F.zero
    dirs = (
        ((z, F.one), (z, z)),
        ((z, z), (F.one, z)),
        ((F.one, z), (z, F.sub(z, F.one))),
    )
    zero2 = mat_scale(F, z, identity(F, 2))
    base = word_eval(F, expr, point)
    base_inv = mat_inv(F, base)
    rows = []
    for i in range(len(point)):
        for x in dirs:
            tup = [(g, zero2) for g in point]
            tup[i] = (point[i], mat_mul(F, x, point[i]))
            deriv = _dual_eval(F, expr, tup)[1]
            a = mat_mul(F, deriv, base_inv)
            rows.append((a[0][0], a[0][1], a[1][0]))
    return rank(F, rows)


def check_dominance(spec, expr, m, code, stdout):
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("rank", "point"))
    point = [parse_matrix(F, g) for g in r["point"]]
    expect(len(point) == m, "point has the wrong number of matrices")
    expect(all(mat_det(F, g) == F.one for g in point), "point is not in SL2")
    expect(r["rank"] == dominance_rank(F, expr, point), "jet rank differs")


# ---------------------------------------------------------------------------
# dimension certificates

COMPONENT_DIMS = {
    "ex1.W": 4, "ex1.T": 5, "ex2.Wj": 5, "ex3.W1": 3, "ex4.Tj": 5,
    "ex5.W1": 4, "ex5.T1": 5, "ex5.T2": 5, "Sa": 5,
}

_X, _Y = ("g", 1, 1), ("g", 2, 1)
_XY = ("comm", _X, _Y)
_EX5 = ("comm", _XY, ("seq", [_X, _XY, ("g", 1, -1)]))


def least_root_of_unity(p, k):
    """Least element of F_p of multiplicative order exactly k (k prime)."""
    return next(x for x in range(2, p) if pow(x, k, p) == 1)


def _component_equations(F, cid, j, a, pair):
    """Residuals of the component's defining equations at the witness."""
    two, ident = F.of(2), identity(F, 2)
    if cid in ("ex1.W", "ex3.W1", "ex5.W1"):
        w = {"ex1.W": _XY, "ex3.W1": ("pow", _XY, 2), "ex5.W1": _EX5}[cid]
        return word_eval(F, w, pair) == ident
    if cid in ("ex2.Wj", "ex5.T2"):
        return trace(F, pair[0]) == F.zero
    if cid == "ex1.T":
        return trace(F, word_eval(F, _XY, pair)) == two
    if cid == "ex5.T1":
        return trace(F, word_eval(F, _EX5, pair)) == two
    if cid == "ex4.Tj":
        z = least_root_of_unity(F.p, 5)
        target = F.add(pow(z, j, F.p), pow(z, -j, F.p))
        return trace(F, word_eval(F, _XY, pair)) == target
    return trace(F, word_eval(F, _XY, pair)) == F.of(a)  # Sa


def check_dimcert(spec, cid, j, a, code, stdout):
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("component", "point", "lower", "upper", "claimed", "confirmed"))
    dim = COMPONENT_DIMS[cid]
    expect(r["component"] == cid, "component id differs")
    expect(r["confirmed"] is True, f"{cid} not confirmed")
    expect((r["lower"], r["upper"], r["claimed"]) == (dim, dim, dim), f"{cid} dimensions differ")
    pair = [parse_matrix(F, g) for g in r["point"]]
    expect(all(mat_det(F, g) == F.one for g in pair), "witness is not in SL2 x SL2")
    expect(_component_equations(F, cid, j, a, pair), f"{cid} witness misses its equations")


# ---------------------------------------------------------------------------
# lemma checks


def _diag(F, lam):
    return ((lam, F.zero), (F.zero, F.inv(lam)))


def check_lemma78(spec, lam, u, code, stdout):
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("value", "in_Uminus", "trivial_iff_unit"))
    weyl_u = mat_mul(F, ((0, 1), (F.p - 1, 0)), ((1, F.of(u)), (0, 1)))
    value = word_eval(F, _EX5, [_diag(F, F.of(lam)), weyl_u])
    expect(r["value"] == render_matrix(F, value), "lemma 78 value differs")
    lower = value[0][0] == 1 and value[1][1] == 1 and value[0][1] == 0
    expect(lower and r["in_Uminus"] is True, "value not lower unitriangular")
    expect((value == identity(F, 2)) == (F.of(u) == 0), "trivial iff u = 0 fails")
    expect(r["trivial_iff_unit"] is True, "trivial_iff_unit reported false")


def check_lemma101(spec, code, stdout):
    _exit_ok(code)
    F = field_of(spec)
    r = _load(stdout)
    _keys(r, ("z", "intermediate", "final_trace", "ok"))
    half = F.inv(2)
    expect(r["z"] == render_matrix(F, ((0, half), (F.of(-2), 0))), "z differs")
    expect(r["intermediate"] == render_matrix(F, ((F.of(-1), 1), (4, F.of(-5)))), "intermediate differs")
    expect(r["final_trace"] == F.render(F.of(34)), "final trace differs")
    expect(r["ok"] is True, "lemma 101 reported not ok")
