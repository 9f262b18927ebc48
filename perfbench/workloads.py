"""Seeded job generators, one per workload.

A workload is an endless sequence of rounds; round ``r`` of seed ``s`` is a
pure function of (workload, s, r).  Every round has the same fixed mix of job
kinds and input sizes, so run-to-run cost does not depend on the seed; the
seed picks primes, matrices, words and types.  Each round draws fresh inputs
wherever the CLI takes one, so a cache kept across calls cannot make those
jobs cheaper in a later round.  Some argvs repeat, because the CLI takes no
input for them that could vary: ``roots table``, ``roots check`` (one of 18
types) and ``dimcert`` over Q or Q[i] for the seven components other than
``Sa`` and ``ex4.Tj``.

wordmap receives only the generated argv.  Each job carries its oracle
(``check``) and the properties recorded in the mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import oracles as O


@dataclass
class Job:
    kind: str
    argv: list
    check: Callable[[int, str], None]  # (exit code, stdout) -> raises O.Mismatch
    mix: dict = field(default_factory=dict)
    samples: int = 0  # chi-probe: samples requested


# ---------------------------------------------------------------------------
# number theory for input generation


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo, hi, mod=1, res=0):
    """A prime in [lo, hi) congruent to res mod `mod`."""
    while True:
        p = rng.randrange(lo, hi)
        p += (res - p) % mod
        if p < hi and is_prime(p):
            return p


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime p."""
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def random_sl2(F, rng):
    while True:
        a, b, c = (F.of(rng.randrange(F.p)) for _ in range(3))
        if a:
            return ((a, b), (c, F.mul(F.add(F.one, F.mul(b, c)), F.inv(a))))


def random_gl(F, rng, n, lo, hi):
    while True:
        m = tuple(tuple(F.of(rng.randint(lo, hi)) for _ in range(n)) for _ in range(n))
        if O.mat_det(F, m) != F.zero:
            return m


def conj(F, g, m):
    return O.mat_mul(F, O.mat_mul(F, g, m), O.mat_inv(F, g))


# ---------------------------------------------------------------------------
# words


def random_letters(rng, n_letters, gens, max_exp, negatives):
    """A reduced word of n_letters letters, `negatives` of them with negative exponents."""
    negative = set(rng.sample(range(n_letters), negatives))
    out = []
    for i in range(n_letters):
        g = rng.choice([x for x in range(1, gens + 1) if not out or x != out[-1][1]])
        x = rng.randint(1, max_exp)
        out.append(("g", g, -x if i in negative else x))
    return ("seq", out)


def comm_word(rng):
    """[x^a y^b, y^c x^d]: never the identity, since y^c x^d is not (x^a y^b)^-1."""
    a, b, c, d = (rng.choice((1, 2, -1, -2)) for _ in range(4))
    if (c, d) == (-b, -a):
        c = -c
    return ("comm", ("seq", [("g", 1, a), ("g", 2, b)]), ("seq", [("g", 2, c), ("g", 1, d)]))


def _word_mix(kind, spec, expr, n, **extra):
    reduced = O.free_reduce(O.word_letters(expr))
    return dict(
        kind=kind,
        ring=spec.split(":")[0],
        n=n,
        word_length=sum(abs(x) for _g, x in reduced),
        max_exponent=max((abs(x) for _g, x in reduced), default=0),
        **extra,
    )


def _mat_args(F, mats):
    return [O.matrix_arg(F, m) for m in mats]


# ---------------------------------------------------------------------------
# search: relscan on dense (Q8) and free-like pairs, root systems

# Root types by cost, so that every round costs about the same.
_ROOTS_HEAVY = ("A8", "E8")
_ROOTS_MEDIUM = ("B6", "B7", "C6", "C7", "D8")
_ROOTS_LIGHT = ("A1", "A3", "A5", "B3", "B5", "C4", "D4", "D5", "D6", "F4", "G2")
# Per pair kind.  Of a round's 29 jobs the twelve L = 5 scans hold the median
# and the four L = 8 scans, under the roots table, hold p90.
_RELSCAN_LENGTHS = (4, 5, 5, 5, 5, 5, 5, 6, 7, 8, 8)


def _relscan_job(kind, spec, F, pair, max_len, group):
    argv = ["--ring", spec, "relscan", "--at", *_mat_args(F, pair), "--max-len", str(max_len)]
    mix = dict(kind=kind, ring="Fp", n=2, word_length=max_len, max_exponent=1, group=group)
    return Job(kind, argv, partial(O.check_relscan, spec, pair, max_len), mix)


def _roots_job(label):
    t, r = label[0], int(label[1:])
    mix = dict(kind="roots-check", ring="Z", n=r, word_length=0, max_exponent=0)
    return Job("roots-check", ["roots", "check", label], partial(O.check_roots, t, r), mix)


def search_round(rng):
    jobs = []
    for max_len in _RELSCAN_LENGTHS:
        p = random_prime(rng, 1000, 10000, 4, 1)
        F = O.Fp(p)
        i = sqrt_mod(-1, p)
        g = random_sl2(F, rng)
        mu = rng.randrange(1, p)
        q8 = (((i, 0), (0, p - i)), ((0, mu), (p - F.inv(mu), 0)))
        pair = tuple(conj(F, g, m) for m in q8)
        jobs.append(_relscan_job("relscan-q8", f"Fp:{p}", F, pair, max_len, "Q8"))
    for max_len in _RELSCAN_LENGTHS:
        p = random_prime(rng, 100_000, 1_000_000)
        F = O.Fp(p)
        pair = (random_sl2(F, rng), random_sl2(F, rng))
        jobs.append(_relscan_job("relscan-free", f"Fp:{p}", F, pair, max_len, "generic"))
    labels = [rng.choice(_ROOTS_HEAVY), *rng.sample(_ROOTS_MEDIUM, 2), *rng.sample(_ROOTS_LIGHT, 3)]
    jobs += [_roots_job(label) for label in labels]
    mix = dict(kind="roots-table", ring="Z", n=8, word_length=0, max_exponent=0)
    jobs.append(Job("roots-table", ["roots", "table"], O.check_roots_table, mix))
    return jobs


# ---------------------------------------------------------------------------
# long-words: eval of long and huge-exponent words, extend on GL_n, chi-probe

_EVAL_POWER_LETTERS = 600
_HUGE_EXPONENT = 300_000
_EXTEND_SIZES = (3, 4, 5, 6)
_CHI_CAP = 32  # wordmap's _VALUE_CAP; a larger field must reach it


def _eval_job(kind, rng, expr):
    p = random_prime(rng, 10_000, 100_000)
    F, spec = O.Fp(p), f"Fp:{p}"
    tup = [random_sl2(F, rng) for _ in range(2)]
    argv = ["--ring", spec, "eval", "--word", O.word_text(expr), "--at", *_mat_args(F, tup)]
    return Job(kind, argv, partial(O.check_eval, spec, expr, tup), _word_mix(kind, spec, expr, 2))


def _extend_job(rng, spec, F, n, lo, hi):
    expr = random_letters(rng, 6, 2, 2, 3)
    tup = [random_gl(F, rng, n, lo, hi) for _ in range(2)]
    argv = ["--ring", spec, "extend", "--word", O.word_text(expr), "--at", *_mat_args(F, tup)]
    kind = f"extend-{spec.split(':')[0].lower()}"
    return Job(kind, argv, partial(O.check_extend, spec, expr, tup), _word_mix(kind, spec, expr, n))


def _chi_job(rng, p, index, samples):
    spec = f"Fp:{p}"
    expr = comm_word(rng)
    argv = ["--ring", spec, "chi-probe", "--word", O.word_text(expr), "--index", str(index),
            "--seed", str(rng.randrange(10**6)), "--samples", str(samples)]
    check = partial(O.check_chi, spec, index, samples, _CHI_CAP)
    return Job("chi-probe", argv, check, _word_mix("chi-probe", spec, expr, 2), samples)


def long_words_round(rng):
    """24 jobs: 4 small extends, 10 chi-probes of similar cost around the
    median, 10 larger; p90 falls among the top four (2 eval-huge, 2 extend
    over Q at n = 6)."""
    jobs = []
    for n in _EXTEND_SIZES:
        jobs.append(_extend_job(rng, "Q", O.Rat(), n, -9, 9))
        p = random_prime(rng, 100, 1000)
        jobs.append(_extend_job(rng, f"Fp:{p}", O.Fp(p), n, 0, p - 1))
    for _ in range(2):
        jobs.append(_chi_job(rng, random_prime(rng, 10_000, 100_000), 2, 40))
        jobs.append(_chi_job(rng, rng.choice((5, 7)), 1, 30))
    for _ in range(6):
        jobs.append(_chi_job(rng, random_prime(rng, 10_000, 100_000), 1, 200))
    for _ in range(4):
        # alternating x^+-1 y^+-1: cyclically reduced, so the power has exactly
        # _EVAL_POWER_LETTERS letters whatever the signs
        base = ("seq", [("g", 1 + i % 2, rng.choice((1, -1))) for i in range(8)])
        jobs.append(_eval_job("eval-power", rng, ("pow", base, _EVAL_POWER_LETTERS // 8)))
    for _ in range(2):
        gens = rng.sample((1, 2), 2)
        e1, e2 = (_HUGE_EXPONENT + rng.randrange(1000) for _ in range(2))
        expr = ("seq", [("g", gens[0], e1), ("g", gens[1], -e2)])
        jobs.append(_eval_job("eval-huge", rng, expr))
    return jobs


# ---------------------------------------------------------------------------
# certify: dimension certificates, dominance jets, lemma checks

_COMPONENTS = tuple(O.COMPONENT_DIMS)
_NEEDS_I = ("ex2.Wj", "ex3.W1")


def _dimcert_job(rng, spec, cid):
    argv = ["--ring", spec, "dimcert", "--example", cid]
    j, a = 0, 0
    if cid == "ex4.Tj":
        j = rng.randint(1, 4)
        argv += ["--p", "5", "--j", str(j)]
    elif cid == "ex2.Wj":
        argv += ["--j", "4"]
    elif cid == "Sa":
        # a trace level other than 0 and +-2, fresh in every round
        top = 10**6 if spec == "Q" else int(spec.split(":")[1]) - 3
        a = rng.randint(3, top)
        argv += ["--a", str(a)]
    mix = dict(kind="dimcert", ring=spec.split(":")[0], n=2, word_length=0, max_exponent=0,
               component=cid)
    return Job("dimcert", argv, partial(O.check_dimcert, spec, cid, j, a), mix)


def _dominance_job(rng, spec, m, power):
    def comm(gens):
        a, b = gens
        return ("comm", ("g", a, rng.choice((1, -1))), ("g", b, rng.choice((1, -1))))

    inner = ("comm", comm((1, 2)), comm(rng.sample(range(1, m + 1), 2)))
    # generator m must occur so that the CLI samples an m-tuple
    expr = ("pow", ("seq", [inner, ("g", m, 1)]), power)
    argv = ["--ring", spec, "dominance", "--word", O.word_text(expr),
            "--seed", str(rng.randrange(10**6))]
    return Job("dominance", argv, partial(O.check_dominance, spec, expr, m),
               _word_mix("dominance", spec, expr, 2, gens=m))


def _lemma101_prime(rng):
    """p = 1 mod 8 (so i and sqrt 2 exist) whose least square roots of -1
    and 2 sum to about p/2: wordmap's linear scans then do a fixed share of
    p steps, so the job's cost does not swing with the seed."""
    while True:
        p = random_prime(rng, 1_000_000, 1_100_000, 8, 1)
        r1, r2 = sqrt_mod(-1, p), sqrt_mod(2, p)
        if 0.45 <= (min(r1, p - r1) + min(r2, p - r2)) / p <= 0.55:
            return p


def certify_round(rng):
    jobs = []
    for cid in _COMPONENTS:
        q = random_prime(rng, 1000, 20_000, 20, 1)  # 5 | q-1 and i exists
        jobs.append(_dimcert_job(rng, f"Fp:{q}", cid))
    for cid in _COMPONENTS:
        q5 = random_prime(rng, 10_000, 100_000, 10, 1)
        spec = "Q[i]" if cid in _NEEDS_I else f"Fp:{q5}" if cid == "ex4.Tj" else "Q"
        jobs.append(_dimcert_job(rng, spec, cid))
    for m in (2, 3, 2, 3):
        jobs.append(_dominance_job(rng, f"Fp:{random_prime(rng, 10_000, 100_000)}", m, 3))
    for m in (2, 3):
        jobs.append(_dominance_job(rng, "Q", m, 1))
    for _ in range(3):
        spec = f"Fp:{_lemma101_prime(rng)}"
        mix = dict(kind="lemma-101", ring="Fp", n=2, word_length=0, max_exponent=0)
        jobs.append(Job("lemma-101", ["--ring", spec, "lemma-check", "101"],
                        partial(O.check_lemma101, spec), mix))
    for u in (0, None, None):
        p = random_prime(rng, 1_000_000, 1_100_000)
        lam = rng.randrange(2, p - 1)
        while pow(lam, 4, p) == 1:
            lam = rng.randrange(2, p - 1)
        u = rng.randrange(1, p) if u is None else u
        spec = f"Fp:{p}"
        argv = ["--ring", spec, "lemma-check", "78", "--lam", str(lam), "--u", str(u)]
        mix = dict(kind="lemma-78", ring="Fp", n=2, word_length=0, max_exponent=0)
        jobs.append(Job("lemma-78", argv, partial(O.check_lemma78, spec, lam, u), mix))
    return jobs


WORKLOADS = {
    "search": search_round,
    "long-words": long_words_round,
    "certify": certify_round,
}


def round_jobs(workload: str, seed: int, index: int):
    """Round `index` of the workload for `seed`, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
