"""Word evaluation on group tuples, the adjugate extension, product-rule jets
on SL2, and sample-scale probes.

Every walk of a word reads the letters it inverts and the constants it uses
off the word once (:func:`_check_tuple`) and, before it starts, takes one
det/adjugate pass of each inverted generator and the true inverse of each
inverted constant (:func:`_passes`).  Evaluation, the adjugate extension and the
restriction-identity check walk on the walk ring of the tuple's ring
(:func:`~wordmap.matrices._walk_ring`), one path for every ring: the letters
are lifted once, the passes give the inverses, the adjugates and Delta, and
the value is boxed once, at the end.  Over Q every product of the walk stays
on integer rows over one denominator.  A probe checks its word once and
takes the constants' true inverses once; each draw adds its raw SL_2 points'
adjugates, which are their inverses since det = 1.  The walks and the probes
share one product loop, :func:`_product`; ``chi_probe`` reads chi_1 = a + d
or chi_2 = ad - bc off the raw value.  :func:`jet_sweep` takes the value and
the derivatives from one product-rule pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

from .errors import DimensionMismatch, InvalidParams, NotInvertible, UnboundConstant
from .matrices import (
    SquareMatrix,
    _det,
    _identity_rows,
    _random_sl2_rows,
    _reduced,
    _walk_ring,
    det,
    rank,
)
from .rings import (
    RingDescriptor,
    Scalar,
    _first_reduction,
    _rpow,
)
from .words import ConstLetter, Power, Word, _masses, exponent_data


def _check_tuple(w: Word, tup):
    """``(n, ring, inverted, names)`` of a valid tuple for ``w``; ``inverted``
    lists the generators and constant names that the word inverts and
    ``names`` the constant names it uses, checked against the binding, both in
    order of first sight.  An entry of the binding that the word does not use
    is not read."""
    if not tup:
        raise DimensionMismatch("empty matrix tuple")
    n = tup[0].n
    ring = tup[0].ring
    for m in tup:
        if m.n != n or m.ring != ring:
            raise DimensionMismatch("tuple matrices must share size and ring")
    masses = _masses(w.letters)  # generators and constant names, in order of first sight
    gens = [g for g in masses if type(g) is int]
    if any(g < 1 for g in gens):
        raise DimensionMismatch("generator indices start at 1")
    if max(gens, default=0) > len(tup):
        raise DimensionMismatch(
            f"word uses generator {max(gens)} but tuple has {len(tup)} entries"
        )
    names = [c for c in masses if type(c) is str]
    for name in names:
        if name not in w.binding:
            raise UnboundConstant(f"constant {name} is unbound")
        s = w.binding[name]
        if s.n != n or s.ring != ring:
            raise DimensionMismatch(f"constant {name} has wrong size or ring")
    return n, ring, [key for key, (_pos, neg) in masses.items() if neg], names


def _inverse_rows(w: Word, tup, keys) -> dict:
    """The raw rows of the true inverse of each key of ``keys``: of
    ``tup[g - 1]`` for a generator g and of the bound matrix for a constant
    name."""
    return {
        key: (w.binding[key] if type(key) is str else tup[key - 1]).inverse().rows
        for key in keys
    }


def _product(ring, items, gens, binding, inverses):
    """The product of a word's ``items`` by the ring's ``rmatmul``; None
    when there are none.  The ring may be a walk ring
    (:func:`~wordmap.matrices._walk_ring`), whose values need not be raw rows.

    ``gens`` holds the generators' values and ``binding`` the constants' by
    name; x_g^-1 and an inverted constant take the values ``inverses[g]``
    and ``inverses[name]``.  A syllable g^e is ``_rpow`` of its letter and a
    node (core)^k ``_rpow`` of the core's value, under ``rmatmul``; for the
    adjugate extension too, since the substitution is a product of the
    letters' images.
    """
    mul = ring.rmatmul
    acc = None
    for item in items:
        if type(item) is Power:
            factor = _rpow(mul, _product(ring, item.core, gens, binding, inverses), item.k)
        elif type(item) is ConstLetter:
            factor = inverses[item.name] if item.inv else binding[item.name]
        else:
            g, e = item
            factor = gens[g - 1] if e > 0 else inverses[g]
            if abs(e) > 1:
                factor = _rpow(mul, factor, abs(e))
        acc = factor if acc is None else mul(acc, factor)
    return acc


def _walk(w: Word, tup, n, names, walk, inverses):
    """The word's value at ``tup`` by :func:`_product` on the walk ring
    ``walk`` (:func:`~wordmap.matrices._walk_ring`), as a walk value, with the
    stand-ins ``inverses`` for the inverted letters.  The generators and the
    constants ``names`` of the binding are lifted here, once."""
    lift = walk.lift
    binding = {name: lift(w.binding[name].rows) for name in names}
    acc = _product(walk, w.letters, [lift(m.rows) for m in tup], binding, inverses)
    return walk.lift(_identity_rows(tup[0].ring, n)) if acc is None else acc


def _passes(w: Word, tup, keys, walk) -> tuple:
    """``(constants, passes)`` for the keys that a word inverts: the true
    inverse of each constant as a walk value, and one det/adjugate pass of
    each generator, from which ``walk`` takes its inverse, its adjugate and
    its factor of Delta."""
    constants, passes = {}, {}
    for key in keys:
        if type(key) is str:
            constants[key] = walk.inverse(walk.det_adjugate(w.binding[key].rows))
        else:
            passes[key] = walk.det_adjugate(tup[key - 1].rows)
    return constants, passes


def _value(w: Word, tup, adjugates: bool) -> SquareMatrix:
    """The word's value at ``tup`` by :func:`_walk`, with each inverted
    generator standing for its true inverse or, with ``adjugates``, its
    adjugate; boxed once, at the end."""
    n, ring, inverted, names = _check_tuple(w, tup)
    walk = _walk_ring(ring)
    constants, passes = _passes(w, tup, inverted, walk)
    stand_in = walk.adjugate if adjugates else walk.inverse
    value = _walk(w, tup, n, names, walk, constants | {g: stand_in(p) for g, p in passes.items()})
    return SquareMatrix._raw(ring, walk.box(value))


def eval_group(w: Word, tup) -> SquareMatrix:
    """Literal group evaluation with true inverses; inputs must be invertible."""
    return _value(w, tup, adjugates=False)


def eval_adjugate_extension(w: Word, tup) -> SquareMatrix:
    """The polynomial extension to all of Ma_n: x^-k becomes (adjugate)^k.

    Constants are fixed invertible matrices, so an inverted constant stays a
    true inverse; only variable letters are replaced by adjugate powers.
    """
    return _value(w, tup, adjugates=True)


@dataclass(frozen=True)
class RestrictionCheck:
    extended: SquareMatrix
    delta: Scalar
    holds: bool


def check_restriction_identities(w: Word, tup) -> RestrictionCheck:
    """Verify w~ = Delta * w^ on an invertible tuple, Delta = prod det(mu_r)^{b_r}.

    The tuple is checked once.  One det/adjugate pass per inverted generator
    (:func:`_passes`) gives its factor of Delta, its adjugate for w~ and its
    inverse adj / det for w^; an inverted constant takes its true inverse,
    once, in both.  w~ and Delta * w^ are compared as walk values, and only
    w~ and Delta are boxed.
    """
    n, ring, inverted, names = _check_tuple(w, tup)
    b_neg = exponent_data(w, n).b_neg
    walk = _walk_ring(ring)
    constants, passes = _passes(w, tup, inverted, walk)
    adjugates = constants | {g: walk.adjugate(p) for g, p in passes.items()}
    inverses = constants | {g: walk.inverse(p) for g, p in passes.items()}
    delta = walk.delta([(p, b_neg[g]) for g, p in passes.items()])
    extended = _walk(w, tup, n, names, walk, adjugates)
    holds = extended == walk.scaled(_walk(w, tup, n, names, walk, inverses), delta)
    return RestrictionCheck(extended=SquareMatrix._raw(ring, walk.box(extended)),
                            delta=Scalar(ring, delta), holds=holds)


class ProbeVerdict(Enum):
    CONSTANT_SO_FAR = "ConstantSoFar"
    TAKES_MANY_VALUES = "TakesManyValues"


_DISTINCT_CAP = 32

# a probe draws one SL_2 point per generator up to the word's largest index,
# so the index is capped: dominance of x1000 takes about 0.3 s with the
# start-up (2 CPUs, CPython 3.11), and x100000 took 2.6 s
_GENERATOR_MAX = 1000


def _point_count(w: Word) -> int:
    """How many SL_2 points a probe of ``w`` draws: its largest generator
    index, at least one; an index past _GENERATOR_MAX is refused."""
    m = w.max_generator()
    if m > _GENERATOR_MAX:
        raise InvalidParams(f"generator index {m} capped at {_GENERATOR_MAX} for drawn points")
    return max(m, 1)


def _sample_distinct(draw, samples: int, ring: RingDescriptor):
    """Call ``draw()``, which returns a raw value of ``ring``, up to
    ``samples`` times, stopping once _DISTINCT_CAP distinct values are seen.
    Returns the distinct values as Scalars in order of first sight, the
    dichotomy verdict and the number of draws."""
    seen = {}  # raw value -> None, in order of first sight
    drawn = 0
    while drawn < samples and len(seen) < _DISTINCT_CAP:
        drawn += 1
        seen.setdefault(draw())
    verdict = (
        ProbeVerdict.CONSTANT_SO_FAR if len(seen) <= 1 else ProbeVerdict.TAKES_MANY_VALUES
    )
    return tuple(Scalar(ring, v) for v in seen), verdict, drawn


@dataclass(frozen=True)
class ProbeResult:
    distinct_values: tuple
    verdict: ProbeVerdict
    samples: int  # drawn; fewer than requested once _DISTINCT_CAP values are seen


def chi_probe(
    w: Word,
    i: int,
    ring: RingDescriptor,
    rng,
    samples: int,
) -> ProbeResult:
    """Sample chi_i of the word value over SL_2 tuples; dichotomy verdict at sample scale.

    chi_1 = a + d and chi_2 = ad - bc are read off the raw value."""
    if not 1 <= i <= 2:
        raise ValueError(f"coefficient index {i} out of range 1..2")
    draw = _word_sampler(w, ring, rng)
    add = ring.radd

    def chi():
        value = draw()
        return add(value[0][0], value[1][1]) if i == 1 else _det(ring, value)

    return ProbeResult(*_sample_distinct(chi, samples, ring))


def _word_sampler(w: Word, ring: RingDescriptor, rng):
    """``draw()``: the raw 2x2 value of w at :func:`_point_count` points of
    SL_2(ring) from :func:`~wordmap.matrices._random_sl2_rows`, drawn in order.

    The tuple and constant checks run once, here.  A drawn point has det 1,
    so its inverse is its adjugate ((d, -b), (-c, a)), exact over every ring;
    the constants need not have det 1, so each takes a true inverse, once
    per probe.
    """
    m = _point_count(w)
    points = [SquareMatrix.identity(ring, 2)] * m
    _n, _ring, inverted, names = _check_tuple(w, points)
    letters, neg = w.letters, ring.rneg
    binding = {name: w.binding[name].rows for name in names}
    identity = _identity_rows(ring, 2)
    drawn = [g for g in inverted if type(g) is int]
    fixed = _inverse_rows(w, points, [k for k in inverted if type(k) is str])

    def draw():
        gens = [_random_sl2_rows(ring, rng) for _ in range(m)]
        inverses = dict(fixed)
        for g in drawn:
            (a, b), (c, d) = gens[g - 1]
            inverses[g] = (d, neg(b)), (neg(c), a)
        acc = _product(ring, letters, gens, binding, inverses)
        return identity if acc is None else acc

    return draw


# ---------------------------------------------------------------------------
# jet differential of the word map on SL2


def _add2(add, x, y):
    return tuple([tuple(map(add, rx, ry)) for rx, ry in zip(x, y)])


def _tangent_steps(ring, m, sign) -> list:
    """``[X m for X = E, F, H]`` when sign > 0, else ``[-m X]``, on raw 2x2 rows.

    Each is a sign and permutation pattern of the entries of m: no product.
    """
    neg = ring.rneg
    z = ring.raw_from_int(0)
    (a, b), (c, d) = m
    if sign > 0:
        return [((c, d), (z, z)), ((z, z), (a, b)), ((a, b), (neg(c), neg(d)))]
    a, b, c, d = neg(a), neg(b), neg(c), neg(d)
    return [((z, a), (z, c)), ((b, z), (d, z)), ((a, neg(b)), (c, neg(d)))]


def _outer_sums(ring, terms) -> list:
    """The sum of A X B over the pairs (A, B) of ``terms``, at X = E, F, H.

    E and F are rank one and H is diagonal, so each entry is one fused dot
    over the terms: (A E B)_rc = A_r0 B_1c, (A F B)_rc = A_r1 B_0c and
    (A H B)_rc = A_r0 B_0c - A_r1 B_1c.
    """
    dot, add, neg = ring.rdot, ring.radd, ring.rneg
    cols = [[[a[r][s] for a, _b in terms] for s in (0, 1)] for r in (0, 1)]  # A_rs
    rows = [[[b[s][c] for _a, b in terms] for c in (0, 1)] for s in (0, 1)]  # B_sc

    def sandwich(s, t):
        return tuple(tuple(dot(cols[r][s], rows[t][c]) for c in (0, 1)) for r in (0, 1))

    k00, k11 = sandwich(0, 0), sandwich(1, 1)
    return [sandwich(0, 1), sandwich(1, 0), _add2(add, k00, _neg2(neg, k11))]


def _add_each(add, xs, ys) -> list:
    return [_add2(add, x, y) for x, y in zip(xs, ys)]


def _neg2(neg, x):
    return tuple(tuple(map(neg, row)) for row in x)


def jet_sweep(w: Word, point):
    """``(value, derivs)``: the word value at an SL2 point and its derivatives
    under g_i -> (I + eps X) g_i, argument-major in E, F, H order.

    One product-rule pass over the base ring (:func:`_product_rule`) gives
    both; each inverted generator and constant takes its true inverse once,
    before the pass, and no prefix is inverted.
    """
    n, ring, inverted, _names = _check_tuple(w, point)
    if n != 2:
        raise DimensionMismatch("jets are implemented for 2x2")
    inverses = _inverse_rows(w, point, inverted)
    value, derivs = _product_rule(ring, _factors(ring, w.letters, point, w.binding, inverses))
    zeros = [SquareMatrix.zero(ring, 2).rows] * 3
    return SquareMatrix._raw(ring, value), [
        SquareMatrix._raw(ring, d) for i in range(len(point)) for d in derivs.get(i, zeros)
    ]


def _jet_product(mul, add, x, y):
    """The product of two jets ``(V, {generator index: [dE, dF, dH]})`` by
    the product rule, d(AB) = dA B + A dB, on raw rows, with the ring's
    ``rmatmul`` and ``radd``."""
    (a, da), (b, db) = x, y
    derivs = {i: [mul(t, b) for t in ts] for i, ts in da.items() if i not in db}
    for i, ts in db.items():
        left = da.get(i)
        derivs[i] = [mul(a, s) for s in ts] if left is None else [
            _add2(add, mul(t, b), mul(a, s)) for t, s in zip(left, ts)]
    return mul(a, b), derivs


def _factors(ring, items, point, binding, inverses) -> list:
    """The product-rule factors of ``items`` on raw 2x2 rows.

    A letter g^(+-1) is ``(value, i, +-1, None)`` for generator index i; a
    syllable g^e with |e| > 2 and a node (core)^k are ``(value, None, 0,
    derivs)``, from the jet ``(value, derivs)`` of the factor: ``_rpow`` of
    the letter's jet, whose derivatives are :func:`_tangent_steps`, or of
    the core's jet from :func:`_product_rule`, under :func:`_jet_product`,
    in O(log k) products.  A constant is ``(value, None, 0, None)``.  A
    syllable with |e| = 2 is two letters: two outer terms cost less than
    the jet product and its sandwich.
    """
    factors, jet_product = [], partial(_jet_product, ring.rmatmul, ring.radd)
    for item in items:
        if type(item) is ConstLetter:
            sigma = inverses[item.name] if item.inv else binding[item.name].rows
            factors.append((sigma, None, 0, None))
        elif type(item) is Power:
            core = _product_rule(ring, _factors(ring, item.core, point, binding, inverses))
            value, derivs = _rpow(jet_product, core, item.k)
            factors.append((value, None, 0, derivs))
        else:
            g, e = item
            letter = point[g - 1].rows if e > 0 else inverses[g]
            if abs(e) <= 2:
                factors += [(letter, g - 1, 1 if e > 0 else -1, None)] * abs(e)
            else:
                jet = letter, {g - 1: _tangent_steps(ring, letter, e)}
                value, derivs = _rpow(jet_product, jet, abs(e))
                factors.append((value, None, 0, derivs))
    return factors


def _product_rule(ring, factors):
    """``(value, derivs)`` of a product of factors (see :func:`_factors`):
    ``derivs[i]`` is the derivative along generator index i at X = E, F, H.

    For V = L_1 ... L_N the derivative is the sum over the factors L_k that
    move of P_(k-1) D_k S_(k+1), with the prefix and suffix products P and S,
    and D = X g for a letter g and -g^-1 X for g^-1; constants enter P and S
    only.  So a letter g adds P_(k-1) X S_k and a letter g^-1 adds
    -P_k X S_(k+1), outer products that :func:`_outer_sums` adds up, and a
    factor with sums T adds P_(k-1) T S_(k+1).
    """
    mul, add, neg = ring.rmatmul, ring.radd, ring.rneg
    suffixes = [_identity_rows(ring, 2)]
    for factor in reversed(factors):
        suffixes.append(mul(factor[0], suffixes[-1]))
    suffixes.reverse()  # suffixes[k]: the product of factors k, k + 1, ...
    terms = {}  # (A, B) per letter, whose term is A X B, by generator index
    sandwiches = {}  # the sum of P T S, by generator index
    prefix = suffixes[-1]
    for k, (m, gen, sign, sums) in enumerate(factors):
        after = mul(prefix, m)
        if sums is not None:
            for i, ts in sums.items():
                new = [mul(mul(prefix, t), suffixes[k + 1]) for t in ts]
                sandwiches[i] = _add_each(add, sandwiches[i], new) if i in sandwiches else new
        elif sign == 1:
            terms.setdefault(gen, []).append((prefix, suffixes[k]))
        elif sign == -1:
            terms.setdefault(gen, []).append((_neg2(neg, after), suffixes[k + 1]))
        prefix = after
    derivs = {i: _outer_sums(ring, t) for i, t in terms.items()}
    for i, s in sandwiches.items():
        derivs[i] = _add_each(add, derivs[i], s) if i in derivs else s
    return suffixes[0], derivs


def dominance_probe(w: Word, point) -> int:
    """Rank of the differential of the word map at an SL2^m point (0..3).

    No direction moves det, so each derivative is d = A V with A trace-free
    at the value V.  A -> A V is injective for invertible V, so the raw
    entries of the d have the rank of the A; V must be invertible.

    Over Q and Q[sqrt(d)] the word is first swept at the image of the point
    and of the binding mod p, at the first prime where the sweep completes
    (:func:`wordmap.rings._first_reduction`).  A value with det != 0 mod p is
    invertible, and the rank mod p is at most the exact rank, which is at
    most 3; so a rank of 3 mod p is the answer.  A lower rank mod p and every
    other ring take the exact sweep.
    """
    _n, ring, _inverted, names = _check_tuple(w, point)

    def reduced_rank(field, phi):
        binding = {c: _reduced(w.binding[c], field, phi) for c in names}
        return _differential_rank(w.with_binding(binding), [_reduced(g, field, phi) for g in point])

    if _first_reduction(ring, reduced_rank) == 3:
        return 3
    return _differential_rank(w, point)


def _differential_rank(w: Word, point) -> int:
    value, derivs = jet_sweep(w, point)
    if not det(value).is_invertible():
        raise NotInvertible("matrix determinant is not a unit")
    return rank([d.rows[0] + d.rows[1] for d in derivs], value.ring)
