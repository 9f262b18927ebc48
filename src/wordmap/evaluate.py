"""Word evaluation on group tuples, the adjugate extension, and sample-scale probes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DimensionMismatch, NotInvertible, UnboundConstant
from .matrices import (
    SquareMatrix,
    adjugate,
    charpoly,
    det,
    det_adjugate,
    inverse_from,
    lift_matrix,
    random_sl2,
    rank,
)
from .rings import DualNumbers, RingDescriptor, Scalar
from .words import WordWithConstants, exponent_data


def _check_tuple(w: WordWithConstants, tup):
    if not tup:
        raise DimensionMismatch("empty matrix tuple")
    n = tup[0].n
    ring = tup[0].ring
    for m in tup:
        if m.n != n or m.ring != ring:
            raise DimensionMismatch("tuple matrices must share size and ring")
    if any(g < 1 for u in w.words for g, _e in u.letters):
        raise DimensionMismatch("generator indices start at 1")
    if w.max_generator() > len(tup):
        raise DimensionMismatch(
            f"word uses generator {w.max_generator()} but tuple has {len(tup)} entries"
        )
    for c in w.constants:
        if c.name not in w.binding:
            raise UnboundConstant(f"constant {c.name} is unbound")
        s = w.binding[c.name]
        if s.n != n or s.ring != ring:
            raise DimensionMismatch(f"constant {c.name} has wrong size or ring")
    return n, ring


def _eval(w: WordWithConstants, tup, negative_power, inverses=None):
    """The product of the word's factors.  ``negative_power(g)`` stands in for
    x_g^-1 and is taken once per generator, as is each constant's inverse;
    both are kept in ``inverses``, by generator or constant name, which may
    start with the ones the caller already has."""
    n, ring = _check_tuple(w, tup)
    inverses = {} if inverses is None else inverses
    acc = None
    for i, seg in enumerate(w.segments):
        if i % 2 == 0:
            for g, e in seg.letters:
                if e > 0:
                    factor = tup[g - 1] ** e
                else:
                    if g not in inverses:
                        inverses[g] = negative_power(g)
                    factor = inverses[g] ** -e
                acc = factor if acc is None else acc * factor
        else:
            sigma = w.binding[seg.name]
            if seg.inv:
                if seg.name not in inverses:
                    inverses[seg.name] = sigma.inverse()
                sigma = inverses[seg.name]
            acc = sigma if acc is None else acc * sigma
    return SquareMatrix.identity(ring, n) if acc is None else acc


def eval_group(w: WordWithConstants, tup, inverses=None) -> SquareMatrix:
    """Literal group evaluation with true inverses; inputs must be invertible.

    ``inverses`` may be a dict of inverses the caller already has, by
    generator or constant name; the evaluation adds each one it takes.
    """
    return _eval(w, tup, lambda g: tup[g - 1].inverse(), inverses)


def eval_adjugate_extension(w: WordWithConstants, tup, adjugates=None) -> SquareMatrix:
    """The polynomial extension to all of Ma_n: x^-k becomes (adjugate)^k.

    Constants are fixed invertible matrices, so an inverted constant stays a
    true inverse; only variable letters are replaced by adjugate powers.
    ``adjugates`` may map generators to adjugates the caller already has.
    """
    return _eval(w, tup, lambda g: adjugate(tup[g - 1]), adjugates)


@dataclass(frozen=True)
class RestrictionCheck:
    extended: SquareMatrix
    delta: Scalar
    holds: bool


def check_restriction_identities(w: WordWithConstants, tup) -> RestrictionCheck:
    """Verify w~ = Delta * w^ on an invertible tuple, Delta = prod det(mu_r)^{b_r}.

    One det/adjugate pass per inverted generator gives its factor of Delta,
    its adjugate for w~ and its inverse adj / det for w^.
    """
    n, ring = _check_tuple(w, tup)
    data = exponent_data(w, n)
    delta = ring.one
    adjugates, inverses = {}, {}
    for g, b_r in data.b_neg.items():
        d, adjugates[g] = det_adjugate(tup[g - 1])
        delta = delta * d ** b_r
        inverses[g] = inverse_from(d, adjugates[g])
    extended = eval_adjugate_extension(w, tup, adjugates)
    plain = eval_group(w, tup, inverses=inverses)
    holds = extended == plain.scaled(delta)
    return RestrictionCheck(extended=extended, delta=delta, holds=holds)


class ProbeVerdict(Enum):
    CONSTANT_SO_FAR = "ConstantSoFar"
    TAKES_MANY_VALUES = "TakesManyValues"


_DISTINCT_CAP = 32


def _sample_distinct(draw, samples: int):
    """Call ``draw()`` up to ``samples`` times, stopping once _DISTINCT_CAP
    distinct values are seen.  Returns the distinct values in order of first
    sight, the dichotomy verdict and the number of draws."""
    seen = []
    drawn = 0
    while drawn < samples and len(seen) < _DISTINCT_CAP:
        drawn += 1
        value = draw()
        if value not in seen:
            seen.append(value)
    verdict = (
        ProbeVerdict.CONSTANT_SO_FAR if len(seen) <= 1 else ProbeVerdict.TAKES_MANY_VALUES
    )
    return tuple(seen), verdict, drawn


@dataclass(frozen=True)
class ProbeResult:
    distinct_values: tuple
    verdict: ProbeVerdict
    samples: int  # drawn; fewer than requested once _DISTINCT_CAP values are seen


def chi_probe(
    w: WordWithConstants,
    i: int,
    ring: RingDescriptor,
    rng,
    samples: int,
) -> ProbeResult:
    """Sample chi_i of the word value over SL_2 tuples; dichotomy verdict at sample scale."""
    if not 1 <= i <= 2:
        raise ValueError(f"coefficient index {i} out of range 1..2")
    m = max(w.max_generator(), 1)

    def draw():
        tup = [random_sl2(ring, rng) for _ in range(m)]
        return charpoly(eval_group(w, tup)).chi[i - 1]

    return ProbeResult(*_sample_distinct(draw, samples))


# ---------------------------------------------------------------------------
# jet differential of the word map on SL2


_SL2_BASIS = {"E": ((0, 1), (0, 0)), "F": ((0, 0), (1, 0)), "H": ((1, 0), (0, -1))}


def _jets(f, ring: RingDescriptor, scalars, mats):
    """Tangents over ``ring`` of ``f(scalars, mats)``, a tuple of matrices.

    ``f`` is evaluated once per direction at the dual-number lift of the
    point: s + eps for each scalar, then (I + eps X) g for X = E, F, H for
    each matrix.  Returns ``(base, derivs)``: the value at the point, which is
    the real part of any direction's value (eps never reaches the real part),
    and per direction the tuple of eps parts.
    """
    dual = DualNumbers(ring)
    scalars = [dual.lift(s) for s in scalars]
    mats = [lift_matrix(g, dual) for g in mats]
    ident = SquareMatrix.identity(dual, 2)
    steps = [
        ident + SquareMatrix.from_rows(dual, x).scaled(dual.root) for x in _SL2_BASIS.values()
    ]
    values = []
    for k in range(len(scalars)):
        values.append(f(scalars[:k] + [scalars[k] + dual.root] + scalars[k + 1:], mats))
    for k in range(len(mats)):
        for step in steps:
            values.append(f(scalars, mats[:k] + [step * mats[k]] + mats[k + 1:]))

    def part(m, k):
        return SquareMatrix._raw(ring, tuple(tuple([v[k] for v in row]) for row in m.rows))

    base = tuple(part(m, 0) for m in values[0])
    return base, [tuple(part(m, 1) for m in value) for value in values]


def _mul2(dot, x, y):
    """The product of two 2x2 raw row tuples, one ``rdot`` per entry."""
    r0, r1 = x
    (a, b), (c, d) = y
    c0, c1 = (a, c), (b, d)
    return ((dot(r0, c0), dot(r0, c1)), (dot(r1, c0), dot(r1, c1)))


def _add2(add, x, y):
    return tuple(tuple(map(add, rx, ry)) for rx, ry in zip(x, y))


def _syllable_sums(ring, letter, e):
    """``(L^|e|, [T(X) for X = E, F, H])`` for a syllable g^e, L = g or g^-1.

    T(X) = sum_{j<|e|} L^j D L^(|e|-1-j) is the derivative of L^|e|, where L
    moves by D = X g or D = -g^-1 X.  Doubling from the top bit of |e|,
    T_2a = T_a L^a + L^a T_a and T_(a+1) = T_a L + L^a D, takes O(log |e|)
    products.
    """
    dot, add, neg = ring.rdot, ring.radd, ring.rneg
    z = ring.raw_from_int(0)
    (a, b), (c, d) = letter
    if e > 0:  # X g for X = E, F, H
        steps = [((c, d), (z, z)), ((z, z), (a, b)), ((a, b), (neg(c), neg(d)))]
    else:  # -g^-1 X, with g^-1 = [[a, b], [c, d]]
        a, b, c, d = neg(a), neg(b), neg(c), neg(d)
        steps = [((z, a), (z, c)), ((b, z), (d, z)), ((a, neg(b)), (c, neg(d)))]
    power, sums = letter, steps
    for bit in bin(abs(e))[3:]:
        sums = [_add2(add, _mul2(dot, t, power), _mul2(dot, power, t)) for t in sums]
        power = _mul2(dot, power, power)
        if bit == "1":
            sums = [
                _add2(add, _mul2(dot, t, letter), _mul2(dot, power, d))
                for t, d in zip(sums, steps)
            ]
            power = _mul2(dot, power, letter)
    return power, sums


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


def _neg2(neg, x):
    return tuple(tuple(map(neg, row)) for row in x)


def jet_sweep(w: WordWithConstants, point):
    """``(value, derivs)``: the word value at an SL2 point and its derivatives
    under g_i -> (I + eps X) g_i, argument-major in E, F, H order.

    The value is one :func:`eval_group` call; the derivatives come from one
    product-rule pass over the base ring.  For V = L_1 ... L_N the derivative
    along g_i is the sum over the letters L_k of g_i of P_(k-1) D_k S_(k+1),
    with the prefix and suffix products P and S, and D = X g for a letter g
    and -g^-1 X for g^-1; constants enter P and S only.  So a letter g adds
    P_(k-1) X S_k and a letter g^-1 adds -P_k X S_(k+1), outer products that
    :func:`_outer_sums` adds up, and a syllable g^e with |e| > 1 adds
    P_(k-1) T(X) S_(k+1) with T from :func:`_syllable_sums`.  The inverses
    are the evaluation's, so each generator and constant is inverted once;
    no prefix is.
    """
    n, ring = _check_tuple(w, point)
    if n != 2:
        raise DimensionMismatch("jets are implemented for 2x2")
    inverses = {}  # the evaluation's, shared with the jets
    value = eval_group(w, point, inverses=inverses)

    factors = []  # (value, generator index or None, exponent, T(X) when |e| > 1)
    for i, seg in enumerate(w.segments):
        if i % 2:
            sigma = inverses[seg.name] if seg.inv else w.binding[seg.name]
            factors.append((sigma.rows, None, 0, None))
            continue
        for g, e in seg.letters:
            letter = (point[g - 1] if e > 0 else inverses[g]).rows
            if e in (1, -1):
                factors.append((letter, g - 1, e, None))
            else:
                power, sums = _syllable_sums(ring, letter, e)
                factors.append((power, g - 1, e, sums))

    dot, add, neg = ring.rdot, ring.radd, ring.rneg
    ident = SquareMatrix.identity(ring, 2).rows
    suffixes = [ident]
    for factor in reversed(factors):
        suffixes.append(_mul2(dot, factor[0], suffixes[-1]))
    suffixes.reverse()  # suffixes[k]: the product of factors k, k + 1, ...
    terms = [[] for _ in point]  # (A, B) per letter, whose term is A X B
    syllables = [[SquareMatrix.zero(ring, 2).rows] * 3 for _ in point]
    prefix = ident
    for k, (m, gen, e, sums) in enumerate(factors):
        after = _mul2(dot, prefix, m)
        if sums is not None:
            syllables[gen] = [
                _add2(add, acc, _mul2(dot, _mul2(dot, prefix, t), suffixes[k + 1]))
                for acc, t in zip(syllables[gen], sums)
            ]
        elif e == 1:
            terms[gen].append((prefix, suffixes[k]))
        elif e == -1:
            terms[gen].append((_neg2(neg, after), suffixes[k + 1]))
        prefix = after
    return value, [
        SquareMatrix._raw(ring, _add2(add, outer, t))
        for i in range(len(point))
        for outer, t in zip(_outer_sums(ring, terms[i]), syllables[i])
    ]


def dominance_probe(w: WordWithConstants, point) -> int:
    """Rank of the differential of the word map at an SL2^m point (0..3).

    No direction moves det, so each derivative is d = A V with A trace-free
    at the value V.  A -> A V is injective for invertible V, so the raw
    entries of the d have the rank of the A; V must be invertible.
    """
    value, derivs = jet_sweep(w, point)
    if not det(value).is_invertible():
        raise NotInvertible("matrix determinant is not a unit")
    return rank([d.rows[0] + d.rows[1] for d in derivs], value.ring)
