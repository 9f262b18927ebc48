"""SL2-specific geometry: trace preimages, fiber membership, witness families for
the catalogued representation-variety components, jet-based dimension
certificates, and relation scanning."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import (
    DegenerateLambda,
    DimensionMismatch,
    InvalidParams,
    RingLacksRoots,
)
from .matrices import SquareMatrix, rank, random_sl2
from .rings import (
    DualNumbers,
    PrimeField,
    RingDescriptor,
    Scalar,
    primitive_root_of_unity,
    sqrt_in_ring,
)
from .evaluate import (
    ProbeResult,
    _jets,
    _sample_distinct,
    eval_group,
    jet_sweep,
)
from .words import (
    Word,
    WordWithConstants,
    parse,
    pure,
    word,
    zero_exponent_sum_in_y,
)


# ---------------------------------------------------------------------------
# small constructors


def diag(lam: Scalar) -> SquareMatrix:
    ring = lam.ring
    return SquareMatrix.from_rows(ring, [[lam, ring.zero], [ring.zero, lam.inv()]])


def upper_unitriangular(u: Scalar) -> SquareMatrix:
    ring = u.ring
    return SquareMatrix.from_rows(ring, [[ring.one, u], [ring.zero, ring.one]])


def off_diagonal(mu: Scalar) -> SquareMatrix:
    """[[0, mu], [-1/mu, 0]]; the Q8-type generator."""
    ring = mu.ring
    return SquareMatrix.from_rows(ring, [[ring.zero, mu], [-mu.inv(), ring.zero]])


def weyl_rep(ring: RingDescriptor) -> SquareMatrix:
    """The torus-normalizer representative [[0, 1], [-1, 0]]."""
    return SquareMatrix.from_rows(ring, [[0, 1], [-1, 0]])


def _coerce(s: Scalar, ring: RingDescriptor) -> Scalar:
    """Move a base scalar into ring, lifting into dual numbers when needed."""
    if s.ring == ring:
        return s
    if isinstance(ring, DualNumbers) and ring.base == s.ring:
        return ring.lift(s)
    raise InvalidParams(f"cannot coerce scalar from {s.ring} into {ring}")


# ---------------------------------------------------------------------------
# pairs, and commutators with a prescribed trace


@dataclass(frozen=True)
class Sl2Pair:
    g1: SquareMatrix
    g2: SquareMatrix

    def __iter__(self):
        return iter((self.g1, self.g2))


def trace_preimage_commutator(a: Scalar, lam: Scalar, be: Scalar) -> Sl2Pair:
    """A pair (t, g) with tr [t, g] = a exactly.

    beta*gamma = p = (2-a)/(lam-1/lam)^2 and alpha*delta = q = p + 1, so
    det g = q - p = 1 automatically.
    """
    ring = a.ring
    if lam == ring.one or lam == ring.from_int(-1):
        raise DegenerateLambda("lambda must differ from +-1")
    if be.is_zero():
        raise InvalidParams("beta must be nonzero")
    d = lam - lam.inv()
    p = (ring.from_int(2) - a) / (d * d)
    q = p + ring.one
    ga = p / be
    if q.is_zero():
        al, de = ring.zero, ring.zero
    else:
        al, de = q, ring.one
    g = SquareMatrix.from_rows(ring, [[al, be], [ga, de]])
    return Sl2Pair(diag(lam), g)


# ---------------------------------------------------------------------------
# fiber membership and separation witnesses


@dataclass(frozen=True)
class FiberMembership:
    in_W: bool
    in_T: bool


def value_fiber_membership(value: SquareMatrix) -> FiberMembership:
    """Membership in W (value = 1) and T (trace = 2) of an already computed word value."""
    if value.n != 2:
        raise DimensionMismatch("fiber membership is defined for SL2")
    in_w = value == SquareMatrix.identity(value.ring, 2)
    in_t = value.trace() == value.ring.from_int(2)
    return FiberMembership(in_W=in_w, in_T=in_t)


def separation_witness(w: WordWithConstants, ring: RingDescriptor):
    """A point with tr(w^) = 2 and w^ != 1, from the catalogue parametrizations."""
    two = ring.from_int(2)
    three = ring.from_int(3)
    ident = SquareMatrix.identity(ring, 2)
    candidates = [
        Sl2Pair(diag(two), upper_unitriangular(ring.one)),
        Sl2Pair(diag(two), weyl_rep(ring) * upper_unitriangular(ring.one)),
        Sl2Pair(diag(three), upper_unitriangular(ring.one)),
        Sl2Pair(upper_unitriangular(ring.one), diag(two)),
    ]
    for p in candidates:
        value = eval_group(w, list(p))
        if value != ident and value.trace() == two:
            return p
    return None


# ---------------------------------------------------------------------------
# jet Jacobians of fiber equations


@dataclass(frozen=True)
class JetJacobian:
    rows: tuple
    rank: int
    value: SquareMatrix  # the word value at the point


def jet_jacobian(w: WordWithConstants, point, equations: str = "W") -> JetJacobian:
    """Jacobian of the fiber equations at an SL2^m point.

    ``W``: the three equations w11 - 1 = w12 = w21 = 0; ``T``: tr(w^) - t = 0
    for a constant t.  Rows are directional derivatives along (I + eps X) g_i
    for X in {E, F, H}, as raw values of the ring.
    """
    if equations not in ("W", "T"):
        raise ValueError("equations must be 'W' or 'T'")
    value, derivs = jet_sweep(w, list(point))
    if equations == "W":
        rows = tuple((d.rows[0][0], d.rows[0][1], d.rows[1][0]) for d in derivs)
    else:
        add = value.ring.radd
        rows = tuple((add(d.rows[0][0], d.rows[1][1]),) for d in derivs)
    return JetJacobian(rows=rows, rank=rank(rows, value.ring), value=value)


# ---------------------------------------------------------------------------
# component catalogue


@dataclass
class ComponentInstance:
    """A catalogued irreducible-component family, pinned to a ring and base parameters.

    ``family(scalars, mats)`` maps parameters to a pair in G x G.  The local
    defining equations, which vanish on the witness, are data: ``equation = 1``
    for kind ``W``, ``tr(equation) = target`` for kind ``T``.
    """

    id: str
    ring: RingDescriptor
    word: WordWithConstants
    claimed: int
    scalars: list
    mats: list
    family: object
    equation: WordWithConstants
    kind: str
    target: Scalar | None

    def witness(self) -> Sl2Pair:
        return Sl2Pair(*self.family(self.scalars, self.mats))


@dataclass(frozen=True)
class DimensionCertificate:
    component: str
    point: Sl2Pair
    lower: int
    upper: int
    claimed: int
    confirmed: bool


_EX5_TEXT = "[ [x,y] , x [x,y] x^-1 ]"

# "{p}" is the Ex4 power; a first-factor trace equation is kind T of the word x,
# and ex4.Tj and Sa replace their trace target with zeta_p^j + zeta_p^-j and a.
# Each family is (g A g^-1, g B g^-1), or (g A g^-1, h) for a free matrix h,
# with g and h perturbed as matrix parameters.  The base scalars are ints or L,
# a generic torus parameter.  A and B are products of atoms: D<k> = diag(s_k),
# U<k> = [[1, s_k], [0, 1]], O<k> = off_diagonal(s_k), W = weyl_rep,
# I = diag(i), and T = [[s_2, s_1], [p/s_1, (p+1)/s_2]] with
# p = (2 - target)/(s_0 - 1/s_0)^2, so that tr [diag(s_0), T] = target.
#
# id: (word, claimed dimension, equation, kind, trace target, base scalars,
#      first factor, second factor)
_CATALOGUE = {
    "ex1.W": ("[x,y]", 4, "[x,y]", "W", None, (2, 3), "D0", "D1"),
    "ex1.T": ("[x,y]", 5, "[x,y]", "T", 2, (2, 3, 1), "D0", "D1 U2"),
    "ex2.Wj": ("[x^2,y]", 5, "x", "T", 0, (), "I", "h"),
    "ex3.W1": ("[x,y]^2", 3, "[x,y]^2", "W", None, (2,), "I", "O0"),
    "ex4.Tj": ("[x,y]^{p}", 5, "[x,y]", "T", None, ("L", 1, 1), "D0", "T"),
    "ex5.W1": (_EX5_TEXT, 4, _EX5_TEXT, "W", None, ("L", 3), "D0", "W D1"),
    "ex5.T1": (_EX5_TEXT, 5, _EX5_TEXT, "T", 2, ("L", 3, 1), "D0", "W D1 U2"),
    "ex5.T2": (_EX5_TEXT, 5, "x", "T", 0, (), "W", "h"),
    "Sa": ("[x,y]", 5, "[x,y]", "T", 5, ("L", 1, 1), "D0", "T"),
}

COMPONENT_IDS = tuple(_CATALOGUE)


def _need_i(ring: RingDescriptor) -> Scalar:
    s = sqrt_in_ring(ring, -1)
    if s is None:
        raise RingLacksRoots(f"{ring} has no square root of -1")
    return s


def _generic_lambda(ring: RingDescriptor, target: Scalar | None):
    """A lambda with lam^4 != 1 and, given a trace target, lam^2 + lam^-2 != target."""
    for n in (2, 3, 5, 7, 11, 13):
        lam = ring.from_int(n)
        if lam.is_zero() or not lam.is_invertible() or lam ** 4 == ring.one:
            continue
        if target is not None and (lam * lam + (lam * lam).inv() - target).is_zero():
            continue
        return lam
    raise InvalidParams(f"no generic torus parameter found in {ring}")


def component(
    cid: str,
    ring: RingDescriptor,
    p: int = 5,
    j: int | None = None,
    a: Scalar | None = None,
) -> ComponentInstance:
    """Instantiate a catalogued component over a concrete ring.

    ``p``/``j`` select the Ex4 component (w = [x,y]^p, trace target
    zeta_p^j + zeta_p^-j, j = 1 by default); ex2.Wj takes only j = 4, its
    default; ``a`` fixes the trace level of the Sa hypersurface.
    """
    if ring.from_int(2).is_zero():
        # -1 = 1 and i = 1, so the atoms degenerate
        raise InvalidParams(f"the catalogue needs 2 != 0, but {ring} has characteristic 2")
    if cid not in _CATALOGUE:
        raise InvalidParams(f"unknown component id {cid!r}; known: {COMPONENT_IDS}")
    if j is None:
        j = 4 if cid == "ex2.Wj" else 1
    text, claimed, equation, kind, target, base, first, second = _CATALOGUE[cid]
    if target is not None:
        target = ring.from_int(target)
    if cid == "ex2.Wj" and j != 4:
        # the C_j x G component of w = [x^(j/2), y], shown for j = 4 (needs i)
        raise InvalidParams("ex2.Wj is catalogued for j = 4")
    if cid == "ex4.Tj":
        if not isinstance(ring, PrimeField):
            raise InvalidParams("ex4.Tj is instantiated over a prime field F_q")
        zeta = primitive_root_of_unity(ring, p)
        if zeta is None:
            raise RingLacksRoots(f"F_{ring.p} has no primitive {p}-th root of unity")
        target = zeta ** j + zeta ** (-j)
    if cid == "Sa" and a is not None:
        target = a
    first = _atoms(first)
    second = None if second == "h" else _atoms(second)
    atoms = first + (second or [])
    scalars = [
        _generic_lambda(ring, target) if s == "L" else ring.from_int(s) for s in base
    ]
    if any(atom == "D" and scalars[k] in (1, -1) for atom, k in atoms):
        raise DegenerateLambda("torus parameter is +-1")
    i_scalar = _need_i(ring) if ("I", None) in atoms else None
    mats = [SquareMatrix.from_rows(ring, [[1, 1], [1, 2]])]  # the conjugator g
    if second is None:
        mats.append(SquareMatrix.from_rows(ring, [[2, 1], [1, 1]]))  # the free h
    family = partial(_family, first, second, i_scalar, target)
    return ComponentInstance(
        cid, ring, parse(text.format(p=p)), claimed, scalars, mats, family,
        parse(equation), kind, target,
    )


def _atoms(factor: str) -> list:
    """'W D1 U2' -> [('W', None), ('D', 1), ('U', 2)]."""
    return [(a[0], int(a[1:]) if a[1:] else None) for a in factor.split()]


def _family(first, second, i_scalar, target, scalars, mats):
    """The catalogued pair at the given parameters: g A g^-1 and g B g^-1, or h."""
    g = mats[0]
    g_inv = g.inverse()
    x = g * _factor(first, scalars, g.ring, i_scalar, target) * g_inv
    if second is None:
        return x, mats[1]
    return x, g * _factor(second, scalars, g.ring, i_scalar, target) * g_inv


def _factor(atoms, scalars, ring, i_scalar, target) -> SquareMatrix:
    product = None
    for atom, k in atoms:
        if atom == "D":
            m = diag(scalars[k])
        elif atom == "U":
            m = upper_unitriangular(scalars[k])
        elif atom == "O":
            m = off_diagonal(scalars[k])
        elif atom == "W":
            m = weyl_rep(ring)
        elif atom == "I":
            m = diag(_coerce(i_scalar, ring))
        else:  # T
            lam, b, c = scalars
            d = lam - lam.inv()
            pa = (ring.from_int(2) - _coerce(target, ring)) / (d * d)
            m = SquareMatrix.from_rows(ring, [[c, b], [pa / b, (pa + ring.one) / c]])
        product = m if product is None else product * m
    return product


def parametrization_rank(comp: ComponentInstance) -> int:
    """Rank of the differential of the parametrizing map at the base point.

    Rows: one dual-number jet per scalar parameter plus three sl2 directions
    per matrix parameter; columns: the eight raw entries of the image pair's
    derivative (d1, d2).  The pair stays in SL2 x SL2, so d_k = A_k V_k with
    A_k trace-free at the invertible value V_k, and (A1, A2) -> (A1 V1, A2 V2)
    is injective: the raw entries have the rank of the tangents at the
    identity.
    """
    _base, derivs = _jets(comp.family, comp.ring, comp.scalars, comp.mats)
    return rank([[e for d in pair for row in d.rows for e in row] for pair in derivs], comp.ring)


def dimension_certificate(comp: ComponentInstance) -> DimensionCertificate:
    """Sandwich the component dimension: parametrization rank from below,
    6 minus the fiber-equation Jacobian rank from above."""
    point = comp.witness()
    jac = jet_jacobian(comp.equation, point, comp.kind)
    if comp.kind == "W":
        holds = jac.value == SquareMatrix.identity(comp.ring, 2)
    else:
        holds = jac.value.trace() == comp.target
    if not holds:
        raise InvalidParams(f"witness for {comp.id} does not satisfy its equations")
    lower = parametrization_rank(comp)
    upper = 6 - jac.rank
    return DimensionCertificate(
        component=comp.id,
        point=point,
        lower=lower,
        upper=upper,
        claimed=comp.claimed,
        confirmed=(lower == comp.claimed and upper == comp.claimed),
    )


# ---------------------------------------------------------------------------
# relation scanning and group closure


@dataclass(frozen=True)
class RelationScanResult:
    trivial: bool
    relations: tuple  # of Word


_SCAN_MAX = 12


def relation_scan(pair: Sl2Pair, max_len: int) -> RelationScanResult:
    """All reduced words in F_2 of length <= max_len vanishing at the pair."""
    if max_len > _SCAN_MAX:
        raise InvalidParams(f"max_len capped at {_SCAN_MAX}")
    if max_len < 1:
        raise InvalidParams("max_len must be >= 1")
    ring = pair.g1.ring
    ident = SquareMatrix.identity(ring, 2)
    if pair.g1 == ident and pair.g2 == ident:
        return RelationScanResult(trivial=True, relations=())
    gens = {
        (1, 1): pair.g1,
        (1, -1): pair.g1.inverse(),
        (2, 1): pair.g2,
        (2, -1): pair.g2.inverse(),
    }
    letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
    found = []

    def extend(prefix, matrix, remaining):
        for gen, sgn in letters:
            if prefix and prefix[-1] == (gen, -sgn):
                continue  # keep the word reduced
            m2 = matrix * gens[(gen, sgn)]
            w2 = prefix + [(gen, sgn)]
            if m2 == ident:
                found.append(word(w2))
            if remaining > 1:
                extend(w2, m2, remaining - 1)

    extend([], ident, max_len)
    found.sort(key=lambda w: (w.length(), w.letters))
    return RelationScanResult(trivial=False, relations=tuple(found))


def generated_group(mats, cap: int = 10000):
    """Closure of the given SL2 elements under multiplication (BFS)."""
    frontier = list(mats)
    seen = set(frontier)
    gens = list(mats) + [m.inverse() for m in mats]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m * g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise InvalidParams(f"group closure exceeded cap {cap}")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# executable lemma checks


@dataclass(frozen=True)
class Lemma78Report:
    value: SquareMatrix
    in_Uminus: bool
    trivial_iff_unit: bool


def lemma78_check(lam: Scalar, u_param: Scalar) -> Lemma78Report:
    """w = [[x,y], x[x,y]x^-1] at (diag(lam), wdot * unitriangular(u)):
    lower unitriangular, trivial exactly when u = 0."""
    ring = lam.ring
    if (lam ** 4) == ring.one:
        raise DegenerateLambda("lambda^4 must differ from 1")
    w = parse(_EX5_TEXT)
    s = diag(lam)
    h = weyl_rep(ring) * upper_unitriangular(u_param)
    v = eval_group(w, [s, h])
    in_uminus = (
        v[0, 0] == ring.one and v[1, 1] == ring.one and v[0, 1].is_zero()
    )
    is_identity = v == SquareMatrix.identity(ring, 2)
    return Lemma78Report(
        value=v,
        in_Uminus=in_uminus,
        trivial_iff_unit=(is_identity == u_param.is_zero()),
    )


@dataclass(frozen=True)
class Lemma101Report:
    z: SquareMatrix
    intermediate: SquareMatrix
    final_trace: Scalar
    ok: bool


def lemma101_check(ring: RingDescriptor) -> Lemma101Report:
    """The explicit unipotent-class computation: z = [u, g] = [[0, 1/2], [-2, 0]],
    then w(u, g) = ([[-1, 1], [4, -5]])^2 with trace 34 != 2."""
    i_scalar = _need_i(ring)
    s2 = sqrt_in_ring(ring, 2)
    if s2 is None:
        raise RingLacksRoots(f"{ring} has no sqrt(2)")
    half = ring.from_int(2).inv()
    u = upper_unitriangular(ring.one)
    g = SquareMatrix.from_rows(
        ring,
        [
            [i_scalar * s2 * half, -(i_scalar * s2 * half)],
            [-(i_scalar * s2), ring.zero],
        ],
    )
    z = u * g * u.inverse() * g.inverse()
    z_expected = SquareMatrix.from_rows(ring, [[ring.zero, half], [ring.from_int(-2), ring.zero]])
    intermediate = z * u * z * u.inverse()
    inter_expected = SquareMatrix.from_rows(ring, [[-1, 1], [4, -5]])
    w = parse(_EX5_TEXT)
    final = eval_group(w, [u, g])
    ok = (
        z == z_expected
        and intermediate == inter_expected
        and final == intermediate ** 2
        and final.trace() == ring.from_int(34)
        and final.trace() != ring.from_int(2)
    )
    return Lemma101Report(
        z=z, intermediate=intermediate, final_trace=final.trace(), ok=ok
    )


# ---------------------------------------------------------------------------
# trace probe after substituting a constant for the distinguished variable


def wsigma_trace_probe(w: Word, sigma: SquareMatrix, rng, samples: int) -> ProbeResult:
    """Sample tr(w^_sigma) with sigma substituted for the distinguished variable y."""
    if not zero_exponent_sum_in_y(w):
        raise InvalidParams("the distinguished-variable exponents must sum to zero")
    ring = sigma.ring
    m = max(w.max_generator(), 2)
    ww = pure(w)

    def draw():
        tup = [random_sl2(ring, rng) for _ in range(m)]
        tup[1] = sigma
        return eval_group(ww, tup).trace()

    return ProbeResult(*_sample_distinct(draw, samples))
