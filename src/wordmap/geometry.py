"""SL2-specific geometry: trace preimages, fiber membership, witness families for
the catalogued representation-variety components, jet-based dimension
certificates, and relation scanning."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, reduce

from .errors import (
    DegenerateLambda,
    DimensionMismatch,
    InvalidParams,
    RingLacksRoots,
)
from .matrices import SquareMatrix, _reduced, rank
from .rings import (
    PrimeField,
    RingDescriptor,
    Scalar,
    _first_reduction,
    primitive_root_of_unity,
    sqrt_in_ring,
)
from .evaluate import _add2, _tangent_steps, eval_group, jet_sweep
from .words import _SYLLABLE_TEXT, Word, parse


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


# ---------------------------------------------------------------------------
# commutators with a prescribed trace


def trace_preimage_commutator(a: Scalar, lam: Scalar, be: Scalar) -> tuple:
    """A pair (t, g) with tr [t, g] = a exactly.

    beta*gamma = p = (2-a)/(lam-1/lam)^2 and alpha*delta = q = p + 1, so
    det g = q - p = 1 automatically.
    """
    ring = a.ring
    if lam == ring.one or lam == ring.from_int(-1):
        raise DegenerateLambda("lambda must differ from +-1")
    if be.is_zero():
        raise InvalidParams("beta must be nonzero")
    p = _t_level(lam, a)
    q = p + ring.one
    ga = p / be
    if q.is_zero():
        al, de = ring.zero, ring.zero
    else:
        al, de = q, ring.one
    g = SquareMatrix.from_rows(ring, [[al, be], [ga, de]])
    return diag(lam), g


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


def separation_witness(w: Word, ring: RingDescriptor):
    """A point with tr(w^) = 2 and w^ != 1, from the catalogue parametrizations;
    a candidate whose torus parameter is 0 in the ring is left out."""
    two, three = ring.from_int(2), ring.from_int(3)
    if two.is_zero():  # diag(2) does not exist, and diag(3) is the identity
        raise InvalidParams(f"separation witnesses need 2 != 0, but {ring} has characteristic 2")
    ident = SquareMatrix.identity(ring, 2)
    u = upper_unitriangular(ring.one)
    candidates = [(diag(two), u), (diag(two), weyl_rep(ring) * u)]
    if not three.is_zero():
        candidates.append((diag(three), u))
    candidates.append((u, diag(two)))
    for p in candidates:
        value = eval_group(w, p)
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


def jet_jacobian(w: Word, point, equations: str = "W") -> JetJacobian:
    """Jacobian of the fiber equations at an SL2^m point.

    ``W``: the three equations w11 - 1 = w12 = w21 = 0; ``T``: tr(w^) - t = 0
    for a constant t.  Rows are directional derivatives along (I + eps X) g_i
    for X in {E, F, H}, as raw values of the ring.
    """
    if equations not in ("W", "T"):
        raise ValueError("equations must be 'W' or 'T'")
    value, derivs = jet_sweep(w, point)
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

    :meth:`family` maps parameters to a pair in G x G; its bound data (the
    atoms of the two factors, i when an atom needs it, the trace target) are
    fields, so that the instance reduces mod p as it stands.  The local
    defining equations, which vanish on the witness, are data: ``equation =
    1`` for kind ``W``, ``tr(equation) = target`` for kind ``T``.
    """

    id: str
    ring: RingDescriptor
    word: Word
    claimed: int
    scalars: list
    mats: list
    equation: Word
    kind: str
    target: Scalar | None
    first: list  # atoms of the first factor
    second: list | None  # atoms of the second factor, or None for a free matrix h
    i_scalar: Scalar | None

    def family(self, scalars, mats) -> tuple:
        """The catalogued pair at the given parameters: g A g^-1 and g B g^-1, or h."""
        g = mats[0]
        g_inv = g.inverse()
        x = g * self._factor(self.first, scalars, g.ring) * g_inv
        if self.second is None:
            return x, mats[1]
        return x, g * self._factor(self.second, scalars, g.ring) * g_inv

    def _factor(self, atoms, scalars, ring) -> SquareMatrix:
        return reduce(SquareMatrix.__mul__, [self._atom(a, k, scalars, ring) for a, k in atoms])

    def _atom(self, atom, k, scalars, ring) -> SquareMatrix:
        if atom == "D":
            return diag(scalars[k])
        if atom == "U":
            return upper_unitriangular(scalars[k])
        if atom == "O":
            return off_diagonal(scalars[k])
        if atom == "W":
            return weyl_rep(ring)
        if atom == "I":
            return diag(self.i_scalar)
        lam, b, c = scalars  # T
        p = _t_level(lam, self.target)
        return SquareMatrix.from_rows(ring, [[c, b], [p / b, (p + 1) / c]])

    def _atom_partials(self, atom, k, m) -> dict:
        """``{j: the derivative of the atom along s_j}`` for each scalar s_j
        that it reads, at the base scalars; m is the atom's value.  Raw rows."""
        ring = self.ring
        if atom in ("W", "I"):  # they read no scalar
            return {}
        if atom != "T":
            e_m, _f_m, h_m = _tangent_steps(ring, m, 1)
            if atom == "U":
                return {k: e_m}
            c = ring.rinv(self.scalars[k].value)  # D<k> and O<k>: s_k^-1 H m
            return {k: tuple(tuple(ring.rmul(c, e) for e in row) for row in h_m)}
        lam, b, c = self.scalars
        p = _t_level(lam, self.target)
        dp = -2 * p * (1 + lam.inv() ** 2) / (lam - lam.inv())
        partials = {
            0: [[0, 0], [dp / b, dp / c]],
            1: [[0, 1], [-p / (b * b), 0]],
            2: [[1, 0], [0, -(p + 1) / (c * c)]],
        }
        return {j: SquareMatrix.from_rows(ring, rows).rows for j, rows in partials.items()}

    def witness(self) -> tuple:
        return self.family(self.scalars, self.mats)


@dataclass(frozen=True)
class DimensionCertificate:
    component: str
    point: tuple  # (x, y)
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

# the parameters that a component reads; it refuses any other
_PARAMS = {"ex2.Wj": ("j",), "ex4.Tj": ("p", "j"), "Sa": ("a",)}


def _t_level(lam: Scalar, target: Scalar) -> Scalar:
    """p = (2 - target)/(lam - 1/lam)^2, the level of the T atom."""
    d = lam - lam.inv()
    return (2 - target) / (d * d)


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
    p: int | None = None,
    j: int | None = None,
    a: Scalar | None = None,
) -> ComponentInstance:
    """Instantiate a catalogued component over a concrete ring.

    ``p``/``j`` select the Ex4 component (w = [x,y]^p, trace target
    zeta_p^j + zeta_p^-j, p = 5 and j = 1 by default); ex2.Wj reads j and
    takes only j = 4, its default; ``a`` fixes the trace level of the Sa
    hypersurface.  A parameter that the component does not read raises
    InvalidParams.
    """
    if ring.from_int(2).is_zero():
        # -1 = 1 and i = 1, so the atoms degenerate
        raise InvalidParams(f"the catalogue needs 2 != 0, but {ring} has characteristic 2")
    if cid not in _CATALOGUE:
        raise InvalidParams(f"unknown component id {cid!r}; known: {COMPONENT_IDS}")
    given = {"p": p, "j": j, "a": a}
    unread = [k for k, v in given.items() if v is not None and k not in _PARAMS.get(cid, ())]
    if unread:  # named as the dimcert flags that set them
        raise InvalidParams(f"{cid} does not read {', '.join('--' + k for k in unread)}")
    if p is None:
        p = 5
    if j is None:
        j = 4 if cid == "ex2.Wj" else 1
    text, claimed, equation, kind, target, base, first, second = _CATALOGUE[cid]
    # parsed first: the parser refuses a huge Ex4 power at once, where the
    # primitive root below takes O(p) steps
    w = parse(text.format(p=p))
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
        if 2 * j % p == 0:  # zeta^j = +-1: the target +-2 lies off w = 1
            raise InvalidParams(f"ex4.Tj needs p = {p} not to divide 2j = {2 * j}")
        target = zeta ** j + zeta ** (-j)
    if a is not None:
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
    return ComponentInstance(
        cid, ring, w, claimed, scalars, mats, w if equation == text else parse(equation),
        kind, target, first, second, i_scalar,
    )


def _atoms(factor: str) -> list:
    """'W D1 U2' -> [('W', None), ('D', 1), ('U', 2)]."""
    return [(a[0], int(a[1:]) if a[1:] else None) for a in factor.split()]


def parametrization_rank(comp: ComponentInstance) -> int:
    """Rank of the differential of the parametrizing map at the base point.

    Rows: one per scalar parameter s_k, then E, F, H per matrix parameter;
    columns: the eight raw entries of the image pair's derivative (d1, d2).
    At x = g A g^-1 and y = g B g^-1 (or y = h) they are, on the base ring:

    - s_k: (g A'_k g^-1, g B'_k g^-1), or 0 for h, where A'_k = dA/ds_k;
    - g -> (I + eps X) g: ([X, x], [X, y]), or 0 for h;
    - h -> (I + eps X) h: (0, X h),

    where X v and v X are sign and permutation patterns of the entries of v
    (:func:`wordmap.evaluate._tangent_steps`).  A'_k follows from the
    product rule over the atoms of A, whose derivatives are

    - D<k>: s_k^-1 H D, O<k>: s_k^-1 H O, U<k>: E U; W and I read no scalar;
    - T = [[s_2, s_1], [p/s_1, (p+1)/s_2]] with p = (2 - t)/(s_0 - 1/s_0)^2:
      dT/ds_1 = [[0, 1], [-p/s_1^2, 0]], dT/ds_2 = [[1, 0], [0, -(p+1)/s_2^2]]
      and dT/ds_0 = [[0, 0], [p'/s_1, p'/s_2]], p' = -2p (1 + s_0^-2)/(s_0 - 1/s_0).

    The pair stays in SL2 x SL2,
    so d_k = A_k V_k with A_k trace-free at the invertible value V_k, and
    (A1, A2) -> (A1 V1, A2 V2) is injective: the raw entries have the rank
    of the tangents at the identity.
    """
    return rank(_parametrization_rows(comp), comp.ring)


def _parametrization_rows(comp: ComponentInstance) -> list:
    """The rows that :func:`parametrization_rank` ranks, as lists of raw values."""
    ring = comp.ring
    mul, add = ring.rmatmul, ring.radd
    g, g_inv = comp.mats[0].rows, comp.mats[0].inverse().rows
    zero = SquareMatrix.zero(ring, 2).rows

    def product(ms):
        return reduce(mul, ms)

    def conjugated(m):
        return mul(mul(g, m), g_inv)

    def tangents(atoms):  # g A g^-1 along each s_k, then along g
        if atoms is None:  # the free h
            return [zero] * (len(comp.scalars) + 3)
        ms = [comp._atom(atom, k, comp.scalars, ring).rows for atom, k in atoms]
        partials = [comp._atom_partials(atom, k, m) for (atom, k), m in zip(atoms, ms)]
        rows = []
        for k in range(len(comp.scalars)):  # the product rule over the atoms
            terms = [product(ms[:i] + [d[k]] + ms[i + 1:]) for i, d in enumerate(partials) if k in d]
            rows.append(conjugated(reduce(partial(_add2, add), terms)) if terms else zero)
        x = conjugated(product(ms))
        steps = zip(_tangent_steps(ring, x, 1), _tangent_steps(ring, x, -1))
        return rows + [_add2(add, left, right) for left, right in steps]  # [X, x]

    pairs = list(zip(tangents(comp.first), tangents(comp.second)))
    if comp.second is None:
        pairs += [(zero, d) for d in _tangent_steps(ring, comp.mats[1].rows, 1)]
    return [[e for d in pair for row in d for e in row] for pair in pairs]


def dimension_certificate(comp: ComponentInstance) -> DimensionCertificate:
    """Sandwich the component dimension: parametrization rank from below,
    6 minus the fiber-equation Jacobian rank from above.

    The witness is checked against its equations exactly, by one word
    evaluation over the instance's ring: the exact fiber Jacobian's, or one
    of its own when :func:`_reduced_bounds` decides both ranks mod p, as it
    can over Q and Q[sqrt(d)].
    """
    point = comp.witness()
    bounds = _reduced_bounds(comp, point)
    if bounds is None:
        jac = jet_jacobian(comp.equation, point, comp.kind)
        value, bounds = jac.value, (parametrization_rank(comp), 6 - jac.rank)
    else:
        value = eval_group(comp.equation, point)
    if comp.kind == "W":
        holds = value == SquareMatrix.identity(comp.ring, 2)
    else:
        holds = value.trace() == comp.target
    if not holds:
        raise InvalidParams(f"witness for {comp.id} does not satisfy its equations")
    lower, upper = bounds
    return DimensionCertificate(
        component=comp.id,
        point=point,
        lower=lower,
        upper=upper,
        claimed=comp.claimed,
        confirmed=(lower == comp.claimed and upper == comp.claimed),
    )


def _reduced_bounds(comp: ComponentInstance, point):
    """Both ranks at the first prime of :func:`wordmap.rings._first_reduction`
    where they complete, as (lower, lower) when they meet, else None.

    The instance's own data reduce: scalars, matrices, i and the trace
    target, never a component rebuilt over F_p, which could choose another
    torus parameter.  The family satisfies its equations identically, so
    its tangents lie in the kernel of their Jacobian and lower <= dim <=
    upper; a rank mod p is at most the exact rank, so lower_p <= lower and
    upper <= upper_p.  Hence lower_p == upper_p is both exact numbers;
    bounds that do not meet leave the answer to the exact ranks.
    """

    def bounds(field, phi):
        def scalar(s):
            return None if s is None else Scalar(field, phi(s.value))

        reduced = replace(
            comp, ring=field, scalars=[scalar(s) for s in comp.scalars],
            mats=[_reduced(g, field, phi) for g in comp.mats],
            target=scalar(comp.target), i_scalar=scalar(comp.i_scalar),
        )
        lower = parametrization_rank(reduced)
        jac = jet_jacobian(comp.equation, [_reduced(g, field, phi) for g in point], comp.kind)
        return (lower, lower) if lower == 6 - jac.rank else None

    return _first_reduction(comp.ring, bounds)


# ---------------------------------------------------------------------------
# relation scanning


@dataclass(frozen=True)
class RelationScanResult:
    trivial: bool
    relations: tuple  # of canonical texts; parse(text) is the Word


_SCAN_MAX = 12  # every exponent of a scanned word fits _code's byte


def _code(g: int, e: int) -> int:
    """The byte of the syllable (g, e) of the scan, for |e| <= 15: its
    generator is the byte >> 5, and the byte increases with (g, e), so a
    word's syllables are one bytes string, and bytes compare as the syllable
    tuples do."""
    return 32 * g + e + 16


_BYTE = [bytes((code,)) for code in range(256)]
# _CODE_TEXT[code] is render's text of the syllable, from its table
_CODE_TEXT = [_SYLLABLE_TEXT.get((code >> 5, (code & 31) - 16)) for code in range(256)]

# the letters x, x^-1, y, y^-1, c = 0..3, as (its syllable, its inverse's
# syllable, its exponent); letter c's inverse is c ^ 1
_LETTERS = tuple(
    (_BYTE[_code(g, e)], _BYTE[_code(g, -e)], e) for g, e in ((1, 1), (1, -1), (2, 1), (2, -1))
)


def relation_scan(pair, max_len: int) -> RelationScanResult:
    """All reduced words in F_2 of length <= max_len vanishing at the pair (x, y),
    sorted by (length, syllables), as their canonical texts: each is the
    ``render`` spelling of its word, and ``parse`` reads the word back.

    Meet in the middle: a word ``u t^-1`` with ``|u| = ceil(l/2)`` and
    ``|t| = floor(l/2)`` vanishes exactly when ``M(u) = M(t)``, and it is
    reduced exactly when u and t end in different letters.  The reduced
    half-words up to length ``ceil(max_len/2)`` are built once, level by
    level, and each level is indexed by its matrices' raw rows, so every
    relation is one dict hit.  The scan takes about ``2 * 3^ceil(max_len/2)``
    matrix products, plus the size of the output, which dominates for a
    dense finite group.  Each word's syllables are a bytes string, one byte
    per syllable, so a relation is joined, sorted and written as text from
    ``render``'s table of syllable texts without a tuple per syllable; the
    byte holds exponents up to 15, and the cap ``_SCAN_MAX`` stays within it.
    """
    if max_len > _SCAN_MAX:
        raise InvalidParams(f"max_len capped at {_SCAN_MAX}")
    if max_len < 1:
        raise InvalidParams("max_len must be >= 1")
    x, y = pair
    if x.n != 2 or y.n != 2:
        raise DimensionMismatch(f"relation scan is defined for SL2, got {x.n}x{x.n} and {y.n}x{y.n}")
    ring = x.ring
    ident = SquareMatrix.identity(ring, 2)
    if x == ident and y == ident:
        return RelationScanResult(trivial=True, relations=())
    gens = (x, x.inverse(), y, y.inverse())
    levels = _half_words(gens, ident, (max_len + 1) // 2)
    tails = []  # by length: {raw rows of M(t): [(last letter of t, syllables of t^-1)]}
    for level in levels[: max_len // 2 + 1]:
        index = {}
        for m, last, _syllables, inverse in level:
            index.setdefault(m.rows, []).append((last, inverse))
        tails.append(index)
    found = []
    text = _CODE_TEXT.__getitem__
    for length in range(1, max_len + 1):
        index = tails[length // 2]
        hits = []
        for m, last, head, _inverse in levels[(length + 1) // 2]:
            # t^-1 begins with the inverse of t's last letter, so the facing
            # syllables lie on one generator, and then have one sign, exactly
            # when t ends in the inverse of u's last letter
            for t_last, tail in index.get(m.rows, ()):
                if t_last == last ^ 1:
                    hits.append(head[:-1] + _BYTE[head[-1] + (tail[0] & 31) - 16] + tail[1:])
                elif t_last != last:
                    hits.append(head + tail)
        hits.sort()
        found += [" ".join(map(text, key)) for key in hits]
    return RelationScanResult(trivial=False, relations=tuple(found))


def _half_words(gens, ident: SquareMatrix, depth: int) -> list:
    """The reduced words of length 0..depth, by length, as tuples (matrix,
    last letter, syllables, syllables of the inverse), the syllables as bytes;
    the empty word's last letter is -1, which no letter's inverse is.  A
    letter equal to the last one grows the last syllable, and the first
    syllable of the inverse, by one byte step."""
    levels = [[(ident, -1, b"", b"")]]
    for _ in range(depth):
        level = []
        for m, last, syllables, inverse in levels[-1]:
            for c, (letter, inverse_letter, e) in enumerate(_LETTERS):
                if c == last ^ 1:
                    continue  # keep the word reduced
                if c == last:
                    grown = syllables[:-1] + _BYTE[syllables[-1] + e]
                    shrunk = _BYTE[inverse[0] - e] + inverse[1:]
                else:
                    grown, shrunk = syllables + letter, inverse_letter + inverse
                level.append((m * gens[c], c, grown, shrunk))
        levels.append(level)
    return levels


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
