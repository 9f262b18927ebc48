"""Word evaluation on group tuples, the adjugate extension, and sample-scale probes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CentralConstant, DimensionMismatch, UnboundConstant
from .matrices import (
    SquareMatrix,
    adjugate,
    charpoly,
    det,
    eps_part_matrix,
    is_scalar_matrix,
    lift_matrix,
    random_sl2,
    rank,
    real_part_matrix,
)
from .rings import DualNumbers, RingDescriptor, Scalar
from .words import Word, WordWithConstants, exponent_data


def _check_tuple(w: WordWithConstants, tup):
    if not tup:
        raise DimensionMismatch("empty matrix tuple")
    n = tup[0].n
    ring = tup[0].ring
    for m in tup:
        if m.n != n or m.ring != ring:
            raise DimensionMismatch("tuple matrices must share size and ring")
    if w.max_generator() > len(tup):
        raise DimensionMismatch(
            f"word uses generator {w.max_generator()} but tuple has {len(tup)} entries"
        )
    for c in w.constants:
        if c.name not in w.binding:
            raise UnboundConstant(c.name)
        s = w.binding[c.name]
        if s.n != n or s.ring != ring:
            raise DimensionMismatch(f"constant {c.name} has wrong size or ring")
    return n, ring


def _eval(w: WordWithConstants, tup, negative_power, constant_inverse, check_central):
    n, ring = _check_tuple(w, tup)
    acc = SquareMatrix.identity(ring, n)
    for i, seg in enumerate(w.segments):
        if i % 2 == 0:
            for l in seg.letters:
                m = tup[l.gen - 1]
                if l.exp > 0:
                    acc = acc * (m ** l.exp)
                else:
                    acc = acc * (negative_power(m) ** (-l.exp))
        else:
            sigma = w.binding[seg.name]
            if check_central and is_scalar_matrix(sigma):
                raise CentralConstant(
                    f"constant {seg.name} is central; pass allow_central=True to permit it"
                )
            acc = acc * (constant_inverse(sigma) if seg.inv else sigma)
    return acc


def eval_group(w: WordWithConstants, tup, allow_central: bool = True) -> SquareMatrix:
    """Literal group evaluation with true inverses; inputs must be invertible."""
    return _eval(
        w,
        tup,
        negative_power=lambda m: m.inverse(),
        constant_inverse=lambda m: m.inverse(),
        check_central=not allow_central,
    )


def eval_adjugate_extension(w: WordWithConstants, tup) -> SquareMatrix:
    """The polynomial extension to all of Ma_n: x^-k becomes (adjugate)^k.

    Constants are fixed invertible matrices, so an inverted constant stays a
    true inverse; only variable letters are replaced by adjugate powers.
    """
    return _eval(
        w,
        tup,
        negative_power=adjugate,
        constant_inverse=lambda m: m.inverse(),
        check_central=False,
    )


@dataclass(frozen=True)
class RestrictionCheck:
    delta: Scalar
    holds: bool


def check_restriction_identities(w: WordWithConstants, tup) -> RestrictionCheck:
    """Verify w~ = Delta * w^ on an invertible tuple, Delta = prod det(mu_r)^{b_r}."""
    n, ring = _check_tuple(w, tup)
    data = exponent_data(w, n)
    delta = ring.one
    for g, b_r in data.b_neg.items():
        delta = delta * det(tup[g - 1]) ** b_r
    extended = eval_adjugate_extension(w, tup)
    plain = eval_group(w, tup)
    holds = extended == plain.scaled(delta)
    return RestrictionCheck(delta=delta, holds=holds)


def homogeneity_check(w: WordWithConstants, tup, r: int, c: Scalar) -> bool:
    """w~(..., c*mu_r, ...) == c^{d_r} * w~(...) with d_r from exponent_data."""
    n, ring = _check_tuple(w, tup)
    data = exponent_data(w, n)
    d_r = data.degrees.get(r, 0)
    base = eval_adjugate_extension(w, tup)
    scaled_tup = list(tup)
    scaled_tup[r - 1] = tup[r - 1].scaled(c)
    scaled = eval_adjugate_extension(w, scaled_tup)
    return scaled == base.scaled(c ** d_r)


class ProbeVerdict(Enum):
    CONSTANT_SO_FAR = "ConstantSoFar"
    TAKES_MANY_VALUES = "TakesManyValues"


@dataclass(frozen=True)
class ChiProbeResult:
    distinct_values: tuple
    verdict: ProbeVerdict
    samples: int


_VALUE_CAP = 32


def chi_probe(
    w: WordWithConstants,
    i: int,
    ring: RingDescriptor,
    rng,
    samples: int,
    n: int = 2,
    m: int | None = None,
) -> ChiProbeResult:
    """Sample chi_i of the word value over SL_n tuples; dichotomy verdict at sample scale."""
    if n != 2:
        raise DimensionMismatch("sampling probes are implemented for n = 2")
    if not 1 <= i <= n:
        raise ValueError(f"coefficient index {i} out of range 1..{n}")
    m = m or max(w.max_generator(), 1)
    seen = []
    for _ in range(samples):
        tup = [random_sl2(ring, rng) for _ in range(m)]
        value = charpoly(eval_group(w, tup)).chi[i - 1]
        if value not in seen:
            seen.append(value)
            if len(seen) >= _VALUE_CAP:
                break
    verdict = (
        ProbeVerdict.CONSTANT_SO_FAR if len(seen) <= 1 else ProbeVerdict.TAKES_MANY_VALUES
    )
    return ChiProbeResult(distinct_values=tuple(seen), verdict=verdict, samples=samples)


# ---------------------------------------------------------------------------
# jet differential of the word map on SL2


SL2_DIRECTIONS = ("E", "F", "H")


def _direction_matrix(ring: RingDescriptor, name: str) -> SquareMatrix:
    if name == "E":
        rows = [[0, 1], [0, 0]]
    elif name == "F":
        rows = [[0, 0], [1, 0]]
    elif name == "H":
        rows = [[1, 0], [0, -1]]
    else:
        raise ValueError(f"unknown sl2 direction {name}")
    return SquareMatrix.from_rows(ring, rows)


def jet_sweep(w: WordWithConstants, point):
    """Yield (arg index, direction name, eps part, base value) of the word value
    under the left-translation perturbation g_i -> (I + eps X) g_i."""
    n, ring = _check_tuple(w, point)
    if n != 2:
        raise DimensionMismatch("jets are implemented for 2x2")
    dual = DualNumbers(ring)
    lifted = [lift_matrix(g, dual) for g in point]
    binding = {k: lift_matrix(v, dual) for k, v in w.binding.items()}
    wl = w.with_binding(binding)
    ident = SquareMatrix.identity(dual, 2)
    base_value = eval_group(wl, lifted)
    for i in range(len(point)):
        for name in SL2_DIRECTIONS:
            x = _direction_matrix(dual, name).scaled(dual.eps)
            perturbed = list(lifted)
            perturbed[i] = (ident + x) * lifted[i]
            value = eval_group(wl, perturbed)
            yield i, name, eps_part_matrix(value), real_part_matrix(base_value)


def dominance_probe(w: WordWithConstants, point) -> int:
    """Rank of the differential of the word map at an SL2^m point (0..3).

    Rows are the (a11, a12, a21) coordinates of dV * V0^{-1}, the value tangent
    translated back to the identity (trace-free, so three coordinates suffice).
    """
    ring = point[0].ring
    rows = []
    for _i, _name, deriv, base in jet_sweep(w, point):
        a = deriv * base.inverse()
        rows.append([a[0, 0], a[0, 1], a[1, 0]])
    return rank(rows, ring)
