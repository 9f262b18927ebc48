"""Dual-number jets, the oracle that the closed-form tangents are checked against.

``_jets`` evaluates an arbitrary map of scalars and SL2 matrices over
``DualNumbers(ring)`` once per direction.  wordmap once took every tangent
this way; ``jet_sweep`` and ``parametrization_rank`` now take them on the
base ring, and the tests compare both against this routine entry for entry.
"""

from dataclasses import dataclass, field, replace

from wordmap import QuadraticExt, RingMismatch, Scalar, SquareMatrix, WordmapError
from wordmap.rings import _split

SL2_BASIS = {"E": ((0, 1), (0, 0)), "F": ((0, 0), (1, 0)), "H": ((1, 0), (0, -1))}


@dataclass(frozen=True)
class DualNumbers(QuadraticExt):
    """``base[eps]/(eps**2)``: the d = 0 case, over any ring but dual numbers.

    A pair is read as (real part, eps part), also over a quadratic base.
    """

    d: object = field(default=None, init=False)

    def __post_init__(self):
        if isinstance(self.base, DualNumbers):
            raise WordmapError("dual numbers do not nest")
        object.__setattr__(self, "d", self.base.raw_from_int(0))

    # the d = 0 forms, which skip the d * b.e term of the general ones
    def rmul(self, x, y):
        a, b = x
        c, e = y
        base = self.base
        return (
            base.rmul(a, c),
            base.radd(base.rmul(a, e), base.rmul(b, c)),
        )

    def rdot(self, xs, ys):
        # sum (a + b eps)(c + e eps) = a.c + (a.e + b.c) eps
        base = self.base
        a, b = _split(xs)
        c, e = _split(ys)
        return (base.rdot(a, c), base.rdot(a + b, e + c))

    @property
    def symbol(self) -> str:
        return "eps"

    def lift(self, s: Scalar) -> Scalar:
        if s.ring != self.base:
            raise RingMismatch(f"cannot lift {s.ring} into {self}")
        return self.scalar((s.value, self.base.raw_from_int(0)))

    def __str__(self):
        return f"Dual({self.base})"


def lift_matrix(m: SquareMatrix, dual: DualNumbers) -> SquareMatrix:
    """m with eps part 0, as a matrix over ``dual``."""
    assert m.ring == dual.base, f"cannot lift {m.ring} into {dual}"
    z = dual.base.raw_from_int(0)
    return SquareMatrix._raw(dual, tuple(tuple([(v, z) for v in row]) for row in m.rows))


def _jets(f, ring, scalars, mats):
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
        ident + SquareMatrix.from_rows(dual, x).scaled(dual.root) for x in SL2_BASIS.values()
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


def family_jets(comp):
    """``_jets`` of a component's family at its base point.  The family reads
    the instance's i and trace target as they stand, so they are lifted into
    the dual numbers first."""
    dual = DualNumbers(comp.ring)

    def lifted(s):
        return None if s is None else dual.lift(s)

    comp = replace(comp, i_scalar=lifted(comp.i_scalar), target=lifted(comp.target))
    return _jets(comp.family, dual.base, comp.scalars, comp.mats)
