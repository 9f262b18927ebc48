"""An independent check of a built root system, the oracle for ``rootsys.build``.

wordmap once ran this check after the reflection closure, as a second pass.
``build`` now runs the same checks inside its orbit walk; the tests run both on
every system and on systems that are broken on purpose.

It checks the root count, negation, Cartan integrality and that the roots are
the Weyl orbit of the simple roots, with r N inner products instead of N^2.
Once Phi holds the simple roots, is stable under the simple reflections and has
the right count, it is W.Delta; every root is then a W-translate of a simple
root (Humphreys, Introduction to Lie Algebras, 10.3) and W is orthogonal, so
every ordered pair of roots is a W-translate of a pair that includes a simple
root.  Integrality is checked on those, in both orders.
"""

from wordmap import InvalidType
from wordmap.rootsys import _TYPES


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _neg(u) -> tuple:
    return tuple(-a for a in u)


def _reflect(beta, alpha, c) -> tuple:
    """s_alpha(beta) = beta - c alpha, for the Cartan integer c = <beta, alpha^v>."""
    return tuple(b - c * a for a, b in zip(alpha, beta))


def validate(system):
    """Raise InvalidType unless ``system`` is the root system of its type and rank."""
    kind = _TYPES[system.type_label]
    expected = kind.count(system.rank)
    if system.count() != expected:
        raise InvalidType(
            f"{system.type_label}{system.rank}: got {system.count()} roots, expected {expected}"
        )
    rs = set(system.roots)
    if any(_neg(alpha) not in rs for alpha in system.roots):
        raise InvalidType("root system is not closed under negation")
    simple = kind.simple(system.rank)
    if any(alpha not in rs for alpha in simple):
        raise InvalidType("root system is not the Weyl orbit of its simple roots")
    coroots = [(alpha, _dot(alpha, alpha)) for alpha in simple]
    for beta in system.roots:
        bb = _dot(beta, beta)
        for alpha, aa in coroots:
            two_ab = 2 * _dot(alpha, beta)
            if two_ab % aa or two_ab % bb:
                raise InvalidType("Cartan integer is not an integer")
            c = two_ab // aa
            if c and _reflect(beta, alpha, c) not in rs:
                raise InvalidType("root system is not the Weyl orbit of its simple roots")
