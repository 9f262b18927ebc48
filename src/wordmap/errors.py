"""Exception types shared across the package."""


class WordmapError(Exception):
    """Base class for all package-specific errors."""


class NotInvertible(WordmapError):
    """Raised when inverting a non-unit (zero in a field, pure-dual element, singular matrix)."""


class RingMismatch(WordmapError):
    """Operands do not share a ring descriptor."""


class DimensionMismatch(WordmapError):
    """Matrix dimensions are incompatible."""


class UnboundConstant(WordmapError):
    """A constant symbol appears in a word but not in the binding."""


class WordSyntaxError(WordmapError):
    """Word text does not conform to the grammar; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EmptyInnerWord(WordmapError):
    """Reduction emptied one of the inner words between two constants."""


class ZeroExponent(WordmapError):
    """An explicit zero exponent in word text."""


class DegenerateLambda(WordmapError):
    """A torus parameter hit a degenerate value (lambda = +-1, or lambda^4 = 1)."""


class RingLacksRoots(WordmapError):
    """The ring does not contain a root (i, sqrt(2), zeta_k) required by the construction."""


class InvalidParams(WordmapError):
    """Component parameters violate the catalogue's preconditions."""


class InvalidType(WordmapError):
    """Not a classical (type, rank) root-system pair."""
