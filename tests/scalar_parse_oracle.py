"""The boxed scalar-literal parser, the oracle that ``rings._parse_raw`` is checked against.

wordmap once parsed every literal this way: each term is built as a
ring-checked :class:`~wordmap.Scalar` and the terms are added as Scalars.
``parse_scalar`` now reads the literal to a raw value first; the tests
compare both, value for value and error for error.
"""

import re

from wordmap import RingLacksRoots, WordmapError, sqrt_in_ring

_MONOMIAL = r"(?:i|sqrt\(-?\d+\))"
_TERM_RE = re.compile(
    rf"\s*([+-])?\s*(?:(-?\d+(?:/\d+)?)(?:\s*\*?\s*({_MONOMIAL}))?|({_MONOMIAL}))\s*"
)


def boxed_parse_scalar(ring, text: str):
    """Parse a scalar literal: integers, ``a/b``, ``i``, ``sqrt(d)``, their
    products such as ``3*i``, and sums thereof."""
    text = text.strip()
    if not text:
        raise WordmapError("empty scalar literal")
    result = ring.zero
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise WordmapError(f"bad scalar literal {text!r} at {pos}")
        sign, coef, mono1, mono2 = m.groups()
        if sign is None and not first:
            raise WordmapError(f"missing sign in scalar literal {text!r}")
        term = ring.one
        if coef is not None:
            if "/" in coef:
                num, den = coef.split("/")
                term = ring.from_int(int(num)) / ring.from_int(int(den))
            else:
                term = ring.from_int(int(coef))
        mono = mono1 or mono2
        if mono is not None:  # i or sqrt(d)
            s = sqrt_in_ring(ring, -1 if mono == "i" else int(mono[5:-1]))
            if s is None:
                raise RingLacksRoots(f"no {mono} in {ring}")
            term = term * s
        if sign == "-":
            term = -term
        result = result + term
        pos = m.end()
        first = False
    return result
