"""Closed forms and witnesses that the tests check wordmap against.

Each is written out by hand from the formula it names: the commutator with
a torus element entrywise, its trace, the pair generating Q8 and the order
of the group it generates.  The homogeneity check scales one argument of the
adjugate extension and compares against the degree d_r = a_r+ + (n-1) b_r
that exponent_data counts.
"""

from wordmap import (
    SquareMatrix,
    eval_adjugate_extension,
    eval_group,
    exponent_data,
    parse,
    sqrt_in_ring,
    word,
)


def commutator_closed_form(t, g):
    """The commutator [t, g] for t = diag(lam, 1/lam), written out entrywise."""
    ring = t.ring
    lam = t[0, 0]
    assert t == SquareMatrix.from_rows(ring, [[lam, ring.zero], [ring.zero, lam.inv()]])
    al, be = g.entries[0]
    ga, de = g.entries[1]
    l2 = lam * lam
    l2i = l2.inv()
    return SquareMatrix.from_rows(
        ring,
        [
            [al * de - be * ga * l2, al * be * (l2 - ring.one)],
            [ga * de * (l2i - ring.one), al * de - be * ga * l2i],
        ],
    )


def commutator_trace(lam, be, ga):
    """tr [diag(lam, 1/lam), g] = 2 - beta*gamma*(lam - 1/lam)^2."""
    d = lam - lam.inv()
    return lam.ring.from_int(2) - be * ga * d * d


def q8_witness(ring, mu=None):
    """(diag(i, -i), [[0, mu], [-1/mu, 0]]): the pair generating Q8."""
    i = sqrt_in_ring(ring, -1)
    assert i is not None, f"{ring} has no square root of -1"
    mu = mu if mu is not None else ring.one
    return (
        SquareMatrix.from_rows(ring, [[i, ring.zero], [ring.zero, i.inv()]]),
        SquareMatrix.from_rows(ring, [[ring.zero, mu], [-mu.inv(), ring.zero]]),
    )


def assert_q8_order_eight(pair):
    """<x, y> at ``pair`` has order 8.

    x^4 = 1, y^2 = x^2 and y x y^-1 = x^-1 let every element be written
    x^i y^j with i < 4 and j < 2, so the order is at most 8; the eight values
    are distinct, so it is exactly 8.
    """
    def at(text):
        return eval_group(parse(text), pair)

    assert at("x^4") == SquareMatrix.identity(pair[0].ring, 2)
    assert at("y^2") == at("x^2")
    assert at("y x y^-1") == at("x^-1")
    assert len({eval_group(word([(1, i), (2, j)]), pair) for i in range(4) for j in range(2)}) == 8


def homogeneity_check(w, tup, r, c):
    """w~(..., c*mu_r, ...) == c^{d_r} * w~(...) with d_r from exponent_data."""
    d_r = exponent_data(w, tup[0].n).degrees.get(r, 0)
    scaled = list(tup)
    scaled[r - 1] = tup[r - 1].scaled(c)
    return eval_adjugate_extension(w, scaled) == eval_adjugate_extension(w, tup).scaled(c ** d_r)
