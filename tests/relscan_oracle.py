"""The depth-first relation scan, the oracle that ``relation_scan`` is checked against.

wordmap once scanned this way: it walks every reduced word of length
<= max_len letter by letter, with one matrix product per word, and keeps the
words whose value is the identity.  ``relation_scan`` now joins half-words by
their value; the tests compare both, relation for relation and in order.
"""

from wordmap import SquareMatrix, word


def dfs_relations(pair, max_len: int) -> tuple:
    """The reduced words of length <= max_len vanishing at the pair, sorted
    by (length, syllables), for a pair that is not (I, I)."""
    x, y = pair
    ident = SquareMatrix.identity(x.ring, 2)
    gens = {(1, 1): x, (1, -1): x.inverse(), (2, 1): y, (2, -1): y.inverse()}
    found = []

    def extend(prefix, matrix, remaining):
        for gen, sgn in gens:
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
    return tuple(found)
