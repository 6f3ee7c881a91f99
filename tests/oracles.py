"""Independent F2 oracles for the linear-algebra tests.

These share no code with ``diskfloer.linalg``: vectors are bitset ints and
every rank comes from a plain Gaussian elimination written out here.
"""

from typing import Sequence


def vec_to_bits(vec: Sequence[int]) -> int:
    """Bitset of a coefficient list, keeping each entry mod 2."""
    out = 0
    for i, e in enumerate(vec):
        if e & 1:
            out |= 1 << i
    return out


def f2_rank(vectors: Sequence[int]) -> int:
    """Rank over F2 of bitset vectors, by elimination on the highest bit."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def in_span(v: int, vectors: Sequence[int]) -> bool:
    """Whether v is an F2 combination of the given bitset vectors."""
    return f2_rank(list(vectors) + [v]) == f2_rank(vectors)
