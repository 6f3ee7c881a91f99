"""The eight-dimensional torus algebra over F2.

Basis: two idempotents i0, i1 and six Reidemeister elements
rho1, rho2, rho3, rho12, rho23, rho123.  Elements are stored as 8-bit
masks; sums are XOR.  The algebra differential is zero.
"""

from __future__ import annotations

from typing import Tuple

# Basis indices.
I0, I1, R1, R2, R3, R12, R23, R123 = range(8)

BASIS_LABELS = ("i0", "i1", "1", "2", "3", "12", "23", "123")
LABEL_TO_BASIS = {lab: i for i, lab in enumerate(BASIS_LABELS)}

IDEMPOTENTS = (I0, I1)
RHOS = (R1, R2, R3, R12, R23, R123)

# (left, right) idempotent of each basis element.
_PROFILE = {
    I0: (I0, I0),
    I1: (I1, I1),
    R1: (I0, I1),
    R2: (I1, I0),
    R3: (I0, I1),
    R12: (I0, I0),
    R23: (I1, I1),
    R123: (I0, I1),
}

# Nonzero products of two rho-basis elements.
_RHO_PRODUCTS = {
    (R1, R2): R12,
    (R2, R3): R23,
    (R1, R23): R123,
    (R12, R3): R123,
}

# The nontrivial factorizations rho = mu2(b, c) with b, c both rhos.
RHO_FACTORIZATIONS = {
    R12: ((R1, R2),),
    R23: ((R2, R3),),
    R123: ((R1, R23), (R12, R3)),
}


def idempotent_profile(basis: int) -> Tuple[int, int]:
    """Return the (left, right) idempotent of a single basis element."""
    if basis not in _PROFILE:
        raise ValueError(f"not a basis element: {basis!r}")
    return _PROFILE[basis]


def basis_multiply(a: int, b: int) -> int | None:
    """Product of two basis elements; None encodes zero."""
    la, ra = _PROFILE[a]
    lb, rb = _PROFILE[b]
    if a in IDEMPOTENTS:
        return b if a == lb else None
    if b in IDEMPOTENTS:
        return a if b == ra else None
    return _RHO_PRODUCTS.get((a, b))


# PRODUCTS[a][b] is basis_multiply(a, b), read by index on hot paths.
PRODUCTS = tuple(tuple(basis_multiply(a, b) for b in range(8)) for a in range(8))
