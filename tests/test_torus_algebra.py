"""Torus algebra: multiplication table against an independent interval
oracle, plus algebraic properties."""

from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from diskfloer.torus_algebra import (
    BASIS_LABELS,
    I0,
    I1,
    IDEMPOTENTS,
    LABEL_TO_BASIS,
    PRODUCTS,
    R1,
    R2,
    R3,
    R12,
    R23,
    R123,
    RHO_FACTORIZATIONS,
    RHOS,
    basis_multiply,
    idempotent_profile,
)


@dataclass(frozen=True)
class AlgebraElement:
    """F2-linear combination of the eight basis elements, as a bit mask."""

    mask: int = 0

    @staticmethod
    def basis(i: int) -> "AlgebraElement":
        if not 0 <= i < 8:
            raise ValueError(f"not a basis element: {i!r}")
        return AlgebraElement(1 << i)

    @staticmethod
    def unit() -> "AlgebraElement":
        return AlgebraElement((1 << I0) | (1 << I1))

    @staticmethod
    def from_labels(labels) -> "AlgebraElement":
        mask = 0
        for lab in labels:
            mask ^= 1 << LABEL_TO_BASIS[lab]
        return AlgebraElement(mask)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.mask ^ other.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def terms(self):
        return [i for i in range(8) if (self.mask >> i) & 1]

    def basis_index(self) -> int:
        if not self.mask or self.mask & (self.mask - 1):
            raise ValueError("not a single basis element")
        return self.mask.bit_length() - 1


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the basis product table."""
    mask = 0
    for i in a.terms():
        for j in b.terms():
            p = basis_multiply(i, j)
            if p is not None:
                mask ^= 1 << p
    return AlgebraElement(mask)

# Independent oracle: a rho element is an ascending interval of arc labels
# ("1", "12", "123", ...); the product of two intervals is nonzero exactly
# when they are adjacent, and is their concatenation.  Idempotents are read
# off the interval endpoints by parity.
_INTERVAL = {R1: "1", R2: "2", R3: "3", R12: "12", R23: "23", R123: "123"}
_FROM_INTERVAL = {v: k for k, v in _INTERVAL.items()}


def oracle_profile(basis):
    if basis == I0:
        return (I0, I0)
    if basis == I1:
        return (I1, I1)
    word = _INTERVAL[basis]
    left = I0 if (int(word[0]) + 1) % 2 == 0 else I1
    right = I0 if int(word[-1]) % 2 == 0 else I1
    return (left, right)


def oracle_product(a, b):
    if a in IDEMPOTENTS:
        return b if oracle_profile(b)[0] == a else None
    if b in IDEMPOTENTS:
        return a if oracle_profile(a)[1] == b else None
    wa, wb = _INTERVAL[a], _INTERVAL[b]
    if int(wa[-1]) + 1 != int(wb[0]):
        return None
    return _FROM_INTERVAL.get(wa + wb)


def test_multiplication_table_matches_interval_oracle():
    for a in range(8):
        for b in range(8):
            assert basis_multiply(a, b) == oracle_product(a, b), (
                BASIS_LABELS[a], BASIS_LABELS[b])


def test_product_table_matches_interval_oracle():
    assert len(PRODUCTS) == 8 and all(len(row) == 8 for row in PRODUCTS)
    for a in range(8):
        for b in range(8):
            assert PRODUCTS[a][b] == oracle_product(a, b), (
                BASIS_LABELS[a], BASIS_LABELS[b])


def test_profiles_match_interval_oracle():
    for a in range(8):
        assert idempotent_profile(a) == oracle_profile(a)


def test_nonzero_rho_products_are_exactly_four():
    nonzero = {(a, b): basis_multiply(a, b)
               for a in RHOS for b in RHOS if basis_multiply(a, b) is not None}
    assert nonzero == {(R1, R2): R12, (R2, R3): R23,
                       (R1, R23): R123, (R12, R3): R123}


def test_factorizations_invert_the_product_table():
    seen = {}
    for a in RHOS:
        for b in RHOS:
            p = basis_multiply(a, b)
            if p is not None:
                seen.setdefault(p, set()).add((a, b))
    assert {k: set(v) for k, v in RHO_FACTORIZATIONS.items()} == seen
    for rho in (R1, R2, R3):
        assert rho not in RHO_FACTORIZATIONS


elements = st.integers(min_value=0, max_value=255).map(AlgebraElement)


@given(elements, elements, elements)
def test_associativity(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(elements, elements, elements)
def test_distributivity(a, b, c):
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
    assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)


@given(elements)
def test_unit(a):
    one = AlgebraElement.unit()
    assert multiply(one, a) == a
    assert multiply(a, one) == a


def test_idempotents_are_orthogonal_idempotents():
    e0 = AlgebraElement.basis(I0)
    e1 = AlgebraElement.basis(I1)
    assert multiply(e0, e0) == e0
    assert multiply(e1, e1) == e1
    assert not multiply(e0, e1)
    assert not multiply(e1, e0)


def test_labels_round_trip():
    for i, lab in enumerate(BASIS_LABELS):
        assert AlgebraElement.from_labels([lab]).basis_index() == i
    assert [LABEL_TO_BASIS[lab] for lab in ("3", "23", "2")] == [R3, R23, R2]
