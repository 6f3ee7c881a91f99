"""Linear algebra over F2 and F2[U]: brute-force oracles on small sizes,
frozen examples, and randomized structural properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_block_complex, random_umatrix
from diskfloer import linalg
from diskfloer.linalg import (
    F2Matrix,
    UMatrix,
    f2_homology,
    is_u_power,
    pdeg,
    pdivmod,
    pgcd,
    pmul,
    row_reduce,
    smith_normal_form,
    u_homology,
    u_solve,
    u_solve_degree_capped,
    u_torsion_order,
)
from oracles import (
    capped_solve,
    dense_apply,
    diff_blocks,
    f2_rank,
    in_span,
    reference_snf,
    vec_to_bits,
)

# -- F2 matrices -------------------------------------------------------------

small = st.integers(min_value=1, max_value=5)


@given(small, small, st.randoms(use_true_random=False))
def test_kernel_and_rank_against_brute_force(rows, cols, rng):
    m = F2Matrix(rows, cols)
    for r in range(rows):
        m.row_bits[r] = rng.getrandbits(cols)
    kernel = m.kernel_basis()
    for v in kernel:
        assert m.apply(v) == 0
    brute_kernel = [v for v in range(1 << cols) if m.apply(v) == 0]
    assert 1 << len(kernel) == len(brute_kernel)
    assert m.rank() + len(kernel) == cols


@given(small, small, st.randoms(use_true_random=False))
def test_solve_against_brute_force(rows, cols, rng):
    m = F2Matrix(rows, cols)
    for r in range(rows):
        m.row_bits[r] = rng.getrandbits(cols)
    b = rng.getrandbits(rows)
    x = m.solve(b)
    brute = [v for v in range(1 << cols) if m.apply(v) == b]
    if brute:
        assert x is not None and m.apply(x) == b
    else:
        assert x is None


def test_matmul_identity_and_composition():
    m = F2Matrix.from_entries(3, 2, [(0, 0), (1, 1), (2, 0), (2, 1)])
    assert F2Matrix.identity(3).matmul(m).row_bits == m.row_bits
    assert m.matmul(F2Matrix.identity(2)).row_bits == m.row_bits
    v = 0b11
    assert m.matmul(F2Matrix.identity(2)).apply(v) == m.apply(v)


def test_row_reduce_is_a_basis_of_the_span():
    rows = [0b110, 0b011, 0b101]
    basis = row_reduce(rows)
    assert len(basis) == 2  # third row is the sum of the first two


# -- F2[U] polynomial arithmetic --------------------------------------------

polys = st.integers(min_value=0, max_value=1023)


@given(polys, polys, polys)
def test_pmul_ring_axioms(a, b, c):
    assert pmul(a, b) == pmul(b, a)
    assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))
    assert pmul(a, b ^ c) == pmul(a, b) ^ pmul(a, c)


@given(polys, st.integers(min_value=1, max_value=1023))
def test_pdivmod(a, b):
    q, r = pdivmod(a, b)
    assert pmul(q, b) ^ r == a
    assert pdeg(r) < pdeg(b)


@given(polys, polys)
def test_pgcd_divides(a, b):
    g = pgcd(a, b)
    if g:
        assert pdivmod(a, g)[1] == 0
        assert pdivmod(b, g)[1] == 0


def test_is_u_power():
    assert is_u_power(1) and is_u_power(8)
    assert not is_u_power(0) and not is_u_power(3)


# -- Smith normal form -------------------------------------------------------

def _assert_snf_contract(m):
    snf = smith_normal_form(m)
    # S = P m Q
    assert snf.p.matmul(m).matmul(snf.q).entries == snf.s.entries
    # transforms invertible
    assert snf.p.matmul(snf.p_inv).entries == UMatrix.identity(m.rows).entries
    assert snf.q.matmul(snf.q_inv).entries == UMatrix.identity(m.cols).entries
    # S diagonal with divisibility chain
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.s.entries[i][j] == 0
    diag = snf.diagonal
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert pdivmod(b, a)[1] == 0
        if a == 0:
            assert b == 0
    return snf


def test_snf_frozen_examples():
    # diag(1, U^2) is already in normal form
    m = UMatrix(2, 2, [[1, 0], [0, 0b100]])
    snf = _assert_snf_contract(m)
    assert snf.diagonal == [1, 0b100]
    # [[U, U], [U, U]] ~ diag(U, 0)
    m = UMatrix(2, 2, [[2, 2], [2, 2]])
    snf = _assert_snf_contract(m)
    assert snf.diagonal == [2, 0]
    # [[1, U], [U, 0]] has unit pivot; second divisor is U^2
    m = UMatrix(2, 2, [[1, 2], [2, 0]])
    snf = _assert_snf_contract(m)
    assert snf.diagonal == [1, 0b100]


def test_snf_random_contract():
    rng = random.Random(1)
    for _ in range(50):
        _assert_snf_contract(random_umatrix(rng, max_dim=6))


# Entry distributions for the differential tests of the Smith form: with no
# unit the pivot search falls back to minimal degrees, U-powers take the
# bitmask divisibility test, and non-U-powers such as 1+U and U+U^2 take the
# division test.
SNF_ENTRIES = {
    "mixed": st.integers(0, 15),
    "no unit": st.integers(0, 15).filter(lambda e: e != 1),
    "U-powers": st.sampled_from([0, 0, 1, 2, 4, 8]),
    "non-U-powers": st.sampled_from([0, 0, 3, 5, 6, 7, 12, 14]),
}


@st.composite
def snf_matrices(draw, entries):
    """A matrix of up to 10 x 10 entries drawn from ``entries``, with some
    rows and columns set to zero."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    m = UMatrix(rows, cols, draw(st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows // 2)):
        m.entries[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2)):
        for row in m.entries:
            row[j] = 0
    return m


@pytest.mark.parametrize("kind", sorted(SNF_ENTRIES))
@settings(deadline=None)
@given(data=st.data())
def test_snf_matches_reference_scan(kind, data):
    m = data.draw(snf_matrices(SNF_ENTRIES[kind]))
    snf = smith_normal_form(m)
    ref = reference_snf(m.entries)
    for name in ("s", "p", "q", "p_inv", "q_inv"):
        assert getattr(snf, name).entries == ref[name], name
    assert snf.diagonal == ref["diagonal"]


@given(snf_matrices(SNF_ENTRIES["mixed"]), st.sampled_from(["zero", "full", "mixed"]),
       st.randoms(use_true_random=False))
def test_apply_matches_dense_reference(m, support, rng):
    if support == "zero":
        v = [0] * m.cols
    elif support == "full":
        v = [rng.randrange(1, 16) for _ in range(m.cols)]
    else:
        v = [rng.randrange(16) for _ in range(m.cols)]
    assert m.apply(v) == dense_apply(m.entries, v)


def test_u_solve_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        d = random_umatrix(rng, max_dim=6)
        w = [rng.getrandbits(3) for _ in range(d.cols)]
        z = d.apply(w)
        sol = u_solve(d, z)
        assert sol is not None
        assert d.apply(sol) == z


def test_u_solve_unsolvable():
    d = UMatrix(2, 1, [[2], [0]])  # image is U * F2[U] in the first slot
    assert u_solve(d, [1, 0]) is None
    assert u_solve(d, [0, 1]) is None
    assert u_solve(d, [4, 0]) == [2]


# -- torsion orders ----------------------------------------------------------

def test_u_torsion_order_frozen():
    # d e2 = U^3 e1: [e1] has torsion order 3, [e2] is not a cycle
    d = UMatrix(2, 2, [[0, 0b1000], [0, 0]])
    assert u_torsion_order([1, 0], d) == 3
    assert u_torsion_order([0b1000, 0], d) == 0  # already a boundary
    with pytest.raises(ValueError):
        u_torsion_order([0, 1], d)
    # no differential: infinite order
    z = UMatrix(1, 1)
    assert u_torsion_order([1], z) is None
    assert u_torsion_order([0], z) == 0


def test_u_torsion_order_against_capped_oracle():
    rng = random.Random(3)
    for _ in range(25):
        d = random_block_complex(rng, max_half=4)
        h = d.rows // 2
        z = [rng.getrandbits(3) if i < h else 0 for i in range(d.rows)]
        order = u_torsion_order(z, d)
        cap = d.max_degree() + 12
        if order is None:
            for k in range(6):
                shifted = [e << k for e in z]
                assert u_solve_degree_capped(d, shifted, cap) is None
        else:
            shifted = [e << order for e in z]
            assert u_solve_degree_capped(d, shifted, cap) is not None
            if order:
                shifted = [e << (order - 1) for e in z]
                assert u_solve_degree_capped(d, shifted, cap) is None



def test_blockwise_capped_solve_matches_the_dense_expansion():
    # direct sums of random complexes have several connected blocks, which
    # the oracle solves one at a time; linalg expands the whole matrix
    rng = random.Random(7)
    solvable = 0
    for _ in range(60):
        parts = [random_block_complex(rng, max_half=3)
                 for _ in range(rng.randrange(1, 4))]
        n = sum(part.rows for part in parts)
        d, off = UMatrix(n, n), 0
        for part in parts:
            for i, row in enumerate(part.entries):
                d.entries[off + i][off:off + part.cols] = row
            off += part.rows
        assert len(diff_blocks(d)) >= len(parts)
        cap = rng.randrange(3, 7)
        if rng.random() < 0.5:
            z = d.apply([rng.getrandbits(cap - 2) for _ in range(n)])
        else:
            z = [rng.getrandbits(3) if rng.random() < 0.5 else 0 for _ in range(n)]
        w = capped_solve(d, z, cap)
        assert (w is None) == (u_solve_degree_capped(d, z, cap) is None)
        if w is not None:
            solvable += 1
            assert d.apply(w) == z
            assert all(e.bit_length() <= cap for e in w)
    assert 10 < solvable < 60


def test_degree_capped_solve_keeps_high_degree_z_in_its_slot():
    # d e0 = e1: with cap 1 no w reaches U^3, and U^3 in the first slot
    # must not be read as U^0 in the second
    d = UMatrix(2, 2, [[0, 0], [1, 0]])
    assert u_solve_degree_capped(d, [0b1000, 0], 1) is None
    assert u_solve_degree_capped(d, [0, 0b1000], 1) is None
    assert u_solve_degree_capped(d, [0, 0b1000], 4) == [0b1000, 0]
    d = UMatrix(2, 1, [[0], [1]])
    assert u_solve_degree_capped(d, [0b1000, 0], 1) is None


@given(st.randoms(use_true_random=False))
def test_degree_capped_solve_against_blockwise_oracle_on_high_degree_z(rng):
    d = random_block_complex(rng, max_half=3, max_deg=2)
    cap = rng.randrange(1, 4)
    z = d.apply([rng.getrandbits(cap) for _ in range(d.cols)])
    # one entry of z of degree above d.max_degree() + cap
    top = max(d.max_degree(), 0) + cap
    z[rng.randrange(d.rows)] ^= 1 << rng.randrange(top + 1, top + 5)
    w = u_solve_degree_capped(d, z, cap)
    assert (w is None) == (capped_solve(d, z, cap) is None)
    if w is not None:
        assert d.apply(w) == z

# -- homology ----------------------------------------------------------------

def test_f2_homology_five_generator_example():
    # basis (c, c', b, b', d) with dc' = c and db' = b + d
    d = F2Matrix.from_entries(5, 5, [(0, 1), (2, 3), (4, 3)])
    summary = f2_homology(d)
    assert summary.free_rank == 1
    rep = vec_to_bits(summary.representatives[0])
    # the representative is homologous to b (index 2): their difference
    # must lie in the image of d
    image = [d.column(c) for c in range(5)]
    target = rep ^ (1 << 2)
    assert in_span(target, image)


def test_f2_homology_rejects_non_complex():
    # a differential maps the chain group to itself
    d = F2Matrix.from_entries(2, 3, [(0, 1)])
    with pytest.raises(ValueError, match="must be square"):
        f2_homology(d)


def test_f2_homology_rejects_square_non_differential():
    # d a = b, d b = a: d o d is the identity, so (F2^2, d) is no complex
    d = F2Matrix.from_entries(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="not a complex"):
        f2_homology(d)


def _mixed_f2_complex(rng, max_half=6):
    """A random square F2 differential [[0, A], [0, 0]] conjugated by
    random elementary matrices E = I + e_ij (E = E^-1 over F2), so that
    its blocks are mixed: row i += row j, then column j += column i."""
    d = random_block_complex(rng, max_half=max_half, max_deg=0).to_f2()
    n = d.rows
    for _ in range(rng.randrange(3 * n + 1)):
        i, j = rng.sample(range(n), 2)
        d.row_bits[i] ^= d.row_bits[j]
        for r in range(n):
            if (d.row_bits[r] >> i) & 1:
                d.row_bits[r] ^= 1 << j
    return d


def test_f2_homology_reduces_once(monkeypatch):
    calls = {"row_reduce": 0, "matmul": 0}
    row_reduce_orig, matmul_orig = linalg.row_reduce, F2Matrix.matmul

    def counting_row_reduce(rows):
        calls["row_reduce"] += 1
        return row_reduce_orig(rows)

    def counting_matmul(self, other):
        calls["matmul"] += 1
        return matmul_orig(self, other)

    monkeypatch.setattr(linalg, "row_reduce", counting_row_reduce)
    monkeypatch.setattr(F2Matrix, "matmul", counting_matmul)
    d = _mixed_f2_complex(random.Random(6), max_half=6)
    summary = f2_homology(d)
    assert summary.free_rank > 0
    assert calls == {"row_reduce": 1, "matmul": 1}


def _columns(m):
    return [sum(((row >> c) & 1) << r for r, row in enumerate(m.row_bits))
            for c in range(m.cols)]


def _is_cycle(m, v):
    return all(bin(row & v).count("1") % 2 == 0 for row in m.row_bits)


def _assert_homology_oracle(summary, d):
    """free rank = dim ker d - rank(im d); representatives are cycles
    independent of the image and of each other."""
    image = _columns(d)
    rank_d = f2_rank(d.row_bits)
    rank_image = f2_rank(image)
    assert summary.ring == "F2" and summary.torsion_orders == []
    assert summary.free_rank == d.cols - rank_d - rank_image
    reps = [vec_to_bits(r) for r in summary.representatives]
    assert len(reps) == summary.free_rank
    assert all(len(r) == d.cols for r in summary.representatives)
    assert all(_is_cycle(d, r) for r in reps)
    assert f2_rank(reps + image) == rank_image + summary.free_rank


@given(st.randoms(use_true_random=False))
def test_f2_homology_against_elimination_oracle(rng):
    d = _mixed_f2_complex(rng)
    n = d.rows
    rank_d = f2_rank(d.row_bits)
    summary = f2_homology(d)
    assert summary.free_rank == n - 2 * rank_d
    _assert_homology_oracle(summary, d)


def test_f2_homology_rank_matches_snf_rank():
    rng = random.Random(4)
    for _ in range(100):
        d_f2 = random_block_complex(rng, max_half=4, max_deg=0)
        n = d_f2.rows
        f2 = d_f2.to_f2()
        summary = f2_homology(f2)
        snf = smith_normal_form(d_f2)
        assert summary.free_rank == n - 2 * snf.rank


def test_u_homology_frozen():
    # d e2 = U^2 e1: H = F2[U]/U^2
    d = UMatrix(2, 2, [[0, 0b100], [0, 0]])
    summary = u_homology(d)
    assert summary.free_rank == 0
    assert summary.torsion_orders == [2]
    # zero differential: free module
    summary = u_homology(UMatrix(3, 3))
    assert summary.free_rank == 3
    assert not summary.torsion_orders


def _mixed_u_complex(rng, max_half=4):
    """A random d = [[0, A], [0, 0]] (``random_block_complex``) conjugated
    by random elementary matrices E = I + f e_ij (E = E^-1 over F2[U]), so
    that its cycles and boundaries are not spanned by basis vectors: row
    i += f row j, then column j += f column i.  Returns (d, A)."""
    d = random_block_complex(rng, max_half=max_half, max_deg=2)
    n, h = d.rows, d.rows // 2
    a = UMatrix(h, h, [row[h:] for row in d.entries[:h]])
    for _ in range(rng.randrange(2 * n + 1)):
        i, j = rng.sample(range(n), 2)
        f = rng.randrange(1, 8)
        for c in range(n):
            d.entries[i][c] ^= pmul(f, d.entries[j][c])
        for r in range(n):
            d.entries[r][j] ^= pmul(f, d.entries[r][i])
    return d, a


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_u_homology_against_block_smith_form(rng):
    # H(d) = coker A + ker A: free rank 2 (h - rank A), and the torsion of
    # coker A, whose invariant factors are the non-unit diagonal of SNF(A)
    d, a = _mixed_u_complex(rng)
    summary = u_homology(d)
    snf = smith_normal_form(a)
    assert summary.free_rank == 2 * (a.rows - snf.rank)
    assert sorted(summary.torsion_divisors) == sorted(
        x for x in snf.diagonal if pdeg(x) > 0)
    assert len(summary.representatives) == (summary.free_rank
                                            + len(summary.torsion_divisors))
    for rep in summary.representatives:
        assert not any(d.apply(rep))


def test_u_homology_representatives_are_cycles():
    rng = random.Random(5)
    for _ in range(25):
        d = random_block_complex(rng, max_half=4)
        summary = u_homology(d)
        for rep in summary.representatives:
            assert not any(d.apply(rep))
        # Euler-characteristic style check: free rank equals
        # n - 2 * rank(d) over the fraction field
        assert summary.free_rank == d.rows - 2 * smith_normal_form(d).rank
