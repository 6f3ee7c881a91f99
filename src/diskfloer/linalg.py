"""Linear algebra over F2 and over F2[U].

F2 vectors and matrix rows are bit-packed python ints.  F2[U] polynomials
are also ints: bit k is the coefficient of U^k, so addition is XOR and
multiplication is carry-less.  F2[U] is Euclidean, which gives a Smith
normal form, homology over F2[U], and U-torsion orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import itemgetter, or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# F2 matrices
# ---------------------------------------------------------------------------

class F2Matrix:
    """Rectangular matrix over F2; each row is a bitset over the columns.

    Viewed as a linear map F2^cols -> F2^rows, v -> M v.
    """

    def __init__(self, rows: int, cols: int, row_bits: Optional[List[int]] = None):
        self.rows = rows
        self.cols = cols
        self.row_bits = list(row_bits) if row_bits is not None else [0] * rows
        if len(self.row_bits) != rows:
            raise ValueError("row count mismatch")

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "F2Matrix":
        m = F2Matrix(rows, cols)
        for r, c in entries:
            m.toggle(r, c)
        return m

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, [1 << i for i in range(n)])

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        return (self.row_bits[r] >> c) & 1

    def toggle(self, r: int, c: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        self.row_bits[r] ^= 1 << c

    def column(self, c: int) -> int:
        v = 0
        for r in range(self.rows):
            if (self.row_bits[r] >> c) & 1:
                v |= 1 << r
        return v

    def columns(self) -> List[int]:
        return [self.column(c) for c in range(self.cols)]

    def apply(self, v: int) -> int:
        """Matrix-vector product; v is a bitset over the columns."""
        out = 0
        for r in range(self.rows):
            if bin(self.row_bits[r] & v).count("1") & 1:
                out |= 1 << r
        return out

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = [self.apply(c) for c in other.columns()]
        return F2Matrix.from_columns(self.rows, cols)

    @staticmethod
    def from_columns(rows: int, cols: Sequence[int]) -> "F2Matrix":
        m = F2Matrix(rows, len(cols))
        for c, v in enumerate(cols):
            r = 0
            while v:
                if v & 1:
                    m.row_bits[r] |= 1 << c
                v >>= 1
                r += 1
        return m

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.row_bits)

    def rank(self) -> int:
        return len(row_reduce(self.row_bits))

    def kernel_basis(self) -> List[int]:
        """Basis of ker(M) as bitsets over the columns, in reduced
        column-echelon form with pivots ordered by column index."""
        return row_reduce(self._eliminate()[2])

    def solve(self, b: int) -> Optional[int]:
        """One solution x of M x = b, or None."""
        reduced, tracks, _ = self._eliminate()
        x = 0
        for rv, rt in zip(reduced, tracks):
            low = rv & -rv
            if b & low:
                b ^= rv
                x ^= rt
        return x if b == 0 else None

    def _eliminate(self):
        """Gaussian elimination on the columns, in column order: each column
        is reduced against the earlier independent ones on their lowest set
        bit, tracking the original columns it combines.  Returns the reduced
        independent columns, their tracks, and the tracks of the columns that
        reduced to zero (a kernel basis)."""
        reduced: List[int] = []
        tracks: List[int] = []
        kernel: List[int] = []
        for c, v in enumerate(self.columns()):
            t = 1 << c
            for rv, rt in zip(reduced, tracks):
                low = rv & -rv
                if v & low:
                    v ^= rv
                    t ^= rt
            if v:
                reduced.append(v)
                tracks.append(t)
            else:
                kernel.append(t)
        return reduced, tracks, kernel


def row_reduce(rows: Sequence[int]) -> List[int]:
    """Reduced basis of the span of the given bitset vectors."""
    basis: List[int] = []
    for v in rows:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
    # full reduction
    basis.sort(key=lambda b: b & -b)
    for i, b in enumerate(basis):
        low = b & -b
        for j in range(len(basis)):
            if j != i and basis[j] & low:
                basis[j] ^= b
    return basis


# ---------------------------------------------------------------------------
# F2[U] polynomials as int bit masks
# ---------------------------------------------------------------------------

def pdeg(a: int) -> int:
    """Degree; -1 for the zero polynomial."""
    return a.bit_length() - 1


def pmul(a: int, b: int) -> int:
    res = 0
    shift = 0
    while b:
        if b & 1:
            res ^= a << shift
        b >>= 1
        shift += 1
    return res


def pdivmod(a: int, b: int):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = pdeg(b)
    while pdeg(a) >= db:
        shift = pdeg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pdivmod(a, b)[1]
    return a


def is_u_power(a: int) -> bool:
    return a != 0 and (a & (a - 1)) == 0


# ---------------------------------------------------------------------------
# F2[U] matrices and Smith normal form
# ---------------------------------------------------------------------------

class UMatrix:
    """Rectangular matrix over F2[U]; entries are polynomial bit masks."""

    def __init__(self, rows: int, cols: int, entries: Optional[List[List[int]]] = None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[0] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry shape mismatch")
            self.entries = [list(r) for r in entries]

    @staticmethod
    def identity(n: int) -> "UMatrix":
        m = UMatrix(n, n)
        for i in range(n):
            m.entries[i][i] = 1
        return m

    def copy(self) -> "UMatrix":
        return UMatrix(self.rows, self.cols, self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def matmul(self, other: "UMatrix") -> "UMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = UMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if not a:
                    continue
                orow = other.entries[k]
                for j in range(other.cols):
                    if orow[j]:
                        out.entries[i][j] ^= pmul(a, orow[j])
        return out

    def apply(self, v: Sequence[int]) -> List[int]:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        # one column per nonzero coordinate of v, read at its nonzero entries
        out = [0] * self.rows
        for j in compress(range(self.cols), v):
            x = v[j]
            for i in compress(range(self.rows), map(itemgetter(j), self.entries)):
                out[i] ^= pmul(self.entries[i][j], x)
        return out

    def max_degree(self) -> int:
        return max((pdeg(e) for row in self.entries for e in row if e), default=-1)

    def to_f2(self) -> F2Matrix:
        """The same matrix over F2; raises ValueError when an entry carries
        a power of U."""
        m = F2Matrix(self.rows, self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if e > 1:
                    raise ValueError(f"U-power in an F2 matrix at entry ({i}, {j})")
                if e:
                    m.toggle(i, j)
        return m


@dataclass
class SnfResult:
    s: UMatrix
    p: UMatrix
    q: UMatrix
    p_inv: UMatrix
    q_inv: UMatrix
    diagonal: List[int] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len([d for d in self.diagonal if d])


def _add_row(dst: List[int], src: List[int], f: int) -> None:
    """dst += f * src over F2[U], reading only src's nonzero entries."""
    for c in compress(range(len(src)), src):
        dst[c] ^= src[c] if f == 1 else pmul(f, src[c])


def _add_col(rows: List[List[int]], dst: int, src: int, f: int) -> None:
    """Column dst += f * column src over F2[U], in the rows where column
    src is nonzero."""
    for row in compress(rows, map(itemgetter(src), rows)):
        row[dst] ^= row[src] if f == 1 else pmul(f, row[src])


def _swap_cols(rows: List[List[int]], i: int, j: int) -> None:
    for row in rows:
        row[i], row[j] = row[j], row[i]


def _snf_pivot(s: List[List[int]], t: int) -> Optional[Tuple[int, int]]:
    """The first nonzero entry of minimal degree in (row, col) order of the
    trailing submatrix of s from (t, t), or None when it is zero.  Rows from
    t are zero before column t."""
    for i in range(t, len(s)):
        if 1 in s[i]:
            return i, s[i].index(1, t)
    # no unit: a smaller int never has a larger degree, so each row's
    # smallest nonzero entry has the row's minimal degree
    best, length = None, 0
    for i in range(t, len(s)):
        low = min(filter(None, s[i][t:]), default=0)
        if low and (best is None or low.bit_length() < length):
            best, length = i, low.bit_length()
    if best is None:
        return None
    row = s[best]
    return best, next(j for j in range(t, len(row)) if row[j].bit_length() == length)


def _snf_offender(s: List[List[int]], t: int) -> Optional[int]:
    """The first row below t with an entry right of t that the pivot
    s[t][t] does not divide, or None."""
    pivot = s[t][t]
    if pivot == 1:
        return None
    rows = range(t + 1, len(s))
    if is_u_power(pivot):
        # U^k divides exactly the entries whose k lowest bits are zero
        low = pivot - 1
        return next((i for i in rows if reduce(or_, s[i][t + 1:], 0) & low), None)
    return next((i for i in rows
                 if any(e and pdivmod(e, pivot)[1] for e in s[i][t + 1:])), None)


def smith_normal_form(m: UMatrix) -> SnfResult:
    """Smith normal form over F2[U]: S = P m Q with P, Q invertible and
    diagonal entries d1 | d2 | ...

    Pivoting picks the nonzero entry of minimal degree, ties broken by
    (row, col) order, so the output is deterministic.  The unit 1 is the
    only entry of degree 0, so while one is left the pivot is the first 1.
    Row and column operations touch only the nonzero entries they read.
    """
    s = m.copy()
    p = UMatrix.identity(m.rows)
    p_inv = UMatrix.identity(m.rows)
    q = UMatrix.identity(m.cols)
    q_inv = UMatrix.identity(m.cols)
    S, P, PI, Q, QI = s.entries, p.entries, p_inv.entries, q.entries, q_inv.entries

    def row_add(dst, src, f):
        # row_dst += f * row_src  (self-inverse over F2)
        _add_row(S[dst], S[src], f)
        _add_row(P[dst], P[src], f)
        _add_col(PI, src, dst, f)

    def col_add(dst, src, f):
        _add_col(S, dst, src, f)
        _add_col(Q, dst, src, f)
        _add_row(QI[src], QI[dst], f)

    t = 0
    n = min(s.rows, s.cols)
    while t < n:
        # rows and columns before t are cleared, so the search and the
        # clearing below read only the trailing submatrix
        best = _snf_pivot(S, t)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            S[t], S[bi] = S[bi], S[t]
            P[t], P[bi] = P[bi], P[t]
            _swap_cols(PI, t, bi)
        if bj != t:
            _swap_cols(S, t, bj)
            _swap_cols(Q, t, bj)
            QI[t], QI[bj] = QI[bj], QI[t]
        # clear row and column t
        pivot = S[t][t]
        dirty = False
        below = t + 1
        for i in list(compress(range(below, len(S)), map(itemgetter(t), S[below:]))):
            f, r = pdivmod(S[i][t], pivot)
            if f:
                row_add(i, t, f)
            if r:
                dirty = True
        for j in list(compress(range(below, len(S[t])), S[t][below:])):
            f, r = pdivmod(S[t][j], pivot)
            if f:
                col_add(j, t, f)
            if r:
                dirty = True
        if dirty:
            continue
        # divisibility fix-up: pivot must divide everything below-right
        offender = _snf_offender(S, t)
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    diag = [S[i][i] for i in range(n)]
    return SnfResult(s, p, q, p_inv, q_inv, diag)


def u_solve(d: UMatrix, z: Sequence[int], snf: Optional[SnfResult] = None) -> Optional[List[int]]:
    """One solution w of d w = z over F2[U], or None."""
    snf = snf or smith_normal_form(d)
    y = snf.p.apply(list(z))
    u = [0] * d.cols
    for i in range(d.rows):
        di = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if di == 0:
            if y[i]:
                return None
        else:
            qt, r = pdivmod(y[i], di)
            if r:
                return None
            u[i] = qt
    return snf.q.apply(u)


def u_torsion_order(z: Sequence[int], d: UMatrix, snf: Optional[SnfResult] = None):
    """min{k >= 0 : U^k [z] = 0 in homology}, or None for infinite order.

    Requires z to be a cycle.
    """
    if any(d.apply(list(z))):
        raise ValueError("not a cycle")
    snf = snf or smith_normal_form(d)
    y = snf.p.apply(list(z))
    order = 0
    for i in range(d.rows):
        di = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if di == 0:
            if y[i]:
                return None
            continue
        if y[i] == 0:
            continue
        g = pgcd(di, y[i])
        h = pdivmod(di, g)[0]
        if h == 1:
            continue
        if not is_u_power(h):
            return None
        order = max(order, pdeg(h))
    return order


# ---------------------------------------------------------------------------
# Homology summaries
# ---------------------------------------------------------------------------

@dataclass
class HomologySummary:
    ring: str                      # "F2" or "F2U"
    free_rank: int
    torsion_orders: List[int]      # exponents k of F2[U]/U^k summands
    representatives: List[List[int]]  # cycle vectors (poly entries; F2: bits)
    torsion_divisors: List[int] = field(default_factory=list)


def f2_homology(d: F2Matrix) -> HomologySummary:
    """Homology ker(d)/im(d) of a square F2 differential d.

    Kernel and image come from one elimination of d's columns.  Raises
    ValueError if d is not square or d o d != 0.
    """
    if d.rows != d.cols:
        raise ValueError("differential must be square")
    if not d.matmul(d).is_zero():
        raise ValueError("not a complex: d o d != 0")
    reduced, _, kernel = d._eliminate()
    # the reduced columns span im d and have distinct lowest set bits, so
    # they are an echelon basis of the image keyed by lowest set bit; each
    # cycle independent of what it holds so far is a representative
    pivots = {v & -v: v for v in reduced}
    cycles = row_reduce(kernel)
    reps = [v for v in cycles if _insert(pivots, v)]
    rank = len(cycles) - len(reduced)
    if rank != len(reps):
        raise AssertionError("homology rank bookkeeping broke")
    return HomologySummary(
        ring="F2",
        free_rank=rank,
        torsion_orders=[],
        representatives=[_bits_to_vec(v, d.cols) for v in reps],
    )


def _insert(pivots: Dict[int, int], v: int) -> bool:
    """Reduce v against an echelon basis keyed by lowest set bit; add the
    remainder and return True when v is independent of the basis."""
    while v:
        low = v & -v
        b = pivots.get(low)
        if b is None:
            pivots[low] = v
            return True
        v ^= b
    return False


def _bits_to_vec(bits: int, n: int) -> List[int]:
    return [(bits >> i) & 1 for i in range(n)]


def u_homology(d: UMatrix) -> HomologySummary:
    """Homology of a square differential over F2[U] (d*d = 0) as an
    F2[U]-module: free rank, torsion divisors, and representatives."""
    return _u_homology(d, lambda: smith_normal_form(d))


def _u_homology(d: UMatrix, reduce: Callable[[], SnfResult]) -> HomologySummary:
    """``u_homology`` with the Smith normal form of d taken from reduce(),
    which is called once d is known to be a complex."""
    if d.rows != d.cols:
        raise ValueError("differential must be square")
    if not d.matmul(d).is_zero():
        raise ValueError("not a complex: d^2 != 0")
    n = d.rows
    snf = reduce()
    rank = snf.rank
    k = n - rank
    # kernel basis: the columns of Q past the rank
    kmat = UMatrix(n, k, [row[rank:] for row in snf.q.entries])
    # image generators P^{-1} (d_i e_i) in kernel coordinates: as Q is
    # invertible, g = kmat c exactly when Q^{-1} g = (0, c)
    img_coords = []
    for i in range(rank):
        gen = [pmul(snf.p_inv.entries[r][i], snf.diagonal[i]) for r in range(n)]
        coords = snf.q_inv.apply(gen)
        if any(coords[:rank]):
            raise AssertionError("image not inside kernel")
        img_coords.append(coords[rank:])
    if rank:
        # the relation matrix, whose columns are the image generators
        rsnf = smith_normal_form(UMatrix(k, rank, [[c[i] for c in img_coords]
                                                   for i in range(k)]))
        divisors = rsnf.diagonal + [0] * (k - len(rsnf.diagonal))
        basis_change = rsnf.p_inv  # new basis of F2[U]^k
    else:
        divisors, basis_change = [0] * k, UMatrix.identity(k)
    free_rank = 0
    torsion_orders = []
    torsion_divisors = []
    reps = []
    for i in range(k):
        div = divisors[i]
        if div != 0 and pdeg(div) == 0:
            continue  # unit divisor: trivial summand
        reps.append(kmat.apply([basis_change.entries[r][i] for r in range(k)]))
        if div == 0:
            free_rank += 1
        else:
            torsion_divisors.append(div)
            if is_u_power(div):
                torsion_orders.append(pdeg(div))
    return HomologySummary(
        ring="F2U",
        free_rank=free_rank,
        torsion_orders=sorted(torsion_orders),
        representatives=reps,
        torsion_divisors=torsion_divisors,
    )


def u_solve_degree_capped(d: UMatrix, z: Sequence[int], cap: int) -> Optional[List[int]]:
    """Solve d w = z with deg(w entries) < cap by an exact F2 linear system.

    Independent of the Smith-form route: the polynomial identity is expanded
    coefficient by coefficient.  Solvable-with-cap implies solvable; the
    converse holds once cap exceeds the degrees appearing in any solution.
    """
    n, m = d.rows, d.cols
    # each generator's slot holds the degrees of d w and of z
    maxdeg = max(d.max_degree() + cap + 1, max((pdeg(e) for e in z), default=0))
    n_eq_bits = n * (maxdeg + 1)

    def embed(poly: int, gen: int) -> int:
        out = 0
        k = 0
        while poly:
            if poly & 1:
                out |= 1 << (gen * (maxdeg + 1) + k)
            poly >>= 1
            k += 1
        return out

    cols = []
    for j in range(m):
        for s in range(cap):
            v = 0
            for i in range(n):
                e = d.entries[i][j]
                if e:
                    v ^= embed(e << s, i)
            cols.append(v)
    rhs = 0
    for i in range(n):
        rhs ^= embed(z[i], i)
    mat = F2Matrix.from_columns(n_eq_bits, cols)
    x = mat.solve(rhs)
    if x is None:
        return None
    w = [0] * m
    for j in range(m):
        for s in range(cap):
            if (x >> (j * cap + s)) & 1:
                w[j] ^= 1 << s
    return w
