"""Independent oracles for the tests.

The F2 and F2[U] oracles share no code with ``diskfloer.linalg``: vectors
are bitset ints and every rank or solution comes from a plain Gaussian
elimination written out here; F2[U] matrices are read only through their
``entries``.  The type A oracles read a module's ``ops`` and ``families`` lists
directly, not its operation index, and look up every operation value by a
full scan, with no memo.
"""

from typing import Sequence

from diskfloer.torus_algebra import (
    BASIS_LABELS,
    RHO_FACTORIZATIONS,
    basis_multiply,
    idempotent_profile,
)


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



def _f2_solve(rows, nvars):
    """One solution, as a bitset, of the F2 equations given as bitsets over
    nvars unknowns with the right-hand side at bit nvars; None when there is
    none.  Free unknowns are set to zero."""
    pivots = {}  # pivot bit -> row, with no other pivot bit set
    for r in rows:
        for p, b in pivots.items():
            if r >> p & 1:
                r ^= b
        lhs = r & ((1 << nvars) - 1)
        if not lhs:
            if r:
                return None
            continue
        p = lhs.bit_length() - 1
        pivots = {q: b ^ r if b >> p & 1 else b for q, b in pivots.items()}
        pivots[p] = r
    return sum(1 << p for p, b in pivots.items() if b >> nvars & 1)


def diff_blocks(d):
    """Connected blocks of a square F2[U] differential: generators joined
    by nonzero entries, each block a sorted list of indices."""
    parent = list(range(d.rows))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, row in enumerate(d.entries):
        for j, e in enumerate(row):
            if e:
                parent[find(i)] = find(j)
    blocks = {}
    for v in range(d.rows):
        blocks.setdefault(find(v), []).append(v)
    return list(blocks.values())


def capped_solve(d, z, cap):
    """One w with d w = z over F2[U] and every entry of w of degree below
    cap, or None.  Entries of d join only generators of one connected block,
    so each block is solved alone: the polynomial identity is expanded
    coefficient by coefficient into F2 equations over the block's unknowns
    (the coefficients of U^0..U^(cap-1) in each entry of w)."""
    w = [0] * d.cols
    for block in diff_blocks(d):
        if not any(z[i] for i in block):
            continue
        top = max(d.entries[i][j].bit_length() for i in block for j in block)
        degrees = max(top + cap, max(z[i].bit_length() for i in block))
        nvars = len(block) * cap
        rows = []
        for i in block:
            for k in range(degrees):
                r = (z[i] >> k & 1) << nvars
                for bj, j in enumerate(block):
                    e = d.entries[i][j]
                    for s in range(min(cap, k + 1)):
                        if e >> (k - s) & 1:
                            r ^= 1 << (bj * cap + s)
                rows.append(r)
        x = _f2_solve(rows, nvars)
        if x is None:
            return None
        for bj, j in enumerate(block):
            w[j] = x >> (bj * cap) & ((1 << cap) - 1)
    return w


def _poly_mul(a, b):
    """Product in F2[U] of two coefficient bitmasks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_divmod(a, b):
    """Quotient and remainder in F2[U] of two coefficient bitmasks."""
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def reference_snf(entries):
    """Smith normal form of the F2[U] matrix with the given rows, by the
    full-scan elimination the engine's ``smith_normal_form`` must reproduce
    exactly.  Each step takes the first entry of minimal degree of the
    trailing submatrix in (row, col) order as the pivot, clears its row and
    column, and when the pivot leaves a remainder or does not divide an
    entry below and right of it (first such row added to the pivot row)
    repeats the step.  Returns a dict with ``s``, ``p``, ``q``, ``p_inv``
    and ``q_inv`` as lists of rows and ``diagonal``, with S = P m Q."""
    rows, cols = len(entries), len(entries[0]) if entries else 0
    s = [list(r) for r in entries]
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    p_inv = [list(r) for r in p]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]
    q_inv = [list(r) for r in q]

    def row_swap(i, j):
        for m in (s, p):
            m[i], m[j] = m[j], m[i]
        for r in p_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for m in (s, q):
            for r in m:
                r[i], r[j] = r[j], r[i]
        q_inv[i], q_inv[j] = q_inv[j], q_inv[i]

    def row_add(dst, src, f):
        for m in (s, p):
            for c in range(len(m[src])):
                m[dst][c] ^= _poly_mul(f, m[src][c])
        for r in p_inv:
            r[src] ^= _poly_mul(f, r[dst])

    def col_add(dst, src, f):
        for m in (s, q):
            for r in m:
                r[dst] ^= _poly_mul(f, r[src])
        for c in range(cols):
            q_inv[src][c] ^= _poly_mul(f, q_inv[dst][c])

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = s[i][j]
                if e and (best is None
                          or e.bit_length() < s[best[0]][best[1]].bit_length()):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if s[i][t]:
                f, r = _poly_divmod(s[i][t], s[t][t])
                row_add(i, t, f)
                dirty = dirty or bool(r)
        for j in range(t + 1, cols):
            if s[t][j]:
                f, r = _poly_divmod(s[t][j], s[t][t])
                col_add(j, t, f)
                dirty = dirty or bool(r)
        if dirty:
            continue
        offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                         if s[i][j] and _poly_divmod(s[i][j], s[t][t])[1]), None)
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return {"s": s, "p": p, "q": q, "p_inv": p_inv, "q_inv": q_inv,
            "diagonal": [s[i][i] for i in range(min(rows, cols))]}


def dense_apply(entries, v):
    """The product of the F2[U] matrix with the given rows and the vector v,
    summed over every entry."""
    out = []
    for row in entries:
        acc = 0
        for e, x in zip(row, v):
            acc ^= _poly_mul(e, x)
        out.append(acc)
    return out


# -- type A modules ----------------------------------------------------------

def scan_lookup(pattern, source, word):
    """m(source, word) by a scan of every operation and of every family
    instance up to the word's length."""
    acc = {}
    for op in pattern.ops:
        if op.source == source and op.word == word:
            acc[op.target] = acc.get(op.target, 0) ^ (1 << op.upow)
    for f in pattern.families:
        for i in range(len(word) + 1):
            if f.source == source and f.prefix + f.repeat * i + f.suffix == word:
                acc[f.target] = acc.get(f.target, 0) ^ (1 << (f.alpha * i + f.beta))
    return {t: m for t, m in acc.items() if m}


def scan_residual(pattern, src, word):
    """The A-infinity relation at (src, word): the sum of m(m(src, w1), w2)
    over all splits word = w1 w2 and of m(src, ...) over all products of two
    adjacent letters."""
    acc = {}

    def add(target, mask):
        acc[target] = acc.get(target, 0) ^ mask

    for j in range(len(word) + 1):
        for mid, poly1 in scan_lookup(pattern, src, word[:j]).items():
            for tgt, poly2 in scan_lookup(pattern, mid, word[j:]).items():
                add(tgt, _poly_mul(poly1, poly2))
    for idx in range(len(word) - 1):
        prod = basis_multiply(word[idx], word[idx + 1])
        if prod is not None:
            contracted = word[:idx] + (prod,) + word[idx + 2:]
            for tgt, poly in scan_lookup(pattern, src, contracted).items():
                add(tgt, poly)
    return {t: m for t, m in acc.items() if m}


def scan_outputs(pattern, src, cap):
    """(word, target) of each distinct finite operation from src, words in
    order of first appearance and targets in order of first appearance for
    each word, then of each family instance with parameter at most cap."""
    targets = {}
    for op in pattern.ops:
        if op.source == src:
            targets.setdefault(op.word, {}).setdefault(op.target)
    return ([(word, t) for word, ts in targets.items() for t in ts]
            + [(f.prefix + f.repeat * i + f.suffix, f.target)
               for f in pattern.families if f.source == src
               for i in range(cap + 1)])


def _compat(pattern, src, word, target):
    src_idem, tgt_idem = pattern.idempotent(src), pattern.idempotent(target)
    labels = [BASIS_LABELS[a] for a in word]
    if not word:
        return [] if src_idem == tgt_idem else [
            f"m1 changes idempotent: {src}->{target}"]
    profiles = [idempotent_profile(a) for a in word]
    if any(p[1] != q[0] for p, q in zip(profiles, profiles[1:])):
        return [f"non-composable word on {src}: {labels}"]
    if (profiles[0][0], profiles[-1][1]) != (src_idem, tgt_idem):
        return [f"idempotent mismatch on {src} --{labels}--> {target}"]
    return []


def reference_validate(pattern, cap):
    """The problem list of ``TypeAStructure.validate(cap)``: U-powers on an
    F2 module, idempotent checks on instances 0..2, then the A-infinity
    relation at every word where a term can be nonzero (two output words
    concatenated, or one with a letter factored), each residual summed from
    ``scan_lookup``."""
    problems = []
    if pattern.ring == "F2":
        problems += [f"U-power on F2 module: {op}" for op in pattern.ops if op.upow]
        problems += [f"U-power on F2 module: {f}" for f in pattern.families
                     if f.alpha or f.beta]
    for src in pattern.generator_order:
        for word, target in scan_outputs(pattern, src, 2):
            problems += _compat(pattern, src, word, target)
    for src in pattern.generator_order:
        candidates = set()
        for word, target in scan_outputs(pattern, src, cap):
            candidates.update(word + word2
                              for word2, _ in scan_outputs(pattern, target, cap))
            for idx, letter in enumerate(word):
                for pair in RHO_FACTORIZATIONS.get(letter, ()):
                    candidates.add(word[:idx] + pair + word[idx + 1:])
        for word in sorted(candidates):
            residual = scan_residual(pattern, src, word)
            if residual:
                labels = [BASIS_LABELS[a] for a in word]
                problems.append(f"A-infinity relation fails at ({src}, {labels}): "
                                f"{sorted(residual)}")
    return problems
