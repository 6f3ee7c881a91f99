"""Independent checks of request results, run after the timed loop.

They use their own arithmetic (carry-less products, F2 elimination, a
degree-capped solve over F2) and touch the engine only to rebuild the
complexes a request worked on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from workloads import Request
from diskfloer import cfk, library, pairing, pipeline
from diskfloer.torus_algebra import basis_multiply, idempotent_profile


def _pmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _columns(d, n: int) -> List[Dict[int, int]]:
    """Column j of a differential as {row: polynomial mask}."""
    rows = d.entries
    return [{i: rows[i][j] for i in range(len(rows)) if rows[i][j]} for j in range(n)]


def _apply(cols: List[Dict[int, int]], vec: Sequence[int], rows: int) -> List[int]:
    out = [0] * rows
    for j, v in enumerate(vec):
        if v:
            for i, e in cols[j].items():
                out[i] ^= _pmul(e, v)
    return out


def f2_rank(vectors) -> int:
    """Rank over F2 of bitset vectors."""
    pivots: Dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def capped_solve(cols: List[Dict[int, int]], rows: int, z: Sequence[int],
                 cap: int) -> Optional[List[int]]:
    """A w with d w = z and every entry of degree < cap, found by expanding
    the polynomial identity coefficient by coefficient; None if there is
    none."""
    width = max([e.bit_length() for c in cols for e in c.values()] + [1]) + cap
    width = max(width, max([e.bit_length() for e in z] + [1]))

    def embed(poly: int, row: int) -> int:
        return poly << (row * width)

    pivots: Dict[int, tuple] = {}   # top bit -> (vector, combination)
    for j, col in enumerate(cols):
        for s in range(cap):
            v = 0
            for i, e in col.items():
                v ^= embed(e << s, i)
            t = 1 << (j * cap + s)
            while v:
                top = v.bit_length() - 1
                if top not in pivots:
                    pivots[top] = (v, t)
                    break
                pv, pt = pivots[top]
                v ^= pv
                t ^= pt
    rhs = 0
    for i, e in enumerate(z):
        rhs ^= embed(e, i)
    x = 0
    while rhs:
        top = rhs.bit_length() - 1
        if top not in pivots:
            return None
        pv, pt = pivots[top]
        rhs ^= pv
        x ^= pt
    w = [0] * len(cols)
    for j in range(len(cols)):
        for s in range(cap):
            if (x >> (j * cap + s)) & 1:
                w[j] ^= 1 << s
    return w


def _vector(gens, support: Dict[str, int]) -> List[int]:
    index = {f"{x}(x){y}": i for i, (x, y) in enumerate(gens)}
    vec = [0] * len(gens)
    for key, coeff in support.items():
        vec[index[key]] ^= coeff
    return vec


def check_distinguish(req: Request, out) -> List[str]:
    """A distinct witness is a nonzero cycle, the image of a candidate, and
    not a boundary; a bounding element w satisfies d w = img."""
    pattern, knot, morphism, bases = req.args
    outcome, support = out
    n1, n2 = library.cfd_unknot(), cfk.build_cfd(knot, bases)
    cm = pairing.induced_map(pattern, morphism, n1, n2)
    gens = cm.codomain.generators
    n = len(gens)
    full = _columns(cm.codomain.d, n)
    graded = _columns(pairing.box_tensor(pattern, n2, preserving_only=True).d, n)
    images = [cm.apply_generator((a, "v"))
              for a in pipeline.find_distinguished_generator(pattern)]
    problems = []
    if outcome == "distinct":
        w = _vector(gens, support)
        target = full if any(_apply(graded, w, n)) else graded
        if not any(w) or any(_apply(target, w, n)):
            problems.append("witness is not a nonzero cycle")
        if w not in images:
            problems.append("witness is not the image of a candidate")
        # F2 patterns have constant entries, so cap 1 is an exact F2 solve
        if capped_solve(target, n, w, 1) is not None:
            problems.append("witness bounds")
    else:
        if support is None:
            return problems
        w = _vector(gens, support)
        if not any(_apply(full, w, n) == img or _apply(graded, w, n) == img
                   for img in images):
            problems.append("d w differs from every candidate image")
    return problems


def check_stab(req: Request, out) -> List[str]:
    """U^order img bounds for every candidate, and U^(order-1) img does not
    for some candidate (acceptance criterion 7's degree-capped oracle)."""
    p, knot, morphism, bases = req.args
    order, _ = out
    if order is None:
        return []
    pattern = library.cfa_cable_p1(p)
    cm = pairing.induced_map(pattern, morphism, library.cfd_unknot(),
                             cfk.build_cfd(knot, bases))
    n = len(cm.codomain.generators)
    cols = _columns(cm.codomain.d, n)
    maxdeg = max([e.bit_length() - 1 for c in cols for e in c.values()] + [0])
    cap = maxdeg + 2 * order + 6
    images = [cm.apply_generator((a, "v"))
              for a in pipeline.find_distinguished_generator(pattern)]
    problems = []
    if any(capped_solve(cols, n, [e << order for e in img], cap) is None for img in images):
        problems.append(f"U^{order} img does not bound")
    if order > 0 and all(capped_solve(cols, n, [e << (order - 1) for e in img], cap)
                         is not None for img in images):
        problems.append(f"U^{order - 1} img bounds")
    return problems


def check_pair(req: Request, out) -> List[str]:
    """Rank of homology = n - 2 rank(d) for a complex over F2."""
    pattern, model = req.args
    box = pairing.box_tensor(pattern, cfk.build_cfd(model.cfk, model.bases))
    n = len(box.generators)
    cols = _columns(box.d, n)
    bits = [sum(1 << i for i, e in c.items() if e & 1) for c in cols]
    rank = n - 2 * f2_rank(bits)
    return [] if rank == out else [f"homology rank {out}, oracle {rank}"]


def check_morphisms(req: Request, out) -> List[str]:
    """Dimension of the morphism space = slots - 2 rank(L), with the
    homotopy differential L built here from the morphism equation."""
    (model,) = req.args
    n1, n2 = library.cfd_unknot(), cfk.build_cfd(model.cfk, model.bases)
    slots = [(x, a, z) for x in n1.generator_order for z in n2.generator_order
             for a in range(8)
             if idempotent_profile(a) == (n1.idempotent(x), n2.idempotent(z))]
    index = {s: i for i, s in enumerate(slots)}
    cols = []
    for x, c, z in slots:
        v = 0
        for s, a, y in n1.edges:           # (mu2 (x) I)(I (x) f) delta1_N1
            if y == x:
                prod = basis_multiply(a, c)
                if prod is not None:
                    v ^= 1 << index[(s, prod, z)]
        for s, b, w in n2.edges:           # (mu2 (x) I)(I (x) delta1_N2) f
            if s == z:
                prod = basis_multiply(c, b)
                if prod is not None:
                    v ^= 1 << index[(x, prod, w)]
        cols.append(v)
    dim = len(slots) - 2 * f2_rank(cols)
    return [] if dim == out else [f"morphism space dimension {out}, oracle {dim}"]


def check_validate(req: Request, out) -> List[str]:
    """lookup agrees with a scan of the operation table and of the family
    instances of matching length, on every operation word up to the cap."""
    pattern, cap = req.args
    words = {(op.source, op.word) for op in pattern.ops}
    for f in pattern.families:
        for i in range(cap + 1):
            words.add((f.source, f.prefix + f.repeat * i + f.suffix))
    problems = []
    for source, word in sorted(words):
        acc: Dict[str, int] = {}
        for op in pattern.ops:
            if op.source == source and op.word == word:
                acc[op.target] = acc.get(op.target, 0) ^ (1 << op.upow)
        for f in pattern.families:
            extra = len(word) - len(f.prefix) - len(f.suffix)
            if f.source != source or extra < 0 or extra % len(f.repeat):
                continue
            i = extra // len(f.repeat)
            if f.prefix + f.repeat * i + f.suffix == word:
                acc[f.target] = acc.get(f.target, 0) ^ (1 << (f.alpha * i + f.beta))
        acc = {t: m for t, m in acc.items() if m}
        if pattern.lookup(source, word) != acc:
            problems.append(f"lookup({source}, {word}) differs from the table scan")
    return problems


CHECKS = {
    "distinguish": check_distinguish,
    "stab_bound": check_stab,
    "pair": check_pair,
    "morphisms": check_morphisms,
    "validate": check_validate,
}


def check(req: Request, out) -> List[str]:
    return CHECKS[req.kind](req, out)
