"""End-to-end decision procedures for satellite disk invariants.

The pipeline pairs a pattern module with the unknot complement to locate a
distinguished generator, checks the no-cancellation criterion, computes the
image of a difference morphism, and decides whether the satellite disks stay
distinguishable.  Cable patterns additionally yield stabilization-distance
lower bounds through U-torsion orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .cfk import CfkComplex, SimplifiedBases, build_cfd
from .library import cfa_cable_p1, cfa_longitude, cfd_unknot
from .linalg import is_u_power
from .pairing import BoxComplex, box_tensor, induced_map
from .structures import TypeAFamily, TypeAOp, TypeAStructure, TypeDMorphism, TypeDStructure
from .torus_algebra import I0


@dataclass
class Verdict:
    outcome: str                      # "distinct" | "not-distinguished"
    witness: Optional[Dict[str, int]] = None   # generator label -> poly mask
    bounding: Optional[Dict[str, int]] = None  # element whose boundary kills it
    candidates: List[str] = field(default_factory=list)
    criterion: Dict[str, bool] = field(default_factory=dict)  # per candidate
    theta_nonzero: bool = False
    detail: str = ""


def find_distinguished_generator(p: TypeAStructure) -> List[str]:
    """Idempotent-0 generators g with g (x) v a cycle generating the
    homology of the pairing with the unknot complement.

    The pattern must pair to homology of rank one (free rank one without
    torsion over F2[U]); otherwise it is rejected.
    """
    return _candidates(p, box_tensor(p, cfd_unknot()))


def _candidates(p: TypeAStructure, box: BoxComplex) -> List[str]:
    """``find_distinguished_generator`` on box, the pairing of p with the
    unknot complement."""
    summary = box.homology()
    if summary.free_rank != 1 or summary.torsion_orders or any(
            not is_u_power(t) for t in summary.torsion_divisors):
        raise ValueError(
            f"{p.name or 'pattern'} is not unknotted at the Floer level: "
            f"pairing homology has rank {summary.free_rank} with torsion "
            f"{summary.torsion_divisors}")
    rep = summary.representatives[0]
    n = len(box.generators)
    candidates = []
    for g in p.generator_order:
        if p.idempotent(g) != I0:
            continue
        idx = box.index((g, "v"))
        vec = [1 if i == idx else 0 for i in range(n)]
        if any(box.d.apply(vec)):
            continue
        # homology is free of rank one and units of F2[U] are 1, so
        # [vec] is a unit multiple of [rep] iff vec + rep bounds
        if box.solve([v ^ r for v, r in zip(vec, rep)]) is not None:
            candidates.append(g)
    return candidates


def no_cancellation_check(p: TypeAStructure, a: str
                          ) -> Tuple[bool, List[Union[TypeAOp, TypeAFamily]]]:
    """Whether no filtration-preserving operation outputs the generator a.

    Operations without complete filtration data count as filtration
    preserving, so a pass is conservative.  Whether an operation preserves
    the filtration depends only on its source and target, so each violating
    operation or family is reported once.
    """
    if a not in p.gen_info:
        raise ValueError(f"unknown generator {a}")
    violators = [op for op in p.ops + p.families
                 if op.target == a and p.preserves_filtration(op.source, a)]
    return (not violators, violators)


def _theta_nonzero(f: TypeDMorphism, n1: TypeDStructure,
                   n2: TypeDStructure) -> bool:
    """Pair with the longitude pattern: the image class of l (x) v must be
    nonzero for the companion-level hypothesis to hold."""
    cm = induced_map(cfa_longitude(), f, n1, n2)
    img = cm.apply_generator(("l", "v"))
    return any(img) and cm.codomain.solve(img) is None


def _named(box: BoxComplex, vec: List[int]) -> Dict[str, int]:
    return {f"{x}(x){y}": c for (x, y), c in zip(box.generators, vec) if c}


def distinguish(p: TypeAStructure, k: CfkComplex, f: TypeDMorphism,
                bases: Optional[SimplifiedBases] = None) -> Verdict:
    """Decide whether the difference morphism stays nonzero on homology
    after applying the pattern.

    The ground truth is computed by homology; the no-cancellation
    prediction is reported per candidate alongside it.
    """
    if p.fragment:
        raise ValueError(f"{p.name or 'pattern'} is a fragment: only the "
                         "no-cancellation check is supported")
    n1, n2 = cfd_unknot(), build_cfd(k, bases)
    if not _theta_nonzero(f, n1, n2):
        return Verdict(
            outcome="not-distinguished", theta_nonzero=False,
            detail="companion-level hypothesis fails: the longitude pairing "
                   "class is zero; not distinguishable by this method at the "
                   "companion level")
    cm = induced_map(p, f, n1, n2)
    candidates = _candidates(p, cm.domain)
    criterion = {a: no_cancellation_check(p, a)[0] for a in candidates}
    # Homology classes are read off in the associated graded of the pairing
    # complex: only filtration-preserving differential terms can cancel them.
    gr = box_tensor(p, n2, preserving_only=True)
    shown, bounding = None, None   # the first candidate and what bounds it
    for a in candidates:
        img = cm.apply_generator((a, "v"))
        # an image with no class in the graded complex falls back to the
        # full pairing complex; only a nonzero image can fail to bound
        w = (cm.codomain if any(gr.d.apply(img)) else gr).solve(img)
        if w is None:
            return Verdict(outcome="distinct", witness=_named(cm.codomain, img),
                           candidates=candidates, criterion=criterion,
                           theta_nonzero=True,
                           detail=f"image of {a} (x) v is nonzero in homology")
        if shown is None:
            shown, bounding = a, _named(cm.codomain, w)
    return Verdict(outcome="not-distinguished", bounding=bounding,
                   candidates=candidates, criterion=criterion,
                   theta_nonzero=True,
                   detail=f"image of every candidate bounds"
                          f" (shown for {shown})")


def stab_bound(p: int, k: CfkComplex, f: TypeDMorphism,
               bases: Optional[SimplifiedBases] = None) -> Tuple[Optional[int], Optional[int]]:
    """U-torsion order of the induced class in the minus-flavor cable
    pairing, with the stabilization-distance lower bound it certifies.

    Returns (order, bound); order None means the class has infinite order.
    """
    pattern = cfa_cable_p1(p)
    cm = induced_map(pattern, f, cfd_unknot(), build_cfd(k, bases))
    best = 0
    for a in _candidates(pattern, cm.domain):
        order = cm.codomain.torsion_order(cm.apply_generator((a, "v")))
        if order is None:
            return None, None
        best = max(best, order)
    return best, best


@dataclass
class SwapReport:
    outcome: str                      # "nontrivial" | "identity"
    witness: Optional[Tuple[Dict[str, int], Dict[str, int]]]
    involution_ok: bool


def swap_action_nontrivial(c: CfkComplex) -> SwapReport:
    """The summand-swap action Sw o (1 (x) (1 + Psi Phi) + Psi (x) Phi) on
    V (x) V, where V is the U=V=0 homology of c.

    Reports whether it differs from the identity; if so, returns a witness
    pair (b (x) a, a (x) b) with Phi(a) = 0.  The squared action is compared
    with the identity and any discrepancy is reported, not asserted.
    """
    pair = c.phi_psi()
    phi, psi = pair.phi, pair.psi
    n = len(pair.basis)
    # E(b_i (x) b_j) in the (i, j) basis of V (x) V, then swap the factors
    psiphi = psi.matmul(phi)

    def apply_e(i: int, j: int) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}

        def add(a: int, b: int) -> None:
            # swap applied on output: record (b, a)
            out[(b, a)] = out.get((b, a), 0) ^ 1

        add(i, j)
        v = psiphi.apply(1 << j)
        for b in range(n):
            if (v >> b) & 1:
                add(i, b)
        pv = psi.apply(1 << i)
        fv = phi.apply(1 << j)
        for a in range(n):
            if (pv >> a) & 1:
                for b in range(n):
                    if (fv >> b) & 1:
                        add(a, b)
        return {k: p for k, p in out.items() if p}

    table = {(i, j): apply_e(i, j) for i in range(n) for j in range(n)}
    identity = all(table[(i, j)] == {(i, j): 1} for i in range(n) for j in range(n))

    # apply twice and compare with the identity
    involution_ok = True
    for i in range(n):
        for j in range(n):
            twice: Dict[Tuple[int, int], int] = {}
            for (a, b), p1 in table[(i, j)].items():
                for key, p2 in table[(a, b)].items():
                    twice[key] = twice.get(key, 0) ^ (p1 & p2)
            twice = {k: p for k, p in twice.items() if p}
            if twice != {(i, j): 1}:
                involution_ok = False

    if identity:
        return SwapReport("identity", None, involution_ok)

    # witness per the recipe: a with Phi(a) = 0, b a basis vector != a
    witness = None
    for a0 in range(n):
        av = 1 << a0
        if phi.apply(av):
            av = phi.apply(av)
        if phi.apply(av):
            continue
        for b0 in range(n):
            bv = 1 << b0
            if bv == av:
                continue
            src = _tensor_label(pair.basis, bv, av)
            dst = _tensor_label(pair.basis, av, bv)
            if src != dst:
                witness = (src, dst)
                break
        if witness:
            break
    return SwapReport("nontrivial", witness, involution_ok)


def _tensor_label(basis: Tuple[str, ...], left: int, right: int) -> Dict[str, int]:
    out = {}
    for i, gi in enumerate(basis):
        if not (left >> i) & 1:
            continue
        for j, gj in enumerate(basis):
            if (right >> j) & 1:
                out[f"{gi}(x){gj}"] = 1
    return out
