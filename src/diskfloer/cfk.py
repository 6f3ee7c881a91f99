"""Knot Floer chain complexes over F2[U,V].

A ``CfkComplex`` is a finitely generated reduced complex: every differential
entry carries a monomial U^u V^v with u + v >= 1.  The "box" shorthand
expands to the four-generator fragment da = Ub + Vc, db = Ve, dc = Ue;
a "singleton" has zero differential.  From a simplified basis the complex
is converted into a type D structure over the torus algebra (zero framing,
slice knots only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import F2Matrix, HomologySummary, f2_homology, row_reduce
from .structures import TypeDStructure
from .torus_algebra import R1, R2, R3, R12, R23, R123, I0, I1


class CfkComplex:
    """Reduced complex over F2[U,V] with named generators."""

    def __init__(self, generators: Sequence[str],
                 diff: Sequence[Tuple[str, str, int, int]],
                 boxes: Optional[int] = None,
                 singletons: Optional[int] = None,
                 name: str = ""):
        self.generators = list(generators)
        self.diff = [tuple(e) for e in diff]
        self.boxes = boxes          # shorthand bookkeeping, when known
        self.singletons = singletons
        self.name = name
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        gens = set(self.generators)
        for s, t, u, v in self.diff:
            if s not in gens or t not in gens:
                raise ValueError(f"differential entry on unknown generator: {s}->{t}")
            if u < 0 or v < 0:
                raise ValueError("negative monomial exponent")

    @staticmethod
    def from_boxes(boxes: int, singletons: int, name: str = "") -> "CfkComplex":
        """Expand the box/singleton shorthand with canonical names."""
        gens: List[str] = []
        diff: List[Tuple[str, str, int, int]] = []
        for i in range(1, boxes + 1):
            a, b, c, e = f"a{i}", f"b{i}", f"c{i}", f"e{i}"
            gens += [a, b, c, e]
            diff += [(a, b, 1, 0), (a, c, 0, 1), (b, e, 0, 1), (c, e, 1, 0)]
        if singletons == 1:
            gens.append("x")
        else:
            gens += [f"x{i}" for i in range(1, singletons + 1)]
        return CfkComplex(gens, diff, boxes=boxes, singletons=singletons, name=name)

    def index(self, g: str) -> int:
        return self.generators.index(g)

    def validate(self) -> List[str]:
        """Return a list of problems; empty means valid."""
        problems = []
        for s, t, u, v in self.diff:
            if u + v < 1:
                problems.append(f"non-reduced entry {s}->{t} (constant coefficient)")
        # d^2 = 0 with full U,V bookkeeping
        by_source: Dict[str, List[Tuple[str, int, int]]] = {}
        for s, t, u, v in self.diff:
            by_source.setdefault(s, []).append((t, u, v))
        square: Dict[Tuple[str, str, int, int], int] = {}
        for s in self.generators:
            for t1, u1, v1 in by_source.get(s, []):
                for t2, u2, v2 in by_source.get(t1, []):
                    key = (s, t2, u1 + u2, v1 + v2)
                    square[key] = square.get(key, 0) ^ 1
        for (s, t, u, v), parity in sorted(square.items()):
            if parity:
                problems.append(f"d^2 != 0: {s}->{t} coefficient U^{u}V^{v}")
        return problems

    def check_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))

    def hfk_hat(self) -> HomologySummary:
        """Homology of the U=V=0 truncation."""
        self.check_valid()
        n = len(self.generators)
        d = F2Matrix(n, n)
        for s, t, u, v in self.diff:
            if u == 0 and v == 0:
                d.toggle(self.index(t), self.index(s))
        return f2_homology(d)

    def phi_psi(self) -> "EndoPair":
        """Basepoint actions on the U=V=0 homology, as the formal U- and
        V-derivatives of the differential."""
        self.check_valid()
        if self.hfk_hat().free_rank != len(self.generators):
            raise ValueError("basepoint actions supported only when the "
                             "U=V=0 differential vanishes")
        n = len(self.generators)
        phi = F2Matrix(n, n)
        psi = F2Matrix(n, n)
        for s, t, u, v in self.diff:
            if u == 1 and v == 0:
                phi.toggle(self.index(t), self.index(s))
            if u == 0 and v == 1:
                psi.toggle(self.index(t), self.index(s))
        return EndoPair(phi=phi, psi=psi, basis=tuple(self.generators))

    def connected_sum(self, other: "CfkComplex") -> "CfkComplex":
        """Tensor product over F2[U,V] with the Leibniz differential."""
        self.check_valid()
        other.check_valid()
        gens = [f"{x}|{y}" for x in self.generators for y in other.generators]
        diff: List[Tuple[str, str, int, int]] = []
        for s, t, u, v in self.diff:
            for y in other.generators:
                diff.append((f"{s}|{y}", f"{t}|{y}", u, v))
        for x in self.generators:
            for s, t, u, v in other.diff:
                diff.append((f"{x}|{s}", f"{x}|{t}", u, v))
        return CfkComplex(gens, diff, name=f"{self.name}#{other.name}")


@dataclass(frozen=True)
class EndoPair:
    """The pair (Phi, Psi) acting on the generator span."""

    phi: F2Matrix
    psi: F2Matrix
    basis: Tuple[str, ...]


@dataclass
class ChainPair:
    """One vertical or horizontal arrow of a simplified basis.

    ``source -> target`` is the arrow; ``length`` its monomial power;
    ``chain_names`` the names for the new connecting generators (generated
    when empty).
    """

    source: str
    target: str
    length: int = 1
    chain_names: Tuple[str, ...] = ()


@dataclass
class SimplifiedBases:
    """Vertically and horizontally simplified bases with a change of basis.

    ``eta_expansion`` writes each horizontal-basis generator as a sum of
    vertical-basis generators; identity when omitted.
    """

    vertical: List[ChainPair]
    horizontal: List[ChainPair]
    xi0: str
    eta0: str
    eta_expansion: Optional[Dict[str, Tuple[str, ...]]] = None

    def expand(self, eta: str) -> Tuple[str, ...]:
        if self.eta_expansion is None:
            return (eta,)
        return self.eta_expansion.get(eta, (eta,))


def derive_box_bases(c: CfkComplex) -> SimplifiedBases:
    """Canonical simplified bases of a box-sum complex (identity change of
    basis; the singleton is the distinguished generator)."""
    if c.boxes is None or c.singletons != 1:
        raise ValueError("automatic bases need box shorthand with one singleton")
    vertical = []
    horizontal = []
    for i in range(1, c.boxes + 1):
        a, b, cc, e = f"a{i}", f"b{i}", f"c{i}", f"e{i}"
        vertical.append(ChainPair(b, e, 1, (f"y2_{i}",)))
        vertical.append(ChainPair(a, cc, 1, (f"y4_{i}",)))
        horizontal.append(ChainPair(a, b, 1, (f"y1_{i}",)))
        horizontal.append(ChainPair(cc, e, 1, (f"y3_{i}",)))
    return SimplifiedBases(vertical, horizontal, xi0="x", eta0="x")


def _check_bases(c: CfkComplex, bases: SimplifiedBases) -> None:
    gens = set(c.generators)
    used = {bases.xi0}
    for pair in bases.vertical:
        if pair.length < 1:
            raise ValueError("arrow length must be >= 1")
        for g in (pair.source, pair.target):
            if g not in gens:
                raise ValueError(f"unknown generator in bases: {g}")
            if g in used - {bases.xi0}:
                raise ValueError(f"generator {g} in two vertical pairs")
            used.add(g)
    if used != gens:
        raise ValueError("vertical pairs plus the distinguished generator "
                         "must cover all generators exactly once")
    # horizontal side: every non-distinguished eta generator in exactly one pair
    eta_used = {bases.eta0}
    for pair in bases.horizontal:
        if pair.length < 1:
            raise ValueError("arrow length must be >= 1")
        for g in (pair.source, pair.target):
            if g in eta_used - {bases.eta0}:
                raise ValueError(f"generator {g} in two horizontal pairs")
            eta_used.add(g)
    if bases.eta_expansion is not None:
        # the change of basis must be invertible over F2
        order = {g: i for i, g in enumerate(c.generators)}
        rows = []
        for eta in sorted(eta_used):
            bits = 0
            for xi in bases.expand(eta):
                if xi not in order:
                    raise ValueError(f"expansion of {eta} uses unknown {xi}")
                bits ^= 1 << order[xi]
            rows.append(bits)
        if len(row_reduce(rows)) != len(rows) or len(rows) != len(c.generators):
            raise ValueError("change of basis is not invertible over F2")


def build_cfd(c: CfkComplex, bases: Optional[SimplifiedBases] = None) -> TypeDStructure:
    """Type D structure of the zero-framed complement built from a
    simplified basis.

    Vertical pairs contribute rho123/rho23/rho1 chains, horizontal pairs
    rho3/rho23/rho2 chains ending at the pair target, and the distinguished
    generators are joined by a single rho12 edge.
    """
    c.check_valid()
    if bases is None:
        bases = derive_box_bases(c)
    _check_bases(c, bases)

    gens: List[Tuple[str, int]] = [(g, I0) for g in c.generators]
    edges: List[Tuple[str, int, str]] = []
    fresh = 0

    def names(pair: ChainPair, tag: str) -> List[str]:
        nonlocal fresh
        if pair.chain_names:
            if len(pair.chain_names) != pair.length:
                raise ValueError("chain name count must equal arrow length")
            return list(pair.chain_names)
        fresh += 1
        return [f"{tag}{fresh}_{m}" for m in range(1, pair.length + 1)]

    for pair in bases.vertical:
        kappa = names(pair, "k")
        gens += [(k, I1) for k in kappa]
        edges.append((pair.target, R123, kappa[0]))
        for m in range(pair.length - 1):
            edges.append((kappa[m], R23, kappa[m + 1]))
        edges.append((pair.source, R1, kappa[-1]))
    for pair in bases.horizontal:
        lam = names(pair, "l")
        gens += [(l, I1) for l in lam]
        for xi in bases.expand(pair.source):
            edges.append((xi, R3, lam[0]))
        for m in range(pair.length - 1):
            edges.append((lam[m], R23, lam[m + 1]))
        for xi in bases.expand(pair.target):
            edges.append((lam[-1], R2, xi))
    for xi in bases.expand(bases.eta0):
        edges.append((bases.xi0, R12, xi))

    d = TypeDStructure(gens, edges, name=f"cfd({c.name})" if c.name else "cfd")
    d.check_valid()
    return d
