"""Box tensor products and induced maps.

The differential on M (box) N matches operation words of the type A side
against delta-path label sequences on the type D side.  Parametric families
match paths whose middle segment is a power of the repeat block; if the
repeat-block transition graph has a directed cycle between prefix and
suffix match points, infinitely many instances match and the pairing is
refused with :class:`NonterminationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (HomologySummary, SnfResult, UMatrix, _u_homology, f2_homology,
                     smith_normal_form, u_solve, u_torsion_order)
from .structures import TypeAFamily, TypeAStructure, TypeDMorphism, TypeDStructure
from .torus_algebra import BASIS_LABELS, IDEMPOTENTS

Graph = Dict[object, List[Tuple[int, object]]]
Frontier = Dict[object, int]  # node -> parity of matching paths


class NonterminationError(RuntimeError):
    """A parametric family matches infinitely many delta-paths.

    ``cycle`` holds the repeat-graph nodes of one offending cycle in order:
    each reaches the next through one repeat block, and the last reaches
    the first."""

    def __init__(self, message: str, cycle: Sequence[object] = ()):
        super().__init__(message)
        self.cycle = list(cycle)


def _d_graph(n: TypeDStructure) -> Graph:
    g: Graph = {gen: [] for gen in n.generator_order}
    for s, a, t in n.edges:
        g[s].append((a, t))
    return g


def _step(graph: Graph, frontier: Frontier, letter: int) -> Frontier:
    out: Frontier = {}
    for node, par in frontier.items():
        if not par:
            continue
        for a, t in graph.get(node, []):
            if a == letter:
                out[t] = out.get(t, 0) ^ par
    return {node: par for node, par in out.items() if par}


def match_word(graph: Graph, start, word) -> Frontier:
    """Endpoints of delta-paths from start with the given label sequence,
    with path-count parity."""
    frontier: Frontier = {start: 1}
    for letter in word:
        frontier = _step(graph, frontier, letter)
        if not frontier:
            break
    return frontier


def _word_reaches(graph: Graph, nodes, word) -> Dict[object, None]:
    """Set-level (no parity) endpoints of word-labeled paths from nodes."""
    cur = dict.fromkeys(nodes)
    for letter in word:
        cur = dict.fromkeys(t for node in cur for a, t in graph.get(node, [])
                            if a == letter)
        if not cur:
            break
    return cur


def _closure(seeds, edges) -> set:
    """Nodes reachable from seeds along edges (node -> successor nodes)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for t in edges.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def match_family(graph: Graph, start, fam: TypeAFamily,
                 context: str = "") -> Dict[object, int]:
    """Total contribution of a family from start: endpoint -> F2[U] mask,
    summed over all instances i >= 0 (power alpha*i + beta).

    Raises NonterminationError when infinitely many instances can match.
    """
    prefix_frontier = match_word(graph, start, fam.prefix)
    if not prefix_frontier:
        return {}
    # set-level repeat transitions for the termination analysis, in graph
    # order so that a reported cycle does not depend on string hashing
    nodes = list(dict.fromkeys([*graph, *(t for outs in graph.values()
                                          for _, t in outs), *prefix_frontier]))
    succ = {u: _word_reaches(graph, [u], fam.repeat) for u in nodes}
    pred: Dict[object, List[object]] = {}
    for u in nodes:
        for t in succ[u]:
            pred.setdefault(t, []).append(u)
    # nodes reachable from a prefix match through repeat blocks that can
    # still reach a suffix match
    reach = _closure(prefix_frontier, succ)
    co = _closure((u for u in nodes if _word_reaches(graph, [u], fam.suffix)),
                  pred)
    relevant = reach & co
    # cycle detection on the repeat transition graph within relevant nodes,
    # depth first with an explicit stack: a long box makes a long path
    color: Dict[object, int] = {}   # 1 on the stack, 2 finished
    for root in nodes:
        if root not in relevant or root in color:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            u, succs = stack[-1]
            for t in succs:
                if t not in relevant:
                    continue
                if color.get(t) == 1:
                    path = [node for node, _ in stack]
                    raise NonterminationError(
                        f"family {fam} admits unboundedly many matches"
                        + (f" in {context}" if context else ""),
                        path[path.index(t):])
                if t not in color:
                    color[t] = 1
                    stack.append((t, iter(succ[t])))
                    break
            else:
                color[u] = 2
                stack.pop()

    out: Dict[object, int] = {}
    frontier = prefix_frontier
    for i in range(len(nodes) + 1):
        ends = dict(frontier)
        for letter in fam.suffix:
            ends = _step(graph, ends, letter)
        mask = 1 << (fam.alpha * i + fam.beta)
        for node, par in ends.items():
            if par:
                out[node] = out.get(node, 0) ^ mask
        if not frontier:
            break
        nxt: Frontier = dict(frontier)
        for letter in fam.repeat:
            nxt = _step(graph, nxt, letter)
        frontier = nxt
    return {node: m for node, m in out.items() if m}


@dataclass
class BoxComplex:
    """Pairing chain complex of a type A and a type D structure.  Its F2[U]
    queries share one Smith normal form of d, built on first use and kept on
    this complex only; d must not change after that."""

    ring: str
    generators: List[Tuple[str, str]]
    d: UMatrix
    name: str = ""
    positions: Dict[Tuple[str, str], int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.positions = {g: i for i, g in enumerate(self.generators)}

    def index(self, pair: Tuple[str, str]) -> int:
        return self.positions[pair]

    def d_squared_zero(self) -> bool:
        return self.d.matmul(self.d).is_zero()

    @cached_property
    def _reduction(self) -> SnfResult:
        return smith_normal_form(self.d)

    def homology(self) -> HomologySummary:
        if self.ring == "F2":
            return f2_homology(self.d.to_f2())
        return _u_homology(self.d, lambda: self._reduction)

    def solve(self, z: Sequence[int]) -> Optional[List[int]]:
        """One w with d w = z over F2[U], or None."""
        return u_solve(self.d, z, self._reduction)

    def torsion_order(self, z: Sequence[int]) -> Optional[int]:
        """min{k >= 0 : U^k [z] = 0} for a cycle z; None for infinite order."""
        return u_torsion_order(z, self.d, self._reduction)


def _row(index: Dict, target: str, end, source: str, word) -> int:
    """The row of target (x) end for an operation from source; ``word`` is
    the operation word, or the family.  No such row means the idempotents
    of the operation and of the type D side do not match."""
    row = index.get((target, end))
    if row is None:
        op = word if isinstance(word, TypeAFamily) else \
            f"{source} --{[BASIS_LABELS[a] for a in word]}--> {target}"
        raise ValueError(
            f"operation {op} reaches {end}, whose idempotent differs from "
            f"that of {target}: the input structures are not valid")
    return row


def _terms(m: TypeAStructure, graph: Graph, x: str, start, context: str,
           preserving_only: bool = False):
    """(target, end, mask, op) for each operation and family of m from x
    matched against the delta-paths of graph from start; op is the word or
    the family.  With ``preserving_only``, only filtration-preserving ones."""
    for word, targets in m.ops_from(x).items():
        ends = match_word(graph, start, word)
        for target, mask in targets.items():
            if preserving_only and not m.preserves_filtration(x, target):
                continue
            for end in ends:
                yield target, end, mask, word
    for fam in m.families_from(x):
        if preserving_only and not m.preserves_filtration(x, fam.target):
            continue
        for end, mask in match_family(graph, start, fam, context).items():
            yield fam.target, end, mask, fam


def box_tensor(m: TypeAStructure, n: TypeDStructure,
               preserving_only: bool = False) -> BoxComplex:
    """The box tensor product M (box) N with its differential.

    With ``preserving_only`` the differential keeps only terms coming from
    filtration-preserving operations (operations without complete filtration
    data count as preserving): the associated graded of the filtered pairing
    complex, whose homology carries the distinguishability classes.
    """
    graph = _d_graph(n)
    gens = [(x, y) for x in m.generator_order for y in n.generator_order
            if m.idempotent(x) == n.idempotent(y)]
    name = f"{m.name} (box) {n.name}"
    box = BoxComplex(m.ring, gens, UMatrix(len(gens), len(gens)), name=name)
    d, index = box.d, box.positions
    for col, (x, y) in enumerate(gens):
        for target, end, mask, op in _terms(m, graph, x, y, name, preserving_only):
            d.entries[_row(index, target, end, x, op)][col] ^= mask
    return box


@dataclass
class ChainMap:
    domain: BoxComplex
    codomain: BoxComplex
    matrix: UMatrix

    def apply_generator(self, pair: Tuple[str, str]) -> List[int]:
        col = self.domain.index(pair)
        return [self.matrix.entries[r][col] for r in range(self.matrix.rows)]


def induced_map(m: TypeAStructure, f: TypeDMorphism,
                n1: TypeDStructure, n2: TypeDStructure) -> ChainMap:
    """The chain map (I_M box f): M (box) N1 -> M (box) N2.

    Operation words are matched against paths in the combined graph of N1
    and N2 joined by the rho-entries of f; a path uses exactly one f-entry.
    Unit entries of f contribute only through the strict-unit action, giving
    the diagonal x (x) y -> x (x) z terms.
    """
    f.check_valid(n1, n2)
    graph: Graph = {}
    for side, n in ((1, n1), (2, n2)):
        for s, a, t in n.edges:
            graph.setdefault((side, s), []).append((a, (side, t)))
    unit_entries: List[Tuple[str, str]] = []
    for s, a, t in f.entries:
        if a in IDEMPOTENTS:
            unit_entries.append((s, t))
        else:
            graph.setdefault((1, s), []).append((a, (2, t)))

    domain = box_tensor(m, n1)
    codomain = box_tensor(m, n2)
    cod_index = codomain.positions
    mat = UMatrix(len(codomain.generators), len(domain.generators))
    name = f"induced {f.name or 'map'} on {m.name}"
    for col, (x, y) in enumerate(domain.generators):
        for s, t in unit_entries:
            if s == y:
                mat.entries[cod_index[(x, t)]][col] ^= 1
        for target, (side, end), mask, op in _terms(m, graph, x, (1, y), name):
            if side == 2:
                mat.entries[_row(cod_index, target, end, x, op)][col] ^= mask

    lhs, rhs = mat.matmul(domain.d).entries, codomain.d.matmul(mat).entries
    if lhs != rhs:
        col = next(c for c in range(mat.cols)
                   if any(lr[c] != rr[c] for lr, rr in zip(lhs, rhs)))
        x, y = domain.generators[col]
        raise ValueError(
            f"induced map fails to commute with the differentials at {x}(x){y}"
            f" ({name}): the input structures are not valid")
    return ChainMap(domain, codomain, mat)
