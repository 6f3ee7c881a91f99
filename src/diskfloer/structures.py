"""Type D structures, type A structures, and type D morphisms over the
torus algebra, with structure-equation validators and morphism spaces.

Type A operation tables come in two forms: finite operations
m(x, rho-word) = U^p * y, and parametric families whose word is
prefix + repeat^i + suffix with U-power alpha*i + beta, one operation per
i >= 0.  The parameter i is determined by the word length, so exact word
lookup needs no instantiation cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import F2Matrix, f2_homology, pmul
from .torus_algebra import (
    BASIS_LABELS,
    PRODUCTS,
    RHO_FACTORIZATIONS,
    basis_multiply,
    idempotent_profile,
)

Word = Tuple[int, ...]


def word_profile(word: Word) -> Optional[Tuple[int, int]]:
    """(left, right) idempotent of a composable word; None if not composable."""
    if not word:
        return None
    for a, b in zip(word, word[1:]):
        if idempotent_profile(a)[1] != idempotent_profile(b)[0]:
            return None
    return (idempotent_profile(word[0])[0], idempotent_profile(word[-1])[1])


# ---------------------------------------------------------------------------
# Type D structures
# ---------------------------------------------------------------------------

class TypeDStructure:
    """Generators with idempotents and delta-1 edges labeled by algebra
    basis elements."""

    def __init__(self, generators: Sequence[Tuple[str, int]],
                 edges: Sequence[Tuple[str, int, str]],
                 name: str = ""):
        self.generator_order = [g for g, _ in generators]
        self.idempotents = dict(generators)
        self.edges = [tuple(e) for e in edges]
        self.name = name
        if len(self.idempotents) != len(self.generator_order):
            raise ValueError("duplicate generator names")
        for s, a, t in self.edges:
            if s not in self.idempotents or t not in self.idempotents:
                raise ValueError(f"edge on unknown generator: {s}->{t}")
            if not 0 <= a < 8:
                raise ValueError(f"bad edge label on {s}->{t}")
        self._out: Dict[str, List[Tuple[int, str]]] = {}
        for s, a, t in self.edges:
            self._out.setdefault(s, []).append((a, t))

    @property
    def generators(self) -> List[str]:
        return list(self.generator_order)

    def idempotent(self, g: str) -> int:
        return self.idempotents[g]

    def outgoing(self, g: str) -> List[Tuple[int, str]]:
        return self._out.get(g, [])

    def validate(self) -> List[str]:
        problems = []
        for s, a, t in self.edges:
            left, right = idempotent_profile(a)
            if left != self.idempotents[s] or right != self.idempotents[t]:
                problems.append(
                    f"idempotent mismatch on edge {s} --{BASIS_LABELS[a]}--> {t}")
        if problems:
            return problems
        # structure equation: products along all 2-edge paths cancel
        residual: Dict[Tuple[str, str], int] = {}
        for x in self.generator_order:
            for a, y in self.outgoing(x):
                for b, z in self.outgoing(y):
                    p = basis_multiply(a, b)
                    if p is not None:
                        key = (x, z)
                        residual[key] = residual.get(key, 0) ^ (1 << p)
        for (x, z), mask in sorted(residual.items()):
            if mask:
                labels = "+".join(BASIS_LABELS[i] for i in range(8)
                                  if (mask >> i) & 1)
                problems.append(f"structure equation fails on ({x},{z}): {labels}")
        return problems

    def check_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))


# ---------------------------------------------------------------------------
# Type A structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeAOp:
    source: str
    word: Word
    upow: int
    target: str


@dataclass(frozen=True)
class TypeAFamily:
    source: str
    prefix: Word
    repeat: Word
    suffix: Word
    alpha: int
    beta: int
    target: str

    def word(self, i: int) -> Word:
        return self.prefix + self.repeat * i + self.suffix


@dataclass(frozen=True)
class AGenerator:
    name: str
    idempotent: int
    filtration: Optional[int] = None
    passive: bool = False


class TypeAStructure:
    """A-infinity module over the torus algebra, over F2 or F2[U].

    Operations are indexed once: ``ops_from(x)`` maps each word to the
    target -> F2[U] mask sum of the finite operations m(x, word) (a mask may
    be 0 when duplicate operations cancel), and ``families_from(x)`` lists
    the families with source x.
    """

    def __init__(self, ring: str, generators: Sequence[AGenerator],
                 ops: Sequence[TypeAOp] = (),
                 families: Sequence[TypeAFamily] = (),
                 fragment: bool = False, name: str = ""):
        if ring not in ("F2", "F2U"):
            raise ValueError(f"unknown ring {ring!r}")
        self.ring = ring
        self.generator_order = [g.name for g in generators]
        self.gen_info = {g.name: g for g in generators}
        self.ops = list(ops)
        self.families = list(families)
        self.fragment = fragment
        self.name = name
        if len(self.gen_info) != len(self.generator_order):
            raise ValueError("duplicate generator names")
        self._ops_from: Dict[str, Dict[Word, Dict[str, int]]] = {
            g: {} for g in self.generator_order}
        self._families_from: Dict[str, List[TypeAFamily]] = {
            g: [] for g in self.generator_order}
        for op in self.ops:
            self._check_names(op.source, op.target)
            targets = self._ops_from[op.source].setdefault(op.word, {})
            targets[op.target] = targets.get(op.target, 0) ^ (1 << op.upow)
        for fam in self.families:
            self._check_names(fam.source, fam.target)
            if not fam.repeat:
                raise ValueError("family repeat block must be nonempty")
            self._families_from[fam.source].append(fam)

    def _check_names(self, *names: str) -> None:
        for n in names:
            if n not in self.gen_info:
                raise ValueError(f"operation on unknown generator: {n}")

    @property
    def generators(self) -> List[str]:
        return list(self.generator_order)

    def idempotent(self, g: str) -> int:
        return self.gen_info[g].idempotent

    def filtration(self, g: str) -> Optional[int]:
        return self.gen_info[g].filtration

    def preserves_filtration(self, source: str, target: str) -> bool:
        """Whether an operation source -> target preserves the filtration;
        generators without filtration data count as preserving."""
        fs, ft = self.filtration(source), self.filtration(target)
        return fs is None or ft is None or fs == ft

    def ops_from(self, source: str) -> Dict[Word, Dict[str, int]]:
        return self._ops_from.get(source, {})

    def families_from(self, source: str) -> List[TypeAFamily]:
        return self._families_from.get(source, [])

    def lookup(self, source: str, word: Word) -> Dict[str, int]:
        """All operations m(source, word): target -> F2[U] coefficient mask.

        A family instance's parameter is determined by its word length, so
        the instances no longer than word hold every match; no cap is
        involved.
        """
        return self._values(source, len(word)).get(word, {})

    # -- validation --------------------------------------------------------

    def validate(self, cap: int = 8) -> List[str]:
        if cap < 2:
            raise ValueError("cap must be >= 2")
        problems = []
        if self.ring == "F2":
            for op in self.ops:
                if op.upow:
                    problems.append(f"U-power on F2 module: {op}")
            for fam in self.families:
                if fam.alpha or fam.beta:
                    problems.append(f"U-power on F2 module: {fam}")
        # instances 0..2 of a family cover every junction of its blocks
        for src in self.generator_order:
            for word, target in self._outputs(src, 2):
                problems += self._compat(src, word, target)
        problems += self._a_infinity(cap)
        return problems

    def _outputs(self, src: str, cap: int) -> List[Tuple[Word, str]]:
        """The (word, target) of each indexed operation from src and of each
        instance with parameter at most cap of its families."""
        return ([(word, t) for word, targets in self.ops_from(src).items() for t in targets]
                + [(fam.word(i), fam.target) for fam in self.families_from(src)
                   for i in range(cap + 1)])

    def _compat(self, source: str, word: Word, target: str) -> List[str]:
        src_idem = self.idempotent(source)
        tgt_idem = self.idempotent(target)
        if not word:
            if src_idem != tgt_idem:
                return [f"m1 changes idempotent: {source}->{target}"]
            return []
        prof = word_profile(word)
        if prof is None:
            return [f"non-composable word on {source}: "
                    f"{[BASIS_LABELS[a] for a in word]}"]
        left, right = prof
        if left != src_idem or right != tgt_idem:
            return [f"idempotent mismatch on {source}"
                    f" --{[BASIS_LABELS[a] for a in word]}--> {target}"]
        return []

    def _a_infinity(self, cap: int) -> List[str]:
        """Check the A-infinity relations on all words where a term can be
        nonzero: concatenations of two operation words, and operation words
        with one letter expanded by a mu2-factorization.  Relations at all
        other words vanish term by term.

        The residuals read every operation value from one table built for
        the call (``_value_table``) and dropped on return.  A residual at a
        word reads only words no longer than it, so a table holding every
        family instance up to the longest candidate word agrees with
        ``lookup`` on all of them."""
        outputs = {g: self._outputs(g, cap) for g in self.generator_order}
        candidates: Dict[str, List[Word]] = {}
        for src in self.generator_order:
            words = set()
            for word, target in outputs[src]:
                words.update(word + word2 for word2, _ in outputs[target])
                for idx, letter in enumerate(word):
                    for pair in RHO_FACTORIZATIONS.get(letter, ()):
                        words.add(word[:idx] + pair + word[idx + 1:])
            candidates[src] = sorted(words)
        longest = max((len(w) for words in candidates.values() for w in words),
                      default=0)
        table = self._value_table(longest)
        problems = []
        for src in self.generator_order:
            for word in candidates[src]:
                residual = self._residual(src, word, table)
                if residual:
                    labels = [BASIS_LABELS[a] for a in word]
                    problems.append(
                        f"A-infinity relation fails at ({src}, {labels}): "
                        f"{sorted(residual)}")
        return problems

    def _value_table(self, longest: int) -> Dict[str, Dict[Word, Dict[str, int]]]:
        """source -> ``_values(source, longest)`` for every generator."""
        return {src: self._values(src, longest) for src in self.generator_order}

    def _values(self, src: str, longest: int) -> Dict[Word, Dict[str, int]]:
        """word -> {target: mask} for every indexed word from src and every
        instance word of its families of length at most longest, with masks
        summed and zero masks dropped."""
        values = {word: dict(targets) for word, targets in self.ops_from(src).items()}
        for fam in self.families_from(src):
            blocks = len(fam.prefix) + len(fam.suffix)
            for i in range((longest - blocks) // len(fam.repeat) + 1):
                targets = values.setdefault(fam.word(i), {})
                targets[fam.target] = (targets.get(fam.target, 0)
                                       ^ (1 << (fam.alpha * i + fam.beta)))
        return {word: nonzero for word, targets in values.items()
                if (nonzero := {t: m for t, m in targets.items() if m})}

    def a_infinity_residual(self, src: str, word: Word) -> Dict[str, int]:
        """Sum of all A-infinity relation terms at (src, word)."""
        return self._residual(src, word, self._value_table(len(word)))

    @staticmethod
    def _residual(src: str, word: Word,
                  table: Dict[str, Dict[Word, Dict[str, int]]]) -> Dict[str, int]:
        """The A-infinity residual at (src, word), with operation values
        from a ``_value_table`` holding every word no longer than word."""
        acc: Dict[str, int] = {}
        values, empty = table[src], {}

        def add(target: str, mask: int) -> None:
            acc[target] = acc.get(target, 0) ^ mask

        for j in range(len(word) + 1):
            for mid, poly1 in values.get(word[:j], empty).items():
                for tgt, poly2 in table[mid].get(word[j:], empty).items():
                    add(tgt, pmul(poly1, poly2))
        for idx in range(len(word) - 1):
            prod = PRODUCTS[word[idx]][word[idx + 1]]
            if prod is None:
                continue
            contracted = word[:idx] + (prod,) + word[idx + 2:]
            for tgt, poly in values.get(contracted, empty).items():
                add(tgt, poly)
        return {t: m for t, m in acc.items() if m}

    def check_valid(self, cap: int = 8) -> None:
        problems = self.validate(cap)
        if problems:
            raise ValueError("; ".join(problems))


# ---------------------------------------------------------------------------
# Type D morphisms
# ---------------------------------------------------------------------------

class TypeDMorphism:
    """f1: N1 -> A (x) N2, stored as (source, algebra basis element, target)
    entries.  An idempotent coefficient encodes a unit entry."""

    def __init__(self, entries: Sequence[Tuple[str, int, str]], name: str = ""):
        self.entries = [tuple(e) for e in entries]
        self.name = name
        for s, a, t in self.entries:
            if not 0 <= a < 8:
                raise ValueError(f"bad coefficient on {s}->{t}")

    def validate(self, n1: TypeDStructure, n2: TypeDStructure) -> List[str]:
        problems = []
        for s, a, t in self.entries:
            if s not in n1.idempotents:
                problems.append(f"morphism source {s} not in domain")
                continue
            if t not in n2.idempotents:
                problems.append(f"morphism target {t} not in codomain")
                continue
            left, right = idempotent_profile(a)
            if left != n1.idempotent(s) or right != n2.idempotent(t):
                problems.append(
                    f"idempotent mismatch on entry {s} --{BASIS_LABELS[a]}--> {t}")
        if problems:
            return problems
        residual = morphism_residual(self.entries, n1, n2)
        for (s, t), mask in sorted(residual.items()):
            if mask:
                labels = "+".join(BASIS_LABELS[i] for i in range(8)
                                  if (mask >> i) & 1)
                problems.append(f"morphism equation fails on ({s},{t}): {labels}")
        return problems

    def check_valid(self, n1: TypeDStructure, n2: TypeDStructure) -> None:
        problems = self.validate(n1, n2)
        if problems:
            raise ValueError("; ".join(problems))


def morphism_residual(entries: Iterable[Tuple[str, int, str]],
                      n1: TypeDStructure,
                      n2: TypeDStructure) -> Dict[Tuple[str, str], int]:
    """The morphism equation residual
    (mu2 (x) I)(I (x) f)delta1_N1 + (mu2 (x) I)(I (x) delta1_N2)f,
    as (source, target) -> algebra mask."""
    residual: Dict[Tuple[str, str], int] = {}

    def add(s: str, t: str, basis: int) -> None:
        key = (s, t)
        residual[key] = residual.get(key, 0) ^ (1 << basis)

    entry_list = list(entries)
    by_src: Dict[str, List[Tuple[int, str]]] = {}
    for s, a, t in entry_list:
        by_src.setdefault(s, []).append((a, t))
    for x in n1.generator_order:
        for a, y in n1.outgoing(x):
            for c, z in by_src.get(y, []):
                p = basis_multiply(a, c)
                if p is not None:
                    add(x, z, p)
    for s, c, t in entry_list:
        for b, w in n2.outgoing(t):
            p = basis_multiply(c, b)
            if p is not None:
                add(s, w, p)
    return {k: m for k, m in residual.items() if m}


def morphism_space(n1: TypeDStructure, n2: TypeDStructure):
    """Chain-homotopy classes of type D morphisms N1 -> N2.

    The entry space of idempotent-compatible (source, basis, target) triples
    carries the F2-linear operator L sending a morphism to its equation
    residual; L is also the homotopy differential, and L^2 = 0, so the answer
    is the homology of (entries, L).

    Returns (dimension, representatives) where each representative is a list
    of entries.
    """
    n1.check_valid()
    n2.check_valid()
    slots: List[Tuple[str, int, str]] = []
    for x in n1.generator_order:
        for z in n2.generator_order:
            for a in range(8):
                if idempotent_profile(a) == (n1.idempotent(x), n2.idempotent(z)):
                    slots.append((x, a, z))
    index = {slot: i for i, slot in enumerate(slots)}
    n = len(slots)
    mat = F2Matrix(n, n)
    for col, slot in enumerate(slots):
        residual = morphism_residual([slot], n1, n2)
        for (s, t), mask in residual.items():
            for basis in range(8):
                if (mask >> basis) & 1:
                    mat.toggle(index[(s, basis, t)], col)
    summary = f2_homology(mat)
    reps = []
    for vec in summary.representatives:
        reps.append([slots[i] for i, bit in enumerate(vec) if bit])
    return summary.free_rank, reps, slots, mat
