"""JSON (de)serialization and Graphviz dumps for all structure types."""

from __future__ import annotations

import json
from typing import List, Optional, Tuple, Union

from .certificates import FinitePresentation, LaurentPoly
from .cfk import CfkComplex
from .pairing import BoxComplex
from .structures import (
    AGenerator,
    TypeAFamily,
    TypeAOp,
    TypeAStructure,
    TypeDMorphism,
    TypeDStructure,
)
from .torus_algebra import (
    BASIS_LABELS,
    LABEL_TO_BASIS,
    I0,
    I1,
    IDEMPOTENTS,
)

IDEM_LABELS = {I0: "i0", I1: "i1"}
IDEM_FROM_LABEL = {"i0": I0, "i1": I1}


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


def _typed(value, kind: type, what: str):
    """value, when its type is exactly kind: no bool passes for an int and
    no string for a list."""
    if type(value) is not kind:
        raise SchemaError(f"not {what}: {value!r}")
    return value


def _rho(label: str) -> int:
    if (type(label) is not str or label not in LABEL_TO_BASIS
            or LABEL_TO_BASIS[label] in IDEMPOTENTS):
        raise SchemaError(f"not a rho label: {label!r}")
    return LABEL_TO_BASIS[label]


def _word(labels) -> Tuple[int, ...]:
    return tuple(_rho(x) for x in _typed(labels, list, "a list of rho labels"))


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise SchemaError(f"not a non-negative integer: {value!r}")
    return value


def _name(value) -> str:
    return _typed(value, str, "a generator name")


def _filtration(value) -> Optional[int]:
    return None if value is None else _typed(value, int, "an integer filtration")


# -- type D ------------------------------------------------------------------

def type_d_to_doc(d: TypeDStructure) -> dict:
    return {
        "generators": [{"name": g, "idem": IDEM_LABELS[d.idempotent(g)]}
                       for g in d.generator_order],
        "edges": [{"from": s, "rho": BASIS_LABELS[a], "to": t}
                  for s, a, t in d.edges],
    }


def type_d_from_doc(doc: dict, name: str = "") -> TypeDStructure:
    try:
        gens = [(_name(g["name"]), IDEM_FROM_LABEL[g["idem"]])
                for g in doc["generators"]]
        edges = [(_name(e["from"]), _rho(e["rho"]), _name(e["to"]))
                 for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad type D document: {exc}") from None
    return TypeDStructure(gens, edges, name=name)


# -- type A ------------------------------------------------------------------

def type_a_to_doc(a: TypeAStructure) -> dict:
    gens = []
    for g in a.generator_order:
        info = a.gen_info[g]
        entry: dict = {"name": g, "idem": IDEM_LABELS[info.idempotent]}
        if info.filtration is not None:
            entry["filtration"] = info.filtration
        if info.passive:
            entry["passive"] = True
        gens.append(entry)
    doc = {
        "ring": a.ring,
        "generators": gens,
        "ops": [op_to_doc(op) for op in a.ops],
        "families": [op_to_doc(f) for f in a.families],
    }
    if a.fragment:
        doc["fragment"] = True
    return doc


def op_to_doc(op: Union[TypeAOp, TypeAFamily]) -> dict:
    """An operation or a family in the schema of type A documents."""
    if isinstance(op, TypeAOp):
        return {"from": op.source, "word": [BASIS_LABELS[x] for x in op.word],
                "upow": op.upow, "to": op.target}
    return {"from": op.source,
            "prefix": [BASIS_LABELS[x] for x in op.prefix],
            "repeat": [BASIS_LABELS[x] for x in op.repeat],
            "suffix": [BASIS_LABELS[x] for x in op.suffix],
            "alpha": op.alpha, "beta": op.beta, "to": op.target}


def type_a_from_doc(doc: dict, name: str = "") -> TypeAStructure:
    try:
        gens = [AGenerator(_name(g["name"]), IDEM_FROM_LABEL[g["idem"]],
                           _filtration(g.get("filtration")),
                           _typed(g.get("passive", False), bool, "a boolean"))
                for g in doc["generators"]]
        ops = [TypeAOp(_name(o["from"]), _word(o["word"]), _count(o.get("upow", 0)),
                       _name(o["to"])) for o in doc.get("ops", [])]
        fams = [TypeAFamily(_name(f["from"]), _word(f["prefix"]), _word(f["repeat"]),
                            _word(f["suffix"]), _count(f["alpha"]),
                            _count(f["beta"]), _name(f["to"]))
                for f in doc.get("families", [])]
        ring = doc["ring"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad type A document: {exc}") from None
    if ring not in ("F2", "F2U"):
        raise SchemaError(f"unknown ring {ring!r}")
    return TypeAStructure(ring, gens, ops, fams, name=name,
                          fragment=_typed(doc.get("fragment", False), bool, "a boolean"))


# -- morphisms ---------------------------------------------------------------

def morphism_to_doc(f: TypeDMorphism) -> dict:
    entries = []
    for s, a, t in f.entries:
        label = "1" if a in IDEMPOTENTS else BASIS_LABELS[a]
        entries.append({"from": s, "alg": label, "to": t})
    return {"entries": entries}


def morphism_from_doc(doc: dict, n1: Optional[TypeDStructure] = None,
                      n2: Optional[TypeDStructure] = None,
                      name: str = "") -> TypeDMorphism:
    """The label "1" is a unit entry when source and target idempotents
    agree, rho1 otherwise; this needs the two structures for context."""
    entries = []
    try:
        raw = _typed(doc["entries"], list, "a list of entries")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad morphism document: {exc}") from None
    for e in raw:
        try:
            s, label, t = _name(e["from"]), e["alg"], _name(e["to"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad morphism entry: {exc}") from None
        if label == "1" and n1 is not None and n2 is not None:
            if s in n1.idempotents and t in n2.idempotents \
                    and n1.idempotent(s) == n2.idempotent(t):
                entries.append((s, n1.idempotent(s), t))
                continue
            entries.append((s, _rho("1"), t))
        elif label in ("i0", "i1"):
            entries.append((s, IDEM_FROM_LABEL[label], t))
        else:
            entries.append((s, _rho(label), t))
    return TypeDMorphism(entries, name=name)


# -- CFK ---------------------------------------------------------------------

def cfk_to_doc(c: CfkComplex) -> dict:
    if c.boxes is not None and c.singletons is not None:
        return {"boxes": c.boxes, "singletons": c.singletons}
    return {
        "generators": list(c.generators),
        "diff": [{"from": s, "to": t, "u": u, "v": v} for s, t, u, v in c.diff],
    }


def cfk_from_doc(doc: dict, name: str = "") -> CfkComplex:
    if "boxes" in doc or "singletons" in doc:
        return CfkComplex.from_boxes(_count(doc.get("boxes", 0)),
                                     _count(doc.get("singletons", 0)), name=name)
    try:
        gens = [_name(g) for g in _typed(doc["generators"], list, "a list of generators")]
        diff = [(_name(e["from"]), _name(e["to"]), _count(e["u"]), _count(e["v"]))
                for e in _typed(doc.get("diff", []), list, "a list of arrows")]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad CFK document: {exc}") from None
    return CfkComplex(gens, diff, name=name)


# -- certificates ------------------------------------------------------------

def poly_to_doc(p: LaurentPoly) -> dict:
    lo, coeffs = p.to_list()
    return {"min_exp": lo, "coeffs": coeffs}


def poly_from_doc(doc: dict) -> LaurentPoly:
    try:
        coeffs = _typed(doc["coeffs"], list, "a list of coefficients")
        return LaurentPoly.from_list(_typed(doc["min_exp"], int, "an integer"),
                                     [_typed(c, int, "an integer") for c in coeffs])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad polynomial document: {exc}") from None


def presentation_from_doc(doc: dict) -> FinitePresentation:
    try:
        return FinitePresentation(
            [str(g) for g in _typed(doc["generators"], list, "a list of generators")],
            [[str(x) for x in _typed(rel, list, "a list of letters")]
             for rel in _typed(doc["relators"], list, "a list of relators")])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad presentation document: {exc}") from None


# -- box complexes -----------------------------------------------------------

def _poly_list(mask: int) -> List[int]:
    if mask == 0:
        return [0]
    out = []
    while mask:
        out.append(mask & 1)
        mask >>= 1
    return out


def box_to_doc(b: BoxComplex) -> dict:
    entries = []
    for col, src in enumerate(b.generators):
        for row, tgt in enumerate(b.generators):
            mask = b.d.entries[row][col]
            if mask:
                entries.append({"from": list(src), "to": list(tgt),
                                "coeff": _poly_list(mask)})
    return {
        "ring": b.ring,
        "generators": [list(g) for g in b.generators],
        "differential": entries,
    }


# -- Graphviz ----------------------------------------------------------------

def to_dot(obj: Union[TypeDStructure, TypeAStructure, BoxComplex]) -> str:
    lines = ["digraph structure {"]
    if isinstance(obj, TypeDStructure):
        for g in obj.generator_order:
            lines.append(f'  "{g}" [label="{g} ({IDEM_LABELS[obj.idempotent(g)]})"];')
        for s, a, t in obj.edges:
            lines.append(f'  "{s}" -> "{t}" [label="{BASIS_LABELS[a]}"];')
    elif isinstance(obj, TypeAStructure):
        for g in obj.generator_order:
            idem = IDEM_LABELS[obj.idempotent(g)]
            lines.append(f'  "{g}" [label="{g} ({idem})"];')
        for op in obj.ops:
            word = ",".join(BASIS_LABELS[x] for x in op.word) or "m1"
            u = f" U^{op.upow}" if op.upow else ""
            lines.append(f'  "{op.source}" -> "{op.target}" [label="{word}{u}"];')
        for fam in obj.families:
            label = "+".join(filter(None, [
                ",".join(BASIS_LABELS[x] for x in fam.prefix),
                "(" + ",".join(BASIS_LABELS[x] for x in fam.repeat) + ")^i",
                ",".join(BASIS_LABELS[x] for x in fam.suffix)]))
            lines.append(f'  "{fam.source}" -> "{fam.target}" '
                         f'[label="{label} U^{{{fam.alpha}i+{fam.beta}}}"];')
    elif isinstance(obj, BoxComplex):
        for x, y in obj.generators:
            lines.append(f'  "{x}|{y}";')
        for col, (x, y) in enumerate(obj.generators):
            for row, (x2, y2) in enumerate(obj.generators):
                mask = obj.d.entries[row][col]
                if mask:
                    lines.append(f'  "{x}|{y}" -> "{x2}|{y2}" '
                                 f'[label="{_poly_list(mask)}"];')
    else:
        raise TypeError(f"cannot dump {type(obj).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
