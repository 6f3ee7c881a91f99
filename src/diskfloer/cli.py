"""Command-line front end.

Exit codes: 0 = computed (any verdict), 1 = validation failure,
2 = input error, 3 = nontermination.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import library, serial
from .certificates import alexander_satellite, find_homs
from .cfk import build_cfd
from .pairing import NonterminationError, box_tensor, induced_map
from .pipeline import (
    distinguish,
    find_distinguished_generator,
    no_cancellation_check,
    stab_bound,
    swap_action_nontrivial,
)
from .structures import (
    TypeAStructure,
    TypeDMorphism,
    TypeDStructure,
    morphism_space,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NONTERMINATION = 3


class InputError(Exception):
    pass


def _load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return doc


def _resolve(ref: str, kind: str, n1: Optional[TypeDStructure] = None,
             n2: Optional[TypeDStructure] = None):
    """Load "builtin:NAME" or a JSON file of the requested kind."""
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        try:
            if kind == "cfk":
                return library.builtin_cfk(name)
            obj = library.builtin(name)
        except (KeyError, ValueError) as exc:
            raise InputError(str(exc)) from None
        expected = {"typeA": TypeAStructure, "typeD": TypeDStructure,
                    "morphism": TypeDMorphism}[kind]
        if not isinstance(obj, expected):
            raise InputError(f"builtin {name} is not a {kind} structure")
        return obj
    doc = _load_doc(ref)
    if kind == "cfk":
        return serial.cfk_from_doc(doc, name=ref)
    if kind == "typeD":
        return serial.type_d_from_doc(doc, name=ref)
    if kind == "typeA":
        return serial.type_a_from_doc(doc, name=ref)
    if kind == "morphism":
        return serial.morphism_from_doc(doc, n1, n2, name=ref)
    raise InputError(f"unknown input kind {kind}")


def _detect_kind(ref: str) -> str:
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        if name.startswith("cfa_"):
            return "typeA"
        if name.startswith("cfd_"):
            return "typeD"
        if name.startswith("morphism_"):
            return "morphism"
        return "cfk"
    doc = _load_doc(ref)
    if "edges" in doc:
        return "typeD"
    if "ring" in doc:
        return "typeA"
    if "entries" in doc:
        return "morphism"
    if "boxes" in doc or "singletons" in doc or "diff" in doc:
        return "cfk"
    raise InputError(f"cannot determine the structure kind of {ref}")


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        text = serial.dumps(doc)
    else:
        text = _as_text(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(doc: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_as_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(_as_text(item, indent + "  ").rstrip() + "\n")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line.rstrip("\n") for line in lines) + "\n"


def _poly_doc(mask: int):
    return serial._poly_list(mask)


def _witness_doc(witness):
    if witness is None:
        return None
    return {k: _poly_doc(v) for k, v in witness.items()}


# -- command handlers --------------------------------------------------------

def cmd_validate(args) -> int:
    kind = _detect_kind(args.object)
    obj = _resolve(args.object, kind)
    if kind == "morphism":
        raise InputError("validate a morphism with the induce command, "
                         "which supplies the endpoint structures")
    if kind == "cfk":
        problems = obj.validate()
    elif kind == "typeA":
        problems = obj.validate(args.cap)
    else:
        problems = obj.validate()
    _emit({"kind": kind, "valid": not problems, "problems": problems}, args)
    return EXIT_OK if not problems else EXIT_VALIDATION


def cmd_cfd(args) -> int:
    c = _resolve(args.cfk, "cfk")
    d = build_cfd(c)
    _emit(serial.type_d_to_doc(d), args)
    return EXIT_OK


def cmd_hfk(args) -> int:
    c = _resolve(args.cfk, "cfk")
    summary = c.hfk_hat()
    _emit({"rank": summary.free_rank,
           "representatives": [
               [c.generators[i] for i, bit in enumerate(vec) if bit]
               for vec in summary.representatives]}, args)
    return EXIT_OK


def cmd_pair(args) -> int:
    a = _resolve(args.pattern, "typeA")
    d = _resolve(args.complement, "typeD")
    box = box_tensor(a, d)
    summary = box.homology()
    doc = serial.box_to_doc(box)
    doc["homology"] = {"free_rank": summary.free_rank,
                       "torsion_orders": summary.torsion_orders}
    _emit(doc, args)
    return EXIT_OK


def cmd_induce(args) -> int:
    a = _resolve(args.pattern, "typeA")
    n1 = _resolve(args.domain, "typeD")
    n2 = _resolve(args.codomain, "typeD")
    f = _resolve(args.morphism, "morphism", n1, n2)
    cm = induced_map(a, f, n1, n2)
    entries = []
    for col, src in enumerate(cm.domain.generators):
        for row, tgt in enumerate(cm.codomain.generators):
            mask = cm.matrix.entries[row][col]
            if mask:
                entries.append({"from": list(src), "to": list(tgt),
                                "coeff": _poly_doc(mask)})
    _emit({"entries": entries}, args)
    return EXIT_OK


def cmd_morphisms(args) -> int:
    n1 = _resolve(args.domain, "typeD")
    n2 = _resolve(args.codomain, "typeD")
    dim, reps, _, _ = morphism_space(n1, n2)
    _emit({"dimension": dim,
           "representatives": [
               serial.morphism_to_doc(TypeDMorphism(entries))["entries"]
               for entries in reps]}, args)
    return EXIT_OK


def cmd_no_cancel(args) -> int:
    p = _resolve(args.pattern, "typeA")
    if args.generator:
        candidates = [args.generator]
    else:
        candidates = find_distinguished_generator(p)
    results = []
    for g in candidates:
        ok, violators = no_cancellation_check(p, g)
        results.append({"generator": g, "pass": ok,
                        "violators": [serial.op_to_doc(op) for op in violators]})
    _emit({"candidates": candidates, "results": results}, args)
    return EXIT_OK


def cmd_distinguish(args) -> int:
    p = _resolve(args.pattern, "typeA")
    k = _resolve(args.knot, "cfk")
    n2 = build_cfd(k)
    f = _resolve(args.morphism, "morphism", library.cfd_unknot(), n2)
    verdict = distinguish(p, k, f)
    _emit({"outcome": verdict.outcome,
           "witness": _witness_doc(verdict.witness),
           "bounding": _witness_doc(verdict.bounding),
           "candidates": verdict.candidates,
           "criterion": verdict.criterion,
           "theta_nonzero": verdict.theta_nonzero,
           "detail": verdict.detail}, args)
    return EXIT_OK


def cmd_stab_bound(args) -> int:
    k = _resolve(args.knot, "cfk")
    n2 = build_cfd(k)
    f = _resolve(args.morphism, "morphism", library.cfd_unknot(), n2)
    order, bound = stab_bound(args.p, k, f)
    _emit({"torsion_order": order, "bound": bound}, args)
    return EXIT_OK


def cmd_swap(args) -> int:
    c = _resolve(args.cfk, "cfk")
    report = swap_action_nontrivial(c)
    _emit({"outcome": report.outcome,
           "witness": [_witness_doc(w) for w in report.witness]
           if report.witness else None,
           "involution_ok": report.involution_ok}, args)
    return EXIT_OK


def cmd_alex(args) -> int:
    dp = serial.poly_from_doc(_load_doc(args.dp)) if args.dp else None
    dk = serial.poly_from_doc(_load_doc(args.dk))
    from .certificates import LaurentPoly
    if dp is None:
        dp = LaurentPoly.constant(1)
    result = alexander_satellite(dp, dk, args.w)
    _emit(serial.poly_to_doc(result), args)
    return EXIT_OK


def cmd_pi1_hom(args) -> int:
    pres = serial.presentation_from_doc(_load_doc(args.presentation))
    homs = find_homs(pres, args.degree, surjective_only=args.surjective)
    _emit({"count": len(homs),
           "homomorphisms": [
               {gen: list(perm) for gen, perm in hom.images}
               for hom in homs]}, args)
    return EXIT_OK


def cmd_dump(args) -> int:
    kind = _detect_kind(args.object)
    obj = _resolve(args.object, kind)
    if args.dot:
        if kind == "cfk":
            raise InputError("no Graphviz dump for CFK complexes")
        text = serial.to_dot(obj)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    doc = {"cfk": serial.cfk_to_doc, "typeD": serial.type_d_to_doc,
           "typeA": serial.type_a_to_doc, "morphism": serial.morphism_to_doc}[
               kind](obj)
    _emit(doc, args)
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskfloer",
        description="Bordered knot Floer computations for satellite slice disks")
    parser.add_argument("--cap", type=int, default=8,
                        help="family instantiation bound of validate (default 8)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write output to this file")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate a structure file or builtin")
    p.add_argument("object")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cfd", help="build the type D structure of a CFK model")
    p.add_argument("cfk")
    p.set_defaults(func=cmd_cfd)

    p = sub.add_parser("hfk", help="hat-flavor homology of a CFK model")
    p.add_argument("cfk")
    p.set_defaults(func=cmd_hfk)

    p = sub.add_parser("pair", help="box tensor product and its homology")
    p.add_argument("pattern")
    p.add_argument("complement")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("induce", help="induced chain map of a type D morphism")
    p.add_argument("pattern")
    p.add_argument("morphism")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("morphisms", help="morphism space of two type D structures")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.set_defaults(func=cmd_morphisms)

    p = sub.add_parser("no-cancel", help="no-cancellation criterion")
    p.add_argument("--pattern", required=True)
    p.add_argument("--generator")
    p.set_defaults(func=cmd_no_cancel)

    p = sub.add_parser("distinguish", help="satellite distinguishability verdict")
    p.add_argument("--pattern", required=True)
    p.add_argument("--knot", required=True)
    p.add_argument("--morphism", required=True)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("stab-bound", help="cable stabilization-distance bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--knot", required=True)
    p.add_argument("--morphism", required=True)
    p.set_defaults(func=cmd_stab_bound)

    p = sub.add_parser("swap", help="summand-swap action test")
    p.add_argument("cfk")
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("alex", help="satellite Alexander polynomial")
    p.add_argument("--dp", help="pattern polynomial file (default 1)")
    p.add_argument("--dk", required=True, help="companion polynomial file")
    p.add_argument("--w", type=int, required=True, help="winding number")
    p.set_defaults(func=cmd_alex)

    p = sub.add_parser("pi1-hom", help="permutation quotients of a presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--surjective", action="store_true")
    p.set_defaults(func=cmd_pi1_hom)

    p = sub.add_parser("dump", help="re-emit a structure as JSON or Graphviz")
    p.add_argument("object")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, serial.SchemaError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonterminationError as exc:
        print(f"nontermination: {exc}", file=sys.stderr)
        return EXIT_NONTERMINATION
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
