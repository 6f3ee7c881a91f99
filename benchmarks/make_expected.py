"""Record the per-box expected-result tables in ``expected.json``.

Run on the commit whose results are taken as the reference (the tables in
the repository were recorded on the first benchmarked commit):

    python3 benchmarks/make_expected.py

Each table entry is the result of one request on a single box (or on the
singleton alone, for the pairing bases); ``workloads.Expect`` composes them
over the boxes of a request.
"""

from __future__ import annotations

import json

from workloads import (EXPECTED_PATH, PAIR_KINDS, PAIR_MAX_LEN, STAB_MAX_LEN, STAB_RUNGS,
                       VALIDATE_RUNGS, WH_MAX_LEN, Request, long_box_model, parse_knot_name)

from diskfloer import library, pipeline  # after workloads, which finds src/


def _shapes(max_len: int):
    return [(m, n) for m in range(1, max_len + 1) for n in range(1, max_len + 1)]


def distinguish_table():
    out = {}
    for m, n in _shapes(WH_MAX_LEN):
        model = long_box_model(((m, n),), "t")
        v = pipeline.distinguish(library.cfa_whitehead(), model.cfk, model.morphism,
                                 model.bases)
        support = v.witness if v.outcome == "distinct" else v.bounding
        rows = []
        for key, coeff in sorted((support or {}).items()):
            pg, knot_gen = key.split("(x)")
            role, box, step = parse_knot_name(knot_gen)
            assert box == 1
            rows.append([pg, role, step, coeff])
        out[f"{m},{n}"] = {"outcome": v.outcome, "witness": rows}
    return out


def stab_table():
    out = {}
    for p in sorted({p for p, _, _ in STAB_RUNGS}):
        row = {}
        for m, n in _shapes(STAB_MAX_LEN):
            model = long_box_model(((m, n),), "t")
            order, bound = pipeline.stab_bound(p, model.cfk, model.morphism, model.bases)
            assert order == bound
            row[f"{m},{n}"] = order
        out[str(p)] = row
    return out


def pair_table():
    out = {}
    for kind in PAIR_KINDS:
        def result(lengths):
            model = long_box_model(lengths, "t")
            if kind == "morphisms":
                return Request(0, "morphisms", (), 0, (model,), None).run()
            return Request(0, "pair", (), 0, (library.builtin(kind), model), None).run()

        base = result(())
        out[kind] = {"base": base,
                     "box": {f"{m},{n}": result(((m, n),)) - base
                             for m, n in _shapes(PAIR_MAX_LEN)}}
    return out


def validate_table():
    out = {}
    for name, cap in VALIDATE_RUNGS:
        out.setdefault(name, {})[str(cap)] = len(library.builtin(name).validate(cap))
    return out


def main() -> None:
    table = {
        "distinguish-wh": distinguish_table(),
        "stab-cable": stab_table(),
        "pair-f2": pair_table(),
        "validate-cables": validate_table(),
    }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
