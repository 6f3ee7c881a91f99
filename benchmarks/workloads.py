"""Seeded request streams for the diskfloer benchmark.

Every workload is an endless stream of requests drawn from
``random.Random(f"{workload}:{seed}")``.  The stream is built in cycles: a
cycle holds one request per rung of the workload's ladder, in a seeded order,
so every stretch of a run sees the same mix of sizes whatever the seed.
Within a rung the seed draws the shape (box count, arrow lengths, cable
parameter, validation cap).

Generator names carry the request index, so no two requests of a run are
identical inputs and a whole-request cache cannot hit.  Expected results come
from ``expected.json``: per-box tables recorded from the seed code by
``make_expected.py``, composed over the boxes of each request.  A long-box
knot is a direct sum of its boxes and the distinguished generator, so the
pairing complexes and morphism spaces split the same way.
"""

from __future__ import annotations

import json
import random
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

# The benchmark measures the checkout it sits in, never an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "diskfloer" / "__init__.py").is_file():
    raise ImportError(f"no diskfloer sources under {SRC}")
sys.path.insert(0, str(SRC))

from diskfloer import cfk, library, pairing, pipeline, structures
from diskfloer.cfk import ChainPair, CfkComplex, SimplifiedBases
from diskfloer.structures import AGenerator, TypeAFamily, TypeAOp, TypeAStructure, TypeDMorphism
from diskfloer.torus_algebra import I0, I1, R1, R3

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Ladders: one request per rung in every cycle.  A rung fixes the shape
# class and so, nearly, the cost: the seed places the longer arrows and the
# order of the rungs.  Rung costs on the seed code are spaced geometrically
# over about 1.5 decades, so no quantile sits on a step between two costs:
# on a shared two-CPU Xeon VM a run's speed drifted by up to 20%, and a
# quantile on a step jumped with it.  Sizes are capped so that the seed code
# completes well over 100 requests in one run of BENCHMARK.json's
# run_seconds, which the p90 latency needs (ten samples beyond it).
#
# distinguish-wh: (boxes, total length of the 2k arrows), lengths 1 or 2.
WH_RUNGS = ((2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (3, 9), (4, 8), (4, 10), (4, 16),
            (5, 13), (5, 15), (5, 18), (7, 14), (8, 16), (8, 20))
WH_MAX_LEN = 2
# stab-cable: (p, boxes, total arrow length), lengths 1 to 3.  The last rung
# is one box with both arrows of length 3, where the order reaches 24.
STAB_RUNGS = ((2, 1, 3), (2, 1, 5), (1, 4, 16), (3, 1, 4), (3, 2, 4), (5, 1, 3),
              (4, 1, 5), (2, 3, 15), (2, 3, 18), (7, 1, 4), (3, 2, 12), (6, 3, 6),
              (2, 5, 30), (4, 4, 12), (8, 1, 6))
STAB_MAX_LEN = 3
# pair-f2: (request, boxes, total arrow length), lengths 1 or 2.
PAIR_KINDS = ("cfa_whitehead", "cfa_cable_2_neg1", "morphisms")
PAIR_RUNGS = (("morphisms", 2, 4), ("cfa_whitehead", 2, 4), ("morphisms", 2, 6),
              ("cfa_cable_2_neg1", 2, 6), ("cfa_cable_2_neg1", 3, 6),
              ("cfa_cable_2_neg1", 2, 8), ("morphisms", 3, 12), ("cfa_cable_2_neg1", 5, 10),
              ("cfa_whitehead", 3, 9), ("morphisms", 5, 15), ("cfa_whitehead", 4, 12),
              ("cfa_cable_2_neg1", 7, 14), ("morphisms", 5, 20), ("cfa_whitehead", 7, 14),
              ("cfa_cable_2_neg1", 5, 20))
PAIR_MAX_LEN = 2
# validate-cables: (pattern, cap) for (p,1)-cables p = 4..12 and the F2
# builtins.
F2_BUILTINS = ("cfa_whitehead", "cfa_cable_2_neg1", "cfa_longitude", "cfa_mazur_hat")
VALIDATE_RUNGS = (tuple((f"cfa_cable_p1({p})", cap) for p, cap in (
    (4, 2), (5, 2), (4, 3), (6, 2), (7, 2), (6, 3), (7, 3), (7, 4), (8, 4), (9, 2),
    (10, 3), (11, 3), (12, 4))) + tuple((name, 3) for name in F2_BUILTINS))


# ---------------------------------------------------------------------------
# Long-box knot models
# ---------------------------------------------------------------------------

def knot_name(role: str, box: int, salt: str, step: int = 0) -> str:
    """Generator name: ``a3.s`` for box generators, ``y2_3_1.s`` for the
    step-th generator of a chain of box 3, ``x0.s`` for the singleton."""
    if step:
        return f"{role}_{box}_{step}.{salt}"
    return f"{role}{box}.{salt}"


def parse_knot_name(name: str) -> Tuple[str, int, int]:
    """Inverse of :func:`knot_name` without the salt: (role, box, step)."""
    base = name.rsplit(".", 1)[0]
    if "_" in base:
        role, box, step = base.split("_")
        return role, int(box), int(step)
    return base[0], int(base[1:]), 0


@dataclass
class KnotModel:
    cfk: CfkComplex
    bases: SimplifiedBases
    morphism: TypeDMorphism


def long_box_model(lengths, salt: str) -> KnotModel:
    """Boxes da = U^m b + V^n c, db = V^n e, dc = U^m e plus a singleton x,
    their simplified bases, and the k-box difference morphism from the
    unknot complement: per box a unit entry v -> e, a rho3 entry to the
    first generator of the b -> e vertical chain and a rho1 entry to the
    last generator of the c -> e horizontal chain (``morphism_m946_diff``
    is the case of two boxes with m = n = 1)."""
    gens: List[str] = []
    diff = []
    vertical: List[ChainPair] = []
    horizontal: List[ChainPair] = []
    entries = []
    for i, (m, n) in enumerate(lengths, 1):
        a, b, c, e = (knot_name(r, i, salt) for r in "abce")
        gens += [a, b, c, e]
        diff += [(a, b, m, 0), (a, c, 0, n), (b, e, 0, n), (c, e, m, 0)]

        def chain(role: str, length: int) -> Tuple[str, ...]:
            return tuple(knot_name(role, i, salt, s) for s in range(1, length + 1))

        vertical.append(ChainPair(b, e, n, chain("y2", n)))
        vertical.append(ChainPair(a, c, n, chain("y4", n)))
        horizontal.append(ChainPair(a, b, m, chain("y1", m)))
        horizontal.append(ChainPair(c, e, m, chain("y3", m)))
        entries += [("v", I0, e),
                    ("v", R3, knot_name("y2", i, salt, 1)),
                    ("v", R1, knot_name("y3", i, salt, m))]
    x = knot_name("x", 0, salt)
    gens.append(x)
    k = CfkComplex(gens, diff, name=f"long{len(lengths)}.{salt}")
    bases = SimplifiedBases(vertical, horizontal, xi0=x, eta0=x)
    return KnotModel(k, bases,
                     TypeDMorphism(entries, name=f"diff{len(lengths)}.{salt}"))


def check_model(model: KnotModel) -> None:
    """Input validation: the complex, its bases and the morphism."""
    model.cfk.check_valid()
    model.morphism.check_valid(library.cfd_unknot(), cfk.build_cfd(model.cfk, model.bases))


def renamed_pattern(p: TypeAStructure, salt: str, rng: random.Random) -> TypeAStructure:
    """The same A-infinity module with generators renamed by ``salt`` and
    its operations listed in a seeded order."""
    def rn(g: str) -> str:
        return f"{g}.{salt}"

    gens = [AGenerator(rn(g), info.idempotent, info.filtration, info.passive)
            for g, info in ((g, p.gen_info[g]) for g in p.generator_order)]
    ops = [TypeAOp(rn(op.source), op.word, op.upow, rn(op.target)) for op in p.ops]
    fams = [TypeAFamily(rn(f.source), f.prefix, f.repeat, f.suffix, f.alpha, f.beta,
                        rn(f.target)) for f in p.families]
    rng.shuffle(ops)
    rng.shuffle(fams)
    return TypeAStructure(p.ring, gens, ops, fams, fragment=p.fragment, name=rn(p.name))


def stab_size(p: int, lengths) -> int:
    """Generators of cfa_cable_p1(p) (box) cfd(K): idempotent-0 pairs
    (a with the 4k+1 box and singleton generators) plus idempotent-1 pairs
    (b_1..b_{2p-2} with the 2(m+n) chain generators of each box)."""
    chains = sum(2 * (m + n) for m, n in lengths)
    return 4 * len(lengths) + 1 + (2 * p - 2) * chains


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Request:
    index: int
    kind: str                 # the library call, see ``run``
    key: Tuple                # the input's identity (shape and names)
    size: int                 # generators of cfd(K) or of the cable
                              # pairing, or operation instances
    args: Tuple
    expected: Any

    def run(self) -> Any:
        """The timed call through the public API; module attributes are
        looked up at call time so a tracer's patches apply."""
        k, a = self.kind, self.args
        if k == "distinguish":
            v = pipeline.distinguish(*a)
            return (v.outcome, v.witness if v.outcome == "distinct" else v.bounding)
        if k == "stab_bound":
            return pipeline.stab_bound(*a)
        if k == "pair":
            pattern, model = a
            box = pairing.box_tensor(pattern, cfk.build_cfd(model.cfk, model.bases))
            return box.homology().free_rank
        if k == "morphisms":
            (model,) = a
            return structures.morphism_space(
                library.cfd_unknot(), cfk.build_cfd(model.cfk, model.bases))[0]
        if k == "validate":
            pattern, cap = a
            return len(pattern.validate(cap))
        raise ValueError(f"unknown request kind {k}")


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


class Expect:
    """Composes expected results from the per-box tables."""

    def __init__(self, table: Dict[str, Any]):
        self.t = table

    def distinguish(self, lengths, salt: str):
        entries = {}
        for i, (m, n) in enumerate(lengths, 1):
            box = self.t["distinguish-wh"][f"{m},{n}"]
            if box["outcome"] != "distinct":
                raise ValueError(f"no composition rule for box {m},{n}")
            for pg, role, step, coeff in box["witness"]:
                key = f"{pg}(x){knot_name(role, i, salt, step)}"
                entries[key] = entries.get(key, 0) ^ coeff
        return ("distinct", {k: c for k, c in entries.items() if c})

    def stab(self, p: int, lengths):
        orders = [self.t["stab-cable"][str(p)][f"{m},{n}"] for m, n in lengths]
        if any(o is None for o in orders):
            return (None, None)
        best = max(orders, default=0)
        return (best, best)

    def pair(self, kind: str, lengths) -> int:
        t = self.t["pair-f2"][kind]
        return t["base"] + sum(t["box"][f"{m},{n}"] for m, n in lengths)

    def validate(self, name: str, cap: int) -> int:
        return self.t["validate-cables"][name][str(cap)]


def _arrows(rng: random.Random, k: int, total: int, max_len: int):
    """Arrow lengths (m, n) of k boxes, each in 1..max_len, summing to
    total over all 2k arrows."""
    arrows = [1] * (2 * k)
    for i in rng.sample([i for i in range(2 * k) for _ in range(max_len - 1)], total - 2 * k):
        arrows[i] += 1
    return tuple(zip(arrows[::2], arrows[1::2]))


def cfd_size(lengths) -> int:
    """Generators of cfd(K): four per box, one per chain step, singleton."""
    return 4 * len(lengths) + 1 + sum(2 * (m + n) for m, n in lengths)


def request_stream(workload: str, seed: int,
                   expect: Expect) -> Iterator[Tuple[Request, Optional[KnotModel]]]:
    """Requests of a workload with the knot model each one carries (None for
    validate-cables)."""
    rungs = RUNGS[workload]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        order = list(rungs)
        rng.shuffle(order)
        for rung in order:
            yield make_request(workload, rung, index, rng, expect)
            index += 1


def warmup_requests(workload: str, expect: Expect) -> List[Request]:
    """Requests of the workload's cheapest rungs, one of each request kind,
    run untimed during set-up.  Their indices lie beyond any measured
    request, so their names differ from every measured input."""
    rng = random.Random("warmup")
    rungs = {"distinguish-wh": WH_RUNGS[:1],
             "stab-cable": STAB_RUNGS[:2],
             "pair-f2": [next(r for r in PAIR_RUNGS if r[0] == kind) for kind in PAIR_KINDS],
             "validate-cables": VALIDATE_RUNGS[:1] + VALIDATE_RUNGS[-4:],
             }[workload]
    return [make_request(workload, rung, 10 ** 9 + i, rng, expect)[0]
            for i, rung in enumerate(rungs)]


def make_request(workload: str, rung, index: int, rng: random.Random,
                 expect: Expect) -> Tuple[Request, Optional[KnotModel]]:
    salt = f"r{index}"
    if workload == "validate-cables":
        name, cap = rung
        pattern = renamed_pattern(library.builtin(name), salt, rng)
        size = len(pattern.ops) + len(pattern.families) * (cap + 1)
        return Request(index, "validate", (name, cap, salt), size,
                       (pattern, cap), expect.validate(name, cap)), None
    if workload == "distinguish-wh":
        k, total = rung
        lengths = _arrows(rng, k, total, WH_MAX_LEN)
        model = long_box_model(lengths, salt)
        kind, size = "distinguish", cfd_size(lengths)
        args = (library.cfa_whitehead(), model.cfk, model.morphism, model.bases)
        expected = expect.distinguish(lengths, salt)
    elif workload == "stab-cable":
        p, k, total = rung
        lengths = _arrows(rng, k, total, STAB_MAX_LEN)
        model = long_box_model(lengths, salt)
        kind, size = "stab_bound", stab_size(p, lengths)
        args = (p, model.cfk, model.morphism, model.bases)
        expected = expect.stab(p, lengths)
    else:
        kind, k, total = rung
        lengths = _arrows(rng, k, total, PAIR_MAX_LEN)
        model = long_box_model(lengths, salt)
        size = cfd_size(lengths)
        expected = expect.pair(kind, lengths)
        if kind == "morphisms":
            args = (model,)
        else:
            kind, args = "pair", (library.builtin(kind), model)
    return Request(index, kind, (rung, lengths, salt), size, args, expected), model


RUNGS = {"distinguish-wh": WH_RUNGS, "stab-cable": STAB_RUNGS, "pair-f2": PAIR_RUNGS,
         "validate-cables": VALIDATE_RUNGS}
WORKLOADS = tuple(RUNGS)


class Batches:
    """Pulls requests from a stream in batches, checking that no input
    repeats and validating every input before it is handed out.  Callers
    fill batches outside any timed region."""

    def __init__(self, workload: str, seed: int, expect: Expect, batch: int = 16):
        self._stream = request_stream(workload, seed, expect)
        self._batch = batch
        self._ready: deque = deque()
        self._seen = set()

    def fill(self) -> None:
        for _ in range(self._batch):
            req, model = next(self._stream)
            if req.key in self._seen:
                raise AssertionError(f"request {req.index} repeats an earlier input")
            self._seen.add(req.key)
            if model is not None:
                check_model(model)
            self._ready.append(req)

    def next(self) -> Request:
        if not self._ready:
            self.fill()
        return self._ready.popleft()
