"""Print a digest of ``TypeAStructure.validate(cap)`` problem lists, one line
per (module, cap), for comparing two versions of the engine byte for byte.

Modules: the four F2 builtins, the (p,1)-cables for p = 1..12, the invalid
and beyond-cap modules of ``test_structures``, and 60 seeded random F2[U]
modules; caps 2..6.  Run it from the repository root against each version's
sources and compare the outputs::

    PYTHONPATH=src:tests python tests/validate_equivalence.py > new.txt
    PYTHONPATH=<other checkout>/src:tests python tests/validate_equivalence.py > old.txt
    cmp old.txt new.txt
"""

import hashlib
import random

from diskfloer.library import (
    cfa_cable_2_neg1,
    cfa_cable_p1,
    cfa_longitude,
    cfa_mazur_hat,
    cfa_whitehead,
)
from diskfloer.structures import AGenerator, TypeAFamily, TypeAOp, TypeAStructure
from diskfloer.torus_algebra import IDEMPOTENTS, RHOS
from test_structures import A_INFINITY_FAILING, BEYOND_CAP, U_POWER_ON_F2

CAPS = range(2, 7)
RANDOM_MODULES = 60


def random_module(seed: int) -> TypeAStructure:
    """Three or four generators with random idempotents, up to ten
    operations (some repeated, so that pairs cancel mod 2) and up to three
    families, all words of up to four letters."""
    rng = random.Random(seed)
    names = [f"g{i}" for i in range(rng.randrange(3, 5))]

    def word(min_len=0):
        return tuple(rng.choice(RHOS) for _ in range(rng.randrange(min_len, 5)))

    ops = [TypeAOp(rng.choice(names), word(), rng.randrange(4), rng.choice(names))
           for _ in range(rng.randrange(11))]
    ops += [rng.choice(ops) for _ in range(rng.randrange(4))] if ops else []
    fams = [TypeAFamily(rng.choice(names), word(), word(1), word(),
                        rng.randrange(3), rng.randrange(3), rng.choice(names))
            for _ in range(rng.randrange(4))]
    gens = [AGenerator(g, rng.choice(IDEMPOTENTS)) for g in names]
    return TypeAStructure("F2U", gens, ops, fams, name=f"random{seed}")


def modules():
    yield from (cfa_longitude(), cfa_whitehead(), cfa_mazur_hat(), cfa_cable_2_neg1())
    yield from (cfa_cable_p1(p) for p in range(1, 13))
    yield from A_INFINITY_FAILING + [U_POWER_ON_F2, BEYOND_CAP]
    yield from (random_module(seed) for seed in range(RANDOM_MODULES))


def main() -> None:
    total = hashlib.sha256()
    cases = 0
    for module in modules():
        for cap in CAPS:
            problems = module.validate(cap)
            text = "\n".join(problems).encode()
            total.update(text + b"\0")
            cases += 1
            print(module.name, cap, len(problems), hashlib.sha256(text).hexdigest()[:16])
    print(f"{cases} cases, digest {total.hexdigest()}")


if __name__ == "__main__":
    main()
