"""Print digests of homology results and of ``TypeAStructure.lookup``, one
line per group, for comparing two versions of the engine byte for byte.

Groups, all from fixed seeds:

- ``f2_homology`` of 300 random mixed F2 complexes and ``u_homology`` of
  300 random mixed F2[U] complexes (the generators of ``test_linalg``);
- ``BoxComplex.homology()`` of every builtin pattern paired with 12
  seeded long-box knots, and ``morphism_space`` from the unknot
  complement to each of those knots;
- ``CfkComplex.hfk_hat`` of the three builtin knots;
- ``lookup`` on the (p,1)-cables for p = 1..12, at every generator, for
  every operation word and every family instance word of length at most 30.

Run it from the repository root against each version's sources and compare
the outputs::

    PYTHONPATH=src:tests python tests/homology_equivalence.py > new.txt
    PYTHONPATH=<other checkout>/src:tests python tests/homology_equivalence.py > old.txt
    cmp old.txt new.txt
"""

import hashlib
import random

from conftest import random_long_box_cfk
from diskfloer.cfk import build_cfd
from diskfloer.library import (
    builtin_cfk,
    cfa_cable_2_neg1,
    cfa_cable_p1,
    cfa_longitude,
    cfa_mazur_hat,
    cfa_whitehead,
    cfd_unknot,
)
from diskfloer.linalg import f2_homology, u_homology
from diskfloer.pairing import box_tensor
from diskfloer.structures import morphism_space
from test_linalg import _mixed_f2_complex, _mixed_u_complex

RANDOM_COMPLEXES = 300
KNOTS = 12
LONGEST_WORD = 30


def f2_cases():
    rng = random.Random(1)
    for _ in range(RANDOM_COMPLEXES):
        yield f2_homology(_mixed_f2_complex(rng))


def u_cases():
    rng = random.Random(2)
    for _ in range(RANDOM_COMPLEXES):
        yield u_homology(_mixed_u_complex(rng)[0])


def knots():
    rng = random.Random(3)
    return [build_cfd(*random_long_box_cfk(rng, max_boxes=3, max_len=2))
            for _ in range(KNOTS)]


def box_cases():
    patterns = [cfa_longitude(), cfa_whitehead(), cfa_mazur_hat(), cfa_cable_2_neg1(),
                cfa_cable_p1(1), cfa_cable_p1(2), cfa_cable_p1(3)]
    for n in knots():
        for pattern in patterns:
            yield box_tensor(pattern, n).homology()


def morphism_cases():
    for n in knots():
        dim, reps, slots, _ = morphism_space(cfd_unknot(), n)
        yield dim, reps, slots


def hfk_cases():
    for name in ("unknot", "fig8", "m946"):
        yield builtin_cfk(name).hfk_hat()


def lookup_cases():
    for p in range(1, 13):
        cable = cfa_cable_p1(p)
        words = {op.word for op in cable.ops}
        for fam in cable.families:
            i = 0
            while len(fam.word(i)) <= LONGEST_WORD:
                words.add(fam.word(i))
                i += 1
        for source in cable.generator_order:
            for word in sorted(words):
                yield p, source, word, sorted(cable.lookup(source, word).items())


GROUPS = {
    "f2_homology": f2_cases,
    "u_homology": u_cases,
    "BoxComplex.homology": box_cases,
    "morphism_space": morphism_cases,
    "hfk_hat": hfk_cases,
    "lookup": lookup_cases,
}


def main() -> None:
    total = hashlib.sha256()
    cases = 0
    for name, group in GROUPS.items():
        digest = hashlib.sha256()
        count = 0
        for result in group():
            digest.update(repr(result).encode() + b"\0")
            count += 1
        total.update(digest.digest())
        cases += count
        print(name, count, digest.hexdigest()[:16])
    print(f"{cases} cases, digest {total.hexdigest()}")


if __name__ == "__main__":
    main()
