"""Box tensor products and induced maps: frozen pairings, parity
cancellation, family matching, and the nontermination guard."""

import os
import random
import subprocess
import sys

import pytest

import diskfloer
from conftest import random_long_box_cfk
from diskfloer.cfk import CfkComplex, ChainPair, SimplifiedBases, build_cfd
from diskfloer.library import (
    builtin_cfk,
    cfa_cable_2_neg1,
    cfa_cable_p1,
    cfa_longitude,
    cfa_whitehead,
    cfd_m946,
    cfd_unknot,
    morphism_m946_diff,
)
from diskfloer.pairing import (
    NonterminationError,
    box_tensor,
    induced_map,
    match_word,
)
from diskfloer.structures import TypeDStructure
from diskfloer.torus_algebra import I0, I1, R1, R2, R3, R12, R23


def test_match_word_parity_cancellation():
    # two parallel paths with the same labels cancel mod 2
    graph = {"s": [(R1, "m1"), (R1, "m2")],
             "m1": [(R2, "t")], "m2": [(R2, "t")]}
    assert match_word(graph, "s", (R1, R2)) == {}
    graph = {"s": [(R1, "m1"), (R1, "m2")],
             "m1": [(R2, "t")], "m2": [(R2, "u")]}
    assert match_word(graph, "s", (R1, R2)) == {"t": 1, "u": 1}


def test_whitehead_pairs_with_unknot():
    box = box_tensor(cfa_whitehead(), cfd_unknot())
    assert box.generators == [("b", "v"), ("bp", "v"), ("d", "v")]
    col = box.index(("bp", "v"))
    targets = {box.generators[r] for r in range(3)
               if box.d.entries[r][col]}
    assert targets == {("b", "v"), ("d", "v")}
    assert box.d_squared_zero()
    summary = box.homology()
    assert summary.free_rank == 1
    # b (x) v is a nonzero cycle, hence a representative of the generator
    vec = [1 if g == ("b", "v") else 0 for g in box.generators]
    assert not any(box.d.apply(vec))
    from diskfloer.linalg import u_solve
    assert u_solve(box.d, vec) is None


def test_cable_pairs_with_unknot():
    for p in (1, 2, 3):
        box = box_tensor(cfa_cable_p1(p), cfd_unknot())
        assert box.generators == [("a", "v")]
        assert box.d.is_zero()
        summary = box.homology()
        assert summary.free_rank == 1 and not summary.torsion_orders


def test_longitude_pairs_with_m946():
    box = box_tensor(cfa_longitude(), cfd_m946())
    assert len(box.generators) == 9
    assert box.d.is_zero()
    assert box.homology().free_rank == 9
    assert box.homology().free_rank == builtin_cfk("m946").hfk_hat().free_rank


def test_d_squared_zero_on_builtin_pairs():
    patterns = [cfa_longitude(), cfa_whitehead(), cfa_cable_2_neg1(),
                cfa_cable_p1(1), cfa_cable_p1(2), cfa_cable_p1(3)]
    complements = [cfd_unknot(), cfd_m946()]
    for p in patterns:
        for n in complements:
            assert box_tensor(p, n).d_squared_zero(), (p.name, n.name)


def test_family_matching_in_cable_pairings():
    rng = random.Random(20)
    for _ in range(10):
        cfk, bases = random_long_box_cfk(rng)
        n = build_cfd(cfk, bases)
        for p in (1, 2):
            box = box_tensor(cfa_cable_p1(p), n)
            assert box.d_squared_zero()


def test_nontermination_detected():
    # a valid type D structure with a rho23 loop makes the cable family
    # match unboundedly many paths
    loop = TypeDStructure(
        [("w1", I0), ("w2", I0), ("x", I1)],
        [("w1", R3, "x"), ("w2", R3, "x"), ("x", R23, "x"),
         ("x", R2, "w1"), ("x", R2, "w2")], name="loop")
    assert loop.validate() == []
    with pytest.raises(NonterminationError) as exc:
        box_tensor(cfa_cable_p1(1), loop)
    assert exc.value.cycle == ["x"]


def test_nontermination_reports_the_cycle():
    # rho23 edges x -> y -> x: the cable family's repeat block cycles
    # through both nodes, and the error carries that cycle as data
    loop = TypeDStructure(
        [("w1", I0), ("w2", I0), ("x", I1), ("y", I1)],
        [("w1", R3, "x"), ("w2", R3, "x"), ("x", R23, "y"), ("y", R23, "x"),
         ("x", R2, "w1"), ("x", R2, "w2")], name="loop2")
    assert loop.validate() == []
    with pytest.raises(NonterminationError) as exc:
        box_tensor(cfa_cable_p1(1), loop)
    cycle = exc.value.cycle
    assert sorted(cycle) == ["x", "y"]
    graph = {g: loop.outgoing(g) for g in loop.generator_order}
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert v in match_word(graph, u, (R23,))



_LOOP2_SCRIPT = """
from diskfloer.library import cfa_cable_p1
from diskfloer.pairing import NonterminationError, box_tensor
from diskfloer.structures import TypeDStructure
from diskfloer.torus_algebra import I0, I1, R2, R3, R23
loop = TypeDStructure(
    [("w1", I0), ("w2", I0), ("x", I1), ("y", I1)],
    [("w1", R3, "x"), ("w2", R3, "x"), ("x", R23, "y"), ("y", R23, "x"),
     ("x", R2, "w1"), ("x", R2, "w2")], name="loop2")
try:
    box_tensor(cfa_cable_p1(1), loop)
except NonterminationError as exc:
    print(exc.cycle)
"""


def test_nontermination_cycle_does_not_depend_on_string_hashing():
    # the cycle of test_nontermination_reports_the_cycle, in processes with
    # different string hashes: the search walks nodes in graph order, so
    # the cycle starts at x, the first of its nodes
    src = os.path.dirname(os.path.dirname(diskfloer.__file__))
    cycles = [subprocess.run(
        [sys.executable, "-c", _LOOP2_SCRIPT], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
    ).stdout for seed in ("0", "1")]
    assert cycles == ["['x', 'y']\n"] * 2

def _one_long_box(n):
    """The type D structure of one box whose horizontal arrows have length
    n: the cable family's rho23 chain is a path of n repeat-graph nodes."""
    cfk = CfkComplex(["a1", "b1", "c1", "e1", "x"],
                     [("a1", "b1", n, 0), ("a1", "c1", 0, 1),
                      ("b1", "e1", 0, 1), ("c1", "e1", n, 0)])
    bases = SimplifiedBases(
        [ChainPair("b1", "e1", 1), ChainPair("a1", "c1", 1)],
        [ChainPair("a1", "b1", n), ChainPair("c1", "e1", n)],
        xi0="x", eta0="x")
    return build_cfd(cfk, bases)


def test_long_chain_pairs_without_recursion_limit():
    # one horizontal arrow twice the recursion limit long: a recursive
    # search from any node of the chain's first half overflows
    n = 2 * sys.getrecursionlimit()
    box = box_tensor(cfa_cable_p1(1), _one_long_box(n))
    assert box.d_squared_zero()


def test_very_long_chain_pairs():
    # the termination analysis is linear in the chain length; a fixpoint
    # that sweeps every node once per step was quadratic here
    box = box_tensor(cfa_cable_p1(1), _one_long_box(4000))
    assert box.d_squared_zero()


def test_graded_box_drops_filtration_lowering_terms():
    wh = cfa_whitehead()
    n = cfd_unknot()
    full = box_tensor(wh, n)
    gr = box_tensor(wh, n, preserving_only=True)
    assert gr.generators == full.generators
    # m1(b') = b lowers the filtration and disappears; m2(b', rho12) = d
    # preserves it and survives
    col = gr.index(("bp", "v"))
    targets = {gr.generators[r] for r in range(3) if gr.d.entries[r][col]}
    assert targets == {("d", "v")}


def test_induced_map_frozen_images():
    n1, n2 = cfd_unknot(), cfd_m946()
    f = morphism_m946_diff()

    def image(pattern, gen):
        cm = induced_map(pattern, f, n1, n2)
        img = cm.apply_generator((gen, "v"))
        return {y: c for (x, y), c in zip(cm.codomain.generators, img) if c}

    assert image(cfa_longitude(), "l") == {"e1": 1, "e2": 1}
    assert image(cfa_whitehead(), "b") == {
        "e1": 1, "e2": 1, "y3_1": 1, "y3_2": 1}
    assert image(cfa_cable_2_neg1(), "X") == {
        "e1": 1, "e2": 1, "y2_1": 1, "y2_2": 1}


def test_induced_map_cable_target_names():
    cm = induced_map(cfa_cable_2_neg1(), morphism_m946_diff(),
                     cfd_unknot(), cfd_m946())
    img = cm.apply_generator(("X", "v"))
    named = {f"{x}|{y}" for (x, y), c in zip(cm.codomain.generators, img) if c}
    assert named == {"X|e1", "X|e2", "B2|y2_1", "B2|y2_2"}


def test_induced_map_is_a_chain_map_for_identity_morphisms():
    rng = random.Random(21)
    patterns = [cfa_longitude(), cfa_whitehead(), cfa_cable_2_neg1(),
                cfa_cable_p1(2)]
    for _ in range(5):
        cfk, bases = random_long_box_cfk(rng)
        n = build_cfd(cfk, bases)
        entries = [(g, n.idempotent(g), g) for g in n.generator_order]
        from diskfloer.structures import TypeDMorphism
        ident = TypeDMorphism(entries, name="id")
        for p in patterns:
            cm = induced_map(p, ident, n, n)  # asserts the chain-map law
            # the identity morphism induces the identity chain map
            assert cm.matrix.entries == [
                [1 if i == j else 0 for j in range(len(cm.domain.generators))]
                for i in range(len(cm.codomain.generators))]


def test_induced_map_rejects_invalid_morphism():
    from diskfloer.structures import TypeDMorphism
    bad = TypeDMorphism([("v", R3, "y3_1")])
    with pytest.raises(ValueError):
        induced_map(cfa_longitude(), bad, cfd_unknot(), cfd_m946())
