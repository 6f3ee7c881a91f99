"""CFK complexes: box expansion, validation, hat homology, basepoint
actions, connected sums, and the complement type D structure."""

import random

import pytest

from conftest import random_box_cfk, random_long_box_cfk
from diskfloer.cfk import (
    CfkComplex,
    ChainPair,
    SimplifiedBases,
    build_cfd,
    derive_box_bases,
)
from diskfloer.library import builtin_cfk, cfd_unknot
from diskfloer.torus_algebra import I0, I1, R1, R2, R3, R12, R123


def test_from_boxes_shapes():
    c = CfkComplex.from_boxes(2, 1)
    assert c.generators == ["a1", "b1", "c1", "e1", "a2", "b2", "c2", "e2", "x"]
    assert len(c.diff) == 8
    assert c.validate() == []
    assert CfkComplex.from_boxes(0, 2).generators == ["x1", "x2"]


def test_validation_catches_non_reduced_and_d_squared():
    c = CfkComplex(["a", "b"], [("a", "b", 0, 0)])
    assert any("non-reduced" in p for p in c.validate())
    c = CfkComplex(["a", "b"], [("a", "b", 1, 0), ("b", "a", 1, 0)])
    assert any("d^2" in p for p in c.validate())
    with pytest.raises(ValueError):
        CfkComplex(["a"], [("a", "z", 1, 0)])
    with pytest.raises(ValueError):
        CfkComplex(["a", "a"], [])


def test_hfk_ranks():
    assert builtin_cfk("unknot").hfk_hat().free_rank == 1
    assert builtin_cfk("fig8").hfk_hat().free_rank == 5
    assert builtin_cfk("m946").hfk_hat().free_rank == 9


def test_hfk_rank_formula_for_box_sums():
    # each box contributes 4 generators with vanishing hat differential
    rng = random.Random(10)
    for _ in range(20):
        c = random_box_cfk(rng)
        assert c.hfk_hat().free_rank == len(c.generators)


def test_phi_psi_nilpotent_and_commute():
    for name in ("unknot", "fig8", "m946"):
        pair = builtin_cfk(name).phi_psi()
        phi, psi = pair.phi, pair.psi
        assert phi.matmul(phi).is_zero()
        assert psi.matmul(psi).is_zero()
        assert phi.matmul(psi).row_bits == psi.matmul(phi).row_bits


def test_phi_psi_on_one_box():
    c = CfkComplex.from_boxes(1, 0)
    pair = c.phi_psi()
    idx = {g: i for i, g in enumerate(c.generators)}
    # U-entries a->b and c->e; V-entries a->c and b->e
    assert pair.phi.column(idx["a1"]) == 1 << idx["b1"]
    assert pair.phi.column(idx["c1"]) == 1 << idx["e1"]
    assert pair.psi.column(idx["a1"]) == 1 << idx["c1"]
    assert pair.psi.column(idx["b1"]) == 1 << idx["e1"]


def test_connected_sum_rank_multiplicative():
    f8 = builtin_cfk("fig8")
    cc = f8.connected_sum(f8)
    assert cc.validate() == []
    assert cc.hfk_hat().free_rank == 25
    pair = cc.phi_psi()
    assert pair.phi.matmul(pair.phi).is_zero()
    assert pair.psi.matmul(pair.psi).is_zero()


def test_derive_box_bases_requires_shorthand():
    c = CfkComplex(["x"], [])
    with pytest.raises(ValueError):
        derive_box_bases(c)
    bases = derive_box_bases(builtin_cfk("fig8"))
    assert bases.xi0 == "x" and bases.eta0 == "x"
    assert [(p.source, p.target) for p in bases.vertical] == [
        ("b1", "e1"), ("a1", "c1")]
    assert [(p.source, p.target) for p in bases.horizontal] == [
        ("a1", "b1"), ("c1", "e1")]


M946_EDGES = [
    ("e1", R123, "y2_1"), ("b1", R1, "y2_1"),
    ("c1", R123, "y4_1"), ("a1", R1, "y4_1"),
    ("e2", R123, "y2_2"), ("b2", R1, "y2_2"),
    ("c2", R123, "y4_2"), ("a2", R1, "y4_2"),
    ("a1", R3, "y1_1"), ("y1_1", R2, "b1"),
    ("c1", R3, "y3_1"), ("y3_1", R2, "e1"),
    ("a2", R3, "y1_2"), ("y1_2", R2, "b2"),
    ("c2", R3, "y3_2"), ("y3_2", R2, "e2"),
    ("x", R12, "x"),
]


def test_build_cfd_m946_frozen():
    d = build_cfd(builtin_cfk("m946"))
    assert len(d.generator_order) == 17
    by_idem = {I0: 0, I1: 0}
    for g in d.generator_order:
        by_idem[d.idempotent(g)] += 1
    assert by_idem == {I0: 9, I1: 8}
    assert sorted(d.edges) == sorted(M946_EDGES)
    assert d.validate() == []


def test_build_cfd_unknot_matches_builtin():
    d = build_cfd(builtin_cfk("unknot"))
    assert d.generator_order == ["x"]
    assert d.edges == [("x", R12, "x")]
    u = cfd_unknot()
    assert u.edges == [("v", R12, "v")]


def test_build_cfd_random_long_boxes_validate():
    rng = random.Random(11)
    for _ in range(20):
        cfk, bases = random_long_box_cfk(rng)
        d = build_cfd(cfk, bases)
        assert d.validate() == []
        # chain lengths: each vertical pair of length n contributes n kappa
        # generators, each horizontal pair of length m contributes m lambdas
        expected = len(cfk.generators) + sum(
            p.length for p in bases.vertical + bases.horizontal)
        assert len(d.generator_order) == expected


def test_build_cfd_rejects_bad_bases():
    c = builtin_cfk("fig8")
    bad = SimplifiedBases(
        vertical=[ChainPair("b1", "e1", 1)],  # a1, c1 uncovered
        horizontal=[ChainPair("a1", "b1", 1), ChainPair("c1", "e1", 1)],
        xi0="x", eta0="x")
    with pytest.raises(ValueError):
        build_cfd(c, bad)


def test_build_cfd_eta_expansion_change_of_basis():
    # the eta side may use sums of the xi basis; the identity expansion on a
    # valid complex must reproduce the plain construction
    c = builtin_cfk("fig8")
    bases = derive_box_bases(c)
    expanded = SimplifiedBases(
        bases.vertical, bases.horizontal, "x", "x",
        eta_expansion={g: (g,) for g in c.generators})
    d1 = build_cfd(c, bases)
    d2 = build_cfd(c, expanded)
    assert sorted(d1.edges) == sorted(d2.edges)
