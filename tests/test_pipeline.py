"""End-to-end pipeline: candidate generators, the no-cancellation
criterion, distinguishability verdicts, stabilization bounds, and the
summand-swap action."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_long_box_model
from oracles import capped_solve
from diskfloer.cfk import build_cfd
from diskfloer.library import (
    builtin_cfk,
    cfa_cable_2_neg1,
    cfa_cable_p1,
    cfa_longitude,
    cfa_mazur_hat,
    cfa_whitehead,
    cfd_m946,
    cfd_unknot,
    morphism_m946_diff,
)
from diskfloer.linalg import u_solve_degree_capped
from diskfloer.pairing import box_tensor, induced_map
from diskfloer.pipeline import (
    distinguish,
    find_distinguished_generator,
    no_cancellation_check,
    stab_bound,
    swap_action_nontrivial,
)
from diskfloer.structures import AGenerator, TypeAFamily, TypeAOp, TypeAStructure
from diskfloer.torus_algebra import I0, R2, R12


# -- candidates --------------------------------------------------------------

def test_candidates():
    assert find_distinguished_generator(cfa_whitehead()) == ["b", "d"]
    assert find_distinguished_generator(cfa_cable_2_neg1()) == ["X"]
    assert find_distinguished_generator(cfa_mazur_hat()) == ["y4"]
    for p in (1, 2, 3):
        assert find_distinguished_generator(cfa_cable_p1(p)) == ["a"]
    assert find_distinguished_generator(cfa_longitude()) == ["l"]


def test_knotted_pattern_rejected():
    knotted = TypeAStructure(
        "F2", [AGenerator("g", I0), AGenerator("h", I0)], name="two")
    with pytest.raises(ValueError, match="not unknotted"):
        find_distinguished_generator(knotted)


# -- no-cancellation ---------------------------------------------------------

def test_no_cancellation_verdicts():
    ok, violators = no_cancellation_check(cfa_whitehead(), "b")
    assert ok and not violators
    ok, violators = no_cancellation_check(cfa_mazur_hat(), "y4")
    assert ok and not violators
    ok, violators = no_cancellation_check(cfa_cable_2_neg1(), "X")
    assert not ok
    assert sorted((op.source, op.word) for op in violators) == [
        ("A1", (R2, R12)), ("A2", (R2,))]


@pytest.mark.parametrize("p", range(1, 7))
def test_no_cancellation_lists_each_family_once(p):
    pattern = cfa_cable_p1(p)

    def preserving(source, target):
        fs, ft = pattern.filtration(source), pattern.filtration(target)
        return fs is None or ft is None or fs == ft

    ok, violators = no_cancellation_check(pattern, "a")
    assert [v for v in violators if isinstance(v, TypeAFamily)] == [
        f for f in pattern.families if f.target == "a" and preserving(f.source, "a")]
    # the verdict of a scan over the operations and families
    assert ok == (not [op for op in pattern.ops + pattern.families
                       if op.target == "a" and preserving(op.source, "a")])


def test_no_cancellation_unknown_generator():
    with pytest.raises(ValueError):
        no_cancellation_check(cfa_whitehead(), "zz")


# -- distinguish -------------------------------------------------------------

def test_distinguish_whitehead():
    v = distinguish(cfa_whitehead(), builtin_cfk("m946"), morphism_m946_diff())
    assert v.outcome == "distinct"
    assert v.theta_nonzero
    assert v.candidates == ["b", "d"]
    assert v.criterion == {"b": True, "d": False}
    assert v.witness == {"b(x)e1": 1, "b(x)e2": 1,
                         "a(x)y3_1": 1, "a(x)y3_2": 1}


def test_distinguish_longitude():
    v = distinguish(cfa_longitude(), builtin_cfk("m946"), morphism_m946_diff())
    assert v.outcome == "distinct"
    assert v.witness == {"l(x)e1": 1, "l(x)e2": 1}


def test_distinguish_cable_2_neg1_cancels():
    v = distinguish(cfa_cable_2_neg1(), builtin_cfk("m946"),
                    morphism_m946_diff())
    assert v.outcome == "not-distinguished"
    assert v.theta_nonzero
    assert v.criterion == {"X": False}
    assert v.bounding == {"A1(x)y3_1": 1, "A1(x)y3_2": 1,
                          "A2(x)y3_1": 1, "A2(x)y3_2": 1}
    # the exhibited element really bounds the image
    cm = induced_map(cfa_cable_2_neg1(), morphism_m946_diff(),
                     cfd_unknot(), cfd_m946())
    img = cm.apply_generator(("X", "v"))
    w = [1 if f"{x}(x){y}" in v.bounding else 0
         for (x, y) in cm.codomain.generators]
    assert cm.codomain.d.apply(w) == img


def test_distinguish_cables():
    for p in (1, 2, 3):
        v = distinguish(cfa_cable_p1(p), builtin_cfk("m946"),
                        morphism_m946_diff())
        assert v.outcome == "distinct"


def test_distinguish_refuses_fragments():
    with pytest.raises(ValueError, match="fragment"):
        distinguish(cfa_mazur_hat(), builtin_cfk("m946"),
                    morphism_m946_diff())


def test_distinguish_witnesses_are_cycles():
    for pattern in (cfa_whitehead(), cfa_longitude(), cfa_cable_p1(2)):
        v = distinguish(pattern, builtin_cfk("m946"), morphism_m946_diff())
        assert v.outcome == "distinct"
        gr = box_tensor(pattern, cfd_m946(), preserving_only=True)
        vec = [v.witness.get(f"{x}(x){y}", 0) for (x, y) in gr.generators]
        assert not any(gr.d.apply(vec))


def test_soundness_of_the_criterion():
    # whenever the criterion passes for a candidate and the theta-hypothesis
    # holds, the verdict is distinct
    k = builtin_cfk("m946")
    f = morphism_m946_diff()
    patterns = [cfa_whitehead(), cfa_longitude(),
                cfa_cable_p1(1), cfa_cable_p1(2), cfa_cable_p1(3),
                cfa_cable_p1(4), cfa_cable_2_neg1()]
    for p in patterns:
        v = distinguish(p, k, f)
        if v.theta_nonzero and any(v.criterion.values()):
            assert v.outcome == "distinct", p.name


# -- stabilization bounds ----------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_stab_bound(p):
    order, bound = stab_bound(p, builtin_cfk("m946"), morphism_m946_diff())
    assert order == p
    assert bound == p
    # cross-check the exact order with the degree-capped truncation oracle
    cm = induced_map(cfa_cable_p1(p), morphism_m946_diff(),
                     cfd_unknot(), cfd_m946())
    img = cm.apply_generator(("a", "v"))
    d = cm.codomain.d
    cap = d.max_degree() + 2 * p + 4
    assert u_solve_degree_capped(d, [e << order for e in img], cap) is not None
    assert u_solve_degree_capped(d, [e << (order - 1) for e in img], cap) is None


# -- whole pipeline on random long-box knots --------------------------------

def _bounds(d, z):
    """Whether z is a boundary, by the exact degree-capped F2 expansion of
    each connected block instead of the Smith form."""
    cap = d.max_degree() + max((e.bit_length() for e in z), default=0) + 1
    return capped_solve(d, list(z), cap) is not None


def _check_verdict(pattern, v, f, n1, n2):
    if not v.theta_nonzero:
        assert v.outcome == "not-distinguished"
        cm = induced_map(cfa_longitude(), f, n1, n2)
        assert _bounds(cm.codomain.d, cm.apply_generator(("l", "v")))
        return
    cm = induced_map(pattern, f, n1, n2)
    gr = box_tensor(pattern, n2, preserving_only=True)
    labels = [f"{x}(x){y}" for x, y in cm.codomain.generators]
    images = {a: cm.apply_generator((a, "v")) for a in v.candidates}

    def target(z):
        # the graded complex when z has a class there, else the full one
        return cm.codomain.d if any(gr.d.apply(z)) else gr.d

    if v.outcome == "distinct":
        w = [v.witness.get(label, 0) for label in labels]
        assert w in images.values()
        d = target(w)
        assert any(w) and not any(d.apply(w))
        assert not _bounds(d, w)
    else:
        assert v.outcome == "not-distinguished"
        for z in images.values():
            assert _bounds(target(z), z)
        if v.bounding is not None:
            z = images[v.candidates[0]]
            w = [v.bounding.get(label, 0) for label in labels]
            assert target(z).apply(w) == z


def _check_order(p, order, f, n1, n2):
    cm = induced_map(cfa_cable_p1(p), f, n1, n2)
    img = cm.apply_generator(("a", "v"))
    d = cm.codomain.d
    assert order is not None
    assert _bounds(d, [e << order for e in img])
    if order:
        assert not _bounds(d, [e << (order - 1) for e in img])


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_pipeline_on_random_long_boxes(seed, p):
    k, bases, f = random_long_box_model(random.Random(seed), max_len=3)
    n1, n2 = cfd_unknot(), build_cfd(k, bases)
    f.check_valid(n1, n2)
    for pattern in (cfa_whitehead(), cfa_cable_2_neg1()):
        _check_verdict(pattern, distinguish(pattern, k, f, bases), f, n1, n2)
    order, bound = stab_bound(p, k, f, bases)
    assert bound == order
    _check_order(p, order, f, n1, n2)


# -- swap action -------------------------------------------------------------

def test_swap_unknot_identity():
    r = swap_action_nontrivial(builtin_cfk("unknot"))
    assert r.outcome == "identity"
    assert r.witness is None
    assert r.involution_ok


def test_swap_fig8_nontrivial():
    r = swap_action_nontrivial(builtin_cfk("fig8"))
    assert r.outcome == "nontrivial"
    src, dst = r.witness
    assert src == {"a1(x)b1": 1}
    assert dst == {"b1(x)a1": 1}


def test_swap_m946_and_connected_sum_nontrivial():
    assert swap_action_nontrivial(builtin_cfk("m946")).outcome == "nontrivial"
    f8 = builtin_cfk("fig8")
    assert swap_action_nontrivial(f8.connected_sum(f8)).outcome == "nontrivial"
