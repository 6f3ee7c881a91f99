"""Type D and type A structures: validators, family word matching, and
morphism spaces."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskfloer.library import (
    cfa_cable_2_neg1,
    cfa_cable_p1,
    cfa_longitude,
    cfa_mazur_hat,
    cfa_whitehead,
    cfd_m946,
    cfd_unknot,
    morphism_m946_diff,
)
from diskfloer.structures import (
    AGenerator,
    TypeAFamily,
    TypeAOp,
    TypeAStructure,
    TypeDMorphism,
    TypeDStructure,
    morphism_residual,
    morphism_space,
    word_profile,
)
from diskfloer.torus_algebra import I0, I1, R1, R2, R3, R12, R23, R123, RHOS
from oracles import reference_validate, scan_lookup


def test_word_profile():
    assert word_profile((R3, R2, R1)) == (I0, I1)
    assert word_profile((R1, R1)) is None
    assert word_profile(()) is None


# -- type D ------------------------------------------------------------------

def test_type_d_builtins_validate():
    assert cfd_unknot().validate() == []
    assert cfd_m946().validate() == []


def test_type_d_idempotent_mismatch():
    d = TypeDStructure([("v", I1)], [("v", R12, "v")])
    assert any("idempotent" in p for p in d.validate())


def test_type_d_structure_equation_failure():
    # v --rho1--> w --rho2--> v contributes rho12 to delta^2 at (v, v)
    d = TypeDStructure([("v", I0), ("w", I1)],
                       [("v", R1, "w"), ("w", R2, "v")])
    problems = d.validate()
    assert any("structure equation" in p for p in problems)


def test_type_d_rejects_unknown_generators():
    with pytest.raises(ValueError):
        TypeDStructure([("v", I0)], [("v", R12, "z")])


# -- type A ------------------------------------------------------------------

ALL_PATTERNS = [
    cfa_longitude(), cfa_whitehead(), cfa_mazur_hat(), cfa_cable_2_neg1(),
    cfa_cable_p1(1), cfa_cable_p1(2), cfa_cable_p1(3), cfa_cable_p1(4),
]


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: p.name)
def test_type_a_builtins_validate(pattern):
    assert pattern.validate(8) == []


def test_whitehead_relation_cancellation():
    # at (b', [rho3, rho2, rho1]) the two compositions m1(m4(b',...)) = c
    # and m4(m1(b'),...) = c cancel
    wh = cfa_whitehead()
    assert wh.a_infinity_residual("bp", (R3, R2, R1)) == {}
    # removing the m2(d, rho3) = a operation breaks the relation at
    # (a', [rho2, rho3]) against m2(a', rho23) = a
    broken = TypeAStructure(
        "F2", [wh.gen_info[g] for g in wh.generator_order],
        [op for op in wh.ops if op != TypeAOp("d", (R3,), 0, "a")],
        name="broken")
    assert broken.a_infinity_residual("ap", (R2, R3)) != {}
    assert broken.validate(8) != []


def test_type_a_idempotent_compat_failure():
    bad = TypeAStructure("F2", [AGenerator("g", I0), AGenerator("h", I0)],
                         [TypeAOp("g", (R2,), 0, "h")])
    assert any("idempotent" in p or "mismatch" in p for p in bad.validate(2))


def test_f2_module_rejects_u_powers():
    bad = TypeAStructure("F2", [AGenerator("g", I0), AGenerator("h", I0)],
                         [TypeAOp("g", (R12,), 1, "h")])
    assert any("U-power" in p for p in bad.validate(2))


def test_family_match_and_lookup_are_exact():
    fam = TypeAFamily("a", (R3,), (R23,), (R2,), 2, 3, "a")
    one = TypeAStructure("F2U", [AGenerator("a", I0)], families=[fam])
    assert one.lookup("a", (R3, R2)) == {"a": 1 << 3}
    assert one.lookup("a", (R3, R23, R23, R2)) == {"a": 1 << 7}
    assert one.lookup("a", (R3, R23, R23)) == {}
    assert one.lookup("a", (R2, R23, R3)) == {}
    pattern = cfa_cable_p1(2)
    # lookup finds family instances far beyond any instantiation cap
    word = (R3,) + (R23,) * 40 + (R2,)
    assert pattern.lookup("a", word) == {"a": 1 << (2 * 40 + 2)}
    assert pattern.lookup("a", (R3, R2)) == {"a": 1 << 2}


NAMES = ("g0", "g1", "g2")
WORDS = st.lists(st.sampled_from(RHOS), max_size=4).map(tuple)


@st.composite
def random_patterns(draw):
    """Operations with repeated (source, word) pairs, some exact duplicates
    that cancel mod 2, plus families.  Idempotents play no part in lookup."""
    names = st.sampled_from(NAMES)
    ops = draw(st.lists(st.builds(TypeAOp, names, WORDS, st.integers(0, 3), names),
                        max_size=10))
    if ops:
        ops += draw(st.lists(st.sampled_from(ops), max_size=6))
    fams = draw(st.lists(st.builds(
        TypeAFamily, names, WORDS, WORDS.filter(bool), WORDS,
        st.integers(0, 2), st.integers(0, 2), names), max_size=3))
    return TypeAStructure("F2U", [AGenerator(g, I0) for g in NAMES], ops, fams)


@given(random_patterns(), st.lists(WORDS, max_size=5))
def test_lookup_matches_table_scan(pattern, extra_words):
    words = set(extra_words) | {op.word for op in pattern.ops}
    for f in pattern.families:
        words |= {f.prefix + f.repeat * i + f.suffix for i in range(4)}
    for source in NAMES:
        for word in words:
            assert pattern.lookup(source, word) == scan_lookup(pattern, source, word)


@settings(deadline=None)
@given(WORDS, WORDS.filter(bool), WORDS, st.integers(0, 3), WORDS)
@example((), (R23,), (R2,), 2, ())
@example((R3,), (R23,), (), 2, ())
@example((R3,), (R23, R2), (R2,), 0, (R1,))
def test_family_match_against_enumeration(prefix, repeat, suffix, i, other):
    fam = TypeAFamily("a", prefix, repeat, suffix, 1, 0, "a")
    one = TypeAStructure("F2U", [AGenerator("a", I0)], families=[fam])
    inst = fam.word(i)
    for word in (inst, inst[:-1], inst[1:], inst + other, other + inst, other):
        found = [j for j in range(len(word) + 1) if fam.word(j) == word]
        assert one.lookup("a", word) == ({"a": 1 << found[0]} if found else {})


def _a_infinity_failing():
    """Modules whose A-infinity relations really fail: an operation or a
    family dropped, or a family's U-power slope changed."""
    wh = cfa_whitehead()
    yield TypeAStructure(
        "F2", [wh.gen_info[g] for g in wh.generator_order],
        [op for op in wh.ops if op != TypeAOp("d", (R3,), 0, "a")], name="wh-op")
    for p in (2, 3):
        c = cfa_cable_p1(p)
        gens = [c.gen_info[g] for g in c.generator_order]
        fam = c.families[0]
        steeper = TypeAFamily(fam.source, fam.prefix, fam.repeat, fam.suffix,
                              fam.alpha + 1, fam.beta, fam.target)
        yield TypeAStructure("F2U", gens, c.ops[1:], c.families, name=f"c{p}-op")
        yield TypeAStructure("F2U", gens, c.ops, c.families[1:], name=f"c{p}-fam")
        yield TypeAStructure("F2U", gens, c.ops, [steeper] + c.families[1:],
                             name=f"c{p}-alpha")


A_INFINITY_FAILING = list(_a_infinity_failing())
U_POWER_ON_F2 = TypeAStructure("F2", [AGenerator("g", I0), AGenerator("h", I0)],
                               [TypeAOp("g", (R12,), 1, "h")], name="upow")

# m(x, (rho2 rho1)^(i+1)) = y for all i; m1(x) = w, m1(y) = z and
# m(w, rho2 rho1) = m(y, rho2 rho1) = z.  Instances up to cap give candidate
# words up to (rho2 rho1)^(cap+2), whose relation cancels
# m1(m(x, (rho2 rho1)^(cap+2))), the instance with parameter cap + 1,
# against m(m(x, (rho2 rho1)^(cap+1)), rho2 rho1).
BEYOND_CAP = TypeAStructure(
    "F2", [AGenerator(g, I1) for g in "xwyz"],
    [TypeAOp("x", (), 0, "w"), TypeAOp("y", (), 0, "z"),
     TypeAOp("w", (R2, R1), 0, "z"), TypeAOp("y", (R2, R1), 0, "z")],
    [TypeAFamily("x", (R2, R1), (R2, R1), (), 0, 0, "y")], name="beyond-cap")


@pytest.mark.parametrize("pattern",
                         A_INFINITY_FAILING + [U_POWER_ON_F2, BEYOND_CAP] + ALL_PATTERNS[:4]
                         + [cfa_cable_p1(p) for p in range(1, 9)],
                         ids=lambda p: p.name)
def test_validate_matches_scan_reference(pattern):
    for cap in (2, 3, 4, 5):
        problems = pattern.validate(cap)
        assert problems == reference_validate(pattern, cap)
        if pattern in A_INFINITY_FAILING:
            assert any(p.startswith("A-infinity relation fails") for p in problems)


def test_validate_reads_family_instances_beyond_cap():
    for cap in (2, 3, 4):
        assert BEYOND_CAP.lookup("x", (R2, R1) * (cap + 2)) == {"y": 1}
        assert BEYOND_CAP.validate(cap) == []


def test_validate_does_not_look_up(monkeypatch):
    calls = []
    lookup = TypeAStructure.lookup

    def counted(*args):
        calls.append(args[1:])
        return lookup(*args)

    monkeypatch.setattr(TypeAStructure, "lookup", counted)
    for pattern in [cfa_cable_p1(3), cfa_whitehead()] + A_INFINITY_FAILING:
        pattern.validate(4)
    assert calls == []
    # the counter does see a lookup
    assert cfa_cable_p1(3).lookup("a", (R1,)) == {"b4": 1}
    assert calls == [("a", (R1,))]


@settings(max_examples=30, deadline=None)
@given(random_patterns())
def test_validate_matches_scan_reference_on_random_modules(pattern):
    for cap in (2, 3, 4):
        assert pattern.validate(cap) == reference_validate(pattern, cap)


def test_family_instance_words():
    fam = TypeAFamily("a", (R3,), (R23,), (R2,), 1, 1, "a")
    assert fam.word(3) == (R3, R23, R23, R23, R2)
    one = TypeAStructure("F2U", [AGenerator("a", I0)], families=[fam])
    assert one.lookup("a", fam.word(3)) == {"a": 1 << 4}


def test_cable_operation_table_spot_checks():
    p3 = cfa_cable_p1(3)
    # m1(b_j) = U^{p-j} b_{2p-j-1}
    assert p3.lookup("b1", ()) == {"b4": 1 << 2}
    assert p3.lookup("b2", ()) == {"b3": 1 << 1}
    # m_2+j(a, rho12^j rho1) = b_{2p-j-2}
    assert p3.lookup("a", (R1,)) == {"b4": 1}
    assert p3.lookup("a", (R12, R1)) == {"b3": 1}
    # upper range: m(b_j, rho2 rho12^i rho1) = b_{j-i-1}
    assert p3.lookup("b4", (R2, R1)) == {"b3": 1}
    # lower range: m(b_j, rho2 rho12^i rho1) = U^{i+1} b_{j+i+1}
    assert p3.lookup("b1", (R2, R1)) == {"b2": 1 << 1}


# -- morphisms ---------------------------------------------------------------

def test_morphism_m946_diff_validates():
    f = morphism_m946_diff()
    assert f.validate(cfd_unknot(), cfd_m946()) == []


def test_morphism_transposed_entries_fail():
    # swapping the rho3 / rho1 targets breaks the morphism equation
    entries = []
    for i in (1, 2):
        entries += [("v", I0, f"e{i}"), ("v", R3, f"y3_{i}"),
                    ("v", R1, f"y2_{i}")]
    f = TypeDMorphism(entries)
    assert f.validate(cfd_unknot(), cfd_m946()) != []


def test_morphism_unknown_generator():
    f = TypeDMorphism([("z", I0, "e1")])
    assert any("not in domain" in p
               for p in f.validate(cfd_unknot(), cfd_m946()))


def test_identity_morphism_is_a_cycle():
    n = cfd_m946()
    entries = [(g, n.idempotent(g), g) for g in n.generator_order]
    assert morphism_residual(entries, n, n) == {}


def test_morphism_space_unknot_to_unknot():
    dim, reps, slots, mat = morphism_space(cfd_unknot(), cfd_unknot())
    # two compatible slots (unit and rho12), both cycles, none a boundary
    assert dim == 2
    assert len(slots) == 2
    assert mat.is_zero()
    assert len(reps) == 2


def test_morphism_space_operator_squares_to_zero():
    _, _, _, mat = morphism_space(cfd_unknot(), cfd_m946())
    assert mat.matmul(mat).is_zero()
