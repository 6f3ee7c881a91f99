"""Command-line front end: verbs, exit codes, determinism, and the
builtin dump/reload round-trip."""

import json
import os

import pytest

from diskfloer import cli

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    try:
        return code, json.loads(captured.out)
    except json.JSONDecodeError:
        pytest.fail(f"exit {code}, stdout not JSON; stderr: {captured.err}")


def test_validate_builtin(capsys):
    code, doc = run_json(capsys, "validate", "builtin:cfa_whitehead")
    assert code == 0
    assert doc["valid"] is True
    code, doc = run_json(capsys, "validate", "builtin:cfd_m946")
    assert code == 0 and doc["valid"]
    code, doc = run_json(capsys, "validate", "builtin:m946")
    assert code == 0 and doc["valid"]


def test_validate_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "generators": [{"name": "v", "idem": "i1"}],
        "edges": [{"from": "v", "rho": "12", "to": "v"}]}))
    code, doc = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert not doc["valid"]


def test_unknown_builtin_is_input_error(capsys):
    code, _ = run(capsys, "validate", "builtin:nope")
    assert code == 2


def test_bad_json_is_input_error(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _ = run(capsys, "validate", str(f))
    assert code == 2


_TYPE_A = {"ring": "F2", "generators": [{"name": "a", "idem": "i0"}]}
_CFK = {"generators": ["a", "b"], "diff": [{"from": "a", "to": "b", "u": 1, "v": 0}]}


@pytest.mark.parametrize("verb, doc, message", [
    ("validate", 5, "does not hold a JSON object"),
    ("hfk", None, "does not hold a JSON object"),
    ("validate", "edges", "does not hold a JSON object"),
    ("alex", {"min_exp": 0, "coeffs": "1"}, "not a list of coefficients"),
    ("alex", {"min_exp": 0, "coeffs": [2.7]}, "not an integer"),
    ("pi1-hom", {"generators": "ab", "relators": []}, "not a list of generators"),
    ("pi1-hom", {"generators": ["a"], "relators": ["aa"]}, "not a list of letters"),
    ("hfk", {"boxes": -2, "singletons": 1}, "not a non-negative integer"),
    ("hfk", {"boxes": 2.7, "singletons": 1}, "not a non-negative integer"),
    ("hfk", {"boxes": True, "singletons": 1}, "not a non-negative integer"),
    ("hfk", dict(_CFK, generators="ab"), "not a list of generators"),
    ("hfk", dict(_CFK, diff=[{"from": "a", "to": "b", "u": "1", "v": 0}]),
     "not a non-negative integer"),
    ("hfk", dict(_CFK, generators=["a", ["b"]]), "not a generator name"),
    ("validate", dict(_TYPE_A, generators=[{"name": "a", "idem": "i0",
                                            "filtration": "a"}]),
     "not an integer filtration"),
    ("validate", dict(_TYPE_A, generators=[{"name": "a", "idem": "i0",
                                            "passive": 1}]), "not a boolean"),
    ("validate", dict(_TYPE_A, generators=[{"name": {}, "idem": "i0"}]),
     "not a generator name"),
    ("validate", dict(_TYPE_A, ring="Z"), "unknown ring"),
    ("validate", {"generators": [{"name": "v", "idem": "i0"}],
                  "edges": [{"from": ["v"], "rho": "1", "to": "v"}]},
     "not a generator name"),
], ids=["number", "null", "string", "poly-coeffs-string", "poly-coeff-float",
        "presentation-generators-string", "presentation-relator-string",
        "negative-boxes", "float-boxes", "bool-boxes", "cfk-generators-string",
        "cfk-exponent-string", "cfk-name-list", "filtration-string",
        "passive-int", "type-a-name-object", "unknown-ring", "edge-name-list"])
def test_malformed_document_is_input_error(capsys, tmp_path, verb, doc, message):
    # every malformed document exits 2 with a message, not a traceback
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    argv = {"alex": ["alex", "--dk", str(f), "--w", "1"],
            "pi1-hom": ["pi1-hom", "--presentation", str(f), "--degree", "2"]
            }.get(verb, [verb, str(f)])
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_nontermination_exit_code(capsys, tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({
        "generators": [{"name": "w1", "idem": "i0"},
                       {"name": "w2", "idem": "i0"},
                       {"name": "x", "idem": "i1"}],
        "edges": [{"from": "w1", "rho": "3", "to": "x"},
                  {"from": "w2", "rho": "3", "to": "x"},
                  {"from": "x", "rho": "23", "to": "x"},
                  {"from": "x", "rho": "2", "to": "w1"},
                  {"from": "x", "rho": "2", "to": "w2"}]}))
    code, _ = run(capsys, "pair", "builtin:cfa_cable_p1(1)", str(loop))
    assert code == 3


def test_cfd_m946(capsys):
    code, doc = run_json(capsys, "cfd", "builtin:m946")
    assert code == 0
    assert len(doc["generators"]) == 17
    assert len(doc["edges"]) == 17


def test_hfk(capsys):
    code, doc = run_json(capsys, "hfk", "builtin:m946")
    assert code == 0
    assert doc["rank"] == 9


def test_pair(capsys):
    code, doc = run_json(capsys, "pair", "builtin:cfa_whitehead",
                         "builtin:cfd_unknot")
    assert code == 0
    assert doc["homology"] == {"free_rank": 1, "torsion_orders": []}


def test_induce(capsys):
    code, doc = run_json(capsys, "induce", "builtin:cfa_longitude",
                         "builtin:morphism_m946_diff",
                         "builtin:cfd_unknot", "builtin:cfd_m946")
    assert code == 0
    targets = {tuple(e["to"]) for e in doc["entries"]}
    assert targets == {("l", "e1"), ("l", "e2")}


def test_morphisms(capsys):
    code, doc = run_json(capsys, "morphisms", "builtin:cfd_unknot",
                         "builtin:cfd_unknot")
    assert code == 0
    assert doc["dimension"] == 2


def test_no_cancel_mazur(capsys):
    code, doc = run_json(capsys, "no-cancel", "--pattern",
                         "builtin:cfa_mazur_hat")
    assert code == 0
    assert doc["candidates"] == ["y4"]
    assert doc["results"] == [{"generator": "y4", "pass": True,
                               "violators": []}]


def test_no_cancel_reports_a_family_once(capsys):
    code, doc = run_json(capsys, "no-cancel", "--pattern",
                         "builtin:cfa_cable_p1(2)")
    assert code == 0
    assert doc["results"] == [{"generator": "a", "pass": False, "violators": [
        {"from": "a", "prefix": ["3"], "repeat": ["23"], "suffix": ["2"],
         "alpha": 2, "beta": 2, "to": "a"}]}]


def test_pair_with_idempotent_mismatch_is_validation_failure(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": "F2", "generators": [{"name": "x", "idem": "i0"}],
        "ops": [{"from": "x", "word": ["1"], "upow": 0, "to": "x"}]}))
    assert cli.main(["pair", str(bad), "builtin:cfd_m946"]) == 1
    assert "validation failure" in capsys.readouterr().err


@pytest.mark.parametrize("ring", ["F2", "F2U"])
def test_pair_non_complex_is_validation_failure(capsys, tmp_path, ring):
    # m2(a, rho12) = b and m2(b, rho12) = a: paired with the unknot's
    # rho12 loop, d a = b and d b = a, so d o d != 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": ring,
        "generators": [{"name": "a", "idem": "i0"}, {"name": "b", "idem": "i0"}],
        "ops": [{"from": "a", "word": ["12"], "upow": 0, "to": "b"},
                {"from": "b", "word": ["12"], "upow": 0, "to": "a"}]}))
    assert cli.main(["pair", str(bad), "builtin:cfd_unknot"]) == 1
    assert "validation failure: not a complex" in capsys.readouterr().err


_OP = {"from": "a", "word": ["12"], "upow": 0, "to": "b"}
_FAMILY = {"from": "a", "prefix": ["3"], "repeat": ["23"], "suffix": ["2"],
           "alpha": 2, "beta": 2, "to": "a"}


@pytest.mark.parametrize("key, entry", [
    ("ops", dict(_OP, upow="1")),
    ("ops", dict(_OP, upow=-1)),
    ("ops", dict(_OP, upow=True)),
    ("ops", dict(_OP, word="123")),
    ("families", dict(_FAMILY, alpha="2")),
    ("families", dict(_FAMILY, beta=-1)),
    ("families", dict(_FAMILY, repeat="23")),
])
def test_bad_type_a_numbers_and_words_are_input_errors(capsys, tmp_path,
                                                       key, entry):
    # U-powers, alpha and beta are non-negative integers and words are
    # lists: a string word would otherwise be read letter by letter
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": "F2U",
        "generators": [{"name": "a", "idem": "i0"}, {"name": "b", "idem": "i0"}],
        key: [entry]}))
    assert cli.main(["pair", str(bad), "builtin:cfd_unknot"]) == 2
    assert "input error: not a" in capsys.readouterr().err


def test_pair_f2_with_u_power_is_validation_failure(capsys, tmp_path):
    # d a = U b on an F2 module: its homology is not that of the constant
    # terms
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": "F2",
        "generators": [{"name": "a", "idem": "i0"}, {"name": "b", "idem": "i0"}],
        "ops": [dict(_OP, upow=1)]}))
    assert cli.main(["pair", str(bad), "builtin:cfd_unknot"]) == 1
    assert "validation failure: U-power" in capsys.readouterr().err


def test_induce_with_broken_relations_is_validation_failure(capsys, tmp_path):
    # m2(x, rho1) = y and m2(y, rho2) = x without m2(x, rho12)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": "F2",
        "generators": [{"name": "x", "idem": "i0"}, {"name": "y", "idem": "i1"}],
        "ops": [{"from": "x", "word": ["1"], "upow": 0, "to": "y"},
                {"from": "y", "word": ["2"], "upow": 0, "to": "x"}]}))
    assert cli.main(["induce", str(bad), "builtin:morphism_m946_diff",
                     "builtin:cfd_unknot", "builtin:cfd_m946"]) == 1
    assert "validation failure" in capsys.readouterr().err


def test_distinguish_whitehead(capsys):
    code, doc = run_json(capsys, "distinguish",
                         "--pattern", "builtin:cfa_whitehead",
                         "--knot", "builtin:m946",
                         "--morphism", "builtin:morphism_m946_diff")
    assert code == 0
    assert doc["outcome"] == "distinct"
    assert set(doc["witness"]) == {"b(x)e1", "b(x)e2",
                                   "a(x)y3_1", "a(x)y3_2"}


def test_stab_bound(capsys):
    code, doc = run_json(capsys, "stab-bound", "--p", "2",
                         "--knot", "builtin:m946",
                         "--morphism", "builtin:morphism_m946_diff")
    assert code == 0
    assert doc == {"torsion_order": 2, "bound": 2}


def test_swap(capsys):
    code, doc = run_json(capsys, "swap", "builtin:fig8")
    assert code == 0
    assert doc["outcome"] == "nontrivial"
    code, doc = run_json(capsys, "swap", "builtin:unknot")
    assert code == 0
    assert doc["outcome"] == "identity"


def test_alex(capsys, tmp_path):
    dk = tmp_path / "dk.json"
    dk.write_text(json.dumps({"min_exp": -1, "coeffs": [1, -3, 1]}))
    code, doc = run_json(capsys, "alex", "--dk", str(dk), "--w", "0")
    assert code == 0
    assert doc == {"min_exp": 0, "coeffs": [1]}


def test_pi1_hom_positron(capsys):
    pres = os.path.join(EXAMPLES, "positron.json")
    code, doc = run_json(capsys, "pi1-hom", "--presentation", pres,
                         "--degree", "3", "--surjective")
    assert code == 0
    assert doc["count"] > 0
    assert {"m": [0, 2, 1], "a": [1, 2, 0]} in doc["homomorphisms"]


def test_dump_round_trip_reproduces_output(capsys, tmp_path):
    # dump each builtin to a file; the file must validate and reproduce the
    # builtin's command output byte for byte
    for name, verb_args in [
        ("cfa_whitehead", ("no-cancel", "--pattern")),
    ]:
        path = tmp_path / f"{name}.json"
        code, dumped = run(capsys, "dump", f"builtin:{name}")
        assert code == 0
        path.write_text(dumped)
        code, doc = run_json(capsys, "validate", str(path))
        assert code == 0 and doc["valid"]
        verb, flag = verb_args
        _, out_builtin = run(capsys, verb, flag, f"builtin:{name}")
        _, out_file = run(capsys, verb, flag, str(path))
        assert out_builtin == out_file


def test_dump_all_builtins_validate_after_reload(capsys, tmp_path):
    for name in ("cfa_longitude", "cfa_whitehead", "cfa_mazur_hat",
                 "cfa_cable_2_neg1", "cfa_cable_p1(2)", "cfd_unknot",
                 "cfd_m946", "unknot", "fig8", "m946"):
        path = tmp_path / "obj.json"
        code, dumped = run(capsys, "dump", f"builtin:{name}")
        assert code == 0, name
        path.write_text(dumped)
        code, doc = run_json(capsys, "validate", str(path))
        assert code == 0, name
        assert doc["valid"], name


def test_deterministic_output(capsys):
    _, a = run(capsys, "distinguish", "--pattern", "builtin:cfa_whitehead",
               "--knot", "builtin:m946",
               "--morphism", "builtin:morphism_m946_diff")
    _, b = run(capsys, "distinguish", "--pattern", "builtin:cfa_whitehead",
               "--knot", "builtin:m946",
               "--morphism", "builtin:morphism_m946_diff")
    assert a == b


def test_dot_output(capsys):
    code, out = run(capsys, "dump", "builtin:cfd_unknot", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code = cli.main(["--out", str(target), "hfk", "builtin:fig8"])
    assert code == 0
    assert json.loads(target.read_text())["rank"] == 5


def test_text_format(capsys):
    code, out = run(capsys, "--format", "text", "hfk", "builtin:unknot")
    assert code == 0
    assert "rank: 1" in out
