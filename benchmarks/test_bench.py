"""Self-tests of the benchmark.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import workloads as W  # first: puts the checkout's src/ on sys.path
import oracles
import run
from tracer import COUNTS, SPANS, Tracer

from diskfloer import library, pipeline
from diskfloer.library import builtin_cfk, morphism_m946_diff

ROOT = Path(__file__).resolve().parent.parent
EXPECT = W.Expect(W.load_expected())


def _requests(workload, seed, n):
    stream = W.request_stream(workload, seed, EXPECT)
    return [next(stream) for _ in range(n)]


def _small(workload, n, limit):
    """The first n requests of seed 0 whose size is at most limit."""
    stream = W.request_stream(workload, 0, EXPECT)
    out = []
    for _ in range(10 ** 4):
        req, _ = next(stream)
        if req.size <= limit:
            out.append(req)
            if len(out) == n:
                return out
    raise AssertionError("not enough small requests")


SMALL = {"distinguish-wh": 40, "stab-cable": 60, "pair-f2": 40, "validate-cables": 30}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    a = [(r.key, r.expected) for r, _ in _requests(workload, 7, 40)]
    b = [(r.key, r.expected) for r, _ in _requests(workload, 7, 40)]
    c = [(r.key, r.expected) for r, _ in _requests(workload, 8, 40)]
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_no_request_repeats(workload):
    batches = W.Batches(workload, 3, EXPECT, batch=64)
    keys = [batches.next().key for _ in range(300)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("workload", ["distinguish-wh", "stab-cable", "pair-f2"])
def test_generated_morphisms_are_valid(workload):
    for _, model in _requests(workload, 5, 60):
        W.check_model(model)


def test_every_box_shape_gives_a_valid_morphism():
    for m in range(1, W.STAB_MAX_LEN + 1):
        for n in range(1, W.STAB_MAX_LEN + 1):
            W.check_model(W.long_box_model(((m, n), (n, m)), "s"))


def test_plain_two_box_model_matches_m946():
    model = W.long_box_model(((1, 1), (1, 1)), "s")
    ours = pipeline.distinguish(library.cfa_whitehead(), model.cfk, model.morphism,
                                model.bases)
    theirs = pipeline.distinguish(library.cfa_whitehead(), builtin_cfk("m946"),
                                  morphism_m946_diff())
    assert ours.outcome == theirs.outcome == "distinct"
    for p in range(1, 5):
        assert (pipeline.stab_bound(p, model.cfk, model.morphism, model.bases)
                == pipeline.stab_bound(p, builtin_cfk("m946"), morphism_m946_diff()))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_and_untraced_runs_agree(workload):
    reqs = _small(workload, 6, SMALL[workload])
    plain = [run.call(r)[:2] for r in reqs]
    tracer = Tracer()
    with tracer.patched():
        traced = []
        for r in reqs:
            with tracer.span_request(r.index):
                traced.append(run.call(r)[:2])
            tracer.end_request()
    assert not tracer.missing
    assert traced == plain
    assert [out for out, _ in plain] == [r.expected for r in reqs]


def _attributes():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "diskfloer" or name.startswith("diskfloer.")):
            snap[name] = dict(vars(mod))
            for value in vars(mod).values():
                if isinstance(value, type):
                    snap[f"{name}:{value.__name__}"] = dict(vars(value))
    return snap


def test_tracer_restores_every_patched_attribute():
    before = _attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert library.cfd_unknot is not None
            assert pipeline.distinguish is not before["diskfloer.pipeline"]["distinguish"]
            raise RuntimeError("leave the block early")
    after = _attributes()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, f"{key}.{attr}"
    assert len(SPANS) + len(COUNTS) > 0


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    reqs = _small("stab-cable", 4, 60) + _small("pair-f2", 3, 40)
    with tracer.patched():
        for r in reqs:
            with tracer.span_request(r.index):
                run.call(r)
            tracer.end_request()
    child = tracer.child_durations()
    root, total = {}, {}
    for i in range(len(tracer.starts)):
        req, dur = tracer.requests[i], tracer.ends[i] - tracer.starts[i]
        if tracer.parents[i] < 0:
            root[req] = dur
        total[req] = total.get(req, 0.0) + dur - child[i]
    assert set(root) == set(total) == {r.index for r in reqs}
    for req, dur in root.items():
        assert dur > 0
        assert total[req] == pytest.approx(dur, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_oracles_accept_expected_results(workload):
    for req in _small(workload, 2, SMALL[workload]):
        assert oracles.check(req, req.expected) == []


def test_oracles_reject_wrong_results():
    dist = _small("distinguish-wh", 1, 40)[0]
    outcome, witness = dist.expected
    dropped = dict(list(witness.items())[1:])
    assert oracles.check(dist, (outcome, dropped))
    stab = next(r for r in _small("stab-cable", 20, 60) if r.expected[0] > 1)
    order = stab.expected[0]
    assert oracles.check(stab, (order + 1, order + 1))
    assert oracles.check(stab, (order - 1, order - 1))
    pair = next(r for r in _small("pair-f2", 6, 40) if r.kind == "pair")
    assert oracles.check(pair, pair.expected + 1)
    morph = next(r for r in _small("pair-f2", 6, 40) if r.kind == "morphisms")
    assert oracles.check(morph, morph.expected - 2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert run.WORKLOAD_NAMES == W.WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "req_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s"}
    for m in spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"])
    predictions = json.loads((Path(__file__).with_name("predictions.json")).read_text())
    assert set(predictions) == set(run.PER_LAYER)
