"""Tests of the benchmark itself (about two minutes):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("workload", ["cocycle-monomial", "cocycle-poly",
                                      "example-main"])
def test_seed_determines_inputs(workload):
    assert W.generate(workload, 7) == W.generate(workload, 7)
    assert W.generate(workload, 7) != W.generate(workload, 8)


def test_example_seed_zero_is_bundled_file():
    import dp6.cli

    path = dp6.cli.bundled_path("example-main")
    with open(path, encoding="utf-8") as fh:
        assert W.example_scenario(path, W.example_shifts(0)) == json.load(fh)
    assert len(set(W.example_shifts(5))) == 4


def test_tracer_counts_calls_through_every_alias():
    import dp6
    import dp6.cli
    import dp6.scenario

    tower = W.build_towers(dp6.scenario.load_scenario)["Z6"]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.self_check(tower) == []
        bound = {m for m, _ in tracer.bindings["fieldtower.apply"]}
        assert {"dp6.fieldtower", "dp6.surface", "dp6.points",
                "dp6.sarkisov"} <= bound
        assert "dp6.fieldtower" in {
            m for m, _ in tracer.bindings["ratfunc.cancel_pair"]}
        assert {("RadElement", k) for k in ("__mul__", "__rmul__", "__pow__")
                } <= set(tracer.bindings["fieldtower.rad_mul"])
        dp6.points.apply(tower.element_named("g"), tower.var("x1"))
        assert tracer.calls("fieldtower.apply") == 1
    finally:
        tracer.uninstall()
    assert not hasattr(dp6.points.apply, "__wrapped__")


def test_provenance_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        res, err = run.spawn("cli-small", 0, 1, timeout=120)
        assert err is None, err
        counts.append({k: v for k, v in res["trace"]["counts"].items()
                       if k.startswith("fieldtower.norm_class.")})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCH["workloads"]} <= set(W.WORKLOADS)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_declared_metric_is_emitted(workload):
    result, detail = run.run(workload, 0, 0, 0)
    assert result["correct"], detail["problems"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, detail = run.run(workload, 0, 0, 1)
    # correct includes: traced reports equal the untraced ones and golden
    assert result["correct"], detail["problems"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        unit = result["metrics"].get(m["name"], {}).get("unit")
        assert unit in (None, m["unit"]), m["name"]


def test_traced_report_equals_untraced():
    plain, err = run.spawn("cli-small", 0, 0, timeout=150)
    assert err is None, err
    traced, err = run.spawn("cli-small", 0, 1, timeout=150)
    assert err is None, err
    assert plain["digest"] == traced["digest"]
    assert plain["failed"] == traced["failed"] == 0


def test_times_are_scaled_to_the_reference_speed():
    res, err = run.spawn("cli-small", 0, 0, timeout=150)
    assert err is None, err
    for samples in ("setup_reference_s", "reference_s"):
        assert len(res[samples]) >= 5
        assert all(t > 0 for t in res[samples])
    metrics, extra = run.end_to_end([res])
    assert metrics["wall_s"] == pytest.approx(
        extra["raw_wall_s"] * run.speed_factor(res))
    assert metrics["setup_s"] == pytest.approx(
        res["setup_s"] * run.speed_factor(res, "setup_reference_s"))
