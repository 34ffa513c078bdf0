"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_runs_end_to_end(name):
    rec = run.run_workload(name, workloads.DEFAULT_SEEDS[name], seconds=0, trace=False, tiny=True)
    assert rec["correct"] and rec["failed"] == 0, rec["problems"]
    assert rec["attempted"] >= 2
    assert sorted(rec["metrics"]) == sorted(run.END_TO_END)
    assert all(m["value"] > 0 for m in rec["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_traced_at_another_seed(name):
    # two traced executions: outputs match the untraced one, counters repeat
    rec = run.run_workload(name, 7, seconds=0, trace=True, tiny=True)
    assert rec["correct"] and rec["failed"] == 0, rec["problems"]
    assert sorted(rec["metrics"]) == sorted(run.PER_LAYER_UNITS)
    assert rec["samples"]["lift.solves"]["n"] == 2
    assert abs(sum(rec["layer_shares"].values()) - 1.0) < 1e-9


def test_corrupted_reference_makes_fail_ratio_nonzero(tmp_path):
    ref = json.loads((run.REFERENCES / "analyze_iq3.json").read_text(encoding="utf-8"))
    ref["files"]["analysis.json"]["sha256"] = "0" * 64
    (tmp_path / "analyze_iq3.json").write_text(json.dumps(ref), encoding="utf-8")
    rec = run.run_workload("analyze_iq3", 0, seconds=0, trace=False, ref_dir=tmp_path)
    assert rec["reference_checked"]
    assert rec["failed"] >= 1 and rec["fail_ratio"] > 0 and not rec["correct"]
    assert "analysis.json" in rec["problems"][0]


def test_float_outputs_compare_within_tolerance(tmp_path):
    rows = [f"{k * 0.25!r},{1.0 / (k + 3)!r}," for k in range(1000)]
    (tmp_path / "fluid.csv").write_text("# ctx\nt,q_1,d\n" + "\n".join(rows) + "\n", encoding="utf-8")
    ref = {"files": gate.fingerprint(tmp_path)}
    assert gate.compare(ref, tmp_path) == []
    sampled = ref["files"]["fluid.csv"]["csv"]["sampled"]
    sampled["0"][1] += 5e-10
    assert gate.compare(ref, tmp_path) == []
    sampled["0"][1] += 2e-9
    assert any("fluid.csv/sampled/0/1" in p for p in gate.compare(ref, tmp_path))


def test_tracing_restores_attributes_and_records_spans(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import swnet
    from swnet import cli

    def current():
        return {(p, a): vars(tracer._owner(swnet, p))[a] for p, a in tracer.WRAPPED}

    before = current()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError, match="leave"):
        with tracer.tracing(swnet, tr):
            assert all(current()[k] is not f for k, f in before.items())
            cfg = cli.parse_scenario(workloads.scenario("fluid_iq2", 0, tiny=True))
            assert cli.execute(cfg, tmp_path) == 0
            raise RuntimeError("leave the traced block by an exception")
    assert all(current()[k] is f for k, f in before.items())
    names = {s[0] for s in tr.spans}
    assert {"cli.parse_scenario", "cli.execute", "fluid.integrate_fluid", "lift.lift",
            "policy.select_schedule", "geometry.enumerate_dual_vertices"} <= names
    metrics, shares = tracer.layer_metrics(tr.spans)
    assert metrics["fluid.steps"] == 500 and metrics["policy.selections"] == 500
    assert metrics["lift.worst_kkt"] <= gate.KKT_TOL


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.execute", 0.0, 10.0, -1, None],
        ["sim.run", 1.0, 5.0, 0, {"slots": 3}],
        ["policy.select_schedule", 2.0, 3.0, 1, {"tie": 1}],
        ["policy.select_schedule", 3.0, 3.5, 1, {"tie": 0}],
    ]
    assert tracer.self_times(spans) == [6.0, 2.5, 1.0, 0.5]
    metrics, shares = tracer.layer_metrics(spans)
    assert metrics["sim.self_s"] == 2.5 and metrics["sim.slots"] == 3
    assert metrics["policy.tie_share"] == 0.5 and metrics["policy.busy_s"] == 1.5
    assert shares == {"cli": 0.6, "sim": 0.25, "policy": 0.15}


def test_seed_changes_inputs_but_not_work():
    for name in workloads.NAMES:
        base = workloads.scenario(name, workloads.DEFAULT_SEEDS[name])
        other = workloads.scenario(name, 12345)
        assert base != other
        assert base["experiment"].keys() == other["experiment"].keys()
    lam = workloads.scenario("analyze_iq3", 5)["lambda"]
    assert all(sum(map(Fraction, lam[i * 3:(i + 1) * 3])) == 1 for i in range(3))

