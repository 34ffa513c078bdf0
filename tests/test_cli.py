import json
from pathlib import Path

import pytest

from swnet.cli import PresetUnknown, SchemaError, execute, main, parse_scenario
from swnet.sim import TEXT_ROWS


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def test_parse_preset_expansion():
    cfg = parse_scenario({"preset": "ex2", "experiment": {"kind": "analyze"}, "lambda": [1, 1]})
    assert cfg.model.n_queues == 2
    assert cfg.experiment_kind == "analyze"


def test_parse_iq_preset():
    cfg = parse_scenario(
        {"preset": "iq_switch", "M": 3, "experiment": {"kind": "analyze"}, "lambda": ["1/3"] * 9}
    )
    assert cfg.model.n_queues == 9
    assert len(cfg.model.schedules) == 6


def test_missing_experiment_rejected():
    with pytest.raises(SchemaError) as err:
        parse_scenario({"preset": "ex2"})
    assert err.value.pointer == "/experiment"


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse_scenario({"preset": "ex2", "experiment": {"kind": "analyze"}, "bogus": 1})
    assert "/bogus" in err.value.pointer


def test_unknown_experiment_key_rejected():
    with pytest.raises(SchemaError):
        parse_scenario({"preset": "ex2", "experiment": {"kind": "analyze", "nope": 2}})


def test_unknown_preset():
    with pytest.raises(PresetUnknown):
        parse_scenario({"preset": "mystery", "experiment": {"kind": "analyze"}})


def test_explicit_network_with_routing():
    cfg = parse_scenario(
        {
            "network": {
                "queues": 2,
                "schedules": [[0, 0], [1, 0], [0, 1], [1, 1]],
                "routing": [[0, 1]],
            },
            "experiment": {"kind": "analyze"},
            "lambda": [1, 1],
        }
    )
    assert not cfg.model.is_single_hop


def test_rational_strings_exact(tmp_path):
    cfg = parse_scenario(
        {"preset": "ex2", "lambda": ["1/3", "2/3"], "experiment": {"kind": "analyze"}}
    )
    code = execute(cfg, tmp_path / "out")
    assert code == 0
    doc = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert doc["lambda"] == ["1/3", "2/3"]
    assert doc["exact"] is True


@pytest.mark.parametrize(
    "lam, load_class, exact",
    [
        # exactly inadmissible (primal 2251799813685473/2251799813685248), but
        # float rates within 1e-9 of critical are snapped to critical
        ([1.0, 1.0000000000001], "critical", False),
        (["1", "10000000000001/10000000000000"], "inadmissible", True),
    ],
)
def test_analyze_flags_float_rates_as_approximate(tmp_path, lam, load_class, exact):
    doc = _analysis(tmp_path, {"preset": "ex2", "lambda": lam, "experiment": {"kind": "analyze"}})
    assert (doc["class"], doc["exact"]) == (load_class, exact)


def test_analyze_outputs_virtual_resources(tmp_path):
    cfg = parse_scenario({"preset": "ex2", "lambda": [1, 1], "experiment": {"kind": "analyze"}})
    assert execute(cfg, tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert doc["primal_value"] == "1"
    assert doc["class"] == "critical"
    assert ["1/3", "2/3"] in doc["maximal"] and ["0", "1"] in doc["maximal"]
    assert (tmp_path / "out" / "manifest.json").exists()


def _analysis(tmp_path, scenario):
    assert execute(parse_scenario(scenario), tmp_path / "out") == 0
    return json.loads((tmp_path / "out" / "analysis.json").read_text())


def test_analyze_tests_complete_loading_against_the_reported_clvr(tmp_path):
    # row 2 and column 2 load to 1 + 2**-53 in exact arithmetic; tolerances.clvr admits them,
    # and complete loading is tested against the same four resources that analysis.json lists
    doc = _analysis(tmp_path / "float", {
        "preset": "iq_switch", "M": 2, "lambda": [0.5, 0.5, 0.5, 0.5000000000000001],
        "tolerances": {"clvr": 1e-9}, "experiment": {"kind": "analyze"},
    })
    exact = _analysis(tmp_path / "exact", {"preset": "iq_switch", "M": 2, "lambda": ["1/2"] * 4,
                                           "experiment": {"kind": "analyze"}})
    assert doc["clvr"] == exact["clvr"] and len(doc["clvr"]) == 4
    assert doc["complete_loading"] == exact["complete_loading"]
    assert doc["complete_loading"]["holds"] is True


def test_analyze_multi_hop_uses_aggregated_rates(tmp_path):
    # R~ (1/2, 1/2) = (1/2, 1) on tandem(2): the second queue is critically loaded
    doc = _analysis(tmp_path, {"preset": "tandem", "N": 2, "lambda": ["1/2", "1/2"], "experiment": {"kind": "analyze"}})
    assert doc["lambda"] == ["1/2", "1/2"]
    assert (doc["class"], doc["primal_value"], doc["clvr"]) == ("critical", "1", [["0", "1"]])


@pytest.mark.parametrize(
    "network, lam",
    [
        *(({"preset": "ex2"}, lam) for lam in (["1/2", "1/2"], [1, 1], [0, "11/10"])),
        *(({"preset": "iq_switch", "M": 2}, lam) for lam in (["1/4"] * 4, ["1/2"] * 4, ["3/4", "1/2", 0, 0])),
        *(({"preset": "tandem", "N": 2}, lam) for lam in (["1/2", 0], ["1/2", "1/2"], [1, "1/2"])),
        *(({"preset": "tandem", "N": 3}, lam) for lam in (["1/4"] * 3, ["1/3"] * 3, ["1/2", 0, "1/2"], ["1/2"] * 3)),
    ],
)
def test_analyze_load_class_agrees_with_critical_resources(tmp_path, network, lam):
    doc = _analysis(tmp_path, {**network, "lambda": lam, "experiment": {"kind": "analyze"}})
    assert doc["strong_duality"]
    if doc["class"] == "strictly_admissible":
        assert doc["clvr_plus"] == []
    if doc["class"] == "critical":
        assert doc["clvr"] != []


def test_simulate_and_corrupted_replay(tmp_path):
    scenario = {
        "preset": "ex2",
        "arrivals": {"kind": "bernoulli", "lambda": [0.9, 0.5]},
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "simulate", "horizon": 200, "q0": [1, 0]},
        "seed": 3,
    }
    cfg = parse_scenario(scenario)
    assert execute(cfg, tmp_path / "clean") == 0
    traj = (tmp_path / "clean" / "trajectory.csv").read_text()
    lines = traj.splitlines()
    assert lines[0].startswith("#") and "policy=" in lines[0]
    row = next(i for i, ln in enumerate(lines) if ln.startswith("59,"))
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + 7.0)  # corrupt one queue value
    (tmp_path / "bad.csv").write_text("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1 :]))
    bad = dict(scenario)
    bad["experiment"] = {"kind": "simulate", "audit_csv": str(tmp_path / "bad.csv")}
    code = execute(parse_scenario(bad), tmp_path / "corrupt")
    assert code == 2
    audit = json.loads((tmp_path / "corrupt" / "audit.json").read_text())
    assert not audit["ok"]
    assert any(v["slot"] == 59 for v in audit["violations"])


@pytest.mark.parametrize(
    "col, cells, message",
    [
        pytest.param(1, ["x"], "data row 60, column 2: expected a number, got 'x'", id="text-cell"),
        pytest.param(3, [], "data row 60: expected 10 cells, got 9", id="short-row"),
        pytest.param(0, ["59.5"], "data row 60, column 1: expected an integer", id="fractional-tau"),
        pytest.param(9, ["7"], "data row 60: chosen_schedule 7 is not in 0..", id="schedule-out-of-range"),
        pytest.param(1, ["nan"], "data row 60, column 2: expected a finite number, got 'nan'", id="nan-queue"),
        pytest.param(3, ["inf"], "data row 60, column 4: expected a finite number, got 'inf'", id="inf-arrival"),
    ],
)
def test_malformed_audit_csv_is_a_schema_error(tmp_path, capsys, col, cells, message):
    """Row 60 (tau = 59) of a clean export gets cells [col] replaced by ``cells``."""
    scenario = dict(_EX2_SIM, experiment={"kind": "simulate", "horizon": 100, "q0": [1, 0]}, seed=3)
    assert execute(parse_scenario(scenario), tmp_path / "clean") == 0
    lines = (tmp_path / "clean" / "trajectory.csv").read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("59,"))
    row_cells = lines[row].split(",")
    row_cells[col : col + 1] = cells
    (tmp_path / "bad.csv").write_text("\n".join(lines[:row] + [",".join(row_cells)] + lines[row + 1 :]))
    bad = dict(scenario, experiment={"kind": "simulate", "audit_csv": str(tmp_path / "bad.csv")})
    with pytest.raises(SchemaError) as err:
        execute(parse_scenario(bad), tmp_path / "direct")
    assert err.value.pointer == "/experiment/audit_csv"
    assert message in str(err.value)
    assert main(["simulate", _write(tmp_path, "bad.json", bad), "--out", str(tmp_path / "o")]) == 1
    assert "schema error at /experiment/audit_csv: data row 60" in capsys.readouterr().err


def test_lift_command_fixed_point(tmp_path):
    cfg = parse_scenario(
        {
            "preset": "ex2",
            "lambda": [1, 1],
            "policy": {"kind": "mw", "alpha": 1.0},
            "experiment": {"kind": "lift", "q": [0, 3]},
        }
    )
    assert execute(cfg, tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "lift.json").read_text())
    assert doc["is_fixed_point"] is True
    assert doc["kkt_residual"] <= 1e-8
    assert doc["lambda"] == ["1", "1"] and doc["weight"] == "power(1)"


def test_byte_identical_reruns(tmp_path):
    scenario = {
        "preset": "iq_switch",
        "M": 2,
        "lambda": ["1/2"] * 4,
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "collapse", "r_list": [4, 6], "reps": 2, "T": 0.5},
        "seed": 5,
    }
    for name in ("a", "b"):
        assert execute(parse_scenario(dict(scenario)), tmp_path / name) in (0, 2)
    for fname in ("mssc.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_main_seed_override_and_mismatch(tmp_path):
    path = _write(
        tmp_path,
        "s.json",
        {"preset": "ex2", "lambda": [1, 1], "experiment": {"kind": "analyze"}},
    )
    assert main(["analyze", path, "--out", str(tmp_path / "o1"), "--seed", "9"]) == 0
    doc = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    assert doc["seed"] == 9
    assert main(["simulate", path, "--out", str(tmp_path / "o2")]) == 1  # kind mismatch


def test_main_schema_error_exit_code(tmp_path):
    path = _write(tmp_path, "bad.json", {"preset": "ex2"})
    assert main(["analyze", path, "--out", str(tmp_path / "o")]) == 1


_EX2_SIM = {
    "preset": "ex2",
    "arrivals": {"kind": "bernoulli", "lambda": [0.9, 0.5]},
    "policy": {"kind": "mw", "alpha": 1.0},
}
_SIM = {"kind": "simulate", "horizon": 20}


@pytest.mark.parametrize(
    "scenario, pointer",
    [
        pytest.param(
            {"preset": "ex2", "lambda": [1, 1], "experiment": {"kind": "lift", "q": [1, 2, 3]}},
            "/experiment/q",
            id="lift-q-wrong-length",
        ),
        pytest.param(
            dict(_EX2_SIM, **{"lambda": [1, 1], "experiment": {"kind": "collapse", "r_list": []}}),
            "/experiment/r_list",
            id="empty-r_list",
        ),
        pytest.param(
            {"preset": "ex2", "lambda": "11", "experiment": {"kind": "analyze"}},
            "/lambda",
            id="lambda-as-string",
        ),
        pytest.param(
            dict(_EX2_SIM, experiment={"kind": "simulate", "horizon": 10.7}),
            "/experiment/horizon",
            id="fractional-horizon",
        ),
        pytest.param(
            {"preset": "iq_switch", "M": 2.7, "lambda": ["1/2"] * 4, "experiment": {"kind": "analyze"}},
            "/M",
            id="fractional-iq_switch-M",
        ),
        pytest.param(
            {"preset": "tandem", "N": 2.0, "lambda": [1, 0], "experiment": {"kind": "analyze"}},
            "/N",
            id="fractional-tandem-N",
        ),
        pytest.param(
            {
                "network": {"queues": 2.0, "schedules": [[1, 0], [0, 1]]},
                "lambda": [1, 1],
                "experiment": {"kind": "analyze"},
            },
            "/network/queues",
            id="fractional-network-queues",
        ),
        pytest.param(
            {"experiment": {"kind": "iqcheck", "M": 2.5}},
            "/experiment/M",
            id="fractional-iqcheck-M",
        ),
        pytest.param(
            {"M": "2", "experiment": {"kind": "iqcheck"}},
            "/M",
            id="string-iqcheck-top-level-M",
        ),
        pytest.param(
            {"experiment": {"kind": "iqcheck", "M": 4}},
            "/experiment/M",
            id="iqcheck-M-above-3",
        ),
        pytest.param(
            {"M": 4, "experiment": {"kind": "iqcheck"}},
            "/M",
            id="iqcheck-top-level-M-above-3",
        ),
        pytest.param(
            {"preset": "ex2", "network": {"queues": 1, "schedules": [[1]]}, "lambda": [1, 1],
             "experiment": {"kind": "analyze"}},
            "/network",
            id="preset-and-network",
        ),
        pytest.param(
            {"lambda": [1, 1], "experiment": {"kind": "analyze"}},
            "/network",
            id="neither-preset-nor-network",
        ),
        pytest.param(
            {"preset": "ex2", "experiment": {"kind": "analyze"}},
            "/lambda",
            id="analyze-without-lambda",
        ),
        pytest.param(
            {"preset": "ex2", "lambda": [1, 1], "experiment": {"kind": "analyze"}, "seed": 1.5},
            "/seed",
            id="fractional-seed",
        ),
        pytest.param(
            dict(_EX2_SIM, arrivals={"kind": "bernoulli", "lambda": [float("inf"), 0.5]}, experiment=_SIM),
            "/arrivals/lambda/0",
            id="infinite-arrival-rate",
        ),
        pytest.param(
            dict(_EX2_SIM, experiment=dict(_SIM, q0=[float("inf"), 0])),
            "/experiment/q0/0",
            id="infinite-q0",
        ),
        pytest.param(
            {"preset": "ex2", "lambda": ["1/2", float("nan")], "experiment": {"kind": "lift", "q": [1, 0]}},
            "/lambda/1",
            id="nan-lambda",
        ),
        pytest.param(
            dict(_EX2_SIM, arrivals={"kind": "bernoulli"}, experiment=_SIM),
            "/arrivals/lambda",
            id="bernoulli-without-lambda",
        ),
        pytest.param(
            dict(_EX2_SIM, arrivals={"kind": "bernoulli", "lambda": [0.3]}, experiment=_SIM),
            "/arrivals/lambda",
            id="arrival-rates-wrong-length",
        ),
        pytest.param(
            dict(_EX2_SIM, **{"lambda": [1, 1], "experiment": {"kind": "fluid", "h": "abc"}}),
            "/experiment/h",
            id="text-step",
        ),
        pytest.param(
            dict(_EX2_SIM, policy={"kind": "mw", "alpha": "x"}, experiment=_SIM),
            "/policy/alpha",
            id="text-alpha",
        ),
        pytest.param(
            {"preset": "ex2", "lambda": [1, 1], "experiment": {"kind": "lift", "q": [1, 0]}, "tolerances": {"kkt": "tight"}},
            "/tolerances/kkt",
            id="text-tolerance",
        ),
        pytest.param(
            {"experiment": {"kind": "iqcheck", "alphas": "ab"}},
            "/experiment/alphas",
            id="text-alphas",
        ),
        pytest.param(
            {"experiment": {"kind": "iqcheck", "alphas": [0.5, 1.0]}},
            "/experiment/alphas",
            id="increasing-alphas",
        ),
        pytest.param(
            {"network": {"queues": 2, "schedules": [[1, 0], [0, 1]], "routing": [[0, 5]]}, "lambda": [1, 1],
             "experiment": {"kind": "analyze"}},
            "/network/routing/0",
            id="routing-to-missing-queue",
        ),
        pytest.param(
            {"network": {"queues": 2, "schedules": [[1, 0], [0]]}, "lambda": [1, 1], "experiment": {"kind": "analyze"}},
            "/network/schedules/1",
            id="ragged-schedules",
        ),
        pytest.param(
            dict(_EX2_SIM, experiment=dict(_SIM, record_every=0)),
            "/experiment/record_every",
            id="zero-record_every",
        ),
        pytest.param(
            dict(_EX2_SIM, experiment=dict(_SIM, horizon=-5)),
            "/experiment/horizon",
            id="negative-horizon",
        ),
        pytest.param(
            dict(_EX2_SIM, **{"lambda": [1, 1], "experiment": {"kind": "collapse", "require_decreasing": "false"}}),
            "/experiment/require_decreasing",
            id="text-require_decreasing",
        ),
        pytest.param(
            {"preset": "iq_switch", "M": 2, "lambda": ["1/2"] * 4, "policy": {"kind": "mw"},
             "experiment": {"kind": "collapse", "gamma": [1]}},
            "/experiment/gamma",
            id="gamma-wrong-length",
        ),
        pytest.param(
            {"preset": "iq_switch", "M": 2, "lambda": ["1/2"] * 4, "policy": {"kind": "mw"},
             "experiment": {"kind": "collapse", "r_list": [10], "gamma": [-20, 0, 0, 0]}},
            "/experiment/gamma",
            id="gamma-pushes-a-rate-above-1",
        ),
        pytest.param(
            {"preset": "iq_switch", "M": 2, "lambda": [2, 0, 0, 2], "policy": {"kind": "mw"},
             "experiment": {"kind": "collapse", "r_list": [10]}},
            "/lambda",
            id="collapse-rate-above-1",
        ),
        pytest.param(
            dict(_EX2_SIM, **{"lambda": [1, 1], "experiment": {"kind": "collapse", "reps": 0}}),
            "/experiment/reps",
            id="zero-reps",
        ),
        pytest.param(
            {"preset": "ex3", "lambda": [1, 1], "experiment": {"kind": "analyze"}},
            "/preset",
            id="unknown-preset",
        ),
        pytest.param(
            dict(_EX2_SIM, policy={"kind": "backpressure"}, experiment=_SIM),
            "/policy",
            id="backpressure-on-single-hop",
        ),
        pytest.param(
            dict(_EX2_SIM, arrivals={"kind": "markov_modulated", "transition": [[0.5, 0.4], [0, 1]], "rates": [[1, 0]] * 2},
                 experiment=_SIM),
            "/arrivals",
            id="transition-row-not-a-distribution",
        ),
        pytest.param(
            {"network": {"queues": 2, "schedules": [[1, 1]], "routing": [[0, 1], [1, 0]]}, "lambda": [1, 1],
             "experiment": {"kind": "analyze"}},
            "/network",
            id="cyclic-routing",
        ),
        pytest.param(
            {"preset": "ex2", "lambda": [1, 1], "policy": {"kind": "mw"},
             "experiment": {"kind": "fluid", "h": 0.1, "T": 0.25}},
            "/experiment/T",
            id="fluid-T-not-a-multiple-of-h",
        ),
    ],
)
def test_bad_input_is_a_schema_error(tmp_path, capsys, scenario, pointer):
    with pytest.raises(SchemaError) as err:
        execute(parse_scenario(json.loads(json.dumps(scenario))), tmp_path / "direct")
    assert err.value.pointer == pointer
    path = _write(tmp_path, "bad.json", scenario)
    assert main([scenario["experiment"]["kind"], path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"swnet: schema error at {pointer}:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "kind, scenario, pointer",
    [
        ("fluid", {"preset": "iq_switch", "M": 4, "lambda": ["1/4"] * 16, "experiment": {"T": 20.0}}, "/M"),
        ("lift", {"preset": "iq_switch", "M": 4, "lambda": ["1/4"] * 16, "experiment": {"q": [1] * 16}}, "/M"),
        ("collapse", {"preset": "iq_switch", "M": 4, "lambda": ["1/4"] * 16, "experiment": {}}, "/M"),
        ("lift", {"preset": "tandem", "N": 5, "lambda": ["1/2", 0, 0, 0, 0], "experiment": {"q": [1, 0, 0, 0, 0]}}, "/N"),
    ],
)
def test_a_model_too_large_for_exact_geometry_is_a_schema_error_at_its_size(
    tmp_path, capsys, monkeypatch, kind, scenario, pointer
):
    # fluid, lift and collapse need the dual vertices; they have no budget key, so the error names the model's size
    def no_path(*args, **kwargs):
        raise AssertionError("integrated the path before the geometry")

    monkeypatch.setattr("swnet.cli.integrate_fluid", no_path)
    scenario = dict(scenario, policy={"kind": "mw"}, experiment=dict(scenario["experiment"], kind=kind))
    with pytest.raises(SchemaError, match="candidate bases$") as err:
        execute(parse_scenario(scenario), tmp_path / "direct")
    assert err.value.pointer == pointer and "budget" not in str(err.value)
    assert main([kind, _write(tmp_path, "big.json", scenario), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"swnet: schema error at {pointer}: ")


def test_analyze_over_the_vertex_budget_is_a_schema_error_at_the_budget(tmp_path, capsys, monkeypatch):
    # analyze has a budget key, the input to change, and refuses before it solves any LP
    def no_lp(*args, **kwargs):
        raise AssertionError("solved an LP before the vertex budget check")

    monkeypatch.setattr("swnet.cli.solve_primal", no_lp)
    monkeypatch.setattr("swnet.cli.solve_dual", no_lp)
    scenario = {"preset": "iq_switch", "M": 4, "lambda": ["1/4"] * 16, "experiment": {"kind": "analyze"}}
    with pytest.raises(SchemaError, match="candidate bases exceed budget 20000; raise the budget") as err:
        execute(parse_scenario(scenario), tmp_path / "direct")
    assert err.value.pointer == "/experiment/budget"
    assert main(["analyze", _write(tmp_path, "big.json", scenario), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("swnet: schema error at /experiment/budget: ")


def test_analyze_with_an_unserved_loaded_queue_is_a_schema_error_at_lambda(tmp_path, capsys):
    # queue 1 has rate 1/2 but no schedule serves it: PRIMAL(lambda) is infeasible
    scenario = {
        "network": {"queues": 2, "schedules": [[1, 0]], "routing": []},
        "lambda": ["1/2", "1/2"],
        "experiment": {"kind": "analyze"},
    }
    with pytest.raises(SchemaError, match=r"no schedule serves positively loaded queue\(s\) \[1\]$") as err:
        execute(parse_scenario(scenario), tmp_path / "direct")
    assert err.value.pointer == "/lambda"
    assert main(["analyze", _write(tmp_path, "unserved.json", scenario), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "swnet: schema error at /lambda: no schedule serves positively loaded queue(s) [1]\n"


@pytest.mark.parametrize(
    "experiment",
    [{"kind": "lift", "q": [1, 1]}, {"kind": "fluid", "q0": [1, 1], "T": 0.1}, {"kind": "collapse", "r_list": [5]}],
    ids=lambda exp: exp["kind"],
)
def test_an_unserved_loaded_queue_is_refused_before_any_lift(tmp_path, capsys, experiment):
    # the lifting program needs PRIMAL(lambda) feasible; queue 1 is loaded but never served
    scenario = {
        "network": {"queues": 2, "schedules": [[1, 0]], "routing": []},
        "lambda": ["1/2", "1/2"],
        "policy": {"kind": "mw"},
        "experiment": experiment,
    }
    with pytest.raises(SchemaError, match=r"no schedule serves positively loaded queue\(s\) \[1\]$") as err:
        execute(parse_scenario(scenario), tmp_path / "direct")
    assert err.value.pointer == "/lambda" and not any((tmp_path / "direct").iterdir())
    path = _write(tmp_path, "unserved.json", scenario)
    assert main([experiment["kind"], path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "swnet: schema error at /lambda: no schedule serves positively loaded queue(s) [1]\n"


def test_a_fluid_grid_over_the_cell_budget_is_a_schema_error_at_h(tmp_path, capsys, monkeypatch):
    # h = 1e-9 is inside the schema's (0, 0.1], but T/h + 1 = 1e9 rows of 2 queues used to die in a MemoryError;
    # the budget is checked before the path is integrated
    def no_path(*args, **kwargs):
        raise AssertionError("integrated the path before the budget check")

    monkeypatch.setattr("swnet.cli.integrate_fluid", no_path)
    scenario = {"preset": "ex2", "lambda": [1, 1], "policy": {"kind": "mw"},
                "experiment": {"kind": "fluid", "h": 1e-9, "T": 1.0}}
    with pytest.raises(SchemaError, match="1e\\+09 state rows of 2 queues exceed the run budget of 4000000 cells$") as err:
        execute(parse_scenario(scenario), tmp_path / "direct")
    assert err.value.pointer == "/experiment/h"
    assert main(["fluid", _write(tmp_path, "fine.json", scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swnet: schema error at /experiment/h: ") and err.count("\n") == 1


def test_the_fluid_cell_budget_counts_every_grid_row_and_queue(tmp_path, monkeypatch):
    # (T/h + 1) x N cells: 10 rows of 2 queues fit a budget of 20 cells, 11 rows do not
    import swnet.cli as cli

    monkeypatch.setattr(cli, "RUN_CELLS", 20)
    scenario = {"preset": "ex2", "lambda": [1, 1], "policy": {"kind": "mw"}, "experiment": {"kind": "fluid", "h": 0.1}}
    scenario["experiment"]["T"] = 0.9
    assert execute(parse_scenario(scenario), tmp_path / "fits") == 0
    scenario["experiment"]["T"] = 1.0
    with pytest.raises(SchemaError, match="exceed the run budget of 20 cells$") as err:
        execute(parse_scenario(scenario), tmp_path / "over")
    assert err.value.pointer == "/experiment/h"


@pytest.mark.parametrize(
    "experiment, pointer, runner",
    [
        pytest.param({"kind": "simulate", "horizon": 10**12}, "/experiment/horizon", "run", id="simulate-horizon"),
        pytest.param({"kind": "collapse", "r_list": [10**7]}, "/experiment/r_list", "mssc_experiment",
                     id="collapse-r_list"),
    ],
)
def test_a_run_over_the_cell_budget_is_a_schema_error(tmp_path, capsys, monkeypatch, experiment, pointer, runner):
    # a horizon of 1e12 slots, or a scale whose r^2 T slots are 1e14, used to die in numpy's MemoryError with a
    # traceback; the budget is checked before anything is simulated
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the budget check")

    monkeypatch.setattr(f"swnet.cli.{runner}", no_run)
    scenario = {"preset": "ex2", "lambda": ["1/2", "1/2"], "policy": {"kind": "mw"},
                "arrivals": {"kind": "bernoulli", "lambda": [0.5, 0.5]}, "experiment": experiment}
    assert main([experiment["kind"], _write(tmp_path, "long.json", scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"swnet: schema error at {pointer}: ") and err.count("\n") == 1
    assert err.endswith("exceed the run budget of 4000000 cells\n")


def test_the_collapse_cell_budget_counts_every_slot_of_every_replication(tmp_path, monkeypatch):
    # reps x sum_r (ceil(r^2 T) + 1) x N cells: 2 x ((4 + 1) + (9 + 1)) x 2 = 60 cells
    import swnet.cli as cli

    scenario = {"preset": "ex2", "lambda": [1, 1], "policy": {"kind": "mw"},
                "experiment": {"kind": "collapse", "r_list": [2, 3], "reps": 2, "T": 1.0, "grid_points": 5,
                               "median_max_at_largest_r": 10.0, "require_decreasing": False}}
    monkeypatch.setattr(cli, "RUN_CELLS", 60)
    assert execute(parse_scenario(scenario), tmp_path / "fits") == 0
    monkeypatch.setattr(cli, "RUN_CELLS", 59)
    with pytest.raises(SchemaError, match="= 30 state rows of 2 queues exceed the run budget of 59 cells$") as err:
        execute(parse_scenario(scenario), tmp_path / "over")
    assert err.value.pointer == "/experiment/r_list"


def test_iqcheck_runs_at_a_large_alpha(tmp_path, capsys):
    # iq2x2_root_exists raised OverflowError at alpha = 1000: (1 + w__)^a and theta's powers are past the float range
    scenario = {"experiment": {"kind": "iqcheck", "M": 2, "alphas": [1000.0], "samples": 10, "coverage_samples": 5,
                               "grid_points": 50}, "seed": 12}
    assert main(["iqcheck", _write(tmp_path, "large.json", scenario), "--out", str(tmp_path / "o")]) in (0, 2)
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "o" / "iqcheck.json").read_text())["membership_grid_points"] == 50


def test_iqcheck_runs_at_a_tiny_alpha(tmp_path, capsys):
    # iq2x2_membership raised OverflowError at alpha = 1e-9: (w^a + w^a)^(1/a) is past the float range
    scenario = {"experiment": {"kind": "iqcheck", "M": 2, "alphas": [1.0, 1e-9], "samples": 10, "coverage_samples": 5,
                               "grid_points": 300}, "seed": 12}
    assert main(["iqcheck", _write(tmp_path, "tiny.json", scenario), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "iqcheck.json").read_text())
    assert doc["membership_disagreements"] == 0 and doc["ok"] and capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "text, pointer, message",
    [
        pytest.param('{"preset": "ex2", "lambda": [1, 1],', "/", "invalid JSON: ", id="invalid-json"),
        pytest.param('{"preset": "ex2", "lambda": [1, 1], "experiment": {}}', "/experiment/kind",
                     "missing required key", id="kind-less-experiment"),
        pytest.param('{"preset": "ex2", "lambda": [1, 1], "experiment": {"kind": "optimize"}}', "/experiment/kind",
                     "unknown experiment kind 'optimize'; expected one of analyze, ", id="unknown-experiment-kind"),
        pytest.param('{"preset": "ex2", "lambda": [1, 1], "experiment": [1]}', "/experiment",
                     "expected an object, got [1]", id="experiment-not-an-object"),
        pytest.param('{"preset": "ex2", "lambda": [1, 1], "policy": "mw", "experiment": {"kind": "analyze"}}', "/policy",
                     "expected an object, got 'mw'", id="policy-not-an-object"),
    ],
)
def test_scenario_error_through_main(tmp_path, capsys, text, pointer, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"swnet: schema error at {pointer}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_iqcheck_enumerates_the_dual_vertices_once(tmp_path, monkeypatch):
    from swnet import cli, collapse, geometry

    calls, enumerate_dual_vertices = [], geometry.enumerate_dual_vertices

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_dual_vertices(*args, **kwargs)

    for module in (cli, collapse, geometry):
        monkeypatch.setattr(module, "enumerate_dual_vertices", counting)
    scenario = {"experiment": {"kind": "iqcheck", "M": 3, "samples": 20, "coverage_samples": 4, "grid_points": 10}}
    assert execute(parse_scenario(scenario), tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "iqcheck.json").read_text())
    assert doc["virtual_resources_are_row_column_indicators"] is True
    assert len(calls) == 1


def test_fluid_command_csv(tmp_path):
    cfg = parse_scenario(
        {
            "preset": "ex2",
            "lambda": [1, 1],
            "policy": {"kind": "mw", "alpha": 1.0},
            "experiment": {"kind": "fluid", "q0": [1, 0], "h": 0.01, "T": 1.0},
        }
    )
    assert execute(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "fluid.csv").read_text().splitlines()
    assert lines[0].startswith("#") and "lambda=(1,1)" in lines[0]
    assert lines[1] == "t,q_1,q_2,L,drift_formula,drift_fd,dist_to_lift"
    assert len(lines) == 103


def _fluid_rows(tmp_path, steps):
    """The body rows of fluid.csv for an ex2 path of ``steps`` Euler steps, each cell checked to be a repr."""
    h = 2.0**-7  # T = steps * h exactly
    cfg = parse_scenario(
        {
            "preset": "ex2",
            "lambda": [1, 1],
            "policy": {"kind": "mw", "alpha": 1.0},
            "experiment": {"kind": "fluid", "q0": [1, 0.5], "h": h, "T": steps * h},
        }
    )
    assert execute(cfg, tmp_path / str(steps)) == 0
    rows = [line.split(",") for line in (tmp_path / str(steps) / "fluid.csv").read_text().splitlines()[2:]]
    assert len(rows) == steps + 1
    for row in rows:
        assert len(row) == 7
        assert all(repr(float(cell)) == cell for cell in row if cell)
    return rows


def test_fluid_csv_blocks_end_on_the_last_row(tmp_path):
    # the last text block has one row in the first run and is full in the second
    short, full = _fluid_rows(tmp_path, TEXT_ROWS), _fluid_rows(tmp_path, 2 * TEXT_ROWS - 1)
    for rows in (short, full):
        assert [k for k, row in enumerate(rows) if not row[5]] == [0, len(rows) - 1]  # drift_fd
        assert all(row[6] for row in rows)  # lift_stride 1: a distance on every row
    assert short[:-1] == full[: TEXT_ROWS]
    assert short[-1][:5] + short[-1][6:] == full[TEXT_ROWS][:5] + full[TEXT_ROWS][6:]
    assert full[TEXT_ROWS][5]


def test_fluid_lift_distances_stay_on_their_rows_for_tiny_steps(tmp_path):
    # at h = 1e-13 distinct grid times agree to 12 decimal places
    cfg = parse_scenario(
        {
            "preset": "ex2",
            "lambda": ["1/2", "1/2"],
            "policy": {"kind": "mw"},
            "experiment": {"kind": "fluid", "q0": [1, 0.5], "h": 1e-13, "T": 3e-12, "lift_stride": 10},
        }
    )
    assert execute(cfg, tmp_path / "out") == 0
    rows = (tmp_path / "out" / "fluid.csv").read_text().splitlines()[2:]
    assert len(rows) == 31
    assert [k for k, row in enumerate(rows) if row.split(",")[-1]] == [0, 10, 20, 30]


def test_fluid_random_ties_draw_from_the_scenario_seed(tmp_path):
    path = _write(
        tmp_path,
        "s.json",
        {
            "preset": "iq_switch",
            "M": 2,
            "lambda": ["1/2"] * 4,
            "policy": {"kind": "mw", "alpha": 1.0, "tie_break": "random"},
            "experiment": {"kind": "fluid", "q0": [1, 1, 1, 1], "h": 0.01, "T": 0.1},
        },
    )
    runs = {name: ["fluid", path, "--out", str(tmp_path / name)] for name in ("a", "b", "c")}
    runs["c"] += ["--seed", "1"]
    assert [main(argv) for argv in runs.values()] == [0, 0, 0]
    csv = {name: (tmp_path / name / "fluid.csv").read_bytes() for name in runs}
    assert csv["a"] == csv["b"]
    assert csv["a"] != csv["c"]
    assert json.loads((tmp_path / "c" / "manifest.json").read_text())["seed"] == 1


def test_other_arrival_kinds_through_schema(tmp_path):
    batch = {
        "preset": "ex2",
        "arrivals": {"kind": "iid_batch", "amax": [2, 1]},
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "simulate", "horizon": 300, "q0": [0, 0]},
        "seed": 1,
    }
    assert execute(parse_scenario(batch), tmp_path / "batch") == 0
    mm = {
        "preset": "single_queue",
        "arrivals": {
            "kind": "markov_modulated",
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "rates": [[0.9], [0.1]],
        },
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "simulate", "horizon": 300, "q0": [0]},
        "seed": 2,
    }
    assert execute(parse_scenario(mm), tmp_path / "mm") == 0


def test_strided_simulate_skips_csv_but_audits(tmp_path):
    scenario = {
        "preset": "ex2",
        "arrivals": {"kind": "bernoulli", "lambda": [0.9, 0.5]},
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "simulate", "horizon": 5000, "q0": [0, 0], "record_every": 50},
        "seed": 3,
    }
    out = tmp_path / "out"
    assert execute(parse_scenario(scenario), out) == 0
    assert not (out / "trajectory.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == ["audit.json", "manifest.json"]
    audit = json.loads((out / "audit.json").read_text())
    assert audit["ok"]


def test_iqcheck_reads_top_level_m(tmp_path):
    cfg = parse_scenario(
        {"M": 3, "experiment": {"kind": "iqcheck", "samples": 20, "coverage_samples": 5, "grid_points": 10}}
    )
    assert cfg.model.n_queues == 9
    assert execute(cfg, tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "iqcheck.json").read_text())
    assert doc["M"] == 3 and doc["virtual_resources_are_row_column_indicators"]


def test_iqcheck_command(tmp_path):
    cfg = parse_scenario(
        {
            "experiment": {
                "kind": "iqcheck",
                "M": 2,
                "samples": 100,
                "coverage_samples": 20,
                "grid_points": 100,
            },
            "seed": 2,
        }
    )
    assert execute(cfg, tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "iqcheck.json").read_text())
    assert doc["ok"] and doc["membership_disagreements"] == 0


def test_readme_documents_every_scenario_key():
    from swnet import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables = [cli.NETWORK.keys, cli.TOLERANCES, *(k.keys for k in cli.ARRIVALS.values())]
    tables += [k.keys for k in cli.POLICIES.values()] + [e.keys for e in cli.EXPERIMENTS.values()]
    kinds = [*cli.PRESETS, *cli.ARRIVALS, *cli.POLICIES, *cli.EXPERIMENTS]
    missing = [name for name in kinds + [key for t in tables for key in t] if f"`{name}`" not in readme]
    assert missing == []
