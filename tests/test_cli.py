import json
from pathlib import Path

import pytest

from swnet.cli import PresetUnknown, SchemaError, execute, main, parse_scenario


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
    assert cfg.model.hop_kind == "multi"


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
