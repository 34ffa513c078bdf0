"""Scenario-file driven command line front end.

Commands: swnet analyze|simulate|fluid|lift|collapse|iqcheck scenario.json
[--out DIR] [--seed N] [--threads K]. Scenarios are JSON; rational values
may be given as strings like "1/3" (required wherever exact geometry is
wanted; plain floats are converted to their exact binary values and
boundary classifications get flagged approximate).

Exit codes: 0 success, 2 property-check failure (audits or statistical
acceptance violated), 1 error. Outputs are byte-identical for identical
(config, seed): no timestamps, sorted keys, repr floats, LF endings.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import __version__, presets
from .arrivals import ArrivalModel
from .collapse import (
    Iq2x2Workload,
    MsscConfig,
    alpha_monotonicity_probe,
    iq2x2_membership,
    iq2x2_root_exists,
    matching_structure_checks,
    mssc_experiment,
)
from .fluid import distance_to_lift, integrate_fluid
from .geometry import (
    classify_load,
    complete_loading_check,
    critically_loaded,
    enumerate_dual_vertices,
    solve_dual,
    solve_primal,
    to_fraction,
    DEFAULT_VERTEX_BUDGET,
)
from .lift import LyapunovSpec, is_fixed_point, lift
from .model import NetworkModel, RoutingMatrix, ScheduleSet, WeightFunction, validate_network
from .policy import Policy, weight_vectors
from .sim import CsvFormatError, conservation_audit, path_from_csv, row_blocks, run


class SchemaError(ValueError):
    """Scenario file violates the schema; carries a JSON-pointer location."""

    def __init__(self, pointer: str, message: str) -> None:
        super().__init__(f"schema error at {pointer}: {message}")
        self.pointer = pointer


class PresetUnknown(ValueError):
    pass


def _require_keys(obj: dict, pointer: str, allowed: set[str], required: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(pointer, "expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{pointer}/{sorted(unknown)[0]}", "unknown key")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{pointer}/{sorted(missing)[0]}", "missing required key")


def _integer(value, pointer: str) -> int:
    """An integer parameter; a float such as 10.7 is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, f"expected an integer, got {value!r}")
    return value


def _vector(value, n: int, pointer: str) -> list[float]:
    """A list of n numbers (rational strings allowed), as floats."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(pointer, f"expected a list of {n} values")
    return [float(to_fraction(v)) for v in value]


@dataclass
class ScenarioConfig:
    raw: dict
    model: NetworkModel
    lam: Optional[list]
    arrivals: Optional[ArrivalModel]
    policy: Optional[Policy]
    experiment_kind: str
    experiment: dict
    seed: int
    tolerances: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


_TOP_KEYS = {
    "preset",
    "M",
    "N",
    "network",
    "lambda",
    "arrivals",
    "policy",
    "experiment",
    "seed",
    "tolerances",
}

_EXPERIMENT_KEYS = {
    "analyze": {"kind", "budget"},
    "simulate": {"kind", "horizon", "q0", "record_every", "audit_csv"},
    "fluid": {"kind", "q0", "h", "T", "lift_stride"},
    "lift": {"kind", "q"},
    "collapse": {
        "kind",
        "r_list",
        "T",
        "reps",
        "qhat0",
        "grid_points",
        "gamma",
        "median_max_at_largest_r",
        "require_decreasing",
    },
    "iqcheck": {"kind", "M", "alphas", "samples", "coverage_samples", "grid_points"},
}


def _build_model(cfg: dict) -> NetworkModel:
    if "network" in cfg and "preset" in cfg:
        raise SchemaError("/network", "give either a preset or an explicit network, not both")
    if "preset" in cfg:
        name = cfg["preset"]
        if name == "ex2":
            return presets.ex2()
        if name == "iq_switch":
            if "M" not in cfg:
                raise SchemaError("/M", "iq_switch preset needs M")
            return presets.iq_switch(_integer(cfg["M"], "/M"))
        if name == "tandem":
            if "N" not in cfg:
                raise SchemaError("/N", "tandem preset needs N")
            return presets.tandem(_integer(cfg["N"], "/N"))
        if name == "single_queue":
            return presets.single_queue()
        raise PresetUnknown(f"unknown preset {name!r}")
    if "network" not in cfg:
        raise SchemaError("/network", "a preset or a network is required")
    net = cfg["network"]
    _require_keys(net, "/network", {"queues", "schedules", "routing"}, {"queues", "schedules"})
    n = _integer(net["queues"], "/network/queues")
    schedules = ScheduleSet([[float(to_fraction(v)) for v in row] for row in net["schedules"]])
    if schedules.n_queues != n:
        raise SchemaError("/network/schedules", f"schedule width must equal queues={n}")
    routing = None
    if net.get("routing"):
        routing = RoutingMatrix.from_edges(n, [(int(m), int(k)) for m, k in net["routing"]])
    return validate_network(schedules, routing, name=cfg.get("preset", "network"))


def _build_arrivals(obj: dict, pointer: str = "/arrivals") -> ArrivalModel:
    _require_keys(
        obj,
        pointer,
        {"kind", "lambda", "amax", "transition", "rates"},
        {"kind"},
    )
    kind = obj["kind"]
    if kind == "deterministic":
        return ArrivalModel.deterministic([float(to_fraction(v)) for v in obj["lambda"]])
    if kind == "bernoulli":
        return ArrivalModel.bernoulli([float(to_fraction(v)) for v in obj["lambda"]])
    if kind == "iid_batch":
        return ArrivalModel.iid_batch(obj["amax"])
    if kind == "markov_modulated":
        return ArrivalModel.markov_modulated(obj["transition"], obj["rates"])
    raise SchemaError(f"{pointer}/kind", f"unknown arrival kind {kind!r}")


def _build_policy(obj: dict, pointer: str = "/policy") -> Policy:
    _require_keys(obj, pointer, {"kind", "alpha", "tie_break", "rel_tol"}, {"kind"})
    kind = obj["kind"]
    tie = obj.get("tie_break", "highest_index")
    if tie not in ("highest_index", "random", "round_robin"):
        raise SchemaError(f"{pointer}/tie_break", f"unknown tie_break {tie!r}")
    if kind in ("mw", "backpressure"):
        weight = WeightFunction.power(float(obj.get("alpha", 1.0)))
        rel = float(obj.get("rel_tol", 0.0))
        return Policy(kind=kind, weight=weight, tie_break=tie, rel_tol=rel)
    if kind == "msmw_log":
        return Policy.msmw_log(tie_break=tie)
    raise SchemaError(f"{pointer}/kind", f"unknown policy kind {kind!r}")


def _iqcheck_size(raw: dict) -> int:
    """The iqcheck switch size: the experiment's M, else the top-level M, else 2."""
    exp = raw["experiment"]
    pointer = "/experiment/M" if "M" in exp else "/M"
    return _integer(exp.get("M", raw.get("M", 2)), pointer)


def parse_scenario(source) -> ScenarioConfig:
    """Parse and validate a scenario from a path, '-' for stdin, or a dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = sys.stdin.read() if str(source) == "-" else Path(source).read_text(encoding="utf-8")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON: {exc}") from exc
    _require_keys(raw, "", _TOP_KEYS, set())
    if "experiment" not in raw:
        raise SchemaError("/experiment", "missing required key")
    exp = raw["experiment"]
    if not isinstance(exp, dict) or "kind" not in exp:
        raise SchemaError("/experiment/kind", "missing experiment kind")
    kind = exp["kind"]
    if kind not in _EXPERIMENT_KEYS:
        raise SchemaError("/experiment/kind", f"unknown experiment {kind!r}")
    _require_keys(exp, "/experiment", _EXPERIMENT_KEYS[kind])
    if kind == "iqcheck":
        model = presets.iq_switch(_iqcheck_size(raw))
    else:
        model = _build_model(raw)
    lam = raw.get("lambda")
    if lam is not None and (not isinstance(lam, list) or len(lam) != model.n_queues):
        raise SchemaError("/lambda", f"expected a list of {model.n_queues} rates")
    arrivals = _build_arrivals(raw["arrivals"]) if "arrivals" in raw else None
    policy = _build_policy(raw["policy"]) if "policy" in raw else None
    tolerances = dict(raw.get("tolerances", {}))
    _require_keys(
        tolerances, "/tolerances", {"kkt", "fixed_point", "audit_rtol", "clvr"}, set()
    )
    return ScenarioConfig(
        raw=raw,
        model=model,
        lam=lam,
        arrivals=arrivals,
        policy=policy,
        experiment_kind=kind,
        experiment=exp,
        seed=_integer(raw.get("seed", 0), "/seed"),
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# serialization helpers (deterministic output bytes)
# ---------------------------------------------------------------------------


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _lam_fractions(lam) -> list[Fraction]:
    return [to_fraction(v) for v in lam]


def _clvr_for(cfg: ScenarioConfig):
    """(clvr, clvr_plus) for the model at cfg.lam, multi-hop aware."""
    model = cfg.model
    lam = _lam_fractions(cfg.lam)
    if not model.is_single_hop:
        rt = model.upstream.entries
        lam = [sum(lam[m] for m in range(model.n_queues) if rt[k, m]) for k in range(model.n_queues)]
    budget = _integer(cfg.experiment.get("budget", DEFAULT_VERTEX_BUDGET), "/experiment/budget")
    vrs = enumerate_dual_vertices(model, budget=budget)
    tol = float(cfg.tolerances.get("clvr", 0.0))
    return critically_loaded(model, lam, vrs, tol=tol), vrs


def _lyapunov_view(cfg: ScenarioConfig):
    """(spec, clvr): the Lyapunov function of the policy's weight and the
    critically loaded resources. Without a weighted policy (msmw_log, or a
    lift run with no policy) the linear weight serves as a reference view."""
    weighted = cfg.policy is not None and cfg.policy.weight is not None
    (clvr, _), _vrs = _clvr_for(cfg)
    return LyapunovSpec(weight=cfg.policy.weight if weighted else WeightFunction.power(1.0)), clvr


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_analyze(cfg: ScenarioConfig, out: Path) -> int:
    if cfg.lam is None:
        raise SchemaError("/lambda", "analyze needs lambda")
    model = cfg.model
    lam = _lam_fractions(cfg.lam)
    value, alpha = solve_primal(model, lam)
    dvalue, xi = solve_dual(model, lam)
    load = classify_load(model, lam)
    (clvr, clvr_plus), vrs = _clvr_for(cfg)
    cl_ok, cl_weights = complete_loading_check(model, lam, vrs)
    doc = {
        "lambda": [str(v) for v in lam],
        "primal_value": str(value),
        "dual_value": str(dvalue),
        "strong_duality": value == dvalue,
        "class": load.load_class,
        "exact": load.exact,
        "primal_weights": [str(v) for v in alpha],
        "dual_maximizer": [str(v) for v in xi],
        "vertices": [[str(v) for v in x] for x in vrs.vertices],
        "maximal": [[str(v) for v in x] for x in vrs.maximal],
        "clvr": [[str(v) for v in x] for x in clvr],
        "clvr_plus": [[str(v) for v in x] for x in clvr_plus],
        "complete_loading": {
            "holds": cl_ok,
            "weights": [str(v) for v in cl_weights] if cl_weights else None,
        },
    }
    (out / "analysis.json").write_bytes(_json_bytes(doc))
    return 0


def _run_simulate(cfg: ScenarioConfig, out: Path) -> int:
    model = cfg.model
    exp = cfg.experiment
    rtol = float(cfg.tolerances.get("audit_rtol", 1e-9))
    if "audit_csv" in exp:
        text = Path(exp["audit_csv"]).read_text(encoding="utf-8")
        try:
            path = path_from_csv(text, model)
        except CsvFormatError as exc:
            raise SchemaError("/experiment/audit_csv", str(exc)) from exc
    else:
        if cfg.arrivals is None or cfg.policy is None:
            raise SchemaError("/arrivals", "simulate needs arrivals and policy")
        path = run(
            model,
            cfg.policy,
            cfg.arrivals,
            _vector(exp.get("q0", [0.0] * model.n_queues), model.n_queues, "/experiment/q0"),
            _integer(exp.get("horizon", 1000), "/experiment/horizon"),
            cfg.seed,
            record_every=_integer(exp.get("record_every", 1), "/experiment/record_every"),
        )
        if len(path.tau) == path.horizon + 1:
            (out / "trajectory.csv").write_text(path.to_csv(), encoding="utf-8", newline="\n")
    report = conservation_audit(path, model, rtol=rtol)
    (out / "audit.json").write_bytes(_json_bytes(report.summary()))
    return 0 if report.ok else 2


def _run_fluid(cfg: ScenarioConfig, out: Path) -> int:
    if cfg.lam is None or cfg.policy is None:
        raise SchemaError("/lambda", "fluid needs lambda and policy")
    model = cfg.model
    exp = cfg.experiment
    lam_f = [float(to_fraction(v)) for v in cfg.lam]
    q0 = _vector(exp.get("q0", [0.0] * model.n_queues), model.n_queues, "/experiment/q0")
    h = float(exp.get("h", 1e-3))
    T = float(exp.get("T", 10.0))
    traj = integrate_fluid(model, cfg.policy, lam_f, q0, h=h, T=T)
    spec, clvr = _lyapunov_view(cfg)
    stride = _integer(exp.get("lift_stride", max(1, (traj.t.shape[0] - 1) // 400)), "/experiment/lift_stride")
    times, dists = distance_to_lift(model, cfg.lam, spec, clvr, traj, stride=stride)
    dist_at = {round(float(t), 12): float(d) for t, d in zip(times, dists)}

    L_vals = spec.weight.antiderivative(traj.q).sum(axis=1)
    weights = weight_vectors(model, spec.weight, traj.q, pressure=not model.is_single_hop)
    formula = (spec.weight.value(traj.q) @ np.asarray(lam_f)) - weights.max(axis=1)
    lam_label = ",".join(str(v) for v in _lam_fractions(cfg.lam))
    K = traj.t.shape[0] - 1
    fd = np.zeros(K + 1)  # central difference at interior rows; the end rows stay empty
    fd[1:-1] = (L_vals[2:] - L_vals[:-2]) / (2 * h)
    with (out / "fluid.csv").open("w", encoding="utf-8", newline="\n") as f:
        f.write(
            f"# model={model.name}, lambda=({lam_label}), weight={spec.weight.label()}, "
            f"policy={cfg.policy.label()}, h={h!r}, T={T!r}\n"
        )
        f.write("t," + ",".join(f"q_{i+1}" for i in range(model.n_queues)) + ",L,drift_formula,drift_fd,dist_to_lift\n")
        for lo, rows in row_blocks(traj.t, traj.q, L_vals, formula, fd):
            lines = []
            for k, (*vals, fd_k) in enumerate(rows, lo):
                d = dist_at.get(round(vals[0], 12))
                tail = [repr(fd_k) if 0 < k < K else "", "" if d is None else repr(d)]
                lines.append(",".join([*map(repr, vals), *tail]) + "\n")
            f.write("".join(lines))
    return 0


def _run_lift(cfg: ScenarioConfig, out: Path) -> int:
    if cfg.lam is None:
        raise SchemaError("/lambda", "lift needs lambda")
    exp = cfg.experiment
    if "q" not in exp:
        raise SchemaError("/experiment/q", "missing required key")
    q = _vector(exp["q"], cfg.model.n_queues, "/experiment/q")
    spec, clvr = _lyapunov_view(cfg)
    res = lift(
        cfg.model,
        cfg.lam,
        spec,
        clvr,
        q,
        tol=float(cfg.tolerances.get("kkt", 1e-8)),
    )
    fp_tol = float(cfg.tolerances.get("fixed_point", 1e-6))
    doc = {
        "lambda": res.lam_label,
        "weight": res.weight_label,
        "q": [float(v) for v in q],
        "r_star": [float(v) for v in res.r_star],
        "multipliers": res.multiplier_map(),
        "kkt_residual": res.kkt_residual,
        "iterations": res.iterations,
        "objective": res.objective,
        "is_fixed_point": is_fixed_point(res.r_star, q, tol=fp_tol),
    }
    (out / "lift.json").write_bytes(_json_bytes(doc))
    return 0


def _run_collapse(cfg: ScenarioConfig, out: Path, threads: int) -> int:
    if cfg.lam is None or cfg.policy is None:
        raise SchemaError("/lambda", "collapse needs lambda and policy")
    exp = cfg.experiment
    model = cfg.model
    spec, clvr = _lyapunov_view(cfg)
    qhat0 = np.array(_vector(exp.get("qhat0", [1.0] * model.n_queues), model.n_queues, "/experiment/qhat0"))
    r_list = exp.get("r_list", [10, 20, 40])
    if not isinstance(r_list, list) or not r_list:
        raise SchemaError("/experiment/r_list", "expected a nonempty list of scales")
    mcfg = MsscConfig(
        model=model,
        policy=cfg.policy,
        lam=cfg.lam,
        clvr=clvr,
        spec=spec,
        qhat0=qhat0,
        r_list=[_integer(r, f"/experiment/r_list/{i}") for i, r in enumerate(r_list)],
        T=float(exp.get("T", 1.0)),
        reps=_integer(exp.get("reps", 20), "/experiment/reps"),
        master_seed=cfg.seed,
        grid_points=_integer(exp.get("grid_points", 200), "/experiment/grid_points"),
        gamma=np.asarray(exp["gamma"], dtype=float) if "gamma" in exp else None,
    )
    report = mssc_experiment(mcfg, threads=threads)
    buf = io.StringIO()
    lam_label = ",".join(str(v) for v in _lam_fractions(cfg.lam))
    buf.write(
        f"# model={model.name}, lambda=({lam_label}), weight={spec.weight.label()}, "
        f"policy={cfg.policy.label()}, T={mcfg.T!r}, seed={cfg.seed}\n"
    )
    buf.write("r,rep,ratio\n")
    for r, rep, ratio in sorted(report.rows):
        buf.write(f"{r},{rep},{ratio!r}\n")
    (out / "mssc.csv").write_text(buf.getvalue(), encoding="utf-8", newline="\n")
    threshold = float(exp.get("median_max_at_largest_r", 0.2))
    require_decreasing = bool(exp.get("require_decreasing", True))
    largest = max(mcfg.r_list)
    passed = report.median_by_r[largest] <= threshold and (
        report.medians_decreasing() or not require_decreasing
    )
    summary = {
        "lambda": [str(v) for v in _lam_fractions(cfg.lam)],
        "policy": cfg.policy.label(),
        "qhat0": [float(v) for v in qhat0],
        "r_list": mcfg.r_list,
        "reps": mcfg.reps,
        "T": mcfg.T,
        "median_by_r": {str(k): v for k, v in report.median_by_r.items()},
        "p90_by_r": {str(k): v for k, v in report.p90_by_r.items()},
        "medians_decreasing": report.medians_decreasing(),
        "threshold_median_max_at_largest_r": threshold,
        "passed": passed,
        "trivial_lift": report.trivial_lift,
        "flags": report.flags,
    }
    (out / "summary.json").write_bytes(_json_bytes(summary))
    return 0 if passed else 2


def _run_iqcheck(cfg: ScenarioConfig, out: Path) -> int:
    exp = cfg.experiment
    m = _iqcheck_size(cfg.raw)
    alphas = [float(a) for a in exp.get("alphas", [1.0, 0.5, 0.2])]
    samples = _integer(exp.get("samples", 1000), "/experiment/samples")
    coverage = _integer(exp.get("coverage_samples", 200), "/experiment/coverage_samples")
    grid_points = _integer(exp.get("grid_points", 1000), "/experiment/grid_points")

    # virtual resources must be exactly the row/column indicators
    vrs = enumerate_dual_vertices(cfg.model)
    expected = set()
    for i in range(m):
        expected.add(tuple(Fraction(1) if k // m == i else Fraction(0) for k in range(m * m)))
        expected.add(tuple(Fraction(1) if k % m == i else Fraction(0) for k in range(m * m)))
    resources_ok = set(map(tuple, vrs.maximal)) == expected

    rng = np.random.default_rng(cfg.seed)
    disagreements = 0
    for _ in range(grid_points):
        w1, wc1 = (float(v) for v in rng.random(2) * 2)
        tot = max(w1, wc1) + float(rng.random()) * 6
        w = Iq2x2Workload(w1, wc1, tot)
        a = float(rng.choice(alphas))
        if iq2x2_membership(w, a) != iq2x2_root_exists(w, a):
            disagreements += 1

    mono = alpha_monotonicity_probe(alphas)
    checks = matching_structure_checks(m, samples, seed=cfg.seed, coverage_samples=coverage)
    ok = resources_ok and disagreements == 0 and mono.nested and checks.ok
    doc = {
        "M": m,
        "virtual_resources_are_row_column_indicators": resources_ok,
        "membership_grid_points": grid_points,
        "membership_disagreements": disagreements,
        "alpha_monotonicity": {
            "alphas": mono.alphas,
            "nested": mono.nested,
            "witnesses": {f"{a}->{b}": list(wit) for (a, b), wit in sorted(mono.strict_witnesses.items())},
        },
        "matching_closure_violations": checks.closure_violations,
        "matching_coverage_violations": checks.coverage_violations,
        "ok": ok,
    }
    (out / "iqcheck.json").write_bytes(_json_bytes(doc))
    return 0 if ok else 2


def execute(cfg: ScenarioConfig, out_dir, threads: int = 1) -> int:
    """Run the configured experiment; write outputs and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg.experiment_kind
    if kind == "analyze":
        code = _run_analyze(cfg, out)
    elif kind == "simulate":
        code = _run_simulate(cfg, out)
    elif kind == "fluid":
        code = _run_fluid(cfg, out)
    elif kind == "lift":
        code = _run_lift(cfg, out)
    elif kind == "collapse":
        code = _run_collapse(cfg, out, threads)
    elif kind == "iqcheck":
        code = _run_iqcheck(cfg, out)
    else:  # pragma: no cover - parse_scenario rejects unknown kinds
        raise SchemaError("/experiment/kind", f"unknown experiment {kind!r}")

    outputs = {}
    for f in sorted(out.iterdir()):
        if f.name != "manifest.json" and f.is_file():
            outputs[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    manifest = {
        "config_hash": hashlib.sha256(cfg.canonical_json().encode()).hexdigest(),
        "seed": cfg.seed,
        "experiment": kind,
        "exit_code": code,
        "outputs": outputs,
        "versions": {
            "swnet": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (out / "manifest.json").write_bytes(_json_bytes(manifest))
    return code


def main(argv: Optional[list[str]] = None) -> int:
    env_threads = os.environ.get("SWNET_THREADS", "1")
    try:
        default_threads = int(env_threads)
    except ValueError:
        print(f"swnet: SWNET_THREADS must be an integer, got {env_threads!r}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(
        prog="swnet", description="switched-network scheduling laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENT_KEYS:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("scenario", help="scenario JSON path, or - for stdin")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument(
            "--threads",
            type=int,
            default=default_threads,
            help="worker threads; a collapse run gives each diffusion scale to one",
        )
    args = parser.parse_args(argv)
    try:
        cfg = parse_scenario(args.scenario)
        if cfg.experiment_kind != args.command:
            raise SchemaError(
                "/experiment/kind",
                f"scenario declares {cfg.experiment_kind!r} but command is {args.command!r}",
            )
        if args.seed is not None:
            cfg.seed = int(args.seed)
            cfg.raw["seed"] = int(args.seed)
        return execute(cfg, args.out, threads=max(1, args.threads))
    except (SchemaError, PresetUnknown, ValueError) as exc:
        print(f"swnet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
