"""Scenario-file driven command line front end.

Commands: swnet analyze|simulate|fluid|lift|collapse|iqcheck scenario.json
[--out DIR] [--seed N]. Scenarios are JSON; rational values may be given as
strings like "1/3" (required wherever exact geometry is wanted; plain floats
are converted to their exact binary values and boundary classifications get
flagged approximate).

One table per scenario section (``PRESETS``, ``NETWORK``, ``ARRIVALS``,
``POLICIES``, ``TOLERANCES``, ``EXPERIMENTS``) declares each kind's keys with
their types, defaults and ranges; ``parse_scenario`` reads every section
through them, and a bad value is a ``SchemaError`` naming its JSON pointer.

Exit codes: 0 success, 2 property-check failure (audits or statistical
acceptance violated), 1 error. Outputs are byte-identical for identical
(config, seed): no timestamps, sorted keys, repr floats, LF endings.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import platform
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import __version__, presets
from .arrivals import ArrivalModel, derive_rng
from .collapse import (
    Iq2x2Workload,
    MsscConfig,
    alpha_monotonicity_probe,
    iq2x2_membership,
    iq2x2_root_exists,
    matching_structure_checks,
    mssc_experiment,
)
from .fluid import HorizonNotMultiple, distance_to_lift, integrate_fluid, lyapunov_drift
from .geometry import (
    BudgetExceeded,
    InfeasiblePlan,
    classify_primal,
    complete_loading_check,
    critically_loaded,
    enumerate_dual_vertices,
    float_vector,
    fraction_vector,
    require_served,
    solve_dual,
    solve_primal,
    DEFAULT_VERTEX_BUDGET,
)
from .lift import is_fixed_point, lift
from .model import NetworkModel, WeightFunction, validate_network
from .policy import Policy, PolicyModelMismatch, TieState
from .schema import REQUIRED, Decreasing, Edge, Int, Is, Kind, ListOf, Num, SchemaError, Tagged, kind_of, read_object
from .sim import TEXT_ROWS, CsvFormatError, conservation_audit, float_texts, path_from_csv, row_blocks, run


class PresetUnknown(SchemaError):
    """The scenario names a preset that is not in ``PRESETS``."""

    def __init__(self, name) -> None:
        super().__init__("/preset", f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")


# ---------------------------------------------------------------------------
# the scenario sections
# ---------------------------------------------------------------------------


def _network(queues: int, schedules: list, routing: list) -> NetworkModel:
    # "queues" has already sized the schedule vectors and bounded the edges
    return validate_network(schedules, routing, name="network")


PRESETS = {
    "ex2": Kind(presets.ex2, {}),
    "iq_switch": Kind(presets.iq_switch, {"M": (Int(ge=1, le=4), REQUIRED)}),
    "tandem": Kind(presets.tandem, {"N": (Int(ge=1, le=10), REQUIRED)}),
    "single_queue": Kind(presets.single_queue, {}),
}
RUN_CELLS = 4_000_000  # the state cells a run may record (rows of N queues): about 32 MB for the path alone
_PER_QUEUE = ListOf(Num(ge=0), "n")  # one number >= 0 per queue: rates, service, queue contents
NETWORK = Kind(
    _network,
    {
        "queues": (Int(ge=1), REQUIRED),
        "schedules": (ListOf(_PER_QUEUE, nonempty=True), REQUIRED),
        "routing": (ListOf(Edge()), []),
    },
)

ARRIVALS = {
    "deterministic": Kind(ArrivalModel.deterministic, {"lambda": (_PER_QUEUE, REQUIRED)}),
    "bernoulli": Kind(ArrivalModel.bernoulli, {"lambda": (ListOf(Num(ge=0, le=1), "n"), REQUIRED)}),
    "iid_batch": Kind(ArrivalModel.iid_batch, {"amax": (ListOf(Int(ge=0), "n"), REQUIRED)}),
    "markov_modulated": Kind(
        ArrivalModel.markov_modulated,
        {"transition": (ListOf(ListOf(Num(ge=0)), nonempty=True), REQUIRED), "rates": (ListOf(_PER_QUEUE), REQUIRED)},
    ),
}

_TIE_BREAK = (Is(str, ("highest_index", "random", "round_robin")), "highest_index")
_WEIGHTED = {"alpha": (Num(gt=0), 1.0), "tie_break": _TIE_BREAK, "rel_tol": (Num(ge=0), 0.0)}


def _weighted(kind: str) -> Callable:
    return lambda alpha, tie_break, rel_tol: Policy(kind, WeightFunction.power(alpha), tie_break, rel_tol)


POLICIES = {
    "mw": Kind(_weighted("mw"), _WEIGHTED),
    "backpressure": Kind(_weighted("backpressure"), _WEIGHTED),
    "msmw_log": Kind(Policy.msmw_log, {"tie_break": _TIE_BREAK}),
}

TOLERANCES = {
    "kkt": (Num(gt=0), 1e-8),
    "fixed_point": (Num(ge=0), 1e-6),
    "audit_rtol": (Num(ge=0), 1e-9),
    "clvr": (Num(ge=0), 0.0),
}

# The top-level keys besides the network ("preset" with its size "M" or "N",
# or "network"), "experiment" and "tolerances".
_TOP = {
    "lambda": (ListOf(Num(ge=0, exact=True), "n"), None),
    "arrivals": (Tagged(ARRIVALS, "arrival"), None),
    "policy": (Tagged(POLICIES, "policy"), None),
    "seed": (Int(ge=0), 0),
}
_OTHER_TOP = ("preset", "M", "N", "network", "experiment", "tolerances")


def _within_budget(rows, n: int, pointer: str, what: str) -> None:
    """Refuse ``rows`` state rows of n queues over RUN_CELLS cells before any allocation (h = 1e-9 asks for GBs)."""
    if rows * n > RUN_CELLS:
        cells = f"{what} = {rows:.4g} state rows of {n} queues"
        raise SchemaError(pointer, f"{cells} exceed the run budget of {RUN_CELLS} cells")


def _preset_or_network(raw: dict) -> NetworkModel:
    if "network" in raw:
        if "preset" in raw:
            raise SchemaError("/network", "give either a preset or an explicit network, not both")
        return NETWORK.read(raw["network"], "/network", None)
    if "preset" not in raw:
        raise SchemaError("/network", "a preset or a network is required")
    name = raw["preset"]
    if not isinstance(name, str) or name not in PRESETS:
        raise PresetUnknown(name)
    preset = PRESETS[name]
    return preset.read({k: raw[k] for k in preset.keys if k in raw}, "", None)


# iqcheck brute-forces the M! matchings and the dual vertices of iq_switch(M): M = 4 exceeds the vertex budget
_IQCHECK_SWITCH = Kind(presets.iq_switch, {"M": (Int(ge=1, le=3), REQUIRED)})


def _iqcheck_switch(raw: dict) -> NetworkModel:
    """iq_switch(M) with the experiment's M, else the top-level M, else 2."""
    exp = raw["experiment"]
    obj, at = (exp, "/experiment") if "M" in exp else (raw, "")
    return _IQCHECK_SWITCH.read({"M": obj.get("M", 2)}, at, None)


@dataclass
class ScenarioConfig:
    raw: dict
    model: NetworkModel
    experiment_kind: str
    params: dict  # the experiment's parsed keys, passed to its runner as keyword arguments
    lam: Optional[list]
    arrivals: Optional[ArrivalModel]
    policy: Optional[Policy]
    seed: int
    tolerances: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _load(source):
    """The JSON value of a path, or of '-' for stdin."""
    text = sys.stdin.read() if str(source) == "-" else Path(source).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc


def parse_scenario(source) -> ScenarioConfig:
    """Parse and validate a scenario from a path, '-' for stdin, or a dict.

    Builds the network, arrival and policy objects; does no geometry."""
    raw = _load(source) if isinstance(source, (str, Path)) else source
    read_object(raw, "", {}, extra=(*_TOP, *_OTHER_TOP))
    if "experiment" not in raw:
        raise SchemaError("/experiment", "missing required key")
    exp = raw["experiment"]
    entry = kind_of(exp, "/experiment", EXPERIMENTS, "experiment")
    model = entry.model(raw)
    params = read_object(exp, "/experiment", entry.keys, model.n_queues, extra=("kind", *entry.model_keys))
    top = read_object({k: raw[k] for k in _TOP if k in raw}, "", _TOP, model.n_queues)
    if entry.unless is None or params[entry.unless] is None:
        for need in entry.needs:
            if top[need] is None:
                raise SchemaError(f"/{need}", f"{exp['kind']} needs {need}")
    if top["policy"] is not None:
        try:
            top["policy"].validate_for(model)
        except PolicyModelMismatch as exc:
            raise SchemaError("/policy", str(exc)) from exc
    tolerances = read_object(raw.get("tolerances", {}), "/tolerances", TOLERANCES)
    return ScenarioConfig(
        raw, model, exp["kind"], params, top["lambda"], top["arrivals"], top["policy"], top["seed"], tolerances
    )


# ---------------------------------------------------------------------------
# serialization helpers (deterministic output bytes)
# ---------------------------------------------------------------------------


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _clvr_for(cfg: ScenarioConfig, budget: int = DEFAULT_VERTEX_BUDGET):
    """((clvr, clvr_plus), vertices) for the model at the aggregated rates
    R~ cfg.lam. Rates that load a queue no schedule serves, where PRIMAL is
    infeasible, are a SchemaError at /lambda."""
    vrs = enumerate_dual_vertices(cfg.model, budget=budget)
    lam_tilde = cfg.model.transform_exact(fraction_vector(cfg.lam))
    try:
        require_served(cfg.model, lam_tilde)
    except InfeasiblePlan as exc:
        raise SchemaError("/lambda", str(exc)) from exc
    return critically_loaded(cfg.model, lam_tilde, vrs, tol=cfg.tolerances["clvr"]), vrs


def _lyapunov_view(cfg: ScenarioConfig):
    """(weight, clvr): the policy's weight function, which stands for its
    Lyapunov function, and the critically loaded resources. Without a
    weighted policy (msmw_log, or a lift run with no policy) the linear
    weight serves as a reference view."""
    weighted = cfg.policy is not None and cfg.policy.weight is not None
    try:
        (clvr, _), _vrs = _clvr_for(cfg)
    except BudgetExceeded as exc:  # only analyze has a budget key; here the model's size is the input to change
        size = "/network" if "network" in cfg.raw else "/" + next(iter(PRESETS[cfg.raw["preset"]].keys), "preset")
        raise SchemaError(size, f"{cfg.model.name} has more than {DEFAULT_VERTEX_BUDGET} candidate bases") from exc
    return cfg.policy.weight if weighted else WeightFunction.power(1.0), clvr


# ---------------------------------------------------------------------------
# experiment runners: (cfg, out, **the experiment's keys, typed as EXPERIMENTS
# declares them) -> exit code
# ---------------------------------------------------------------------------


def _run_analyze(cfg: ScenarioConfig, out: Path, *, budget) -> int:
    """Every geometric quantity is taken at the aggregated rates R~ lambda
    (the exogenous rates themselves on a single-hop network); a float among
    the rates as given makes the load class approximate."""
    model = cfg.model
    try:  # before the LPs, so that a model over the budget is refused at once
        (clvr, clvr_plus), vrs = _clvr_for(cfg, budget)
    except BudgetExceeded as exc:
        raise SchemaError("/experiment/budget", str(exc)) from exc
    lam = model.transform_exact(fraction_vector(cfg.lam))
    value, alpha = solve_primal(model, lam)  # _clvr_for has refused rates where PRIMAL is infeasible
    dvalue, xi = solve_dual(model, lam)
    load = classify_primal(value, cfg.lam)
    cl_ok, cl_weights = complete_loading_check(model, clvr)
    doc = {
        "lambda": [str(v) for v in fraction_vector(cfg.lam)],
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


def _run_simulate(cfg: ScenarioConfig, out: Path, *, horizon, q0, record_every, audit_csv) -> int:
    model = cfg.model
    if audit_csv is not None:
        try:
            path = path_from_csv(Path(audit_csv).read_text(encoding="utf-8"), model)
        except (OSError, CsvFormatError) as exc:
            raise SchemaError("/experiment/audit_csv", str(exc)) from exc
    else:
        _within_budget(horizon + 1, model.n_queues, "/experiment/horizon", "horizon + 1")
        path = run(model, cfg.policy, cfg.arrivals, q0, horizon, cfg.seed, record_every=record_every)
        if len(path.tau) == path.horizon + 1:
            with (out / "trajectory.csv").open("w", encoding="utf-8", newline="\n") as f:
                path.to_csv(f)
    report = conservation_audit(path, model, rtol=cfg.tolerances["audit_rtol"])
    (out / "audit.json").write_bytes(_json_bytes(report.summary()))
    return 0 if report.ok else 2


def _run_fluid(cfg: ScenarioConfig, out: Path, *, q0, h, T, lift_stride) -> int:
    model = cfg.model
    _within_budget(T / h + 1, model.n_queues, "/experiment/h", "T/h + 1")
    lam_f = float_vector(cfg.lam)
    # only random ties draw from the seed; numpy.random costs about 2 MB to import
    ties = TieState.seeded(cfg.seed) if cfg.policy.tie_break == "random" else None
    weight, clvr = _lyapunov_view(cfg)  # before the path, so that a model too large for it fails at once
    try:
        traj = integrate_fluid(model, cfg.policy, lam_f, q0, h=h, T=T, tie_state=ties)
    except HorizonNotMultiple as exc:
        raise SchemaError("/experiment/T", str(exc)) from exc
    times, dists = distance_to_lift(model, cfg.lam, weight, clvr, traj, stride=lift_stride)
    at, j = np.searchsorted(traj.t, times).tolist(), 0  # each distance's grid row (its time is a grid time, exactly)
    L_vals, formula, fd, _ = lyapunov_drift(model, lam_f, weight, traj)
    lam_label = ",".join(str(v) for v in fraction_vector(cfg.lam))
    line = "%s," * (model.n_queues + 4) + "%s\n"  # t, q, L, drift_formula, drift_fd, dist_to_lift
    with (out / "fluid.csv").open("w", encoding="utf-8", newline="\n") as f:
        f.write(
            f"# model={model.name}, lambda=({lam_label}), weight={weight.label()}, "
            f"policy={cfg.policy.label()}, h={h!r}, T={T!r}\n"
        )
        f.write("t," + ",".join(f"q_{i+1}" for i in range(model.n_queues)) + ",L,drift_formula,drift_fd,dist_to_lift\n")
        for lo, block in row_blocks(traj.t, traj.q, L_vals, formula, fd, rows=TEXT_ROWS):
            cols = float_texts(block)
            if lo == 0:
                cols[-1][0] = ""  # no finite difference at the first and the last row
            if lo + len(block) == len(traj.t):
                cols[-1][-1] = ""
            dist = [""] * len(block)
            while j < len(at) and at[j] < lo + len(block):
                dist[at[j] - lo], j = repr(float(dists[j])), j + 1
            f.write((line * len(block)) % tuple(chain.from_iterable(zip(*cols, dist))))
    return 0


def _run_lift(cfg: ScenarioConfig, out: Path, *, q) -> int:
    weight, clvr = _lyapunov_view(cfg)
    res = lift(cfg.model, cfg.lam, weight, clvr, q, tol=cfg.tolerances["kkt"])
    doc = {
        "lambda": [str(v) for v in fraction_vector(cfg.lam)],
        "weight": weight.label(),
        "q": q,
        "r_star": [float(v) for v in res.r_star],
        "multipliers": res.multiplier_map(),
        "kkt_residual": res.kkt_residual,
        "iterations": res.iterations,
        "objective": float(weight.lyapunov(res.r_star)),
        "is_fixed_point": is_fixed_point(res.r_star, q, tol=cfg.tolerances["fixed_point"]),
    }
    (out / "lift.json").write_bytes(_json_bytes(doc))
    return 0


def _run_collapse(
    cfg: ScenarioConfig, out: Path, *, r_list, T, reps, qhat0, grid_points, gamma, median_max_at_largest_r,
    require_decreasing,
) -> int:
    model = cfg.model
    try:  # each replication of scale r records ceil(r^2 T) + 1 slots
        slots = reps * sum(math.ceil(r * r * T) + 1 for r in r_list)
    except OverflowError:  # r^2 T past the float range
        slots = math.inf
    _within_budget(slots, model.n_queues, "/experiment/r_list", "reps x sum over r of (ceil(r^2 T) + 1)")
    weight, clvr = _lyapunov_view(cfg)
    mcfg = MsscConfig(
        model=model, policy=cfg.policy, lam=cfg.lam, clvr=clvr, weight=weight, qhat0=np.array(qhat0), r_list=r_list,
        T=T, reps=reps, master_seed=cfg.seed, grid_points=grid_points,
        gamma=None if gamma is None else np.asarray(gamma),
    )
    for r in r_list:  # every scale's rates lam - gamma/r are checked before any simulation
        try:
            mcfg.arrival_for(r)
        except ValueError as exc:
            pointer = "/lambda" if gamma is None else "/experiment/gamma"
            raise SchemaError(pointer, f"at scale r={r}: {exc}") from exc
    report = mssc_experiment(mcfg)
    buf = io.StringIO()
    lam_strs = [str(v) for v in fraction_vector(cfg.lam)]
    buf.write(
        f"# model={model.name}, lambda=({','.join(lam_strs)}), weight={weight.label()}, "
        f"policy={cfg.policy.label()}, T={T!r}, seed={cfg.seed}\n"
    )
    buf.write("r,rep,ratio\n")
    for r, rep, ratio in sorted(report.rows):
        buf.write(f"{r},{rep},{ratio!r}\n")
    (out / "mssc.csv").write_text(buf.getvalue(), encoding="utf-8", newline="\n")
    passed = report.median_by_r[max(r_list)] <= median_max_at_largest_r and (
        report.medians_decreasing() or not require_decreasing
    )
    summary = {
        "lambda": lam_strs,
        "policy": cfg.policy.label(),
        "qhat0": qhat0,
        "r_list": r_list,
        "reps": reps,
        "T": T,
        "median_by_r": {str(k): v for k, v in report.median_by_r.items()},
        "p90_by_r": {str(k): v for k, v in report.p90_by_r.items()},
        "medians_decreasing": report.medians_decreasing(),
        "threshold_median_max_at_largest_r": median_max_at_largest_r,
        "passed": passed,
        "trivial_lift": report.trivial_lift,
        "flags": report.flags,
    }
    (out / "summary.json").write_bytes(_json_bytes(summary))
    return 0 if passed else 2


def _run_iqcheck(cfg: ScenarioConfig, out: Path, *, alphas, samples, coverage_samples, grid_points) -> int:
    m = math.isqrt(cfg.model.n_queues)  # the model is iq_switch(M)
    checks = matching_structure_checks(m, samples, seed=cfg.seed, coverage_samples=coverage_samples)

    # virtual resources must be exactly the row/column indicators
    expected = set()
    for i in range(m):
        expected.add(tuple(Fraction(1) if k // m == i else Fraction(0) for k in range(m * m)))
        expected.add(tuple(Fraction(1) if k % m == i else Fraction(0) for k in range(m * m)))
    resources_ok = set(map(tuple, checks.resources.maximal)) == expected

    rng = derive_rng(cfg.seed, 1)  # matching_structure_checks draws from derive_rng(cfg.seed)
    disagreements = 0
    for _ in range(grid_points):
        w1, wc1 = (float(v) for v in rng.random(2) * 2)
        tot = max(w1, wc1) + float(rng.random()) * 6
        w = Iq2x2Workload(w1, wc1, tot)
        a = float(rng.choice(alphas))
        if iq2x2_membership(w, a) != iq2x2_root_exists(w, a):
            disagreements += 1

    mono = alpha_monotonicity_probe(alphas)
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


class Experiment:
    """One experiment kind: its keys and its runner, (cfg, out, **keys) ->
    exit code. ``needs`` are top-level keys it cannot run without, waived
    when its key ``unless`` is given. ``model`` builds the network from the
    raw scenario and reads the experiment keys ``model_keys`` itself."""

    def __init__(self, run: Callable, keys: dict, needs=(), unless=None, model=_preset_or_network, model_keys=()):
        self.run, self.keys, self.needs, self.unless, self.model, self.model_keys = (
            run, keys, needs, unless, model, model_keys
        )


EXPERIMENTS = {
    "analyze": Experiment(_run_analyze, {"budget": (Int(ge=1), DEFAULT_VERTEX_BUDGET)}, needs=("lambda",)),
    "simulate": Experiment(
        _run_simulate,
        {
            "horizon": (Int(ge=0), 1000),
            "q0": (_PER_QUEUE, lambda n: [0.0] * n),
            "record_every": (Int(ge=1), 1),
            "audit_csv": (Is(str), None),
        },
        needs=("arrivals", "policy"),
        unless="audit_csv",
    ),
    "fluid": Experiment(
        _run_fluid,
        {
            "q0": (_PER_QUEUE, lambda n: [0.0] * n),
            "h": (Num(gt=0, le=0.1), 1e-3),
            "T": (Num(ge=0), 10.0),
            "lift_stride": (Int(ge=1), None),
        },
        needs=("lambda", "policy"),
    ),
    "lift": Experiment(_run_lift, {"q": (_PER_QUEUE, REQUIRED)}, needs=("lambda",)),
    "collapse": Experiment(
        _run_collapse,
        {
            "r_list": (ListOf(Int(ge=1), nonempty=True), [10, 20, 40]),
            "T": (Num(gt=0), 1.0),
            "reps": (Int(ge=1), 20),
            "qhat0": (_PER_QUEUE, lambda n: [1.0] * n),
            "grid_points": (Int(ge=1), 200),
            "gamma": (ListOf(Num(), "n"), None),
            "median_max_at_largest_r": (Num(ge=0), 0.2),
            "require_decreasing": (Is(bool), True),
        },
        needs=("lambda", "policy"),
    ),
    "iqcheck": Experiment(
        _run_iqcheck,
        {
            "alphas": (Decreasing(ListOf(Num(gt=0), nonempty=True)), [1.0, 0.5, 0.2]),
            "samples": (Int(ge=0), 1000),
            "coverage_samples": (Int(ge=0), 200),
            "grid_points": (Int(ge=0), 1000),
        },
        model=_iqcheck_switch,
        model_keys=("M",),
    ),
}


def execute(cfg: ScenarioConfig, out_dir, threads: int = 1) -> int:
    """Run the configured experiment; write outputs and a manifest.

    ``threads`` is unused; it stays only so that existing callers that pass
    it keep working."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    code = EXPERIMENTS[cfg.experiment_kind].run(cfg, out, **cfg.params)

    outputs = {}
    for f in sorted(out.iterdir()):
        if f.name != "manifest.json" and f.is_file():
            outputs[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    manifest = {
        "config_hash": hashlib.sha256(cfg.canonical_json().encode()).hexdigest(),
        "seed": cfg.seed,
        "experiment": cfg.experiment_kind,
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
    import argparse  # only the command line needs it; a run through execute() does not pay its import

    parser = argparse.ArgumentParser(prog="swnet", description="switched-network scheduling laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("scenario", help="scenario JSON path, or - for stdin")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    args = parser.parse_args(argv)
    try:
        raw = _load(args.scenario)
        if isinstance(raw, dict) and args.seed is not None:
            raw["seed"] = args.seed
        cfg = parse_scenario(raw)
        if cfg.experiment_kind != args.command:
            raise SchemaError(
                "/experiment/kind",
                f"scenario declares {cfg.experiment_kind!r} but command is {args.command!r}",
            )
        return execute(cfg, args.out)
    except (OSError, ValueError) as exc:  # an unreadable file, SchemaError, the model's own checks
        print(f"swnet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
