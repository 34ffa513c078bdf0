"""swnet benchmark: run a workload through the public front end and report.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every measured execution is a fresh child interpreter (child.py) that
imports swnet from ./src, parses the generated scenario with
``cli.parse_scenario`` and runs ``cli.execute(..., threads=1)``, as a user
runs ``swnet <kind> scenario.json``. Children run one at a time with BLAS
threads set to 1. Executions repeat until S seconds have passed (at least
one untraced execution, or two traced ones), and every output passes the
correctness gate (gate.py) or the execution counts as failed.

--trace 0 reports the end-to-end metrics: medians of wall_s, cpu_s and
peak_rss_mb over the executions, and of setup_s (import swnet and parse the
scenario) over the executions plus one extra set-up-only child each.
--trace 1 alternates untraced and traced executions and reports the
per-layer metrics of tracer.py; traced outputs must be byte-identical to
untraced ones and the exact counters must repeat, or the run fails.

Human-readable lines come first; the last stdout line is the JSON result.
A record with the machine, the samples and the layer shares is written to
perfbench/out/results/. Exits 1 without a result if swnet cannot be
imported from ./src at all.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded beside END_TO_END: raw clock readings and the speed factor.
RAW = {"wall_raw_s": "s", "cpu_raw_s": "s", "setup_raw_s": "s", "speed": "ratio"}
PER_LAYER_UNITS = {
    "arrivals.calls": "count",
    "arrivals.increments": "count",
    "arrivals.busy_s": "s",
    "policy.selections": "count",
    "policy.busy_s": "s",
    "policy.us_per_selection": "us",
    "policy.tie_share": "ratio",
    "sim.runs": "count",
    "sim.slots": "count",
    "sim.self_s": "s",
    "sim.slots_per_s": "1/s",
    "sim.rescale_s": "s",
    "sim.audit_s": "s",
    "sim.audit_checks": "count",
    "sim.csv_s": "s",
    "geometry.enumerate_s": "s",
    "geometry.candidates": "count",
    "geometry.square_solves": "count",
    "geometry.vertices": "count",
    "geometry.vertex_yield": "ratio",
    "geometry.lp_calls": "count",
    "geometry.lp_s": "s",
    "lift.solves": "count",
    "lift.busy_s": "s",
    "lift.iterations": "count",
    "lift.iters_per_solve": "ratio",
    "lift.solve_ms_p50": "ms",
    "lift.solve_ms_p99": "ms",
    "lift.worst_kkt": "residual",
    "lift.failures": "count",
    "lift.warm_share": "ratio",
    "fluid.steps": "count",
    "fluid.self_s": "s",
    "fluid.steps_per_s": "1/s",
    "fluid.distance_s": "s",
    "collapse.cells": "count",
    "collapse.self_s": "s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "count",
    "trace.overhead_s": "s",
}
# Counts and results that are not timings: the same on every traced execution.
DETERMINISTIC = {m for m, u in PER_LAYER_UNITS.items() if u in ("count", "ratio", "residual")}


class ProgramUnavailable(RuntimeError):
    """swnet cannot be imported and parsed at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Launches child executions of one scenario and gates their outputs."""

    def __init__(self, workload: str, seed: int, tiny: bool, reference: dict | None, work: Path) -> None:
        self.scenario = workloads.scenario(workload, seed, tiny=tiny)
        self.reference = reference
        self.work = work
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario, indent=2), encoding="utf-8")
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.versions: dict[str, str] = {}
        self._gated: dict[tuple, list[str]] = {}  # (exit code, output hashes) -> problems
        self.untraced_key: tuple | None = None
        self._count = 0

    def launch(self, mode: str, out: Path, spans: Path | None, timeout: float) -> dict:
        cmd = [sys.executable, str(CHILD), str(ROOT), str(self.scenario_path), str(out), mode]
        if spans is not None:
            cmd.append(str(spans))
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            rec = {}
        if proc.returncode != 0 or "error" in rec or not rec:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": rec.get("error") or f"exit {proc.returncode}: {tail[0]}"}
        return rec

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def setup_probe(self, timeout: float, counted: bool = True) -> bool:
        """Import swnet and parse the scenario in a fresh child."""
        rec = self.launch("setup", self.work, None, timeout)
        if counted:
            self.attempted += 1
            if "error" in rec:
                self.fail(f"setup: {rec['error']}")
            else:
                self.add("setup_s", rec["setup_s"])
                self.add("setup_raw_s", rec["setup_raw_s"])
        if "error" not in rec:
            self.versions = {"python": rec["python"], "numpy": rec["numpy"]}
        return "error" not in rec

    def execute(self, traced: bool, timeout: float) -> dict | None:
        """One gated execution; returns the child's record, or None on failure."""
        self._count += 1
        out = self.work / f"out{self._count}"
        spans = self.work / f"spans{self._count}.json" if traced else None
        self.attempted += 1
        rec = self.launch("trace" if traced else "execute", out, spans, timeout)
        if "error" in rec:
            self.fail(rec["error"])
            return None
        key = (rec["exit_code"], tuple(sorted(gate.output_hashes(out).items())))
        if key not in self._gated:
            self._gated[key] = gate.check(self.scenario, out, rec["exit_code"], self.reference)
        problems = list(self._gated[key])
        if not traced and self.untraced_key is None:
            self.untraced_key = key
        if traced:
            if key != self.untraced_key:
                problems.append("traced outputs differ from untraced outputs")
            layers = rec["layers"]
            if layers["lift.failures"] or layers["lift.worst_kkt"] > gate.KKT_TOL:
                problems.append(
                    f"lift: {layers['lift.failures']} failures, worst KKT residual {layers['lift.worst_kkt']:.3g}"
                )
            rec["spans_path"] = spans
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.fail("; ".join(problems))
            return None
        return rec


def _summary(xs: list[float]) -> dict:
    q = quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3
    return {"median": median(xs), "n": len(xs), "min": min(xs), "q1": q[0], "q3": q[2],
            "max": max(xs), "samples": xs}


def _timeout(start: float) -> float:
    """Child timeout that keeps the whole run within RUN_LIMIT_S."""
    return min(CHILD_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - start))


def measure_end_to_end(run: Runner, seconds: float, start: float) -> None:
    """Executions, each followed by a set-up-only child, until ``seconds``."""
    while True:
        rec = run.execute(traced=False, timeout=_timeout(start))
        if rec is None:
            break
        for key in (*END_TO_END, *RAW):
            run.add(key, rec[key])
        if _timeout(start) < 5:
            break
        run.setup_probe(timeout=_timeout(start))
        if time.perf_counter() - start >= seconds:
            break


def measure_layers(run: Runner, seconds: float, start: float) -> tuple[dict, dict, Path | None]:
    """Alternate untraced and traced executions until ``seconds`` have
    passed and at least two traced ones are done."""
    traced: list[dict] = []
    untraced_wall: list[float] = []
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        rec = run.execute(traced=False, timeout=_timeout(start))
        if rec is None:
            break
        untraced_wall.append(rec["wall_s"])
        rec = run.execute(traced=True, timeout=_timeout(start))
        if rec is None:
            break
        traced.append(rec)
    if not traced:
        return {}, {}, None
    first = traced[0]["layers"]
    for rec in traced[1:]:
        moved = [c for c in tracer.EXACT_COUNTERS if rec["layers"][c] != first[c]]
        if moved:
            run.fail(f"exact counters differ between traced runs: {moved}")
    layers = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        vals = [rec["layers"][name] for rec in traced]
        layers[name] = vals[0] if name in DETERMINISTIC else median(vals)
        run.samples[name] = vals
    traced_wall = [rec["wall_s"] for rec in traced]
    layers["trace.overhead_s"] = median(traced_wall) - median(untraced_wall)
    run.samples["traced_wall_s"] = traced_wall
    run.samples["wall_s"] = untraced_wall
    shares = {
        layer: median([rec["shares"].get(layer, 0.0) for rec in traced])
        for layer in sorted({k for rec in traced for k in rec["shares"]})
    }
    return layers, shares, traced[-1]["spans_path"]


def _git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def load_reference(workload: str, seed: int, ref_dir: Path = REFERENCES) -> dict | None:
    """The reference for ``workload`` if ``seed`` is its default seed."""
    if seed != workloads.DEFAULT_SEEDS[workload]:
        return None
    return json.loads((ref_dir / f"{workload}.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 ref_dir: Path = REFERENCES, results: Path | None = None) -> dict:
    """Measure one workload and return the result record (see module
    docstring); with ``results``, also write the record there, and the
    gzipped spans of the last traced execution next to it."""
    if not (ROOT / "src" / "swnet" / "__init__.py").is_file():
        raise ProgramUnavailable(f"no swnet package under {ROOT / 'src'}")
    reference = None if tiny else load_reference(workload, seed, ref_dir)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "work"))
    load_before = os.getloadavg()
    start = time.perf_counter()
    try:
        run = Runner(workload, seed, tiny, reference, work)
        # warm-up: compiles bytecode once and proves the program imports
        if not run.setup_probe(timeout=CHILD_TIMEOUT_S, counted=False):
            raise ProgramUnavailable("swnet failed to import or parse the scenario")
        spans_path = None
        if trace:
            layers, shares, spans_path = measure_layers(run, seconds, start)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items() if name in layers}
        else:
            measure_end_to_end(run, seconds, start)
            shares = {}
            metrics = {name: {"value": median(run.samples[name]), "unit": unit}
                       for name, unit in END_TO_END.items() if run.samples.get(name)}
        elapsed = time.perf_counter() - start
        record = {
            "workload": workload,
            "seed": seed,
            "tiny": tiny,
            "trace": int(trace),
            "seconds": seconds,
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "fail_ratio": run.failed / max(run.attempted, 1),
            "problems": run.problems,
            "reference_checked": reference is not None,
            "metrics": metrics,
            "layer_shares": shares,
            "samples": {k: _summary(v) for k, v in run.samples.items() if v},
            "machine": {
                "nproc": os.cpu_count(),
                "python": run.versions.get("python", platform.python_version()),
                "numpy": run.versions.get("numpy"),
                "platform": platform.platform(),
                "git_sha": _git_sha(),
                "source_sha256": _source_sha256(),
                "loadavg_before": list(load_before),
                "loadavg_after": list(os.getloadavg()),
            },
            "elapsed_s": elapsed,
        }
        if results is not None:
            _save(record, spans_path, results)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _save(record: dict, spans_path: Path | None, results: Path) -> None:
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{record['workload']}_seed{record['seed']}_trace{record['trace']}_{stamp}_{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if spans_path is not None and spans_path.is_file():
        with spans_path.open("rb") as src, gzip.open(results / f"{stem}.spans.json.gz", "wb") as dst:
            shutil.copyfileobj(src, dst)


def print_record(record: dict) -> None:
    w = record["workload"]
    lines = [(name, m["value"], m["unit"]) for name, m in record["metrics"].items()]
    if not record["trace"]:
        lines += [(name, record["samples"][name]["median"], unit)
                  for name, unit in RAW.items() if name in record["samples"]]
    for name, value, unit in lines:
        s = record["samples"].get(name)
        spread = f"  (median of {s['n']}, min {s['min']:.6g}, max {s['max']:.6g})" if s else ""
        print(f"{w:16s} {name:26s} {value:.6g} {unit}{spread}")
    print(f"{w:16s} {'fail_ratio':26s} {record['fail_ratio']:.6g} failed/attempted"
          f"  ({record['failed']} of {record['attempted']})")
    for layer, share in sorted(record["layer_shares"].items(), key=lambda kv: -kv[1]):
        print(f"{w:16s} {'share.' + layer:26s} {share:.1%} of traced self time")
    for p in record["problems"]:
        print(f"{w:16s} FAILED: {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=list(workloads.NAMES) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            seed = workloads.DEFAULT_SEEDS[name] if args.seed is None else args.seed
            records.append(run_workload(name, seed, args.seconds, bool(args.trace),
                                        results=OUT / "results"))
            print_record(records[-1])
    except ProgramUnavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
