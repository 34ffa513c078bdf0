"""Correctness gate for one execution's output directory.

Two kinds of check:

* properties the program certifies, checked at every seed: exit code 0,
  exact strong duality and critical loads (analyze), a clean conservation
  audit and an integral trajectory (simulate), ``summary.passed`` (collapse),
  a nonnegative fluid path with finite distances to the lift (fluid);
* at a workload's default seed, agreement with the reference kept in
  ``references/<workload>.json``: byte-exact (by sha256) for files holding
  exact rationals or integers, within FLOAT_TOL absolute for float files.

``manifest.json`` is never compared, because it embeds library versions.
Only the standard library is used, so the gate does not depend on the code
it judges.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

FLOAT_TOL = 1e-9  # absolute drift allowed on float outputs
KKT_TOL = 1e-8  # worst lift KKT residual a traced run may report
EXACT_FILES = ("analysis.json", "audit.json", "trajectory.csv")
OUTPUTS = {
    "analyze": ("analysis.json",),
    "simulate": ("audit.json", "trajectory.csv"),
    "collapse": ("mssc.csv", "summary.json"),
    "fluid": ("fluid.csv",),
}
CSV_SAMPLES = 400  # float CSVs keep about this many rows in a reference


def output_hashes(out_dir) -> dict[str, str]:
    """sha256 of every output file except manifest.json."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(out_dir).iterdir())
        if f.is_file() and f.name != "manifest.json"
    }


def _read_csv(path: Path) -> tuple[list[str], list[str], list[list]]:
    """(comment lines, header, rows); empty cells become None, others float."""
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(c) if c else None for c in line.split(",")])
    return comments, header or [], rows


def _csv_fingerprint(path: Path) -> dict:
    comments, header, rows = _read_csv(path)
    every = max(1, len(rows) // CSV_SAMPLES)
    picked = list(range(0, len(rows), every))
    if rows and picked[-1] != len(rows) - 1:
        picked.append(len(rows) - 1)
    sums = [sum(r[j] for r in rows if r[j] is not None) for j in range(len(header))]
    return {
        "comments": comments,
        "header": header,
        "rows": len(rows),
        "sampled": {str(i): rows[i] for i in picked},
        "column_sums": sums,
    }


def fingerprint(out_dir) -> dict:
    """Reference description of an output directory (see module docstring)."""
    out = Path(out_dir)
    hashes = output_hashes(out)
    files = {}
    for name in hashes:
        if name in EXACT_FILES:
            files[name] = {"sha256": hashes[name]}
        elif name.endswith(".csv"):
            files[name] = {"csv": _csv_fingerprint(out / name)}
        else:
            files[name] = {"json": json.loads((out / name).read_text(encoding="utf-8"))}
    return files


def _close(ref, got, tol: float, where: str, problems: list[str]) -> None:
    """Recursive comparison: numbers (not bools) within tol, all else exact."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            return
        for key in ref:
            _close(ref[key], got[key], tol, f"{where}/{key}", problems)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            problems.append(f"{where}: length {len(got)} != {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _close(a, b, tol, f"{where}/{i}", problems)
    elif (
        isinstance(ref, (int, float)) and isinstance(got, (int, float))
        and not isinstance(ref, bool) and not isinstance(got, bool)
    ):
        if not abs(ref - got) <= tol:
            problems.append(f"{where}: {got!r} differs from reference {ref!r} by more than {tol:g}")
    elif ref != got:
        problems.append(f"{where}: {got!r} != reference {ref!r}")


def compare(reference: dict, out_dir) -> list[str]:
    """Problems found comparing an output directory with a reference."""
    got = fingerprint(out_dir)
    ref_files = reference["files"]
    problems = []
    if sorted(got) != sorted(ref_files):
        problems.append(f"output files {sorted(got)} != reference {sorted(ref_files)}")
    for name in sorted(set(got) & set(ref_files)):
        ref, cur = ref_files[name], got[name]
        if "csv" in ref:
            ref_csv, got_csv = dict(ref["csv"]), dict(cur["csv"])
            # a sum of n values, each within FLOAT_TOL, moves by at most n * FLOAT_TOL
            sums_tol = FLOAT_TOL * max(ref_csv["rows"], 1)
            _close(ref_csv.pop("column_sums"), got_csv.pop("column_sums"), sums_tol,
                   f"{name}/column_sums", problems)
            _close(ref_csv, got_csv, FLOAT_TOL, name, problems)
        else:
            _close(ref, cur, FLOAT_TOL, name, problems)
    return problems


# ---------------------------------------------------------------------------
# properties checked at every seed
# ---------------------------------------------------------------------------


def _dot(xs, ys) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(xs, ys)), Fraction(0))


def _analyze_props(scn: dict, out: Path, problems: list[str]) -> None:
    doc = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    lam = scn["lambda"]
    if doc["strong_duality"] is not True or doc["primal_value"] != doc["dual_value"]:
        problems.append("analysis.json: no exact strong duality")
    if doc["class"] != "critical" or Fraction(doc["dual_value"]) != 1:
        problems.append(f"analysis.json: a doubly stochastic load must be critical, got {doc['class']}")
    if _dot(doc["dual_maximizer"], lam) != Fraction(doc["dual_value"]):
        problems.append("analysis.json: dual maximizer does not attain the dual value")
    for xi in doc["clvr"]:
        if _dot(xi, lam) != 1 or xi not in doc["maximal"]:
            problems.append(f"analysis.json: {xi} is not a critically loaded maximal vertex")


def _simulate_props(scn: dict, out: Path, problems: list[str]) -> None:
    audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
    if audit["ok"] is not True or audit["violations"]:
        problems.append(f"audit.json: ok={audit['ok']}, {len(audit['violations'])} violations")
    _, _, rows = _read_csv(out / "trajectory.csv")
    horizon = int(scn["experiment"]["horizon"])
    if len(rows) != horizon + 1:
        problems.append(f"trajectory.csv: {len(rows)} rows, expected {horizon + 1}")
    if any(v is not None and v != int(v) for row in rows for v in row):
        problems.append("trajectory.csv: non-integral value in an integer workload")


def _collapse_props(scn: dict, out: Path, problems: list[str]) -> None:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary["passed"] is not True:
        problems.append(f"summary.json: passed={summary['passed']}, median_by_r={summary['median_by_r']}")
    _, _, rows = _read_csv(out / "mssc.csv")
    exp = scn["experiment"]
    if len(rows) != len(exp["r_list"]) * exp["reps"]:
        problems.append(f"mssc.csv: {len(rows)} rows for {len(exp['r_list'])} scales x {exp['reps']} reps")
    if not all(math.isfinite(r[2]) and r[2] >= 0 for r in rows):
        problems.append("mssc.csv: a ratio is negative or not finite")


def _fluid_props(scn: dict, out: Path, problems: list[str]) -> None:
    exp = scn["experiment"]
    _, _, rows = _read_csv(out / "fluid.csv")
    if len(rows) != round(exp["T"] / exp["h"]) + 1:
        problems.append(f"fluid.csv: {len(rows)} rows for T={exp['T']}, h={exp['h']}")
        return
    n = len(scn["lambda"])
    if any(v < 0 for row in rows for v in row[1 : 1 + n]):
        problems.append("fluid.csv: negative fluid queue")
    dist = [row[-1] for row in rows if row[-1] is not None]
    if not dist or not all(math.isfinite(d) and d >= 0 for d in dist):
        problems.append("fluid.csv: dist_to_lift missing, negative or not finite")


_PROPS = {
    "analyze": _analyze_props,
    "simulate": _simulate_props,
    "collapse": _collapse_props,
    "fluid": _fluid_props,
}


def check(scenario: dict, out_dir, exit_code: int, reference: dict | None = None) -> list[str]:
    """All problems with one execution; an empty list means it passed."""
    out = Path(out_dir)
    kind = scenario["experiment"]["kind"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    missing = [f for f in OUTPUTS[kind] if not (out / f).is_file()]
    if missing:
        return problems + [f"missing outputs {missing}"]
    _PROPS[kind](scenario, out, problems)
    if reference is not None:
        problems += compare(reference, out)
    return problems
