"""Write references/<workload>.json from one execution at the default seed.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run it only when a change is meant to move outputs, and say in CHANGES.md
which reference moved and why. An execution whose outputs fail the gate's
property checks is refused.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import workloads
from run import CHILD_TIMEOUT_S, OUT, REFERENCES, Runner


def write_reference(name: str) -> Path:
    seed = workloads.DEFAULT_SEEDS[name]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"ref-{name}-", dir=OUT / "work") as tmp:
        runner = Runner(name, seed, tiny=False, reference=None, work=Path(tmp))
        out = Path(tmp) / "out"
        rec = runner.launch("execute", out, None, CHILD_TIMEOUT_S)
        if "error" in rec:
            raise RuntimeError(f"{name}: {rec['error']}")
        problems = gate.check(runner.scenario, out, rec["exit_code"])
        if problems:
            raise RuntimeError(f"{name}: {problems}")
        ref = {"workload": name, "seed": seed, "files": gate.fingerprint(out)}
    path = REFERENCES / f"{name}.json"
    REFERENCES.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    for workload in sys.argv[1:] or workloads.NAMES:
        print(write_reference(workload))
