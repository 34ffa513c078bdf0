"""Benchmark workloads: scenario dicts generated from a workload name and a seed.

Each workload is the input of one ``swnet <kind> scenario.json`` run. The
seed is the only source of variation; at a workload's default seed the
scenario is the canonical one whose outputs are kept in ``references/``.
Collapse and simulate pass the seed to the program as the scenario seed.
Analyze and fluid are deterministic programs, so the seed draws their inputs
instead (a doubly stochastic rate matrix, an initial fluid state) while the
amount of work stays fixed.

Why these four workloads, and which layers each one exercises, is written
down in NOTES.md.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

NAMES = ("collapse_iq2", "simulate_tandem", "analyze_iq3", "fluid_iq2")

DEFAULT_SEEDS = {
    "collapse_iq2": 2024,  # the seed of scenarios/collapse_iq2_canonical.json
    "simulate_tandem": 1,
    "analyze_iq3": 0,
    "fluid_iq2": 0,
}


def _collapse_iq2(seed: int, tiny: bool) -> dict:
    exp = {
        "kind": "collapse",
        "r_list": [10, 20, 40],
        "reps": 20,
        "T": 1.0,
        "qhat0": [1, 1, 1, 1],
        "grid_points": 200,
        "median_max_at_largest_r": 0.2,
        "require_decreasing": True,
    }
    if tiny:
        exp.update(r_list=[5, 8], reps=2, grid_points=20, median_max_at_largest_r=1.0,
                   require_decreasing=False)
    return {
        "preset": "iq_switch",
        "M": 2,
        "lambda": ["1/2"] * 4,
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": exp,
        "seed": seed,
    }


def _simulate_tandem(seed: int, tiny: bool) -> dict:
    # Bursty two-state source into queue 0 only: mean rate 6/7 < 1, but
    # bursts of 2 per slot make the queues build up (sup Q = 63 at seed 1).
    return {
        "preset": "tandem",
        "N": 3,
        "arrivals": {
            "kind": "markov_modulated",
            "transition": [[0.6, 0.4], [0.3, 0.7]],
            "rates": [[2, 0, 0], [0, 0, 0]],
        },
        "policy": {"kind": "backpressure", "alpha": 1.0},
        "experiment": {"kind": "simulate", "horizon": 500 if tiny else 40_000, "q0": [0, 0, 0]},
        "seed": seed,
    }


def _doubly_stochastic(m: int, seed: int) -> list[str]:
    """Uniform 1/m at the default seed, else a random exact convex
    combination of all m! permutation matrices (every row and column of the
    switch stays critically loaded, so the geometry does the same work)."""
    if seed == 0:
        return [str(Fraction(1, m))] * (m * m)
    rng = random.Random(seed)
    perms = list(permutations(range(m)))
    weights = [rng.randint(1, 6) for _ in perms]
    total = sum(weights)
    lam = [Fraction(0)] * (m * m)
    for w, perm in zip(weights, perms):
        for i, j in enumerate(perm):
            lam[i * m + j] += Fraction(w, total)
    return [str(v) for v in lam]


def _analyze_iq3(seed: int, tiny: bool) -> dict:
    m = 2 if tiny else 3
    return {
        "preset": "iq_switch",
        "M": m,
        "lambda": _doubly_stochastic(m, seed),
        "experiment": {"kind": "analyze"},
    }


def _fluid_iq2(seed: int, tiny: bool) -> dict:
    if seed == 0:
        q0 = [2, 0, 0, 1]
    else:
        rng = random.Random(seed)
        q0 = [rng.randint(0, 2) for _ in range(4)]
    return {
        "preset": "iq_switch",
        "M": 2,
        "lambda": ["1/2"] * 4,
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "fluid", "q0": q0, "h": 0.001, "T": 0.5 if tiny else 20.0},
        "seed": 0,
    }


_BUILDERS = {
    "collapse_iq2": _collapse_iq2,
    "simulate_tandem": _simulate_tandem,
    "analyze_iq3": _analyze_iq3,
    "fluid_iq2": _fluid_iq2,
}


def scenario(name: str, seed: int, tiny: bool = False) -> dict:
    """The scenario dict of workload ``name`` at ``seed``; ``tiny`` shrinks
    it to a fraction of a second for the benchmark's own tests."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _BUILDERS[name](int(seed), tiny)
