"""Schedule selection: MW-f, MW-f backpressure, and MSMW-log.

Weight comparisons for the argmax are exact float comparisons by default;
an optional relative tolerance exists for custom weight functions whose
evaluation is inexact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import NetworkModel, WeightFunction
from .arrivals import derive_rng


class PolicyModelMismatch(ValueError):
    """Policy requirements not met by the network model."""


@dataclass(frozen=True)
class Policy:
    """kind: mw | backpressure | msmw_log; tie_break: highest_index |
    random | round_robin.

    Backpressure requires a multi-hop model with a monotone-closed schedule
    set; MSMW-log is defined for single-hop networks only.
    """

    kind: str
    weight: Optional[WeightFunction] = None
    tie_break: str = "highest_index"
    rel_tol: float = 0.0

    @staticmethod
    def mw(weight: WeightFunction, tie_break: str = "highest_index", rel_tol: float = 0.0) -> "Policy":
        return Policy(kind="mw", weight=weight, tie_break=tie_break, rel_tol=rel_tol)

    @staticmethod
    def mw_alpha(alpha: float, tie_break: str = "highest_index") -> "Policy":
        return Policy(kind="mw", weight=WeightFunction.power(alpha), tie_break=tie_break)

    @staticmethod
    def backpressure(weight: WeightFunction, tie_break: str = "highest_index") -> "Policy":
        return Policy(kind="backpressure", weight=weight, tie_break=tie_break)

    @staticmethod
    def msmw_log(tie_break: str = "highest_index") -> "Policy":
        return Policy(kind="msmw_log", weight=None, tie_break=tie_break)

    def label(self) -> str:
        if self.kind == "msmw_log":
            return "msmw_log"
        return f"{self.kind}[{self.weight.label()}]"

    def validate_for(self, model: NetworkModel) -> None:
        if self.kind == "backpressure":
            if model.hop_kind != "multi":
                raise PolicyModelMismatch("backpressure needs a multi-hop model")
            if not model.schedules_monotone_closed:
                raise PolicyModelMismatch(
                    "backpressure needs a monotone-closed schedule set"
                )
        elif self.kind == "msmw_log":
            if model.hop_kind != "single":
                raise PolicyModelMismatch("msmw_log is defined for single-hop networks")
        elif self.kind != "mw":
            raise PolicyModelMismatch(f"unknown policy kind {self.kind!r}")
        if self.kind in ("mw", "backpressure") and self.weight is None:
            raise PolicyModelMismatch(f"{self.kind} policy needs a weight function")


class TieState:
    """Per-simulation mutable tie-breaking state.

    Random tie-breaks draw from the replication RNG stream so that runs stay
    reproducible; round_robin keeps a rotating pointer over schedule indices.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self.rng = rng
        self.pointer = 0

    @staticmethod
    def seeded(master_seed: int, *path: int) -> "TieState":
        return TieState(rng=derive_rng(master_seed, *path))


@dataclass
class SelectionTrace:
    """Audit record of one selection: raw weights, maximizers, choice."""

    weights: np.ndarray  # (num_schedules,) or (num_schedules, 2) for msmw_log
    argmax_set: np.ndarray  # sorted indices of maximal-weight schedules
    chosen: int


def weight_vectors(model: NetworkModel, weight: WeightFunction, q, pressure: bool) -> np.ndarray:
    """Schedule weights pi . f(q), or with ``pressure`` pi . (I-R) f(q) using
    [(I-R)f(q)]_n = f(q_n) - f([Rq]_n).

    ``q`` is one state (N,) or a batch (..., N); the result has shape
    (..., num_schedules). Every state gets its own matrix-vector product, so
    a batch row is bit-identical to the weights of that state alone.
    """
    q = np.asarray(q, dtype=float)
    fq = weight.value(q)
    if pressure:
        fq = fq - weight.value(q @ model.routing.entries.T)
    return (model.schedules.as_array @ fq[..., None])[..., 0]


def schedule_weights(model: NetworkModel, policy: Policy, q) -> np.ndarray:
    """Per-schedule weights at queue state q.

    mw: pi . f(q). backpressure: pi . (I-R) f(q); see weight_vectors.
    msmw_log: the lexicographic pair (pi . 1{q>0}, sum over nonempty served
    queues of pi_n log q_n).
    """
    policy.validate_for(model)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("queue state must be >= 0")
    if policy.kind != "msmw_log":
        return weight_vectors(model, policy.weight, q, pressure=policy.kind == "backpressure")
    s_mat = model.schedules.as_array
    pos = q > 0
    size = s_mat @ pos.astype(float)
    logs = np.where(pos, np.log(np.where(pos, q, 1.0)), 0.0)
    logw = s_mat @ logs
    return np.column_stack([size, logw])


def _argmax_set(weights: np.ndarray, rel_tol: float) -> np.ndarray:
    """Indices of maximal weights; lexicographic for paired weights."""
    if weights.ndim == 1:
        top = weights.max()
        tol = rel_tol * max(1.0, abs(top))
        return np.flatnonzero(weights >= top - tol)
    # lexicographic: maximal first column, then maximal second among those
    top0 = weights[:, 0].max()
    tol0 = rel_tol * max(1.0, abs(top0))
    first = np.flatnonzero(weights[:, 0] >= top0 - tol0)
    top1 = weights[first, 1].max()
    tol1 = rel_tol * max(1.0, abs(top1))
    return first[weights[first, 1] >= top1 - tol1]


def select_schedule(
    model: NetworkModel,
    policy: Policy,
    q,
    tie_state: Optional[TieState] = None,
) -> SelectionTrace:
    """Pick a maximal-weight schedule, resolving ties per the policy."""
    weights = schedule_weights(model, policy, q)
    argmax = _argmax_set(weights, policy.rel_tol)
    if policy.tie_break == "highest_index" or len(argmax) == 1:
        chosen = int(argmax[-1])
    elif policy.tie_break == "random":
        if tie_state is None or tie_state.rng is None:
            raise ValueError("random tie-break needs a seeded TieState")
        chosen = int(argmax[tie_state.rng.integers(0, len(argmax))])
    elif policy.tie_break == "round_robin":
        if tie_state is None:
            raise ValueError("round_robin tie-break needs a TieState")
        after = argmax[argmax >= tie_state.pointer]
        chosen = int(after[0]) if len(after) else int(argmax[0])
        tie_state.pointer = (chosen + 1) % len(model.schedules)
    else:
        raise ValueError(f"unknown tie_break {policy.tie_break!r}")
    return SelectionTrace(weights=weights, argmax_set=argmax, chosen=chosen)


@dataclass
class ScaleInvarianceReport:
    passed: bool
    samples: int
    counterexamples: list  # (q, kappa, argmax_at_q, argmax_at_kq)


def check_scale_invariance(
    model: NetworkModel,
    policy: Policy,
    samples: int,
    kappa_list,
    seed: int,
    q_scale: float = 5.0,
    max_counterexamples: int = 10,
) -> ScaleInvarianceReport:
    """Sample states q and verify argmax_set(q) == argmax_set(kappa q).

    This is the literal argmax scale-invariance assumed of the weight
    function; power weights always pass, and e.g. f(x) = log(1+x) on a
    switch is expected to produce counterexamples.
    """
    if policy.kind not in ("mw", "backpressure"):
        raise PolicyModelMismatch("scale invariance applies to mw/backpressure policies")
    rng = derive_rng(seed)
    bad = []
    for _ in range(samples):
        q = rng.random(model.n_queues) * q_scale
        base = _argmax_set(schedule_weights(model, policy, q), policy.rel_tol)
        for kappa in kappa_list:
            scaled = _argmax_set(
                schedule_weights(model, policy, float(kappa) * q), policy.rel_tol
            )
            if not np.array_equal(base, scaled):
                if len(bad) < max_counterexamples:
                    bad.append((q.copy(), float(kappa), base.copy(), scaled.copy()))
    return ScaleInvarianceReport(passed=not bad, samples=samples, counterexamples=bad)
