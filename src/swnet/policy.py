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
    def mw_alpha(alpha: float) -> "Policy":
        return Policy(kind="mw", weight=WeightFunction.power(alpha))

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
            if model.is_single_hop:
                raise PolicyModelMismatch("backpressure needs a multi-hop model")
            if not model.schedules_monotone_closed:
                raise PolicyModelMismatch(
                    "backpressure needs a monotone-closed schedule set"
                )
        elif self.kind == "msmw_log":
            if not model.is_single_hop:
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
        fq = fq - weight.value(q @ model.routing.T)
    return (model.schedules @ fq[..., None])[..., 0]


def drift_formula(model: NetworkModel, lam: np.ndarray, weight: WeightFunction, q) -> tuple[np.ndarray, np.ndarray]:
    """(lambda . f(q) - max_pi w_pi(q), w) at a state q (N,) or at each row
    of q (..., N), with w the max-weight schedule weights of weight_vectors
    (pressure weights on a multi-hop network). The formula is <= 0 for
    admissible float rates ``lam`` and 0 at the invariant states."""
    q = np.asarray(q, dtype=float)
    weights = weight_vectors(model, weight, q, pressure=not model.is_single_hop)
    return (weight.value(q) @ lam) - weights.max(axis=-1), weights


def batch_weights(model: NetworkModel, policy: Policy, q: np.ndarray) -> np.ndarray:
    """Per-schedule weights of each state in a batch q (..., N).

    mw: pi . f(q). backpressure: pi . (I-R) f(q); see weight_vectors.
    msmw_log: the lexicographic pair (pi . 1{q>0}, sum over nonempty served
    queues of pi_n log q_n), stacked on a last axis of length 2. Each state
    gets its own matrix-vector products, so a batch row is bit-identical to
    the weights of that state alone. No input checks: see select_schedule.
    """
    if policy.kind != "msmw_log":
        return weight_vectors(model, policy.weight, q, pressure=policy.kind == "backpressure")
    s_mat = model.schedules
    pos = q > 0
    logs = np.where(pos, np.log(np.where(pos, q, 1.0)), 0.0)
    size = (s_mat @ pos.astype(float)[..., None])[..., 0]
    logw = (s_mat @ logs[..., None])[..., 0]
    return np.stack([size, logw], axis=-1)


def _near_top(weights: np.ndarray, rel_tol: float) -> np.ndarray:
    top = np.maximum.reduce(weights, axis=-1, keepdims=True)  # ndarray.max would add a Python wrapper
    if rel_tol:
        top = top - rel_tol * np.maximum(1.0, np.abs(top))
    return weights >= top


def argmax_mask(weights: np.ndarray, rel_tol: float, lexicographic: bool) -> np.ndarray:
    """Mask of the maximal weights along the schedule axis.

    ``weights`` is (..., num_schedules), or with ``lexicographic`` (msmw_log)
    (..., num_schedules, 2): maximal first column, then maximal second
    column among those. A weight is maximal within rel_tol * max(1, |top|)
    of the top one.
    """
    if not lexicographic:
        return _near_top(weights, rel_tol)
    first = _near_top(weights[..., 0], rel_tol)
    return first & _near_top(np.where(first, weights[..., 1], -np.inf), rel_tol)


def maximal(policy: Policy, weights: np.ndarray) -> np.ndarray:
    """The argmax mask of a policy's batch_weights: lexicographic for
    msmw_log, within the policy's rel_tol."""
    return argmax_mask(weights, policy.rel_tol, policy.kind == "msmw_log")


def _resolve_tie(policy: Policy, argmax: tuple, tie_state: Optional[TieState], ns: int) -> int:
    """One of several maximizers ``argmax`` (ascending) per the tie-break."""
    if policy.tie_break == "random":
        if tie_state is None or tie_state.rng is None:
            raise ValueError("random tie-break needs a seeded TieState")
        return argmax[tie_state.rng.integers(0, len(argmax))]
    if policy.tie_break == "round_robin":
        if tie_state is None:
            raise ValueError("round_robin tie-break needs a TieState")
        chosen = next((m for m in argmax if m >= tie_state.pointer), argmax[0])
        tie_state.pointer = (chosen + 1) % ns
        return chosen
    raise ValueError(f"unknown tie_break {policy.tie_break!r}")


def maximizers(policy: Policy, mask: np.ndarray) -> tuple[np.ndarray, dict]:
    """The maximizers of each row of a (rows, num_schedules) argmax mask:
    (the highest-index one of every row as an int64 array, {row: all of its
    maximizers as an ascending tuple} for each row where several are maximal
    and the tie-break chooses among them, in ascending row order)."""
    top = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    if policy.tie_break == "highest_index":
        return top, {}
    return top, {i: tuple(np.flatnonzero(mask[i]).tolist()) for i in np.flatnonzero(mask.sum(axis=1) > 1).tolist()}


def resolve(policy: Policy, top: np.ndarray, ties: dict, tie_states: list, ns: int) -> np.ndarray:
    """The chosen schedule of each row, as an int64 array, from its
    ``maximizers``: ``top`` as it is where the row has no tie, else the tie
    broken per the tie-break with the row's own TieState, in ascending row
    order."""
    if not ties:
        return top
    chosen = top.copy()
    for i, argmax in ties.items():
        chosen[i] = _resolve_tie(policy, argmax, tie_states[i], ns)
    return chosen


def select_schedule(
    model: NetworkModel,
    policy: Policy,
    q,
    tie_state: Optional[TieState] = None,
) -> SelectionTrace:
    """Pick a maximal-weight schedule at one state q, after checking the
    policy against the model and q >= 0; ties are resolved per the policy."""
    policy.validate_for(model)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("queue state must be >= 0")
    weights = batch_weights(model, policy, q)
    mask = maximal(policy, weights)
    chosen = resolve(policy, *maximizers(policy, mask[None]), [tie_state], len(mask))[0]
    return SelectionTrace(weights=weights, argmax_set=np.flatnonzero(mask), chosen=int(chosen))


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
) -> ScaleInvarianceReport:
    """Sample states q uniformly in [0, 5)^N and verify argmax_set(q) ==
    argmax_set(kappa q); the report keeps the first 10 counterexamples.

    This is the literal argmax scale-invariance assumed of the weight
    function; power weights always pass, and e.g. f(x) = log(1+x) on a
    switch is expected to produce counterexamples.
    """
    if policy.kind not in ("mw", "backpressure"):
        raise PolicyModelMismatch("scale invariance applies to mw/backpressure policies")
    policy.validate_for(model)
    rng = derive_rng(seed)
    bad = []
    for _ in range(samples):
        q = rng.random(model.n_queues) * 5.0
        base = np.flatnonzero(maximal(policy, batch_weights(model, policy, q)))
        for kappa in kappa_list:
            scaled = np.flatnonzero(maximal(policy, batch_weights(model, policy, float(kappa) * q)))
            if not np.array_equal(base, scaled):
                if len(bad) < 10:
                    bad.append((q.copy(), float(kappa), base.copy(), scaled.copy()))
    return ScaleInvarianceReport(passed=not bad, samples=samples, counterexamples=bad)
