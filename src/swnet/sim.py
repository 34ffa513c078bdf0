"""Discrete-time switched-network simulation: trajectories, conservation
audits, and fluid/diffusion rescaled views.

Within a slot the order is serve-then-arrive:
Q(tau+1) = [Q(tau) - dB(tau)]^+ + dA(tau); in multi-hop networks the work
routed out of a queue in slot tau becomes available downstream at tau+1.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .arrivals import ArrivalModel, derive_rng, sample_increments
from .model import NetworkModel
from .policy import Policy, SelectionTrace, TieState, select_schedule


class NegativeQueue(AssertionError):
    """Internal invariant breach: a queue went negative."""


class HorizonTooShort(ValueError):
    """The recorded path does not cover the requested rescaled window."""


class _Kahan:
    """Componentwise compensated accumulator for cumulative vectors."""

    __slots__ = ("total", "_c")

    def __init__(self, n: int) -> None:
        self.total = np.zeros(n)
        self._c = np.zeros(n)

    def add(self, x: np.ndarray) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def advance(
    model: NetworkModel, q: np.ndarray, dB: np.ndarray, dA: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The queue recursion for one slot: returns (q_next, dY).

    Single-hop: q_next = [q - dB]^+ + dA. Multi-hop: the work actually
    served, dB - dY, leaves its queue and joins the downstream one. dY =
    [dB - q]^+ is the idled service. The fluid integrator runs the same
    recursion with increments h*pi and lambda*h.
    """
    dY = np.maximum(dB - q, 0.0)
    if model.is_single_hop:
        return np.maximum(q - dB, 0.0) + dA, dY
    served = dB - dY
    return q - served + served @ model.routing.entries + dA, dY


@dataclass
class StepResult:
    q_next: np.ndarray
    service: np.ndarray  # dB, the chosen schedule
    idling: np.ndarray  # dY = [dB - Q]^+
    trace: SelectionTrace


def step(
    model: NetworkModel,
    policy: Policy,
    q,
    dA,
    tie_state: Optional[TieState] = None,
) -> StepResult:
    """One slot of the queueing recursion from state q with arrivals dA."""
    q = np.asarray(q, dtype=float)
    dA = np.asarray(dA, dtype=float)
    if np.any(dA < 0):
        raise ValueError("arrival increments must be >= 0")
    trace = select_schedule(model, policy, q, tie_state)
    dB = model.schedules[trace.chosen]
    q_next, dY = advance(model, q, dB, dA)
    if q_next.min() < 0.0:
        raise NegativeQueue(f"queue went negative: {q_next}")
    return StepResult(q_next=q_next, service=dB, idling=dY, trace=trace)


@dataclass
class SystemPath:
    """Recorded trajectory of one run.

    ``tau`` lists the recorded slots (always including 0 and the horizon).
    Q, A, B, Y have one row per recorded slot; S_cum counts slots spent per
    schedule. ``chosen`` has one entry per simulated slot (-1 padding never
    occurs: selection happens every slot and is always recorded).
    ``sup_q`` is the running max of max_n Q_n over every simulated slot,
    regardless of the recording stride.
    """

    tau: np.ndarray
    Q: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Y: np.ndarray
    S_cum: np.ndarray
    chosen: np.ndarray
    horizon: int
    sup_q: float
    meta: dict = field(default_factory=dict)

    @property
    def n_queues(self) -> int:
        return self.Q.shape[1]

    @property
    def n_schedules(self) -> int:
        return self.S_cum.shape[1]

    def to_csv(self) -> str:
        """Dense per-slot export; requires record_every=1.

        Columns: tau,q_1..q_N,a_1..a_N,b_1..b_N,y_1..y_N,chosen_schedule.
        The final row's chosen_schedule is empty (no slot follows it). A
        leading '#' comment names the run context.
        """
        if len(self.tau) != self.horizon + 1:
            raise ValueError("CSV export needs a densely recorded path")
        n = self.n_queues
        buf = io.StringIO()
        context = ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        buf.write(f"# {context}\n")
        head = (
            ["tau"]
            + [f"q_{i+1}" for i in range(n)]
            + [f"a_{i+1}" for i in range(n)]
            + [f"b_{i+1}" for i in range(n)]
            + [f"y_{i+1}" for i in range(n)]
            + ["chosen_schedule"]
        )
        buf.write(",".join(head) + "\n")
        for k in range(self.horizon + 1):
            cells = [str(int(self.tau[k]))]
            for block in (self.Q, self.A, self.B, self.Y):
                cells.extend(repr(float(v)) for v in block[k])
            cells.append(str(int(self.chosen[k])) if k < self.horizon else "")
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def run(
    model: NetworkModel,
    policy: Policy,
    arrivals: ArrivalModel,
    q0,
    horizon: int,
    seed,
    record_every: int = 1,
) -> SystemPath:
    """Simulate ``horizon`` slots; bit-reproducible per seed.

    ``seed`` may be an int or a derived Generator. ``record_every=k`` keeps
    every k-th slot (plus slot 0 and the final slot) to bound memory on long
    diffusion runs; the running sup of |Q| is tracked at every slot.
    """
    policy.validate_for(model)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (model.n_queues,) or np.any(q0 < 0):
        raise ValueError("q0 must be a nonnegative vector of length n_queues")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if arrivals.n_queues != model.n_queues:
        raise ValueError("arrival model dimension mismatch")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(int(seed))
    tie_state = TieState(rng=rng)
    a_path = sample_increments(arrivals, horizon, rng)

    n, ns = model.n_queues, len(model.schedules)
    rec_slots = list(range(0, horizon + 1, max(1, int(record_every))))
    if rec_slots[-1] != horizon:
        rec_slots.append(horizon)
    rec_index = {t: i for i, t in enumerate(rec_slots)}
    nrec = len(rec_slots)

    Q = np.zeros((nrec, n))
    B = np.zeros((nrec, n))
    Y = np.zeros((nrec, n))
    S_cum = np.zeros((nrec, ns), dtype=np.int64)
    chosen = np.zeros(horizon, dtype=np.int64)

    q = q0.copy()
    b_acc = _Kahan(n)
    y_acc = _Kahan(n)
    s_counts = np.zeros(ns, dtype=np.int64)
    sup_q = float(q.max(initial=0.0))
    Q[0] = q
    s_mat = model.schedules.as_array

    for tau in range(horizon):
        trace = select_schedule(model, policy, q, tie_state)
        dB = s_mat[trace.chosen]
        q, dY = advance(model, q, dB, a_path[tau + 1] - a_path[tau])
        if q.min() < 0.0:
            raise NegativeQueue(f"queue went negative at slot {tau}: {q}")
        b_acc.add(dB)
        y_acc.add(dY)
        s_counts[trace.chosen] += 1
        chosen[tau] = trace.chosen
        sup_q = max(sup_q, float(q.max(initial=0.0)))
        idx = rec_index.get(tau + 1)
        if idx is not None:
            Q[idx] = q
            B[idx] = b_acc.total
            Y[idx] = y_acc.total
            S_cum[idx] = s_counts

    tau_arr = np.asarray(rec_slots, dtype=np.int64)
    return SystemPath(
        tau=tau_arr,
        Q=Q,
        A=a_path[tau_arr],
        B=B,
        Y=Y,
        S_cum=S_cum,
        chosen=chosen,
        horizon=horizon,
        sup_q=sup_q,
        meta={
            "model": model.name,
            "policy": policy.label(),
            "seed": None if isinstance(seed, np.random.Generator) else int(seed),
            "arrivals": arrivals.kind,
        },
    )


@dataclass
class ScaledPath:
    """Rescaled view of a run: fluid x(zt)/z or diffusion Q(r^2 t)/r."""

    kind: str  # "fluid" | "diffusion"
    scale: float
    t: np.ndarray
    q: np.ndarray
    a: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    source_meta: dict = field(default_factory=dict)

    def components(self) -> dict:
        out = {"q": self.q}
        for name, val in (("a", self.a), ("y", self.y), ("s", self.s)):
            if val is not None:
                out[name] = val
        return out


def _interp_rows(tau: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    out = np.empty((at.shape[0], values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.interp(at, tau, values[:, j])
    return out


def rescale(path: SystemPath, kind: str, scale: float, T: float, num: int = 201) -> ScaledPath:
    """Rescaled view on a uniform grid of ``num`` points over [0, T].

    fluid: all components X(zt)/z; diffusion: Q(r^2 t)/r (arrivals, idling
    and schedule usage are scaled by 1/r at time r^2 t). Slots between
    recorded points are filled by linear interpolation.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    factor = scale if kind == "fluid" else scale * scale
    if kind not in ("fluid", "diffusion"):
        raise ValueError("kind must be 'fluid' or 'diffusion'")
    if path.horizon < factor * T - 1e-9:
        raise HorizonTooShort(
            f"need horizon >= {factor * T:g} slots for {kind} window T={T:g}, have {path.horizon}"
        )
    t = np.linspace(0.0, T, num)
    slots = factor * t
    tau = path.tau.astype(float)
    q = _interp_rows(tau, path.Q, slots) / scale
    a = _interp_rows(tau, path.A, slots) / scale
    y = _interp_rows(tau, path.Y, slots) / scale
    s = _interp_rows(tau, path.S_cum.astype(float), slots) / scale
    return ScaledPath(kind=kind, scale=float(scale), t=t, q=q, a=a, y=y, s=s, source_meta=dict(path.meta))


@dataclass
class AuditViolation:
    slot: int
    check: str
    residual: float


@dataclass
class AuditReport:
    ok: bool
    violations: list[AuditViolation]
    max_residual: float
    checks_run: int

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"slot": v.slot, "check": v.check, "residual": v.residual}
                for v in self.violations
            ],
            "max_residual": self.max_residual,
            "checks_run": self.checks_run,
        }


def conservation_audit(
    path: SystemPath,
    model: NetworkModel,
    rtol: float = 1e-9,
    bound_pairs: int = 200,
    seed: int = 0,
) -> AuditReport:
    """Verify the cumulative identities and the inter-slot service bound.

    At every recorded slot: Q = Q(0) + A - B + Y (single-hop) or
    Q = Q(0) + A - (I - R^T)(B - Y) (multi-hop), and B = sum_pi S_pi * pi;
    monotonicity of A, B, Y, S_cum; exactly one schedule per slot. On
    sampled slot pairs tau' <= tau:
    Q_n(tau) <= Q_n(tau') + A_n(tau) - A_n(tau') + sum_m R_mn (B_m(tau) - B_m(tau')).
    Reports violations; never raises.
    """
    viol: list[AuditViolation] = []
    max_res = 0.0
    checks = 0
    scale = 1.0 + float(np.abs(path.Q).max(initial=0.0)) + float(np.abs(path.A).max(initial=0.0))

    def check(cond_residual: float, slot: int, name: str) -> None:
        nonlocal max_res, checks
        checks += 1
        max_res = max(max_res, cond_residual)
        if cond_residual > rtol * scale:
            viol.append(AuditViolation(slot=slot, check=name, residual=cond_residual))

    s_mat = path.S_cum.astype(float) @ model.schedules.as_array
    rt = model.routing.entries.T.astype(float)
    q0 = path.Q[0]
    for i, tau in enumerate(path.tau):
        tau = int(tau)
        if model.is_single_hop:
            lhs = q0 + path.A[i] - path.B[i] + path.Y[i]
        else:
            flow = path.B[i] - path.Y[i]
            lhs = q0 + path.A[i] - flow + rt @ flow
        check(float(np.abs(path.Q[i] - lhs).max(initial=0.0)), tau, "cumulative_identity")
        check(float(np.abs(path.B[i] - s_mat[i]).max(initial=0.0)), tau, "service_decomposition")
        if i > 0:
            for name, block in (("A", path.A), ("B", path.B), ("Y", path.Y)):
                drop = float((block[i - 1] - block[i]).max(initial=0.0))
                check(max(drop, 0.0), tau, f"monotone_{name}")
            ds = path.S_cum[i] - path.S_cum[i - 1]
            slots = int(path.tau[i] - path.tau[i - 1])
            if ds.min() < 0 or int(ds.sum()) != slots:
                viol.append(AuditViolation(slot=tau, check="one_schedule_per_slot", residual=float(abs(ds.sum() - slots))))
            checks += 1
        if path.Q[i].min() < 0:
            viol.append(AuditViolation(slot=tau, check="nonnegative_queue", residual=float(-path.Q[i].min())))
        checks += 1

    # inter-slot bound on sampled pairs
    nrec = len(path.tau)
    if nrec >= 2 and bound_pairs > 0:
        rng = derive_rng(seed, 0xA0D17)
        r_mat = model.routing.entries.astype(float)
        for _ in range(bound_pairs):
            i = int(rng.integers(0, nrec - 1))
            j = int(rng.integers(i + 1, nrec))
            rhs = path.Q[i] + (path.A[j] - path.A[i]) + r_mat.T @ (path.B[j] - path.B[i])
            check(float((path.Q[j] - rhs).max(initial=0.0)), int(path.tau[j]), "service_bound")

    return AuditReport(ok=not viol, violations=viol, max_residual=max_res, checks_run=checks)


def path_from_csv(text: str, model: NetworkModel) -> SystemPath:
    """Rebuild a SystemPath from the dense CSV export (for replay audits)."""
    lines = [
        ln for ln in text.strip().splitlines() if ln.strip() and not ln.startswith("#")
    ]
    n = model.n_queues
    rows = [ln.split(",") for ln in lines[1:]]
    horizon = len(rows) - 1
    tau = np.array([int(r[0]) for r in rows], dtype=np.int64)
    grab = lambda r, k: np.array([float(v) for v in r[1 + k * n : 1 + (k + 1) * n]])
    Q = np.stack([grab(r, 0) for r in rows])
    A = np.stack([grab(r, 1) for r in rows])
    B = np.stack([grab(r, 2) for r in rows])
    Y = np.stack([grab(r, 3) for r in rows])
    chosen = np.array([int(r[-1]) for r in rows[:-1]], dtype=np.int64)
    s_cum = np.zeros((horizon + 1, len(model.schedules)), dtype=np.int64)
    for k, c in enumerate(chosen):
        s_cum[k + 1] = s_cum[k]
        s_cum[k + 1, c] += 1
    return SystemPath(
        tau=tau,
        Q=Q,
        A=A,
        B=B,
        Y=Y,
        S_cum=s_cum,
        chosen=chosen,
        horizon=horizon,
        sup_q=float(Q.max(initial=0.0)),
        meta={"model": model.name, "source": "csv"},
    )
