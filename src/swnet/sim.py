"""Discrete-time switched-network simulation: trajectories, conservation
audits, and fluid/diffusion rescaled views.

Within a slot the order is serve-then-arrive:
Q(tau+1) = [Q(tau) - dB(tau)]^+ + dA(tau); in multi-hop networks the work
routed out of a queue in slot tau becomes available downstream at tau+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .arrivals import ArrivalModel, derive_rng, sample_increments
from .model import NetworkModel
from .policy import Policy, TieState, batch_weights, maximal, maximizers, resolve
from .policy import select_schedule  # unused here, but perfbench/tracer.py wraps sim.select_schedule


class NegativeQueue(AssertionError):
    """Internal invariant breach: a queue went negative."""


class HorizonTooShort(ValueError):
    """The recorded path does not cover the requested rescaled window."""


class CsvFormatError(ValueError):
    """A trajectory CSV does not have the layout that SystemPath.to_csv writes."""


# Rows per block when a whole trajectory is audited or exported: bounds the
# temporaries (and the Python floats of a CSV block) on long dense paths.
BLOCK_ROWS = 512

# Rows per block when a fluid path is formatted as CSV text: a block's cell
# strings live until it is written (512-row blocks raised the writer's peak).
TEXT_ROWS = 128

# Most state rows run_batch's table keeps in one call for its states and for
# their moves each, so SELECTION_ROWS // reps batch states, and as many moves
# over all the states' move dicts. A long stable run on the integer lattice
# revisits tens to thousands of states; the cap bounds the memory of runs
# whose states rarely repeat.
SELECTION_ROWS = 4096


def row_blocks(*columns: np.ndarray, rows: int = BLOCK_ROWS):
    """Yield (lo, block) for each ``rows`` rows of the columns side by side, as one float ndarray."""
    for lo in range(0, len(columns[0]), rows):
        yield lo, np.column_stack([c[lo : lo + rows] for c in columns])


def float_texts(block: np.ndarray) -> list[list[str]]:
    """The repr of every cell of a 2-D float block, as one list of texts per column.

    repr runs once per distinct bit pattern in the block. Keyed on the bits, not on
    the values, 0.0 and -0.0 keep their own texts (a dict of floats would merge them).
    """
    bits, inverse = np.unique(block.T.ravel().view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse.ravel()].reshape(block.shape[::-1]).tolist()


def count_schedules(chosen: np.ndarray, last: np.ndarray, out: np.ndarray) -> None:
    """out[k, s] = the number of slots t <= last[k] with chosen[t] == s: the
    S_cum rows of the recorded slots last + 1, in exact integers."""
    for s in range(out.shape[1]):
        out[:, s] = np.cumsum(chosen == s)[last]


def advance(model: NetworkModel, q: np.ndarray, dB: np.ndarray, dA: np.ndarray) -> np.ndarray:
    """The queue recursion for one slot: returns the next state.

    Single-hop: [q - dB]^+ + dA. Multi-hop: the work actually served,
    min(dB, q), leaves its queue and joins the downstream one; taken as a
    minimum it never exceeds q, so a fractional queue cannot round below 0.
    The idled service dB - min(dB, q) = [dB - q]^+ is derived by callers
    from the states they record. The fluid integrator runs the
    same recursion with increments h*pi and lambda*h. ``q`` is one state (N,)
    or a batch (reps, N); each row is routed by its own matrix-vector
    product, so a batch row equals the recursion of that state alone.
    """
    if model.is_single_hop:
        return np.maximum(q - dB, 0.0) + dA
    served = np.minimum(dB, q)
    routed = (model.into @ served[..., None])[..., 0]
    return q - served + routed + dA


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

    def to_csv(self, f) -> None:
        """Write the dense per-slot export into the open text file ``f``; requires record_every=1.

        Columns: tau,q_1..q_N,a_1..a_N,b_1..b_N,y_1..y_N,chosen_schedule (empty on the last row), after a '#'
        comment naming the run context. Each BLOCK_ROWS rows are one %-template: "%d.0" of int64 cells (their
        float repr) if all are integers in [0, 2**53) with the sign bit clear (tested before astype), else
        the float_texts of the block.
        """
        if len(self.tau) != self.horizon + 1:
            raise ValueError("CSV export needs a densely recorded path")
        context = ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        head = ["tau"] + [f"{c}_{i+1}" for c in "qaby" for i in range(self.n_queues)] + ["chosen_schedule"]
        f.write(f"# {context}\n" + ",".join(head) + "\n")
        for lo, block in row_blocks(self.Q, self.A, self.B, self.Y):
            hi = lo + len(block)
            lattice = not np.signbit(block).any() and (block < 2**53).all() and (block == np.trunc(block)).all()
            line = "%d," + ("%d.0," if lattice else "%s,") * block.shape[1] + "%s\n"
            cols = block.astype(np.int64).T.tolist() if lattice else float_texts(block)
            picks = self.chosen[lo:hi].tolist() + [""]  # the last row's empty cell; zip drops it elsewhere
            f.write((line * len(block)) % tuple(chain.from_iterable(zip(self.tau[lo:hi].tolist(), *cols, picks))))


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
    diffusion runs; the running sup of |Q| is tracked at every slot. This is
    run_batch with one replication.
    """
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(int(seed))
    path = run_batch(model, policy, arrivals, q0, horizon, [rng], record_every)[0]
    if not isinstance(seed, np.random.Generator):
        path.meta["seed"] = int(seed)
    return path


def exact_sums(q0: np.ndarray, dA: np.ndarray, s_mat: np.ndarray, horizon: int) -> bool:
    """Whether every partial sum of B and Y is exact in floats: q0, every
    arrival increment and every schedule entry are integers and horizon
    times the largest schedule entry is below 2**53. Then every queue state
    is an integer, each idling dY is an integer in [0, dB], and a plain
    cumulative sum equals the compensated one bit for bit."""
    for x in (q0, dA, s_mat):
        if not (np.isfinite(x).all() and (x == np.trunc(x)).all()):
            return False
    return horizon * int(s_mat.max(initial=0.0)) < 2**53


def run_batch(
    model: NetworkModel,
    policy: Policy,
    arrivals: ArrivalModel,
    q0,
    horizon: int,
    rngs: list,
    record_every: int = 1,
) -> list[SystemPath]:
    """Simulate one replication per Generator in ``rngs``, all from q0, in
    lockstep over a (reps, N) state; returns one SystemPath per replication.

    Each replication draws its arrivals, then its random tie-breaks, from
    its own Generator in the same order as a run of its own, and every
    operation acts on each row alone, so each path equals ``run`` with that
    Generator bit for bit.

    The loop keeps one key per slot, the (reps, N) state as one bytes
    object, and a table that lives for this call; a slot's picks are one
    int64 array, kept as its bytes. The entry for an untied state is (its
    picks' bytes, {}, its moves), and for a tied state (its highest-index
    maximizers, its ties, its moves) as ``policy.maximizers`` returns them.
    So a revisited state is not weighed again, an untied one skips
    ``resolve``, and only ties are broken anew, each with its row's own
    TieState. This relies on the maximizers being a function of q, which
    holds for mw, backpressure and msmw_log. A missed state is weighed in
    one call, each row by its own matrix-vector product. The moves map the
    slot's arrival bytes (on a tied state: the pick bytes followed by the
    arrival bytes) to the next state: a known move is a lookup, any other
    slot steps the batch through ``advance``. Moves are learnt only in known
    states, into a dict made with the first one. States and moves each stop
    at SELECTION_ROWS state rows. A wide batch whose rows repeat but never
    all at once, as in a subcritical collapse run, is weighed and stepped
    every slot.

    Q, B, Y and sup_q are rebuilt from the visited states a block of
    BLOCK_ROWS state rows (BLOCK_ROWS // reps slots) at a time, with idling
    dY = [dB - Q]^+. B and Y are one compensated (Kahan) sum over the stacked
    [dB | dY], which on exact data (see ``exact_sums``) is a cumulative sum.
    """
    policy.validate_for(model)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (model.n_queues,) or not np.isfinite(q0).all() or np.any(q0 < 0):
        raise ValueError("q0 must be a finite nonnegative vector of length n_queues")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if arrivals.n_queues != model.n_queues:
        raise ValueError("arrival model dimension mismatch")
    reps = len(rngs)
    if reps == 0:
        return []
    tie_states = [TieState(rng=rng) for rng in rngs]
    n, ns = model.n_queues, len(model.schedules)
    a_path = np.empty((reps, horizon + 1, n))
    dA = np.empty((horizon, reps, n))  # slot-major, so dA[tau] is contiguous
    for i, rng in enumerate(rngs):
        a_path[i] = sample_increments(arrivals, horizon, rng)
        np.subtract(a_path[i, 1:], a_path[i, :-1], out=dA[:, i])

    rec_slots = list(range(0, horizon + 1, record_every))
    if rec_slots[-1] != horizon:
        rec_slots.append(horizon)
    tau_arr = np.asarray(rec_slots, dtype=np.int64)
    nrec = len(rec_slots)

    Q = np.zeros((reps, nrec, n))
    BY = np.zeros((reps, nrec, 2 * n))  # [B | Y]
    chosen = np.empty((horizon, reps), dtype=np.int64)  # slot-major, transposed after the loop

    q = np.tile(q0, (reps, 1))
    Q[:, 0] = q
    q_sup = q.copy()  # running max of each queue; sup_q is its row max
    total = np.zeros((reps, 2 * n))  # B and Y at the end of the last block
    comp = np.zeros((reps, 2 * n))  # their Kahan compensation
    s_mat = model.schedules
    exact = exact_sums(q0, dA, s_mat, horizon)
    slot_bytes = np.dtype((np.void, q.nbytes))  # a slot's (reps, N) arrivals as one key
    cap = SELECTION_ROWS // reps  # states, and moves, per call: SELECTION_ROWS state rows
    cur = q.tobytes()  # the batch state as one key
    table, learnt = {}, 0

    span = max(1, BLOCK_ROWS // reps)  # slots per block: BLOCK_ROWS state rows
    for lo in range(0, horizon, span):
        hi = min(lo + span, horizon)
        picks: list = []
        states = [cur]  # the block's batch states, slot by slot, from slot lo
        for tau, arrived in enumerate(dA[lo:hi].reshape(hi - lo, -1).view(slot_bytes).ravel().tolist(), lo):
            entry = table.get(cur)
            if entry is None:  # a new state has no move yet
                if q is None:
                    q = np.frombuffer(cur).reshape(reps, n)
                top, ties = maximizers(policy, maximal(policy, batch_weights(model, policy, q)))
                picked = resolve(policy, top, ties, tie_states, ns)
                pick, nxt = picked.tobytes(), None
                if len(table) < cap:
                    table[cur] = (top if ties else pick, ties, None)
            else:  # an untied state's moves key on the arrivals alone, and its picks need no resolve
                top, ties, known_moves = entry
                picked = resolve(policy, top, ties, tie_states, ns) if ties else None
                pick = top if picked is None else picked.tobytes()
                key = arrived if picked is None else pick + arrived
                nxt = known_moves.get(key) if known_moves else None
            if nxt is None:
                if q is None:
                    q = np.frombuffer(cur).reshape(reps, n)
                if picked is None:
                    picked = np.frombuffer(pick, np.int64)
                q = advance(model, q, s_mat.take(picked, axis=0), dA[tau])
                if np.minimum.reduce(q, axis=None) < 0.0:
                    bad = int(np.argmin(q.min(axis=1)))
                    raise NegativeQueue(f"queue went negative at slot {tau}: {q[bad]}")
                nxt = q.tobytes()
                if entry is not None and learnt < cap:
                    if known_moves is None:  # a state's move dict is made with its first move
                        table[cur] = (top, ties, known_moves := {})
                    known_moves[key], learnt = nxt, learnt + 1
            else:
                q = None
            picks.append(pick)
            states.append(nxt)
            cur = nxt

        # fold the block into the outputs: path[k] is the state at slot lo + k
        path = np.frombuffer(b"".join(states)).reshape(hi - lo + 1, reps, n)
        chosen[lo:hi] = np.frombuffer(b"".join(picks), np.int64).reshape(hi - lo, reps)
        dB = s_mat.take(chosen[lo:hi], axis=0)
        inc = np.concatenate((dB, np.maximum(dB - path[:-1], 0.0)), axis=2)
        if exact:  # every partial sum is exact, so the compensation stays 0
            np.cumsum(inc, axis=0, out=inc)
            inc += total
            total = inc[-1].copy()
        else:
            for k in range(hi - lo):
                y = inc[k] - comp
                t = total + y
                comp = (t - total) - y
                total = inc[k] = t
        np.maximum(q_sup, path[1:].max(axis=0), out=q_sup)
        i0, i1 = np.searchsorted(tau_arr, (lo, hi), side="right")
        rows = tau_arr[i0:i1] - lo
        Q[:, i0:i1] = path[rows].swapaxes(0, 1)
        BY[:, i0:i1] = inc[rows - 1].swapaxes(0, 1)

    chosen = chosen.T
    S_cum = np.zeros((reps, nrec, ns), dtype=np.int64)
    for i in range(reps):  # one replication at a time, so the temporaries stay O(horizon)
        count_schedules(chosen[i], tau_arr[1:] - 1, S_cum[i, 1:])
    return [
        SystemPath(
            tau=tau_arr.copy(),
            Q=Q[i],
            A=a_path[i][tau_arr],
            B=BY[i, :, :n],
            Y=BY[i, :, n:],
            S_cum=S_cum[i],
            chosen=chosen[i],
            horizon=horizon,
            sup_q=float(q_sup[i].max(initial=0.0)),
            meta={
                "model": model.name,
                "policy": policy.label(),
                "seed": None,
                "arrivals": arrivals.kind,
            },
        )
        for i in range(reps)
    ]


@dataclass
class FluidTrajectory:
    """A fluid-scaled path on the uniform grid t_k = k*h: an integrated
    fluid solution (``fluid.integrate_fluid``) or a rescaled run
    (``rescale``).

    q has shape (K+1, N); a, y and s are the cumulative arrivals, idling
    and per-schedule service time, nondecreasing in t.
    """

    t: np.ndarray
    q: np.ndarray
    a: np.ndarray
    y: np.ndarray
    s: np.ndarray
    h: float

    def components(self) -> dict:
        return {"q": self.q, "a": self.a, "y": self.y, "s": self.s}


def _interp_rows(tau: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    out = np.empty((at.shape[0], values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.interp(at, tau, values[:, j])
    return out


def rescale(path: SystemPath, kind: str, scale: float, T: float, num: int = 201) -> FluidTrajectory:
    """Rescaled view on a uniform grid of ``num`` points over [0, T].

    fluid: all components X(zt)/z; diffusion: Q(r^2 t)/r (arrivals, idling
    and schedule usage are scaled by 1/r at time r^2 t). Slots between
    recorded points are filled by linear interpolation. The grid step h is
    T / (num - 1), and 0 for a one-point grid.
    """
    t, slots = _window(path, kind, scale, T, num)
    tau = path.tau.astype(float)
    q, a, y, s = (_interp_rows(tau, x, slots) / scale for x in (path.Q, path.A, path.Y, path.S_cum))
    return FluidTrajectory(t=t, q=q, a=a, y=y, s=s, h=T / (num - 1) if num > 1 else 0.0)


def rescale_q(path: SystemPath, kind: str, scale: float, T: float, num: int = 201) -> np.ndarray:
    """``rescale(path, kind, scale, T, num).q`` bit for bit, without interpolating a, y and s."""
    return _interp_rows(path.tau.astype(float), path.Q, _window(path, kind, scale, T, num)[1]) / scale


def _window(path: SystemPath, kind: str, scale: float, T: float, num: int) -> tuple[np.ndarray, np.ndarray]:
    """rescale's checks, then its grid t and the slots it reads, factor * t."""
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
    return t, factor * t


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


# The per-row checks of conservation_audit, in the order it reports them.
_AUDIT_CHECKS = ("cumulative_identity", "service_decomposition", "monotone_A", "monotone_B", "monotone_Y",
                 "one_schedule_per_slot", "nonnegative_queue", "non_finite")


def _finite_max_abs(x: np.ndarray) -> float:
    """max |x| over the finite cells of x (0.0 if there are none), so that a
    NaN or inf cell leaves the audit threshold finite."""
    top = float(np.abs(x).max(initial=0.0))
    return top if np.isfinite(top) else float(np.abs(x[np.isfinite(x)]).max(initial=0.0))


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
    monotonicity of A, B, Y, S_cum; exactly one schedule per slot; finite
    Q, A, B, Y (residual: the row's count of NaN and inf cells). The
    threshold is rtol (1 + max|Q| + max|A|), both maxima over finite cells. On
    sampled slot pairs tau' <= tau:
    Q_n(tau) <= Q_n(tau') + A_n(tau) - A_n(tau') + sum_m R_mn (B_m(tau) - B_m(tau')).
    Reports violations; never raises.
    """
    viol: list[AuditViolation] = []
    max_res = 0.0
    nrec = len(path.tau)
    checks = 3 * nrec + 4 * max(nrec - 1, 0)
    thr = rtol * (1.0 + _finite_max_abs(path.Q) + _finite_max_abs(path.A))
    into = model.into
    q0 = path.Q[0]
    # One residual column per check and row, a block of rows at a time; NaN
    # marks no check (row 0 has no predecessor), which fmax and > skip.
    for lo in range(0, nrec, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, nrec)
        first = 1 if lo == 0 else 0
        prev, cur = slice(lo + first - 1, hi - 1), slice(lo + first, hi)
        Q, A, B, Y = (x[lo:hi] for x in (path.Q, path.A, path.B, path.Y))
        if model.is_single_hop:
            lhs = q0 + A - B + Y
        else:
            flow = B - Y
            lhs = q0 + A - flow + (into @ flow[..., None])[..., 0]
        # row max, min and int sums over contiguous transposed copies (fast, and exact in any order)
        res = np.full((hi - lo, len(_AUDIT_CHECKS)), np.nan)
        res[:, 0] = np.abs(Q - lhs).T.copy().max(axis=0, initial=0.0)
        res[:, 1] = np.abs(B - path.S_cum[lo:hi].astype(float) @ model.schedules).T.copy().max(axis=0, initial=0.0)
        for c, x in enumerate((path.A, path.B, path.Y), start=2):
            res[first:, c] = (x[prev] - x[cur]).T.copy().max(axis=0, initial=0.0)
        ds = (path.S_cum[cur] - path.S_cum[prev]).T.copy()
        gap = ds.sum(axis=0) - (path.tau[cur] - path.tau[prev])
        res[first:, 5] = np.abs(gap)
        res[:, 6] = -Q.T.copy().min(axis=0)
        # NaN and inf pass the tests above; either one in a row makes its identity residual non-finite
        if not np.isfinite(res[:, 0]).all():
            res[:, 7] = (~np.isfinite(np.hstack((Q, A, B, Y)))).sum(axis=1)
        bad = res > thr
        bad[first:, 5] = (ds.min(axis=0) < 0) | (gap != 0)
        bad[:, 6:] = res[:, 6:] > 0.0
        max_res = max(max_res, float(np.fmax.reduce(res[:, :5], axis=None, initial=0.0)))
        for i, c in zip(*np.nonzero(bad)):  # by slot, then check order
            viol.append(AuditViolation(slot=int(path.tau[lo + i]), check=_AUDIT_CHECKS[c], residual=float(res[i, c])))

    # inter-slot bound on sampled pairs
    if nrec >= 2 and bound_pairs > 0:
        rng = derive_rng(seed, 0xA0D17)
        for _ in range(bound_pairs):
            i = int(rng.integers(0, nrec - 1))
            j = int(rng.integers(i + 1, nrec))
            rhs = path.Q[i] + (path.A[j] - path.A[i]) + into @ (path.B[j] - path.B[i])
            residual = float((path.Q[j] - rhs).max(initial=0.0))
            max_res = max(max_res, residual)
            checks += 1
            if residual > thr:
                viol.append(AuditViolation(slot=int(path.tau[j]), check="service_bound", residual=residual))

    return AuditReport(ok=not viol, violations=viol, max_residual=max_res, checks_run=checks)


def _csv_cell(cell: str, kind: type, row: int, col: int):
    try:
        value = kind(cell)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise CsvFormatError(f"data row {row}, column {col}: expected {what}, got {cell!r}") from None
    if not math.isfinite(value):
        raise CsvFormatError(f"data row {row}, column {col}: expected a finite number, got {cell!r}")
    return value


def path_from_csv(text: str, model: NetworkModel) -> SystemPath:
    """Rebuild a SystemPath from the dense CSV export (for replay audits).

    Raises CsvFormatError, naming the data row (1 = the first row after the
    header) and the 1-based column, when a row has the wrong number of
    cells, tau or the chosen schedule is not an integer (or the schedule
    index is out of range), or another cell is not a finite number.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip() and not ln.startswith("#")]
    n, ns = model.n_queues, len(model.schedules)
    if len(lines) < 2:
        raise CsvFormatError("expected a header and at least one data row")
    rows = [ln.split(",") for ln in lines[1:]]
    horizon = len(rows) - 1
    tau = np.zeros(horizon + 1, dtype=np.int64)
    cells = np.zeros((horizon + 1, 4 * n))
    chosen = np.zeros(horizon, dtype=np.int64)
    for k, r in enumerate(rows):
        if len(r) != 4 * n + 2:
            raise CsvFormatError(f"data row {k + 1}: expected {4 * n + 2} cells, got {len(r)}")
        tau[k] = _csv_cell(r[0], int, k + 1, 1)
        cells[k] = [_csv_cell(v, float, k + 1, j + 2) for j, v in enumerate(r[1:-1])]
        if k < horizon:
            chosen[k] = _csv_cell(r[-1], int, k + 1, len(r))
            if not 0 <= chosen[k] < ns:
                raise CsvFormatError(f"data row {k + 1}: chosen_schedule {chosen[k]} is not in 0..{ns - 1}")
    Q, A, B, Y = (cells[:, j * n : (j + 1) * n] for j in range(4))
    s_cum = np.zeros((horizon + 1, ns), dtype=np.int64)
    count_schedules(chosen, np.arange(horizon), s_cum[1:])
    return SystemPath(
        tau=tau, Q=Q, A=A, B=B, Y=Y, S_cum=s_cum, chosen=chosen, horizon=horizon,
        sup_q=float(Q.max(initial=0.0)), meta={"model": model.name, "source": "csv"},
    )
