import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swnet import presets
from swnet.arrivals import ArrivalModel, derive_rng, sample_increments
from swnet.model import RoutingMatrix, ScheduleSet, WeightFunction, validate_network
from swnet.policy import Policy, TieState
from swnet.sim import (
    BLOCK_ROWS,
    AuditReport,
    AuditViolation,
    HorizonTooShort,
    conservation_audit,
    path_from_csv,
    rescale,
    run,
    run_batch,
    step,
)


def test_step_single_hop_clipping(ex2):
    # Q=(2,0), schedule (3,0) chosen at these weights, dA=(1,1)
    res = step(ex2, Policy.mw_alpha(1.0), [2.0, 0.0], [1.0, 1.0])
    assert np.array_equal(res.service, [3.0, 0.0])
    assert np.array_equal(res.idling, [1.0, 0.0])
    assert np.array_equal(res.q_next, [1.0, 1.0])


def test_step_tandem_routes_served_work(tandem2):
    from swnet.model import WeightFunction

    pol = Policy.backpressure(WeightFunction.power(1.0))
    # force the all-ones schedule by picking a state where it wins:
    # q=(2,1): backpressure terms (f(2)-f(1), f(1)) = (1, 1); (1,1) weighs 2
    res = step(tandem2, pol, [2.0, 1.0], [0.0, 0.0])
    assert tuple(res.service) == (1.0, 1.0)
    assert np.array_equal(res.idling, [0.0, 0.0])
    assert np.array_equal(res.q_next, [1.0, 1.0])


def test_step_tandem_idling_blocks_routing(tandem2):
    from swnet.model import WeightFunction
    pol = Policy.backpressure(WeightFunction.power(1.0))
    # q=(0,1): serving (1,1) would idle queue 1 entirely; routed amount is 0
    res = step(tandem2, pol, [0.0, 1.0], [0.0, 0.0])
    served = res.service - res.idling
    assert served[0] == 0.0
    assert res.q_next[1] == 1.0 - served[1] + served[0]


def test_run_ex2_drain_hand_case(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.deterministic([0.0, 0.0]),
        [5.0, 0.0],
        2,
        seed=0,
    )
    assert np.array_equal(path.Q, [[5, 0], [2, 0], [0, 0]])
    assert np.array_equal(path.Y[-1], [1.0, 0.0])
    assert np.array_equal(path.chosen, [0, 0])


def test_run_horizon_zero(ex2):
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([0, 0]), [1.0, 2.0], 0, seed=0)
    assert path.horizon == 0
    assert np.array_equal(path.Q, [[1.0, 2.0]])


def test_run_critical_single_queue_constant():
    model = presets.single_queue()
    path = run(
        model,
        Policy.mw_alpha(1.0),
        ArrivalModel.bernoulli([1.0]),
        [3.0],
        50,
        seed=0,
    )
    assert np.all(path.Q == 3.0)


def test_run_bit_reproducible(ex2):
    kw = dict(
        model=ex2,
        policy=Policy.mw_alpha(1.0),
        arrivals=ArrivalModel.bernoulli([0.9, 0.5]),
        q0=[0.0, 0.0],
        horizon=500,
    )
    a = run(kw["model"], kw["policy"], kw["arrivals"], kw["q0"], kw["horizon"], seed=9)
    b = run(kw["model"], kw["policy"], kw["arrivals"], kw["q0"], kw["horizon"], seed=9)
    assert np.array_equal(a.Q, b.Q) and np.array_equal(a.Y, b.Y)


def test_work_conservation_slotwise(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.bernoulli([0.9, 0.5]),
        [0.0, 0.0],
        2000,
        seed=21,
    )
    dB = np.diff(path.B, axis=0)
    dY = np.diff(path.Y, axis=0)
    q_before = path.Q[:-1]
    # idling happens only when the offered service exceeds the queue content
    idle = dY > 0
    assert np.all(q_before[idle] < dB[idle])


def test_rescale_identity_at_scale_one(ex2):
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([1.0, 1.0]), [0.0, 0.0], 10, seed=0)
    view = rescale(path, "fluid", 1, T=10, num=11)
    assert np.allclose(view.q, path.Q)
    assert np.allclose(view.a, path.A)


def test_rescale_deterministic_arrivals_linear(ex2):
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([0.3, 0.7]), [0.0, 0.0], 1000, seed=0)
    view = rescale(path, "fluid", 100, T=10, num=21)
    assert np.allclose(view.a, np.outer(view.t, [0.3, 0.7]))


def test_rescale_diffusion_drain_time():
    model = presets.single_queue()
    r, c = 10, 2.0
    path = run(
        model,
        Policy.mw_alpha(1.0),
        ArrivalModel.deterministic([0.0]),
        [r * c],
        r * r,
        seed=0,
    )
    view = rescale(path, "diffusion", r, T=1.0, num=101)
    k = int(np.argmax(view.q[:, 0] <= 0.0))
    assert view.t[k] == pytest.approx(c / r, abs=0.02)


def test_rescale_horizon_guard(ex2):
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([0, 0]), [1.0, 0.0], 10, seed=0)
    with pytest.raises(HorizonTooShort):
        rescale(path, "fluid", 10, T=2.0)


def test_audit_clean_run(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.iid_batch([2, 1]),
        [0.0, 0.0],
        3000,
        seed=4,
    )
    report = conservation_audit(path, ex2)
    assert report.ok
    assert report.max_residual <= 1e-9 * (1 + path.sup_q)


def test_audit_multihop_tandem(tandem2):
    from swnet.model import WeightFunction

    path = run(
        tandem2,
        Policy.backpressure(WeightFunction.power(1.0)),
        ArrivalModel.bernoulli([0.6, 0.0]),
        [2.0, 0.0],
        10_000,
        seed=8,
    )
    report = conservation_audit(path, tandem2)
    assert report.ok, report.violations[:3]


def test_audit_detects_corruption(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.bernoulli([0.5, 0.5]),
        [0.0, 0.0],
        100,
        seed=1,
    )
    path.Q[50, 0] += 0.5  # hand-corrupted slot
    report = conservation_audit(path, ex2, bound_pairs=0)
    assert not report.ok
    assert any(v.slot == 50 and v.check == "cumulative_identity" for v in report.violations)


def test_csv_roundtrip_audits_clean(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.bernoulli([0.9, 0.5]),
        [1.0, 0.0],
        200,
        seed=13,
    )
    text = path.to_csv()
    back = path_from_csv(text, ex2)
    assert conservation_audit(back, ex2).ok
    assert np.array_equal(back.Q, path.Q)


def test_strided_recording_keeps_identities(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.bernoulli([0.9, 0.5]),
        [0.0, 0.0],
        5000,
        seed=2,
        record_every=13,
    )
    assert path.tau[-1] == 5000
    assert conservation_audit(path, ex2).ok


@pytest.mark.parametrize("record_every", [0, -3])
def test_record_every_below_one_is_refused(ex2, record_every):
    args = (ex2, Policy.mw_alpha(1.0), ArrivalModel.bernoulli([0.9, 0.5]), [0.0, 0.0], 50)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        run_batch(*args, [derive_rng(0)], record_every=record_every)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        run(*args, seed=0, record_every=record_every)


def test_stability_smoke_strictly_admissible(ex2):
    # lam=(1.5, 0.5) sits strictly inside the admissible region; seeds 0 and
    # 1 in one lockstep batch (each path equals run(..., seed=seed))
    paths = run_batch(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.iid_batch([3, 1]),
        [0.0, 0.0],
        100_000,
        [derive_rng(0), derive_rng(1)],
        record_every=100,
    )
    for path in paths:
        assert path.sup_q < 200.0


@settings(max_examples=30, deadline=None)
@given(
    scheds=st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_runs_satisfy_invariants(scheds, seed):
    model = validate_network(ScheduleSet(scheds))
    path = run(
        model,
        Policy.mw_alpha(1.0),
        ArrivalModel.iid_batch([1, 1]),
        [0.0, 0.0],
        200,
        seed=seed,
    )
    assert conservation_audit(path, model, bound_pairs=20).ok
    assert (path.Q >= 0).all()
    assert (np.diff(path.S_cum.sum(axis=1)) == 1).all()


def _merge3():
    """Queues 0, 1 and 2 all route into queue 3; every 0/1 service vector."""
    scheds = [[float(b) for b in f"{k:04b}"] for k in range(16)]
    routing = RoutingMatrix.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    return validate_network(ScheduleSet(scheds), routing, name="merge3")


_BATCH_CASES = [
    ("ex2", Policy.mw_alpha(1.0), [0.9, 0.5]),
    ("ex2", Policy.mw(WeightFunction.power(2.0), tie_break="random"), [0.9, 0.5]),
    ("ex2", Policy.mw(WeightFunction.power(1.0), tie_break="round_robin"), [0.9, 0.5]),
    ("ex2", Policy.mw(WeightFunction.power(1.0), tie_break="random", rel_tol=0.05), [0.9, 0.5]),
    ("tandem2", Policy.backpressure(WeightFunction.power(1.0)), [0.7, 0.1]),
    ("tandem2", Policy.backpressure(WeightFunction.power(1.0), tie_break="random"), [0.7, 0.1]),
    ("merge3", Policy.backpressure(WeightFunction.power(1.0), tie_break="round_robin"), [0.3, 0.3, 0.3, 0.05]),
    ("iq2", Policy.msmw_log(), [0.45] * 4),
    ("iq2", Policy.msmw_log(tie_break="random"), [0.45] * 4),
    ("iq2", Policy.msmw_log(tie_break="round_robin"), [0.45] * 4),
]


@pytest.mark.parametrize(
    "name, policy, lam",
    _BATCH_CASES,
    ids=[f"{n}-{p.kind}-{p.tie_break}" + ("-rel_tol" if p.rel_tol else "") for n, p, _ in _BATCH_CASES],
)
def test_run_batch_equals_per_replication_runs(name, policy, lam):
    models = {"ex2": presets.ex2, "tandem2": lambda: presets.tandem(2), "iq2": lambda: presets.iq_switch(2)}
    model = models.get(name, _merge3)()
    arrivals = ArrivalModel.bernoulli(lam)
    q0 = np.arange(model.n_queues, dtype=float) % 3
    horizon, reps = 200, 4
    ties = 0
    for record_every in (1, 7):
        rngs = [derive_rng(5, rep) for rep in range(reps)]
        paths = run_batch(model, policy, arrivals, q0, horizon, rngs, record_every)
        assert len(paths) == reps
        for rep, path in enumerate(paths):
            alone = run(model, policy, arrivals, q0, horizon, derive_rng(5, rep), record_every)
            for key in ("tau", "Q", "A", "B", "Y", "S_cum", "chosen"):
                assert np.array_equal(getattr(path, key), getattr(alone, key)), key
            assert path.sup_q == alone.sup_q
            if record_every > 1:
                continue
            # reference: the single-state slot loop through step/select_schedule
            rng = derive_rng(5, rep)
            a_path = sample_increments(arrivals, horizon, rng)
            tie_state = TieState(rng=rng)
            q, sup_q = q0.copy(), float(q0.max())
            for tau in range(horizon):
                res = step(model, policy, q, a_path[tau + 1] - a_path[tau], tie_state)
                ties += len(res.trace.argmax_set) > 1
                q = res.q_next
                sup_q = max(sup_q, float(q.max()))
                assert res.trace.chosen == path.chosen[tau]
                assert np.array_equal(q, path.Q[tau + 1])
            assert sup_q == path.sup_q
    assert ties > 0 or policy.tie_break == "highest_index"


# ---------------------------------------------------------------------------
# block-wise audit and CSV export against the row-by-row reference versions
# ---------------------------------------------------------------------------


def _rowwise_audit(path, model, rtol=1e-9, bound_pairs=200, seed=0):
    """Reference: the audit as one scalar check per recorded row."""
    viol = []
    max_res = 0.0
    checks = 0
    scale = 1.0 + float(np.abs(path.Q).max(initial=0.0)) + float(np.abs(path.A).max(initial=0.0))

    def check(cond_residual, slot, name):
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


def _rowwise_csv(path):
    """Reference: the dense CSV export formatted one numpy scalar at a time."""
    n = path.n_queues
    lines = ["# " + ", ".join(f"{k}={v}" for k, v in sorted(path.meta.items()))]
    lines.append(",".join(["tau"] + [f"{c}_{i+1}" for c in "qaby" for i in range(n)] + ["chosen_schedule"]))
    for k in range(path.horizon + 1):
        cells = [str(int(path.tau[k]))]
        for block in (path.Q, path.A, path.B, path.Y):
            cells.extend(repr(float(v)) for v in block[k])
        cells.append(str(int(path.chosen[k])) if k < path.horizon else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _corrupt(path, kind, row):
    """Break one identity of ``path`` at recorded row ``row``."""
    if kind == "cumulative_identity":
        path.Q[row, 0] += 0.5
    elif kind == "service_decomposition":
        path.B[row, 1] += 0.25
    elif kind in ("monotone_A", "monotone_B", "monotone_Y"):
        block = {"A": path.A, "B": path.B, "Y": path.Y}[kind[-1]]
        block[row, 0] = block[row - 1, 0] - 1.0
    elif kind == "one_schedule_per_slot":
        path.S_cum[row, 0] += row % 3 + 1  # unequal, so adjacent rows both break
    elif kind == "nonnegative_queue":
        path.Q[row, 1] = -0.75
    elif kind == "non_finite":
        path.Q[row, 0] = np.nan
        path.A[row, 1] = np.inf
    return path


def _audit_path(name, record_every=1, horizon=None):
    """ex2 with integer batches; tandem(2) and the 3-into-1 merge network
    with fractional deterministic rates, so the multi-hop residuals carry
    rounding in their last bits."""
    if horizon is None:
        horizon = record_every * (2 * BLOCK_ROWS + 100)
    backpressure = Policy.backpressure(WeightFunction.power(1.0))
    model, policy, arrivals = {
        "ex2": (presets.ex2(), Policy.mw_alpha(1.0), ArrivalModel.iid_batch([2, 1])),
        "tandem2": (presets.tandem(2), backpressure, ArrivalModel.deterministic([0.6, 0.0])),
        "merge3": (_merge3(), backpressure, ArrivalModel.deterministic([0.3, 0.3, 0.3, 0.05])),
    }[name]
    q0 = np.zeros(model.n_queues)
    q0[0] = 2.0
    return model, run(model, policy, arrivals, q0, horizon, seed=8, record_every=record_every)


_AUDIT_KINDS = [
    "clean",
    "cumulative_identity",
    "service_decomposition",
    "monotone_A",
    "monotone_B",
    "monotone_Y",
    "one_schedule_per_slot",
    "nonnegative_queue",
    "non_finite",
]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("kind", _AUDIT_KINDS)
@pytest.mark.parametrize("name, record_every", [("ex2", 1), ("tandem2", 1), ("merge3", 1), ("ex2", 3)])
def test_audit_equals_rowwise_reference(name, record_every, kind):
    model, path = _audit_path(name, record_every)
    nrec = len(path.tau)
    assert nrec > 2 * BLOCK_ROWS
    # both sides of the first block boundary, a later row and the last row
    for row in (BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 7, nrec - 1):
        if kind != "clean":
            _corrupt(path, kind, row)
    for rtol, pairs in ((1e-9, 200), (0.0, 50)):
        got = conservation_audit(path, model, rtol=rtol, bound_pairs=pairs, seed=3)
        want = _rowwise_audit(path, model, rtol=rtol, bound_pairs=pairs, seed=3)
        if kind == "non_finite":  # the reference has no finite-values check; all else must agree
            got.violations = [v for v in got.violations if v.check != "non_finite"]
            got.ok = not got.violations
        assert got.summary() == want.summary()
    report = conservation_audit(path, model)
    # a NaN residual never exceeds the threshold and an inf A makes it inf,
    # so only the finite-values check catches non-finite cells
    assert report.ok == (kind == "clean")
    flagged = {(v.slot, v.check) for v in report.violations}
    if kind == "non_finite":
        for row in (BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 7, nrec - 1):
            assert (int(path.tau[row]), kind) in flagged
    elif kind != "clean":
        for row in (BLOCK_ROWS - 1, BLOCK_ROWS):
            assert (int(path.tau[row]), kind) in flagged


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("cells", [{"Q": [(3, 0)]}, {"A": [(7, 1)]}, {"Q": [(3, 0)], "A": [(7, 1), (7, 0)]}])
def test_audit_refuses_non_finite_cells(ex2, cells):
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([0.5, 0.5]), [1.0, 1.0], 10, seed=0)
    clean = conservation_audit(path, ex2)
    assert clean.ok
    want = {}
    for name, where in cells.items():
        for row, col in where:
            getattr(path, name)[row, col] = np.nan if name == "Q" else np.inf
            want[row] = want.get(row, 0.0) + 1.0
    report = conservation_audit(path, ex2)
    assert not report.ok
    assert [(v.slot, v.residual) for v in report.violations if v.check == "non_finite"] == sorted(want.items())
    assert report.checks_run == clean.checks_run


def test_audit_of_short_paths_equals_rowwise_reference(ex2):
    for horizon in (0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS):
        model, path = _audit_path("ex2", horizon=horizon)
        for pairs in (0, 200):
            assert conservation_audit(path, model, bound_pairs=pairs).summary() == (
                _rowwise_audit(path, model, bound_pairs=pairs).summary()
            )


@pytest.mark.parametrize("horizon", [0, BLOCK_ROWS - 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_csv_equals_rowwise_reference(ex2, horizon):
    # lam = 1/3 makes every arrival and queue cell a fraction with a long repr
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([1 / 3, 1 / 3]), [0.5, 1 / 7], horizon, seed=4)
    text = path.to_csv()
    assert text == _rowwise_csv(path)
    assert len(text.splitlines()) == horizon + 3
    back = path_from_csv(text, ex2)
    for key in ("tau", "Q", "A", "B", "Y", "S_cum", "chosen"):
        assert np.array_equal(getattr(back, key), getattr(path, key)), key
