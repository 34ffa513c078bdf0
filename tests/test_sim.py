import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swnet import presets, sim
from swnet.arrivals import ArrivalModel, derive_rng, sample_increments
from swnet.model import WeightFunction, validate_network
from swnet.policy import Policy, TieState, argmax_mask, batch_weights
from swnet.sim import (
    BLOCK_ROWS,
    SELECTION_ROWS,
    AuditReport,
    AuditViolation,
    HorizonTooShort,
    conservation_audit,
    exact_sums,
    float_texts,
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


def test_advance_batch_equals_rows_on_tandem3():
    # multi-hop: each row of a batch is routed as if it were stepped alone, idling rows included
    model = presets.tandem(3)
    rng = np.random.default_rng(29)
    Q = rng.random((64, 3)) * 0.02
    Q[::4, 1] = 0.0
    Q[1::4] = 0.0
    dB = model.schedules[rng.integers(0, len(model.schedules), 64)] * 0.01
    dA = np.array([0.0035, 0.0, 0.0])
    batch = sim.advance(model, Q, dB, dA)
    rows = np.stack([sim.advance(model, q, b, dA) for q, b in zip(Q, dB)])
    assert (np.maximum(dB - Q, 0.0) > 0).any(axis=1).sum() > 16  # many rows idle a server
    assert batch.tobytes() == rows.tobytes()


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


def test_audit_detects_idling_beyond_service():
    # one queue served one unit per slot, idling two: Q = Q(0) + A - B + Y and every other
    # identity hold, but Q grows by more than its arrivals and routed service allow
    model = presets.single_queue()
    k = np.arange(4.0)[:, None]
    path = sim.SystemPath(
        tau=np.arange(4), Q=k, A=np.zeros((4, 1)), B=k, Y=2 * k, S_cum=np.arange(4)[:, None],
        chosen=np.zeros(3, dtype=np.int64), horizon=3, sup_q=3.0,
    )
    report = conservation_audit(path, model, bound_pairs=20)
    assert not report.ok
    assert {v.check for v in report.violations} == {"service_bound"}
    assert report.checks_run == 3 * 4 + 4 * 3 + 20
    # a pair tau' < tau has residual Q(tau) - Q(tau') = tau - tau'
    assert all(v.residual in (1.0, 2.0, 3.0) and v.residual <= v.slot for v in report.violations)


def test_csv_roundtrip_audits_clean(ex2):
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.bernoulli([0.9, 0.5]),
        [1.0, 0.0],
        200,
        seed=13,
    )
    text = _csv_text(path)
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
    model = validate_network(scheds)
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
    return validate_network(scheds, [(0, 3), (1, 3), (2, 3)], name="merge3")


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
# the selection table against the loop that weighs every state in every slot
# ---------------------------------------------------------------------------


def _reference_run_batch(model, policy, arrivals, q0, horizon, rngs, record_every=1):
    """Reference: the lockstep slot loop without a selection table. Every
    slot weighs every state, breaks ties on the argmax mask, routes with the
    integer routing matrix and keeps two Kahan sums and a one-hot S_cum.
    Returns one dict of path arrays (and sup_q) per replication."""
    tie_states = [TieState(rng=rng) for rng in rngs]
    reps, n, ns = len(rngs), model.n_queues, len(model.schedules)
    a_path = np.stack([sample_increments(arrivals, horizon, rng) for rng in rngs])
    dA = a_path[:, 1:] - a_path[:, :-1]
    rec = list(range(0, horizon + 1, record_every))
    if rec[-1] != horizon:
        rec.append(horizon)
    Q, B, Y = (np.zeros((reps, len(rec), n)) for _ in range(3))
    S_cum = np.zeros((reps, len(rec), ns), dtype=np.int64)
    chosen = np.zeros((reps, horizon), dtype=np.int64)
    q = np.tile(np.asarray(q0, dtype=float), (reps, 1))
    sums = {key: [np.zeros((reps, n)), np.zeros((reps, n))] for key in "BY"}  # total, compensation
    counts = np.zeros((reps, ns), dtype=np.int64)
    q_sup = q.copy()
    Q[:, 0] = q
    for tau in range(horizon):
        mask = argmax_mask(batch_weights(model, policy, q), policy.rel_tol, policy.kind == "msmw_log")
        pick = ns - 1 - mask[:, ::-1].argmax(axis=1)
        for i in np.flatnonzero(mask.sum(axis=1) > 1) if policy.tie_break != "highest_index" else ():
            argmax = np.flatnonzero(mask[i])
            if policy.tie_break == "random":
                pick[i] = argmax[tie_states[i].rng.integers(0, len(argmax))]
            else:
                after = argmax[argmax >= tie_states[i].pointer]
                pick[i] = after[0] if len(after) else argmax[0]
                tie_states[i].pointer = (pick[i] + 1) % ns
        dB = model.schedules[pick]
        dY = np.maximum(dB - q, 0.0)
        if model.is_single_hop:
            q = np.maximum(q - dB, 0.0) + dA[:, tau]
        else:
            served = dB - dY
            q = q - served + (model.routing.T @ served[..., None])[..., 0] + dA[:, tau]
        for key, x in (("B", dB), ("Y", dY)):
            total, comp = sums[key]
            y = x - comp
            t = total + y
            sums[key] = [t, (t - total) - y]
        counts += np.eye(ns, dtype=np.int64)[pick]
        chosen[:, tau] = pick
        np.maximum(q_sup, q, out=q_sup)
        if tau + 1 in rec:
            k = rec.index(tau + 1)
            Q[:, k], B[:, k], Y[:, k], S_cum[:, k] = q, sums["B"][0], sums["Y"][0], counts
    tau_arr = np.asarray(rec, dtype=np.int64)
    return [
        {"tau": tau_arr, "Q": Q[i], "A": a_path[i][tau_arr], "B": B[i], "Y": Y[i], "S_cum": S_cum[i],
         "chosen": chosen[i], "sup_q": float(q_sup[i].max(initial=0.0))}
        for i in range(reps)
    ]


def _assert_paths_equal(paths, reference):
    assert len(paths) == len(reference)
    for path, ref in zip(paths, reference):
        for key in ("tau", "Q", "A", "B", "Y", "S_cum", "chosen"):
            assert np.array_equal(getattr(path, key), ref[key]), key
        assert path.sup_q == ref["sup_q"]


def _table_replay(paths, cap=SELECTION_ROWS):
    """Replay run_batch's two tables from densely recorded paths, keyed as
    the loop keys them: the batch state as the bytes of its stacked rows, and
    (state, every row's chosen schedule, the slot's arrival bytes) as a move.
    Each table holds ``cap`` state rows, so cap // reps entries. A slot with
    a new state fills the selection table, and a known state with a new move
    the transition table. Returns the slots where the selection table hit and
    the slots stepped by lookup alone."""
    size = cap // len(paths)
    states = np.stack([p.Q for p in paths], axis=1)
    arrived = np.stack([np.diff(p.A, axis=0) for p in paths], axis=1)  # the loop's dA bits
    table, moves, hits, lookups = set(), set(), [], []
    for tau in range(paths[0].horizon):
        state = states[tau].tobytes()
        if state not in table:
            if len(table) < size:
                table.add(state)
            continue
        hits.append(tau)
        move = (state, *(int(p.chosen[tau]) for p in paths), arrived[tau].tobytes())
        if move in moves:
            lookups.append(tau)
        elif len(moves) < size:
            moves.add(move)
    return hits, lookups


def _ties_at(model, policy, paths, slots):
    """The tied states of the batch in the given slots."""
    states = np.stack([p.Q for p in paths], axis=1)[slots]
    mask = argmax_mask(batch_weights(model, policy, states), policy.rel_tol, policy.kind == "msmw_log")
    return int((mask.sum(axis=-1) > 1).sum())


_TABLE_CASES = [
    ("ex2", Policy.mw(WeightFunction.power(1.0), tie_break="random"), [0.9, 0.5]),
    ("ex2", Policy.mw(WeightFunction.power(1.0), tie_break="round_robin"), [0.9, 0.5]),
    ("tandem2", Policy.backpressure(WeightFunction.power(1.0), tie_break="random"), [0.7, 0.1]),
    ("merge3", Policy.backpressure(WeightFunction.power(1.0), tie_break="round_robin"), [0.3, 0.3, 0.3, 0.05]),
    ("iq2", Policy.msmw_log(tie_break="random"), [0.45] * 4),
    # highest_index: no state is tied, so every known move keys on the slot's arrivals alone
    ("iq2", Policy.mw(WeightFunction.power(1.0)), [0.45] * 4),
    ("tandem2", Policy.backpressure(WeightFunction.power(1.0)), [0.7, 0.1]),
]


@pytest.mark.parametrize("reps", [1, 2, 20])
@pytest.mark.parametrize(
    "name, policy, lam", _TABLE_CASES, ids=[f"{n}-{p.kind}-{p.tie_break}" for n, p, _ in _TABLE_CASES]
)
def test_selection_table_equals_weighing_every_slot(name, policy, lam, reps):
    models = {"ex2": presets.ex2, "tandem2": lambda: presets.tandem(2), "iq2": lambda: presets.iq_switch(2)}
    model = models.get(name, _merge3)()
    args = (model, policy, ArrivalModel.bernoulli(lam), np.zeros(model.n_queues), 600)
    paths = run_batch(*args, [derive_rng(11, rep) for rep in range(reps)])
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(11, rep) for rep in range(reps)]))
    if reps < 20:  # a batch of 20 rows never repeats as a whole, so there the table never decides
        # the tie-break's draws and pointers must follow the replication also when the table decides,
        # and under highest_index a tied argmax mask must take its highest maximizer
        assert _ties_at(model, policy, paths, _table_replay(paths)[0]) > 0


@pytest.mark.parametrize("name", ["ex2", "merge3"])
@pytest.mark.parametrize("record_every", [1, 7])
def test_selection_table_with_fractional_states_that_never_repeat(name, record_every):
    # overloaded, so the queues grow, every state is new and the table only
    # misses; on merge3 three fractional flows meet in queue 3, whose sum the
    # float routing matrix must add in the order of the integer one
    model = presets.ex2() if name == "ex2" else _merge3()
    lam = [1.37, 1.61] if name == "ex2" else [0.61, 0.57, 0.43, 0.07]
    args = (model, Policy.mw_alpha(1.0), ArrivalModel.deterministic(lam), np.full(model.n_queues, 0.5), 1500)
    paths = run_batch(*args, [derive_rng(3)], record_every)
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(3)], record_every))
    if record_every == 1:
        assert len({row.tobytes() for row in paths[0].Q}) == len(paths[0].Q)


def test_selection_table_past_its_cap():
    model = presets.iq_switch(2)
    args = (model, Policy.mw_alpha(1.0), ArrivalModel.bernoulli([0.5] * 4), np.full(4, 20.0), 400)
    paths = run_batch(*args, [derive_rng(5, rep) for rep in range(20)])
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(5, rep) for rep in range(20)]))
    assert len({row.tobytes() for p in paths for row in p.Q}) > SELECTION_ROWS


# ---------------------------------------------------------------------------
# the transition table against the same reference loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("reps", [1, 2, 20])
@pytest.mark.parametrize(
    "name, policy, lam", _TABLE_CASES, ids=[f"{n}-{p.kind}-{p.tie_break}" for n, p, _ in _TABLE_CASES]
)
def test_transition_table_equals_reference(name, policy, lam, reps, record_every):
    models = {"ex2": presets.ex2, "tandem2": lambda: presets.tandem(2), "iq2": lambda: presets.iq_switch(2)}
    model = models.get(name, _merge3)()
    args = (model, policy, ArrivalModel.bernoulli(lam), np.zeros(model.n_queues), 600)
    paths = run_batch(*args, [derive_rng(13, rep) for rep in range(reps)], record_every)
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(13, rep) for rep in range(reps)], record_every))
    if record_every == 1 and (reps == 1 or reps == 2 and model.n_queues == 2):
        # here two rows of four queues never repeat a move as a whole, and twenty rows not even a state
        # the tie-break's draws and pointers must follow the replication also on lookup slots
        assert _ties_at(model, policy, paths, _table_replay(paths)[1]) > 0


def test_round_robin_revisits_a_tied_state_with_a_different_move():
    # ex2 from (1, 2) with arrivals (1, 1/2) cycles through the tied state (1, 2), and the round-robin
    # pointer alternates its pick: the state's known moves differ by the pick alone, with equal arrivals
    model, policy = presets.ex2(), Policy.mw(WeightFunction.power(1.0), tie_break="round_robin")
    args = (model, policy, ArrivalModel.deterministic([1.0, 0.5]), np.array([1.0, 2.0]), 40)
    paths = run_batch(*args, [derive_rng(29)])
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(29)]))
    path = paths[0]
    tied = [t for t in _table_replay(paths)[1] if path.Q[t].tolist() == [1.0, 2.0]]
    assert len(tied) > 2 and _ties_at(model, policy, paths, tied) == len(tied)
    moves = {int(path.chosen[t]): path.Q[t + 1].tobytes() for t in tied}
    assert len(moves) == 2 and len(set(moves.values())) == 2


def _count_advance(monkeypatch):
    """Count the slots that run_batch steps through sim.advance."""
    calls = []
    advance = sim.advance
    monkeypatch.setattr(sim, "advance", lambda *a: calls.append(1) or advance(*a))
    return calls


@pytest.mark.parametrize("reps", [1, 2, 20])
def test_every_slot_but_the_lookups_steps_the_batch(monkeypatch, reps):
    # one key per slot: a slot is a lookup only when the whole batch state and its move are known
    calls = _count_advance(monkeypatch)
    policy = Policy.mw(WeightFunction.power(1.0), tie_break="random")
    paths = run_batch(presets.ex2(), policy, ArrivalModel.bernoulli([0.9, 0.5]), np.zeros(2), 600,
                      [derive_rng(11, rep) for rep in range(reps)])
    assert len(calls) == 600 - len(_table_replay(paths)[1])


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("arrivals", [ArrivalModel.bernoulli([0.6, 0.3]), ArrivalModel.deterministic([0.35, 0.15])])
def test_transition_table_with_fractional_states_that_repeat(arrivals, record_every):
    # a fractional q0 (and rates) keeps every state off the integer lattice,
    # so B and Y take the compensated sum, whose compensation is not 0 with
    # these rates, while the states still repeat
    args = (presets.ex2(), Policy.mw_alpha(1.0), arrivals, np.array([0.1, 0.2]), 800)
    paths = run_batch(*args, [derive_rng(17, rep) for rep in range(3)], record_every)
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(17, rep) for rep in range(3)], record_every))
    if record_every == 1:  # three rows repeat as a whole too rarely; two rows repeat
        assert len(_table_replay(run_batch(*args, [derive_rng(17, rep) for rep in range(2)]))[1]) > 400


def test_compensated_sums_equal_cumulative_sums_on_the_lattice(monkeypatch):
    # on integer data both ways of summing B and Y give the same bits
    model = _merge3()
    args = (model, Policy.backpressure(WeightFunction.power(1.0)), ArrivalModel.bernoulli([0.3, 0.3, 0.3, 0.05]),
            np.zeros(4), 700)
    exact = run_batch(*args, [derive_rng(19, rep) for rep in range(4)], 3)
    monkeypatch.setattr(sim, "exact_sums", lambda *a: False)
    _assert_paths_equal(exact, [vars(p) for p in run_batch(*args, [derive_rng(19, rep) for rep in range(4)], 3)])


@pytest.mark.parametrize("reps", [1, 20])
def test_both_tables_past_their_cap(monkeypatch, reps):
    # a cap below the batch width too: at width 20 a 5-row cap admits no entry
    monkeypatch.setattr(sim, "SELECTION_ROWS", 5)
    calls = _count_advance(monkeypatch)
    model = presets.ex2()
    policy = Policy.mw(WeightFunction.power(1.0), tie_break="round_robin")
    args = (model, policy, ArrivalModel.bernoulli([0.9, 0.5]), np.zeros(2), 500)
    paths = run_batch(*args, [derive_rng(23, rep) for rep in range(reps)])
    _assert_paths_equal(paths, _reference_run_batch(*args, [derive_rng(23, rep) for rep in range(reps)]))
    states = {row.tobytes() for p in paths for row in p.Q}
    moves = {(q.tobytes(), c, a.tobytes()) for p in paths for q, c, a in zip(p.Q, p.chosen, np.diff(p.A, axis=0))}
    assert len(states) > 5 and len(moves) > 5
    lookups = _table_replay(paths, cap=5)[1]
    assert len(calls) == 500 - len(lookups)
    assert len(lookups) > 0 if reps == 1 else not lookups


def test_exact_sums_at_the_float_boundary():
    q0, dA = np.array([3.0, 0.0]), np.array([[1.0, 2.0], [0.0, 5.0]])
    ones, twos = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[2.0, 0.0], [1.0, 1.0]])
    assert exact_sums(q0, dA, ones, 2**53 - 1)
    assert not exact_sums(q0, dA, ones, 2**53)
    assert exact_sums(q0, dA, twos, 2**52 - 1)
    assert not exact_sums(q0, dA, twos, 2**52)
    assert exact_sums(q0, dA, np.zeros((1, 2)), 2**60)
    for bad_q0, bad_dA, bad_s in (
        (np.array([0.5, 0.0]), dA, ones),
        (q0, dA + 0.25, ones),
        (q0, np.array([[np.inf, 0.0]]), ones),
        (q0, np.array([[np.nan, 0.0]]), ones),
        (q0, dA, ones * 0.5),
    ):
        assert not exact_sums(bad_q0, bad_dA, bad_s, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_refuses_non_finite_initial_state(ex2, bad):
    with pytest.raises(ValueError, match="finite"):
        run(ex2, Policy.mw_alpha(1.0), ArrivalModel.bernoulli([0.9, 0.5]), [bad, 0.0], 10, seed=0)


# ---------------------------------------------------------------------------
# block-wise audit and CSV export against the row-by-row reference versions
# ---------------------------------------------------------------------------


def _rowwise_audit(path, model, rtol=1e-9, bound_pairs=200, seed=0):
    """Reference: the audit as one scalar check per recorded row."""
    viol = []
    max_res = 0.0
    checks = 0
    q_max, a_max = (float(np.abs(x[np.isfinite(x)]).max(initial=0.0)) for x in (path.Q, path.A))
    scale = 1.0 + q_max + a_max

    def check(cond_residual, slot, name):
        nonlocal max_res, checks
        checks += 1
        max_res = max(max_res, cond_residual)
        if cond_residual > rtol * scale:
            viol.append(AuditViolation(slot=slot, check=name, residual=cond_residual))

    s_mat = path.S_cum.astype(float) @ model.schedules
    rt = model.routing.T.astype(float)
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
        cells = np.concatenate((path.Q[i], path.A[i], path.B[i], path.Y[i]))
        if not np.isfinite(cells).all():  # a violation, but not one of checks_run
            viol.append(AuditViolation(slot=tau, check="non_finite", residual=float((~np.isfinite(cells)).sum())))
    nrec = len(path.tau)
    if nrec >= 2 and bound_pairs > 0:
        rng = derive_rng(seed, 0xA0D17)
        r_mat = model.routing.astype(float)
        for _ in range(bound_pairs):
            i = int(rng.integers(0, nrec - 1))
            j = int(rng.integers(i + 1, nrec))
            rhs = path.Q[i] + (path.A[j] - path.A[i]) + r_mat.T @ (path.B[j] - path.B[i])
            check(float((path.Q[j] - rhs).max(initial=0.0)), int(path.tau[j]), "service_bound")
    return AuditReport(ok=not viol, violations=viol, max_residual=max_res, checks_run=checks)


def _csv_text(path):
    """The dense CSV export, written into a text buffer."""
    buf = io.StringIO()
    path.to_csv(buf)
    return buf.getvalue()


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
        assert got.summary() == want.summary()
    report = conservation_audit(path, model)
    # the threshold is taken over finite cells, so a NaN or inf cell leaves
    # every other check working; the finite-values check names its rows
    assert report.ok == (kind == "clean")
    flagged = {(v.slot, v.check) for v in report.violations}
    if kind == "non_finite":
        for row in (BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 7, nrec - 1):
            assert (int(path.tau[row]), kind) in flagged
    elif kind != "clean":
        for row in (BLOCK_ROWS - 1, BLOCK_ROWS):
            assert (int(path.tau[row]), kind) in flagged


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("non_finite", [{"Q": np.nan, "A": np.inf}, {"B": np.nan, "Y": np.nan}], ids=["QA", "BY"])
@pytest.mark.parametrize("name", ["ex2", "tandem2"])
def test_audit_of_a_tall_path_with_bad_rows_in_its_second_block(name, non_finite):
    # the row max, min and sums run over transposed copies of each block: the residuals, the
    # violations in their order and max_residual must be the rowwise ones bit for bit. The threshold
    # is taken over finite cells, so the decreasing A is reported whichever cells are NaN or inf; an
    # inf in A makes max_residual inf, NaN in B and Y leaves it finite.
    model, path = _audit_path(name)
    assert len(path.tau) > 2 * BLOCK_ROWS
    for k, (column, value) in enumerate(non_finite.items()):
        getattr(path, column)[BLOCK_ROWS + 10 + 10 * k, k % 2] = value
    path.Q[BLOCK_ROWS + 30, 1] = -0.75
    path.A[BLOCK_ROWS + 40, 0] = path.A[BLOCK_ROWS + 39, 0] - 1.0
    for rtol, pairs in ((1e-9, 200), (0.0, 0)):
        got = conservation_audit(path, model, rtol=rtol, bound_pairs=pairs, seed=5)
        want = _rowwise_audit(path, model, rtol=rtol, bound_pairs=pairs, seed=5)
        assert repr(got.summary()) == repr(want.summary())  # repr tells -0.0 from 0.0
        flagged = [(v.slot - BLOCK_ROWS, v.check) for v in got.violations]
        assert (10, "non_finite") in flagged and (30, "nonnegative_queue") in flagged
        assert (40, "monotone_A") in flagged
        assert np.isfinite(got.max_residual) == ("B" in non_finite)


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
    text = _csv_text(path)
    assert text == _rowwise_csv(path)
    assert len(text.splitlines()) == horizon + 3
    back = path_from_csv(text, ex2)
    for key in ("tau", "Q", "A", "B", "Y", "S_cum", "chosen"):
        assert np.array_equal(getattr(back, key), getattr(path, key)), key


def _lattice_path(name, horizon):
    """Integer arrivals and 0/1 schedules: every cell is an integer-valued float."""
    if name == "ex2":
        model = presets.ex2()
        return model, run(model, Policy.mw_alpha(1.0), ArrivalModel.bernoulli([0.9, 0.5]), [1.0, 0.0], horizon, seed=13)
    model = presets.tandem(3)
    policy = Policy.backpressure(WeightFunction.power(1.0))
    return model, run(model, policy, ArrivalModel.bernoulli([0.8, 0.0, 0.0]), [2.0, 1.0, 0.0], horizon, seed=5)


@pytest.mark.parametrize("name", ["ex2", "tandem3"])
@pytest.mark.parametrize("horizon", [0, BLOCK_ROWS - 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_lattice_csv_equals_rowwise_reference(name, horizon):
    model, path = _lattice_path(name, horizon)
    cells = np.hstack([path.Q, path.A, path.B, path.Y])
    assert (cells == np.trunc(cells)).all() and not np.signbit(cells).any()  # every block takes "%d.0"
    assert horizon == 0 or cells.max() > 1  # not only zeros and ones
    text = _csv_text(path)
    assert text == _rowwise_csv(path)
    back = path_from_csv(text, model)
    for key in ("tau", "Q", "A", "B", "Y", "S_cum", "chosen"):
        assert np.array_equal(getattr(back, key), getattr(path, key)), key
    assert conservation_audit(back, model).ok


def test_csv_blocks_choose_their_own_template():
    # block 0 stays on the lattice; block 1 holds every cell the lattice test must
    # refuse; block 2 is on the lattice up to 2**53 - 1; block 3 differs from the
    # lattice only by one -0.0, which "%d.0" would print as 0.0
    _, path = _lattice_path("ex2", 4 * BLOCK_ROWS - 1)
    odd = [-0.0, 0.5, 2.0**53 - 1, 2.0**53, 1e16, np.nan, np.inf, -np.inf, 1 / 3, 5e-324, -7.0]
    for k, v in enumerate(odd):
        getattr(path, "QABY"[k % 4])[BLOCK_ROWS + 3 * k, k % 2] = v
    path.Y[2 * BLOCK_ROWS + 5, 1] = 2.0**53 - 1
    path.B[3 * BLOCK_ROWS + 9, 0] = -0.0
    text = _csv_text(path)
    assert text == _rowwise_csv(path)
    lines = text.splitlines()
    assert "9007199254740991.0" in lines[2 + 2 * BLOCK_ROWS + 5].split(",")
    assert "-0.0" in lines[2 + 3 * BLOCK_ROWS + 9].split(",")
    for v in odd:
        assert repr(v) in text


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.floats(), st.integers(-(2**60), 2**60).map(float)),
    st.sampled_from(["Q", "A", "B", "Y"]),
    st.integers(0, 2),
)
def test_csv_prints_any_float_cell_as_repr(value, block, row):
    # the other cells are on the lattice, so this one cell picks the template
    _, path = _lattice_path("ex2", 2)
    getattr(path, block)[row, 1] = value
    text = _csv_text(path)
    assert text == _rowwise_csv(path)
    assert text.splitlines()[2 + row].split(",")[1 + "QABY".index(block) * 2 + 1] == repr(value)


def test_csv_refuses_a_strided_path(ex2):
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.bernoulli([0.9, 0.5]), [1.0, 0.0], 20, seed=1, record_every=3)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="CSV export needs a densely recorded path"):
        path.to_csv(buf)
    assert buf.getvalue() == ""


# repr switches to exponent notation below 1e-4 and from 1e16 on
_ODD_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e-4,
               9999999999999998.0, 0.1, 1 / 3, -7.0]


def _rowwise_texts(block):
    return [[repr(v) for v in col] for col in block.T.tolist()]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.lists(st.one_of(st.floats(), st.sampled_from(_ODD_FLOATS)), min_size=1, max_size=12),
    st.data(),
)
def test_float_texts_equal_repr_cell_by_cell(rows, cols, pool, data):
    # cells drawn from a small pool, so most blocks repeat values within and across columns
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols, max_size=rows * cols))
    block = np.array([pool[i] for i in picks], dtype=float).reshape(rows, cols)
    assert float_texts(block) == _rowwise_texts(block)


def test_float_texts_keep_signed_zeros_and_nans_apart():
    nan_bits = np.array([np.nan, -np.nan]).view(np.int64)
    assert nan_bits[0] != nan_bits[1]
    block = np.array([[0.0, -0.0], [-0.0, 1e16], [np.nan, 1e-5], [-np.nan, 0.0], [0.0, 5e-324]])
    assert float_texts(block) == [["0.0", "-0.0", "nan", "nan", "0.0"], ["-0.0", "1e+16", "1e-05", "0.0", "5e-324"]]
    assert float_texts(block[:, :1]) == [["0.0", "-0.0", "nan", "nan", "0.0"]]


def test_csv_prints_negative_zero_beside_fractions(ex2):
    # one off-lattice block: -0.0 and 0.0 in one column, next to long fractions
    path = run(ex2, Policy.mw_alpha(1.0), ArrivalModel.deterministic([1 / 3, 1 / 3]), [0.5, 1 / 7], 40, seed=4)
    path.Q[3, 0], path.Q[4, 0], path.Y[5, 1] = -0.0, 0.0, -0.0
    text = _csv_text(path)
    assert text == _rowwise_csv(path)
    lines = [line.split(",") for line in text.splitlines()[2:]]
    assert (lines[3][1], lines[4][1], lines[5][8]) == ("-0.0", "0.0", "-0.0")
    assert repr(1 / 3) in text
