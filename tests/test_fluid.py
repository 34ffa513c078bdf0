import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swnet import presets, sim
from swnet.arrivals import ArrivalModel
from swnet.fluid import (
    GridMismatch,
    HorizonNotMultiple,
    convergence_to_invariant,
    feasibility_preservation_check,
    integrate_fluid,
    lyapunov_drift_check,
    trajectory_distance,
)
from swnet.lift import lift
from swnet.model import WeightFunction
from swnet.policy import Policy, TieState, select_schedule
from swnet.sim import BLOCK_ROWS, FluidTrajectory, advance, rescale, run


def test_critical_single_queue_stays_put():
    model = presets.single_queue()
    traj = integrate_fluid(model, Policy.mw_alpha(1.0), [1.0], [2.0], h=1e-3, T=3.0)
    assert np.abs(traj.q - 2.0).max() == 0.0


def test_pure_drain_with_idling():
    model = presets.single_queue()
    traj = integrate_fluid(model, Policy.mw_alpha(1.0), [0.0], [1.0], h=1e-3, T=2.0)
    expected = np.maximum(1.0 - traj.t, 0.0)
    assert np.abs(traj.q[:, 0] - expected).max() <= 2e-3


def test_trajectory_equations_hold(ex2):
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [3.0, 0.0], h=1e-3, T=2.0)
    # a(t) = lam * t exactly; sum_pi s_pi(t) = t; s and y nondecreasing
    assert np.array_equal(traj.a, np.outer(traj.t, [1.0, 1.0]))
    assert np.allclose(traj.s.sum(axis=1), traj.t, atol=1e-12)
    assert (np.diff(traj.s, axis=0) >= 0).all()
    assert (np.diff(traj.y, axis=0) >= 0).all()
    # queue equation q = q0 + a - sum s pi + y up to round-off
    served = traj.s @ ex2.schedules
    recon = traj.q[0] + traj.a - served + traj.y
    assert np.abs(recon - traj.q).max() <= 1e-9
    # idling only at empty queues (discrete shadow: q < h * max service)
    dy = np.diff(traj.y, axis=0)
    active = dy > 0
    assert (traj.q[:-1][active] <= 1e-3 * 3.0 + 1e-12).all()


def test_allocation_support_on_argmax(ex2):
    # every step allocates its h of service to a schedule in the current
    # argmax set, so s grows only on maximizers between switches
    from swnet.policy import select_schedule

    pol = Policy.mw_alpha(1.0)
    traj = integrate_fluid(ex2, pol, [1.0, 1.0], [3.0, 0.0], h=1e-2, T=3.0)
    ds = np.diff(traj.s, axis=0)
    for k in range(ds.shape[0]):
        grew = np.flatnonzero(ds[k] > 0)
        assert len(grew) == 1
        w = select_schedule(ex2, pol, traj.q[k]).weights
        assert w[grew[0]] == w.max()


def test_ex2_converges_to_lift_direction(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [3.0, 0.0], h=1e-3, T=5.0)
    target = lift(ex2, [1, 1], weight, ex2_clvr, [3.0, 0.0]).r_star
    assert np.abs(traj.q[-1] - target).max() <= 0.05
    L_vals = weight.antiderivative(traj.q).sum(axis=1)
    assert np.diff(L_vals).max() <= 10 * traj.h


def test_drift_identity_residual(ex2):
    weight = WeightFunction.power(1.0)
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [3.0, 0.0], h=1e-3, T=3.0)
    assert lyapunov_drift_check(ex2, [1.0, 1.0], weight, traj) <= 0.1


def test_drift_formula_spot_values(ex2):
    # at q=(3,0): lam.f(q) - max weight = 3 - 9 = -6
    w = WeightFunction.power(1.0)
    weights = ex2.schedules @ w.value(np.array([3.0, 0.0]))
    assert float(np.array([1.0, 1.0]) @ w.value(np.array([3.0, 0.0])) - weights.max()) == -6.0
    # single queue drain: dL/dt = -q^alpha
    model = presets.single_queue()
    weight = WeightFunction.power(0.5)
    traj = integrate_fluid(model, Policy.mw_alpha(0.5), [0.0], [1.0], h=1e-3, T=0.5)
    assert lyapunov_drift_check(model, [0.0], weight, traj) <= 0.1


def test_invariant_start_has_zero_drift(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [0.6, 1.2], h=1e-3, T=2.0)
    L_vals = weight.antiderivative(traj.q).sum(axis=1)
    assert np.abs(L_vals - L_vals[0]).max() <= 1e-6
    assert np.abs(traj.q - traj.q[0]).max() <= 1e-9


def test_feasibility_preservation_mw(ex2, ex2_clvr):
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [3.0, 0.0], h=1e-3, T=3.0)
    assert feasibility_preservation_check(ex2, [1.0, 1.0], ex2_clvr, traj)


def test_feasibility_preservation_policy_free(switch2, switch2_clvr):
    # the preservation lemma holds for any policy, here MSMW-log
    traj = integrate_fluid(
        switch2, Policy.msmw_log(), [0.5] * 4, [1.0, 0.0, 0.0, 0.0], h=1e-3, T=2.0
    )
    assert feasibility_preservation_check(switch2, [0.5] * 4, switch2_clvr, traj)


def test_feasibility_vacuous_with_empty_clvr(ex2):
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [0.5, 0.5], [1.0, 1.0], h=1e-3, T=1.0)
    assert feasibility_preservation_check(ex2, [0.5, 0.5], [], traj)


def _hand_path(q_rows):
    q = np.array(q_rows, dtype=float)
    t = np.linspace(0.0, 1.0, q.shape[0])
    zero = np.zeros_like(q)
    return FluidTrajectory(t=t, q=q, a=zero, y=zero, s=zero, h=float(t[1]))


def test_feasibility_fails_when_a_workload_drops(ex2, ex2_clvr):
    # the (1/3, 2/3) workload falls from 1 to 1/3 along this path
    path = _hand_path([[3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    assert not feasibility_preservation_check(ex2, [1, 1], ex2_clvr, path)


def test_feasibility_fails_when_a_zero_rate_aggregate_grows(tandem2):
    # with lam = 0 both aggregated contents q~ = (q_1, q_1 + q_2) are capped;
    # moving work downstream keeps q~_2, adding it downstream raises q~_2
    assert feasibility_preservation_check(tandem2, [0, 0], [], _hand_path([[1.0, 0.0], [0.5, 0.5]]))
    assert not feasibility_preservation_check(tandem2, [0, 0], [], _hand_path([[1.0, 0.0], [0.5, 1.0]]))


def test_zero_rate_queue_never_grows(ex2, ex2_vrs):
    from swnet.geometry import critically_loaded

    clvr, _ = critically_loaded(ex2, [3, 0], ex2_vrs)
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [3.0, 0.0], [1.0, 2.0], h=1e-3, T=2.0)
    assert feasibility_preservation_check(ex2, [3.0, 0.0], clvr, traj)
    assert traj.q[:, 1].max() <= 2.0 + 1e-9


def test_convergence_to_invariant_examples(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    inv = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [0.3, 0.6], h=1e-3, T=1.0)
    assert convergence_to_invariant(ex2, [1, 1], weight, ex2_clvr, inv, eps=0.05) == 0.0
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=1e-3, T=10.0)
    hit = convergence_to_invariant(ex2, [1, 1], weight, ex2_clvr, traj, eps=0.05)
    assert hit is not None and 0.0 < hit < 10.0


def test_convergence_none_when_not_reached(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=1e-2, T=0.05)
    assert convergence_to_invariant(ex2, [1, 1], weight, ex2_clvr, traj, eps=1e-4) is None


def test_trajectory_distance_basics(ex2):
    t1 = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=1e-2, T=1.0)
    t2 = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=1e-2, T=1.0)
    assert trajectory_distance(t1, t2) == 0.0
    t3 = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [2.0, 0.0], h=1e-2, T=1.0)
    assert trajectory_distance(t1, t3) > 0.0
    t4 = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=1e-2, T=2.0)
    with pytest.raises(GridMismatch):
        trajectory_distance(t1, t4)


def test_constant_paths_distance(ex2):
    t1 = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [0.3, 0.6], h=1e-2, T=1.0)
    t2 = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [0.15, 0.3], h=1e-2, T=1.0)
    # both are invariant states; q components differ by the constant gap,
    # while a/s/y agree, so the sup distance equals the q gap
    assert trajectory_distance(t1, t2) == pytest.approx(0.3)


def test_distance_fluid_scaled_run_vs_integrator(ex2):
    # deterministic arrivals: the z-scaled run is the h=1/z integrator
    lam = [0.9, 1.0]
    q0 = np.array([1.0, 0.5])
    z = 500
    path = run(
        ex2,
        Policy.mw_alpha(1.0),
        ArrivalModel.deterministic(lam),
        z * q0,
        int(2 * z),
        seed=0,
    )
    view = rescale(path, "fluid", z, T=2.0, num=401)
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), lam, q0, h=1e-3, T=2.0)
    assert trajectory_distance(view, traj) <= 0.01


def _fluid_reference(model, policy, lam, q0, h, T, tie_state):
    """Reference: the integrator with one select_schedule call per step and
    y, s summed as it goes; returns the rows of q, y, the schedule counts and
    the number of tied steps."""
    q = np.asarray(q0, dtype=float)
    y = np.zeros_like(q)
    count = np.zeros(len(model.schedules), dtype=np.int64)
    qs, ys, counts, ties = [q], [y], [count], 0
    for _ in range(int(round(T / h))):
        trace = select_schedule(model, policy, q, tie_state)
        service = h * model.schedules[trace.chosen]
        y = y + np.maximum(service - q, 0.0)
        q = advance(model, q, service, np.asarray(lam) * h)
        count = count.copy()
        count[trace.chosen] += 1
        qs.append(q)
        ys.append(y)
        counts.append(count)
        ties += len(trace.argmax_set) > 1
    return np.array(qs), np.array(ys), np.array(counts), ties


_FLUID_MODELS = {
    "ex2": presets.ex2,
    "tandem2": lambda: presets.tandem(2),
    "tandem3": lambda: presets.tandem(3),
    "iq2": lambda: presets.iq_switch(2),
    "iq3": lambda: presets.iq_switch(3),
}


# MW-2 on iq2 idles and then cycles through two states; backpressure on tandem(3) routes, idles and cycles too
_IDLES_AND_TILES = ("iq2", Policy.mw_alpha(2.0), [0.3, 0.2, 0.2, 0.3], [2.0, 0.0, 0.0, 1.0])
_ROUTES_AND_TILES = ("tandem3", Policy.backpressure(WeightFunction.power(1.0)), [0.35, 0.0, 0.0], [0.5, 0.25, 0.125])


def _counting_advance(monkeypatch, perturb=None):
    """Replace advance, in fluid and in _fluid_reference, by a wrapper that
    records the rows of each call, and that sets queue 0 of the output of the
    row whose bytes are ``perturb`` an ulp below zero. Returns the list of
    (rows, index of that row or None)."""
    calls = []

    def wrapped(model, q, dB, dA):
        out = sim.advance(model, q, dB, dA)
        rows, outs = np.atleast_2d(q), np.atleast_2d(out)
        hit = next((i for i, row in enumerate(rows) if row.tobytes() == perturb), None)
        if hit is not None:
            outs[hit, 0] = -np.nextafter(0.0, 1.0)
        calls.append((len(rows), hit))
        return out

    monkeypatch.setattr("swnet.fluid.advance", wrapped)
    monkeypatch.setitem(globals(), "advance", wrapped)
    return calls


@pytest.mark.parametrize(
    "name, policy, lam, q0",
    [
        ("ex2", Policy.mw_alpha(1.0), [1.0, 1.0], [3.0, 0.0]),
        ("ex2", Policy.mw(WeightFunction.power(1.0), tie_break="round_robin"), [1.0, 1.0], [0.0, 0.0]),
        ("tandem2", Policy.backpressure(WeightFunction.power(1.0), tie_break="random"), [0.5, 0.0], [1.0, 1.0]),
        ("iq2", Policy.msmw_log(tie_break="random"), [0.5] * 4, [0.0] * 4),
        ("iq2", Policy.mw_alpha(2.0), [0.3, 0.45, 0.2, 0.35], [0.7, 1.3, 0.2, 0.9]),
        ("iq2", Policy.mw(WeightFunction.power(1.0), tie_break="round_robin", rel_tol=0.05), [0.5] * 4, [1.0, 0.9, 0.8, 1.2]),
        ("tandem3", Policy.backpressure(WeightFunction.power(1.0)), [0.35, 0.0, 0.0], [0.5, 0.25, 0.125]),
        ("iq2", Policy.mw(WeightFunction.power(1.0), tie_break="round_robin"), [0.5] * 4, [1.0] * 4),
        _IDLES_AND_TILES,
        _ROUTES_AND_TILES,
        ("iq2", Policy.msmw_log(), [0.5] * 4, [2.0, 0.0, 0.0, 1.0]),
        ("iq3", Policy.mw_alpha(1.0), [1 / 3] * 9, [3.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0]),
        ("iq2", Policy.mw(WeightFunction.power(1.0), tie_break="random", rel_tol=0.05), [0.5] * 4, [1.0, 0.9, 0.8, 1.2]),
    ],
)
def test_integrate_fluid_equals_per_step_selection(name, policy, lam, q0):
    # T = 20 (2 000 steps): long enough for the speculative loop to grow its chunks, miss, back off and tile
    model = _FLUID_MODELS[name]()
    traj = integrate_fluid(model, policy, lam, q0, h=0.01, T=20.0, tie_state=TieState.seeded(7))
    qs, ys, counts, ties = _fluid_reference(model, policy, lam, q0, 0.01, 20.0, TieState.seeded(7))
    assert ties > 0 or policy.tie_break == "highest_index"
    assert np.array_equal(traj.q, qs)
    assert np.array_equal(traj.y, ys)
    assert np.array_equal(traj.s, counts * 0.01)
    assert np.array_equal(traj.s[-1], counts[-1] * 0.01)


@pytest.mark.parametrize("name, policy, lam, q0", [_IDLES_AND_TILES, _ROUTES_AND_TILES])
def test_integrate_fluid_tiles_a_cycle(monkeypatch, name, policy, lam, q0):
    # once a state repeats, the rest of the path is copied: advance sees fewer rows than the 2 000 steps
    # (test_integrate_fluid_equals_per_step_selection checks these paths against the reference)
    calls = _counting_advance(monkeypatch)
    traj = integrate_fluid(_FLUID_MODELS[name](), policy, lam, q0, h=0.01, T=20.0)
    assert traj.y[-1].max() > 0
    assert sum(rows for rows, _ in calls) < 1000


def test_integrate_fluid_never_tiles_over_a_broken_tie():
    # the empty state repeats at every step, but each tie may break otherwise than the last: no tiling after a tie
    class Draws:  # a stand-in rng: the first 100 ties take their first maximizer, the later ones their last
        calls = 0

        def integers(self, lo, hi):
            self.calls += 1
            return lo if self.calls <= 100 else hi - 1

    model, policy = presets.ex2(), Policy.mw(WeightFunction.power(1.0), tie_break="random")
    traj = integrate_fluid(model, policy, [0.0, 0.0], [0.0, 0.0], h=0.01, T=2.0, tie_state=TieState(Draws()))
    qs, ys, counts, ties = _fluid_reference(model, policy, [0.0, 0.0], [0.0, 0.0], 0.01, 2.0, TieState(Draws()))
    assert ties == 200 and counts[-1].tolist() == [100, 100]
    assert np.array_equal(traj.q, qs) and np.array_equal(traj.y, ys) and np.array_equal(traj.s, counts * 0.01)


@pytest.mark.parametrize("steps", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 4 * BLOCK_ROWS + 1])
def test_integrate_fluid_at_chunk_edges(steps):
    # the fluid_iq2 path never idles: chunks double up to BLOCK_ROWS rows and the horizon cuts the last one
    model, policy, lam, q0 = presets.iq_switch(2), Policy.mw_alpha(1.0), [0.5] * 4, [2.0, 0.0, 0.0, 1.0]
    traj = integrate_fluid(model, policy, lam, q0, h=1e-3, T=steps * 1e-3)
    qs, ys, counts, _ = _fluid_reference(model, policy, lam, q0, 1e-3, steps * 1e-3, None)
    assert traj.q.shape == (steps + 1, 4)
    assert np.array_equal(traj.q, qs) and np.array_equal(traj.y, ys) and np.array_equal(traj.s, counts * 1e-3)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["ex2", "iq2"]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    q0=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0), min_size=4, max_size=4),
    lam=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_integrate_fluid_equals_reference_on_random_paths(name, alpha, q0, lam):
    model = _FLUID_MODELS[name]()
    n = model.n_queues
    policy = Policy.mw_alpha(alpha)
    traj = integrate_fluid(model, policy, lam[:n], q0[:n], h=0.01, T=3.0)
    qs, ys, counts, _ = _fluid_reference(model, policy, lam[:n], q0[:n], 0.01, 3.0, None)
    assert np.array_equal(traj.q, qs) and np.array_equal(traj.y, ys) and np.array_equal(traj.s, counts * 0.01)


@pytest.mark.parametrize("step, chunked", [(1, False), (100, True)], ids=["plain_step", "in_a_chunk"])
def test_integrate_fluid_refuses_a_negative_state_at_the_same_step(monkeypatch, step, chunked):
    # advance leaves the state of step + 1 an ulp below zero; both loops refuse it before weighing it, after the
    # same step + 1 rows of the path: the row of step is the last row advanced, and no call follows its call
    model, policy, lam, q0 = presets.iq_switch(2), Policy.mw_alpha(1.0), [0.5] * 4, [2.0, 0.0, 0.0, 1.0]
    clean = _fluid_reference(model, policy, lam, q0, 1e-3, 1.0, None)[0]
    for run_it, batched in (
        (lambda: integrate_fluid(model, policy, lam, q0, h=1e-3, T=1.0), chunked),
        (lambda: _fluid_reference(model, policy, lam, q0, 1e-3, 1.0, None), False),
    ):
        calls = _counting_advance(monkeypatch, perturb=clean[step].tobytes())
        with pytest.raises(ValueError, match="queue state must be >= 0"):
            run_it()
        monkeypatch.undo()
        width, hit = calls[-1]
        assert hit is not None and sum(rows for rows, _ in calls[:-1]) + hit + 1 == step + 1
        assert (width > 1) == batched


def test_fluid_backpressure_on_tandem3_idles_and_routes():
    # the tandem3 case above: the equality covers idling and routed work
    model = presets.tandem(3)
    lam, q0 = [0.35, 0.0, 0.0], [0.5, 0.25, 0.125]
    traj = integrate_fluid(model, Policy.backpressure(WeightFunction.power(1.0)), lam, q0, h=0.01, T=2.0)
    assert traj.y[-1].min() > 0  # every server idled at some step
    served = traj.s[-1] @ model.schedules - traj.y[-1]
    assert served[2] > q0[2]  # the last queue has no arrivals: it served routed work


@pytest.mark.parametrize("q0", [[2.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])  # no tie at step 0; a tie at step 0
def test_integrate_fluid_refuses_unseeded_random_ties_before_any_step(monkeypatch, q0):
    model, policy = presets.iq_switch(2), Policy.mw(WeightFunction.power(1.0), tie_break="random")
    seeded = integrate_fluid(model, policy, [0.5] * 4, q0, h=1e-3, T=1.0, tie_state=TieState.seeded(3))
    assert seeded.q.shape == (1001, 4)

    def no_step(*args):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr("swnet.fluid.advance", no_step)
    for ties in (None, TieState()):
        with pytest.raises(ValueError, match="random tie-break needs a seeded TieState"):
            integrate_fluid(model, policy, [0.5] * 4, q0, h=1e-3, T=20.0, tie_state=ties)


@pytest.mark.parametrize(
    "q0, lam",
    [
        ([np.inf, 0.0], [1.0, 1.0]),
        ([np.nan, 0.0], [1.0, 1.0]),
        ([1.0, 0.0], [np.nan, 1.0]),
        ([1.0, 0.0], [0.5]),  # used to broadcast 0.5 onto both queues
        ([1.0, 0.0], [1.0, 1.0, 1.0]),
        ([1.0], [1.0, 1.0]),
    ],
)
def test_integrate_fluid_refuses_non_finite_inputs(ex2, q0, lam):
    with pytest.raises(ValueError, match="finite"):
        integrate_fluid(ex2, Policy.mw_alpha(1.0), lam, q0, h=0.1, T=1.0)


@pytest.mark.parametrize("h, T", [(0.1, 0.25), (0.01, 1.005), (1e-3, 0.0105)])
def test_integrate_fluid_refuses_a_horizon_off_the_grid(ex2, h, T):
    with pytest.raises(HorizonNotMultiple):
        integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=h, T=T)


@pytest.mark.parametrize("T", [-1.0, np.nan, np.inf])
def test_integrate_fluid_refuses_a_negative_or_non_finite_horizon(ex2, T):
    with pytest.raises(ValueError, match="horizon T must be finite and >= 0"):
        integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=0.1, T=T)


def test_integrate_fluid_ends_at_T_when_T_is_a_float_multiple_of_h(ex2):
    # 0.3 / 0.1 is 2.9999999999999996 in floats: still three steps, ending at T
    traj = integrate_fluid(ex2, Policy.mw_alpha(1.0), [1.0, 1.0], [1.0, 0.0], h=0.1, T=0.3)
    assert len(traj.t) == 4 and traj.t[-1] == pytest.approx(0.3)
