import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swnet import presets
from swnet.model import WeightFunction, validate_network
from swnet.policy import (
    Policy,
    PolicyModelMismatch,
    TieState,
    batch_weights,
    check_scale_invariance,
    schedule_weights,
    select_schedule,
    weight_vectors,
)


def test_mw_weights_ex2(ex2):
    w = schedule_weights(ex2, Policy.mw_alpha(1.0), [5.0, 1.0])
    assert np.array_equal(w, [15.0, 6.0])


def test_backpressure_weight_tandem(tandem2):
    pol = Policy.backpressure(WeightFunction.power(1.0))
    w = schedule_weights(tandem2, pol, [2.0, 5.0])
    # schedule (1,0) has weight f(2) - f(5) = -3
    idx = next(i for i, s in enumerate(tandem2.schedules) if tuple(s) == (1.0, 0.0))
    assert w[idx] == -3.0


def test_msmw_size_dominates(switch2):
    pol = Policy.msmw_log()
    # Q = [[2,3],[5,0]]: diagonal matching serves {q11, q22} -> size 1;
    # anti-diagonal serves {q12, q21} -> size 2 and wins on size
    trace = select_schedule(switch2, pol, [2.0, 3.0, 5.0, 0.0])
    chosen = switch2.schedules[trace.chosen]
    assert tuple(chosen) == (0.0, 1.0, 1.0, 0.0)


def test_msmw_log_weight_breaks_size_tie(switch2):
    pol = Policy.msmw_log()
    e2 = math.e**2
    trace = select_schedule(switch2, pol, [e2, 1.0, 1.0, e2])
    chosen = switch2.schedules[trace.chosen]
    assert tuple(chosen) == (1.0, 0.0, 0.0, 1.0)  # log-weights 4 vs 0


def test_highest_index_tie_break(ex2):
    trace = select_schedule(ex2, Policy.mw_alpha(1.0), [1.0, 2.0])
    assert np.array_equal(trace.weights, [3.0, 3.0])
    assert set(trace.argmax_set) == {0, 1}
    assert trace.chosen == 1  # (1,1)


def test_clear_argmax(ex2):
    trace = select_schedule(ex2, Policy.mw_alpha(1.0), [1.0, 4.0])
    assert trace.chosen == 1
    assert np.array_equal(trace.weights, [3.0, 5.0])


def test_random_tie_break_reproducible(ex2):
    pol = Policy.mw(WeightFunction.power(1.0), tie_break="random")
    picks1 = [
        select_schedule(ex2, pol, [1.0, 2.0], TieState.seeded(5, i)).chosen
        for i in range(20)
    ]
    picks2 = [
        select_schedule(ex2, pol, [1.0, 2.0], TieState.seeded(5, i)).chosen
        for i in range(20)
    ]
    assert picks1 == picks2
    assert set(picks1) == {0, 1}


def test_round_robin_cycles(ex2):
    pol = Policy.mw(WeightFunction.power(1.0), tie_break="round_robin")
    state = TieState()
    picks = [select_schedule(ex2, pol, [1.0, 2.0], state).chosen for _ in range(4)]
    assert picks == [0, 1, 0, 1]


def test_policy_model_mismatch(ex2, tandem2):
    with pytest.raises(PolicyModelMismatch):
        schedule_weights(ex2, Policy.backpressure(WeightFunction.power(1.0)), [1.0, 1.0])
    with pytest.raises(PolicyModelMismatch):
        schedule_weights(tandem2, Policy.msmw_log(), [1.0, 1.0])
    open_model = validate_network([[1, 1]], [(0, 1)])
    with pytest.raises(PolicyModelMismatch):
        schedule_weights(open_model, Policy.backpressure(WeightFunction.power(1.0)), [1.0, 1.0])


def test_chosen_weight_is_maximal_everywhere(ex2):
    rng = np.random.default_rng(0)
    pol = Policy.mw_alpha(0.5)
    for _ in range(200):
        q = rng.random(2) * 10
        trace = select_schedule(ex2, pol, q)
        assert trace.weights[trace.chosen] >= trace.weights.max()


# Queue contents are zero or normal floats >= 1e-100: then kappa*q and
# (kappa*q)**alpha stay normal for kappa >= 0.01 and alpha <= 3, so the two
# states really are kappa-multiples and no weight underflows to zero.
_queue_content = st.one_of(
    st.just(0.0), st.floats(min_value=1e-100, max_value=20.0, allow_subnormal=False)
)


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
    kappa=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    q=st.lists(_queue_content, min_size=2, max_size=2),
)
def test_power_weight_argmax_scale_invariant(ex2, alpha, kappa, q):
    pol = Policy.mw_alpha(alpha)
    base = select_schedule(ex2, pol, q).argmax_set
    scaled = select_schedule(ex2, pol, [kappa * v for v in q]).argmax_set
    assert np.array_equal(base, scaled)


@pytest.mark.parametrize("pressure", [False, True])
@pytest.mark.parametrize(
    "model", [presets.ex2(), presets.tandem(2), presets.iq_switch(3)], ids=["ex2", "tandem2", "iq3"]
)
def test_weight_vectors_batch_equals_rows(model, pressure):
    rng = np.random.default_rng(17)
    Q = rng.random((60, model.n_queues)) * 10.0
    Q[::6, 0] = 0.0  # some empty queues
    for alpha in (0.5, 1.0, 2.0):
        w = WeightFunction.power(alpha)
        batch = weight_vectors(model, w, Q, pressure)
        rows = np.stack([weight_vectors(model, w, q, pressure) for q in Q])
        assert batch.shape == (60, len(model.schedules))
        assert np.array_equal(batch, rows)
        stacked = weight_vectors(model, w, Q.reshape(3, 20, model.n_queues), pressure)
        assert np.array_equal(stacked.reshape(60, -1), rows)


@pytest.mark.parametrize("model", [presets.iq_switch(2), presets.iq_switch(3)], ids=["iq2", "iq3"])
def test_msmw_log_batch_weights_equal_rows(model):
    # the fluid integrator weighs a chunk of states in one call and must pick as if it weighed each alone
    rng = np.random.default_rng(23)
    Q = rng.random((60, model.n_queues)) * 10.0
    Q[rng.random(Q.shape) < 0.3] = 0.0  # empty queues: no log term, no size term
    Q[:3] = 0.0
    pol = Policy.msmw_log()
    batch = batch_weights(model, pol, Q)
    rows = np.stack([batch_weights(model, pol, q) for q in Q])
    assert batch.shape == (60, len(model.schedules), 2)
    assert np.array_equal(batch, rows)
    stacked = batch_weights(model, pol, Q.reshape(3, 20, model.n_queues))
    assert np.array_equal(stacked.reshape(60, -1, 2), rows)


def test_scale_invariance_report_power_passes(switch2):
    rep = check_scale_invariance(
        switch2, Policy.mw_alpha(0.5), samples=100, kappa_list=[0.1, 10.0], seed=3
    )
    assert rep.passed


def test_scale_invariance_backpressure_power(tandem2):
    rep = check_scale_invariance(
        tandem2,
        Policy.backpressure(WeightFunction.power(2.0)),
        samples=100,
        kappa_list=[0.2, 5.0],
        seed=7,
    )
    assert rep.passed


def test_scale_invariance_kappa_one_trivial(ex2):
    rep = check_scale_invariance(ex2, Policy.mw_alpha(2.0), samples=50, kappa_list=[1.0], seed=0)
    assert rep.passed


def test_log1p_weight_violates_scale_invariance():
    switch3 = presets.iq_switch(3)
    w = WeightFunction.custom(
        f=lambda x: np.log1p(x),
        F=lambda x: (1 + x) * np.log1p(x) - x,
        fprime=lambda x: 1.0 / (1.0 + x),
    )
    rep = check_scale_invariance(
        switch3, Policy.mw(w), samples=300, kappa_list=[0.1, 10.0], seed=11
    )
    assert not rep.passed
    assert rep.counterexamples


def test_backpressure_zeroed_variant_never_beats_chosen(tandem2):
    # monotone closure: the chosen schedule's weight matches the best over
    # all zeroed variants, so negative-pressure components are never forced
    pol = Policy.backpressure(WeightFunction.power(1.0))
    rng = np.random.default_rng(4)
    s_keys = {tuple(s): i for i, s in enumerate(tandem2.schedules)}
    for _ in range(200):
        q = rng.random(2) * 5
        trace = select_schedule(tandem2, pol, q)
        chosen = tandem2.schedules[trace.chosen]
        best = trace.weights[trace.chosen]
        for mask in range(4):
            variant = chosen.copy()
            for b in range(2):
                if mask >> b & 1:
                    variant[b] = 0.0
            assert best >= trace.weights[s_keys[tuple(variant)]]
