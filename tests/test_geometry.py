import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from swnet import presets
from swnet.geometry import (
    BudgetExceeded,
    _exact_dtype,
    _integer_rows,
    _schedule_rows,
    InfeasiblePlan,
    classify_load,
    complete_loading_check,
    critically_loaded,
    enumerate_dual_vertices,
    hull_membership,
    solve_dual,
    solve_square,
    solve_lp,
    solve_primal,
    to_fraction,
    verify_vertex,
)
from swnet.model import ScheduleSet, validate_network


def test_to_fraction_forms():
    assert to_fraction("1/3") == F(1, 3)
    assert to_fraction(2) == F(2)
    assert to_fraction(0.5) == F(1, 2)
    assert to_fraction(F(3, 7)) == F(3, 7)


def test_simplex_basic_lp():
    # min x1 + x2 st x1 + 2 x2 >= 4, 3 x1 + x2 >= 3  (as <= with negation);
    # optimum at the constraint intersection (2/5, 9/5)
    res = solve_lp(
        [F(1), F(1)],
        a_ub=[[F(-1), F(-2)], [F(-3), F(-1)]],
        b_ub=[F(-4), F(-3)],
    )
    assert res.status == "optimal"
    assert res.value == F(11, 5)
    assert res.x == [F(2, 5), F(9, 5)]


def test_simplex_infeasible_and_unbounded():
    bad = solve_lp([F(1)], a_ub=[[F(1)], [F(-1)]], b_ub=[F(1), F(-2)])
    assert bad.status == "infeasible"
    unb = solve_lp([F(-1)], a_ub=[[F(-1)]], b_ub=[F(0)])
    assert unb.status == "unbounded"


def test_ex2_vertices_exact(ex2, ex2_vrs):
    assert set(ex2_vrs.vertices) == {
        (F(0), F(0)),
        (F(1, 3), F(0)),
        (F(1, 3), F(2, 3)),
        (F(0), F(1)),
    }
    assert set(ex2_vrs.maximal) == {(F(1, 3), F(2, 3)), (F(0), F(1))}


def test_ex2_primal_formula_examples(ex2):
    assert solve_primal(ex2, [1, 1])[0] == 1
    value, alpha = solve_primal(ex2, [3, 0])
    assert value == 1 and alpha == [F(1), F(0)]
    assert solve_primal(ex2, [0, 0])[0] == 0


def test_ex2_dual_examples(ex2):
    value, xi = solve_dual(ex2, [1, 1])
    assert value == 1
    assert tuple(xi) in {(F(1, 3), F(2, 3)), (F(0), F(1))}
    value, xi = solve_dual(ex2, [3, 0])
    assert value == 1 and xi[0] == F(1, 3)
    assert solve_dual(ex2, [0, 0])[0] == 0


def test_classify_examples(ex2):
    assert classify_load(ex2, [F(3, 2), F(1, 2)]).load_class == "strictly_admissible"
    assert classify_load(ex2, [F(3, 2), F(1, 2)]).primal_value == F(5, 6)
    assert classify_load(ex2, [1, 1]).load_class == "critical"
    assert classify_load(ex2, [0, F(11, 10)]).load_class == "inadmissible"


def test_classify_float_inputs_flagging(ex2):
    near = classify_load(ex2, [1.0, 1.0 + 1e-12])
    assert near.load_class == "critical" and not near.exact
    clean = classify_load(ex2, [1.5, 0.5])
    assert clean.load_class == "strictly_admissible"


def test_inadmissible_iff_some_maximal_vertex_overloaded(ex2, ex2_vrs):
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = [F(int(v), 10) for v in rng.integers(0, 35, size=2)]
        over = any(sum(x * l for x, l in zip(xi, lam)) > 1 for xi in ex2_vrs.maximal)
        assert (classify_load(ex2, lam).load_class == "inadmissible") == over


def test_critically_loaded_examples(ex2, ex2_vrs):
    clvr, clvr_plus = critically_loaded(ex2, [1, 1], ex2_vrs)
    assert set(clvr) == {(F(1, 3), F(2, 3)), (F(0), F(1))}
    clvr, clvr_plus = critically_loaded(ex2, [3, 0], ex2_vrs)
    assert set(clvr) == {(F(1, 3), F(2, 3))}
    assert (F(1, 3), F(0)) in set(clvr_plus) - set(clvr)
    clvr, _ = critically_loaded(ex2, [F(1, 2), F(1, 2)], ex2_vrs)
    assert clvr == []


def test_clvr_membership_tracks_tight_faces(ex2, ex2_vrs):
    # (0,1) is critically loaded iff lam_B = 1; (1/3,2/3) iff the mixed
    # face lam_A/3 + 2 lam_B/3 = 1 is tight
    for i in range(0, 31):
        for j in range(0, 11):
            lam = (F(i, 10), F(j, 10))
            if classify_load(ex2, lam).load_class == "inadmissible":
                continue
            clvr, _ = critically_loaded(ex2, lam, ex2_vrs)
            assert ((F(0), F(1)) in clvr) == (lam[1] == 1)
            assert ((F(1, 3), F(2, 3)) in clvr) == (lam[0] / 3 + 2 * lam[1] / 3 == 1)


def test_clvr_plus_contains_clvr_generally(ex2, ex2_vrs):
    rng = np.random.default_rng(5)
    for _ in range(30):
        lam = [F(int(v), 12) for v in rng.integers(0, 13, size=2)]
        clvr, clvr_plus = critically_loaded(ex2, lam, ex2_vrs)
        assert set(clvr) <= set(clvr_plus)


def test_single_queue_interval():
    model = presets.single_queue()
    vrs = enumerate_dual_vertices(model)
    assert set(vrs.vertices) == {(F(0),), (F(1),)}
    assert vrs.maximal == [(F(1),)]


def test_iq_switch_m2_virtual_resources(switch2_vrs):
    expected = {
        (F(1), F(1), F(0), F(0)),  # row 1
        (F(0), F(0), F(1), F(1)),  # row 2
        (F(1), F(0), F(1), F(0)),  # column 1
        (F(0), F(1), F(0), F(1)),  # column 2
    }
    assert set(switch2_vrs.maximal) == expected


def test_iq_switch_clvr_plus_equals_clvr(switch2, switch2_vrs, switch2_lam):
    clvr, clvr_plus = critically_loaded(switch2, switch2_lam, switch2_vrs)
    assert set(clvr) == set(clvr_plus) == set(switch2_vrs.maximal)


def test_vertices_verify_post_hoc(ex2, ex2_vrs, switch2, switch2_vrs):
    assert all(verify_vertex(ex2, xi) for xi in ex2_vrs.vertices)
    assert all(verify_vertex(switch2, xi) for xi in switch2_vrs.vertices)
    assert not verify_vertex(ex2, [F(1, 4), F(1, 4)])  # interior point
    assert not verify_vertex(ex2, [F(1, 6), F(0)])  # on an edge: one tight row
    assert not verify_vertex(ex2, [F(1, 6), F(5, 6)])  # on the edge xi_1 + xi_2 = 1
    assert not verify_vertex(ex2, [F(1, 2), F(0)])  # infeasible: 3 xi_1 > 1


def test_solve_square_tall_systems():
    assert solve_square([[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)]) == [F(1), F(1)]
    assert solve_square([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None  # dependent columns
    assert solve_square([[F(1)], [F(2)], [F(3)]], [F(1), F(2), F(3)]) == [F(1)]
    assert solve_square([[F(1)], [F(2)]], [F(1), F(3)]) is None  # the second row contradicts the first


def test_verify_vertex_with_more_tight_rows_than_queues():
    # (1, 0) is tight on xi_2 = 0, xi_1 = 1 and xi_1 + xi_2 = 1: a degenerate vertex
    square = validate_network(ScheduleSet([[1, 0], [0, 1], [1, 1]]))
    assert verify_vertex(square, [F(1), F(0)])
    assert all(verify_vertex(square, xi) for xi in enumerate_dual_vertices(square).vertices)
    # a schedule listed twice: three tight rows of rank 2 at (1/2, 1/2, 0), four of rank 3 at (1, 0, 1)
    twice = validate_network(ScheduleSet([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    assert not verify_vertex(twice, [F(1, 2), F(1, 2), F(0)])
    assert verify_vertex(twice, [F(1), F(0), F(1)])


def _reference_vertices(model):
    """The brute force written out one basis at a time in Fractions: solve
    the square system with solve_square, test feasibility and keep the
    distinct solutions. The reference for enumerate_dual_vertices, which
    eliminates whole stacks of bases in integers."""
    pis = _schedule_rows(model)
    n, ns = model.n_queues, len(pis)
    seen = {}
    for combo in itertools.combinations(range(n + ns), n):
        free = [q for q in range(n) if q not in combo]
        tight = [i - n for i in combo if i >= n]
        cand = [F(0)] * n
        if free:
            sol = solve_square([[pis[s][q] for q in free] for s in tight], [F(1)] * len(free))
            if sol is None:
                continue
            for q, v in zip(free, sol):
                cand[q] = v
        if all(v >= 0 for v in cand) and all(sum(p * v for p, v in zip(pi, cand)) <= 1 for pi in pis):
            seen[tuple(cand)] = None
    vertices = sorted(seen)
    maximal = [
        xi for xi in vertices if not any(xi != zeta and all(a <= b for a, b in zip(xi, zeta)) for zeta in vertices)
    ]
    return vertices, maximal


NAMED = {
    "ex2": presets.ex2,
    "single_queue": presets.single_queue,
    "iq2": lambda: presets.iq_switch(2),
    "iq3": lambda: presets.iq_switch(3),
    "tandem2": lambda: presets.tandem(2),
    "tandem3": lambda: presets.tandem(3),
    "tandem4": lambda: presets.tandem(4),
}


def _fractional_models(count=40):
    """Random schedule sets with entries in {0, 1/4, 1/2, 1, 2, 3}."""
    rng = np.random.default_rng(31)
    values = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
    for _ in range(count):
        n, ns = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        scheds = rng.choice(values, size=(ns, n))
        for q in range(n):
            if not scheds[:, q].any():
                scheds[int(rng.integers(0, ns)), q] = 0.25
        yield validate_network(ScheduleSet(scheds))


def _criterion3_models():
    """The 100 random instances of acceptance criterion 3 (same seed and draws)."""
    rng = np.random.default_rng(20240809)
    return [_random_instance(rng)[0] for _ in range(100)]


def _shrink(xs):
    return [tuple(v / 2**40 for v in xi) for xi in xs]


def _assert_both_paths_match_reference(model):
    # schedules times 2^40 push the Hadamard bound past int64: the same
    # elimination then runs on Python ints, and the vertices scale by 2^-40
    big = validate_network(ScheduleSet(model.schedules.as_array * 2.0**40))
    assert _exact_dtype(*_integer_rows(_schedule_rows(model))) is np.int64
    assert _exact_dtype(*_integer_rows(_schedule_rows(big))) is object
    vertices, maximal = _reference_vertices(model)
    small, large = enumerate_dual_vertices(model), enumerate_dual_vertices(big)
    assert (small.vertices, small.maximal) == (vertices, maximal)
    assert (large.vertices, large.maximal) == (_shrink(vertices), _shrink(maximal))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_vertices_equal_reference_on_presets(name):
    model = NAMED[name]()
    _assert_both_paths_match_reference(model)
    if name in ("iq3", "tandem4"):
        assert all(verify_vertex(model, xi) for xi in enumerate_dual_vertices(model).vertices)


def test_vertices_equal_reference_on_random_instances():
    models = _criterion3_models() + list(_fractional_models())
    entries = {v for model in models[100:] for pi in _schedule_rows(model) for v in pi}
    assert {F(1, 4), F(1, 2)} <= entries
    for model in models:
        _assert_both_paths_match_reference(model)


@pytest.mark.parametrize(
    "model, count",
    [(presets.iq_switch(4), math.comb(40, 16)), (presets.tandem(5), math.comb(37, 5))],
    ids=["iq4", "tandem5"],
)
def test_budget_refuses_before_allocating(model, count):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^{count} candidate bases exceed budget 20000; "):
            enumerate_dual_vertices(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # one block of stacked systems would take several times this


def test_budget_guard():
    sw = presets.iq_switch(3)
    with pytest.raises(BudgetExceeded):
        enumerate_dual_vertices(sw, budget=100)


def test_complete_loading_examples(ex2, ex2_vrs, switch2, switch2_vrs, switch2_lam):
    ok, _ = complete_loading_check(ex2, [1, 1], ex2_vrs)
    assert not ok
    ok, weights = complete_loading_check(switch2, switch2_lam, switch2_vrs)
    assert ok
    # the certificate is a convex combination over Xi reproducing the
    # uniform direction 1/(max matching size) = (1/2, ..., 1/2)
    clvr, _ = critically_loaded(switch2, switch2_lam, switch2_vrs)
    assert sum(weights) == 1 and all(w >= 0 for w in weights)
    combo = [
        sum(w * xi[k] for w, xi in zip(weights, sorted(clvr))) for k in range(4)
    ]
    assert combo == [F(1, 2)] * 4
    # the uniform weights 1/(2M) are also a valid certificate
    uniform = [sum(F(1, 4) * xi[k] for xi in clvr) for k in range(4)]
    assert uniform == [F(1, 2)] * 4
    clvr_empty, _ = critically_loaded(ex2, [F(1, 2), F(1, 2)], ex2_vrs)
    ok, cert = complete_loading_check(ex2, [F(1, 2), F(1, 2)], ex2_vrs)
    assert not ok and cert is None


def test_hull_membership_examples(ex2):
    assert hull_membership(ex2, [2, F(1, 2)])
    assert not hull_membership(ex2, [2, 1])
    assert hull_membership(ex2, [3, 0])  # a schedule itself
    assert hull_membership(ex2, [1, F(1, 2)], dominated=True)
    assert not hull_membership(ex2, [1, F(1, 2)])


def test_infeasible_plan_raises():
    model = validate_network(ScheduleSet([[1, 0]]))
    with pytest.raises(InfeasiblePlan):
        solve_primal(model, [0, 1])
    with pytest.raises(InfeasiblePlan):
        solve_dual(model, [0, 1])


def _random_instance(rng):
    n = int(rng.integers(1, 5))
    ns = int(rng.integers(1, 9))
    scheds = rng.integers(0, 4, size=(ns, n))
    # ensure every queue is served by someone so both problems are finite
    for q in range(n):
        if not scheds[:, q].any():
            scheds[rng.integers(0, ns), q] = 1
    lam = [F(int(v), int(rng.integers(1, 7))) for v in rng.integers(0, 5, size=n)]
    return validate_network(ScheduleSet(scheds)), lam


def test_strong_duality_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(60):
        model, lam = _random_instance(rng)
        pv, _ = solve_primal(model, lam)
        dv, xi = solve_dual(model, lam)
        assert pv == dv
        # dual maximizer is feasible
        assert all(v >= 0 for v in xi)
        for pi in model.schedules.as_array:
            assert sum(to_fraction(p) * v for p, v in zip(pi, xi)) <= 1
