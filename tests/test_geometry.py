import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from swnet import geometry, presets
from swnet.geometry import (
    BudgetExceeded,
    _exact_dtype,
    _int_row,
    _schedule_rows,
    InfeasiblePlan,
    LpResult,
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
from swnet.cli import execute, parse_scenario
from swnet.model import validate_network


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


# The exact two-phase simplex as it was written over Fractions, kept verbatim
# as the reference for solve_lp, whose tableau holds integer rows.


def _reference_pivot(rows, cost, basis, r, col) -> None:
    piv = rows[r][col]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i != r and rows[i][col] != 0:
            f = rows[i][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    if cost[col] != 0:
        f = cost[col]
        cost[:] = [a - f * b for a, b in zip(cost, prow)]
    basis[r] = col


def _reference_run_phase(rows, cost, basis, allowed) -> str:
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)  # Bland: lowest index
        if enter is None:
            return "optimal"
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return "unbounded"
        _reference_pivot(rows, cost, basis, best[1], enter)


def _reference_solve_lp(
    c: Sequence[F],
    a_ub: Sequence[Sequence[F]] = (),
    b_ub: Sequence[F] = (),
    a_eq: Sequence[Sequence[F]] = (),
    b_eq: Sequence[F] = (),
) -> LpResult:
    """Exact rational simplex: minimize c.x s.t. a_ub x <= b_ub,
    a_eq x = b_eq, x >= 0. Bland's rule prevents cycling; problem sizes here
    are tiny, so no effort is spent on sparsity or revised form.
    """
    zero, one = F(0), F(1)
    nx = len(c)
    rows: list[list[F]] = []
    kinds: list[str] = []  # "ub" gets a slack, "eq" does not
    for row, rhs in zip(a_ub, b_ub):
        rows.append([to_fraction(v) for v in row] + [to_fraction(rhs)])
        kinds.append("ub")
    for row, rhs in zip(a_eq, b_eq):
        rows.append([to_fraction(v) for v in row] + [to_fraction(rhs)])
        kinds.append("eq")
    m = len(rows)
    n_slack = sum(1 for k in kinds if k == "ub")
    ncols = nx + n_slack + m  # x, slacks, artificials
    tab: list[list[F]] = []
    slack_at = 0
    for i, (row, kind) in enumerate(zip(rows, kinds)):
        body = row[:-1] + [zero] * (n_slack + m)
        rhs = row[-1]
        if kind == "ub":
            body[nx + slack_at] = one
            slack_at += 1
        if rhs < 0:
            body = [-v for v in body]
            rhs = -rhs
        body[nx + n_slack + i] = one
        tab.append(body + [rhs])

    # phase 1: minimize the artificial total
    basis = [nx + n_slack + i for i in range(m)]
    cost = [zero] * (ncols + 1)
    for row in tab:
        for j in range(ncols + 1):
            cost[j] -= row[j]
    for i in range(m):
        cost[nx + n_slack + i] += one
    allowed = list(range(nx + n_slack))
    status = _reference_run_phase(tab, cost, basis, allowed)
    if -cost[-1] > 0:
        return LpResult(status="infeasible", value=None, x=None)
    # drive leftover artificials out of the basis
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= nx + n_slack:
            col = next((j for j in range(nx + n_slack) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)  # redundant row
            else:
                _reference_pivot(tab, cost, basis, i, col)
    for i in reversed(drop):
        del tab[i]
        del basis[i]

    # phase 2: original objective over x and slacks
    cost = [to_fraction(v) for v in c] + [zero] * (n_slack + m) + [zero]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            cost = [a - f * v for a, v in zip(cost, tab[i])]
    status = _reference_run_phase(tab, cost, basis, allowed)
    if status == "unbounded":
        return LpResult(status="unbounded", value=None, x=None)
    x = [zero] * nx
    for i, b in enumerate(basis):
        if b < nx:
            x[b] = tab[i][-1]
    return LpResult(status="optimal", value=-cost[-1], x=x)


MULTIPLES = (F(2), F(-1), F(1, 3))


def _random_lp(rng):
    """A small LP over entries in {0, +-1/4, ..., +-4}: ub and eq rows in any
    mix, negative and zero right-hand sides, and often an equality row that
    is a multiple of another, which phase 1 drops."""

    def entry():
        return F(0) if rng.random() < 0.35 else F(int(rng.integers(-4, 5)), int(rng.choice([1, 1, 2, 3, 4])))

    nx, n_ub, n_eq = int(rng.integers(1, 6)), int(rng.integers(0, 5)), int(rng.integers(0, 4))
    a_ub = [[entry() for _ in range(nx)] for _ in range(n_ub)]
    a_eq = [[entry() for _ in range(nx)] for _ in range(n_eq)]
    b_ub, b_eq = [entry() for _ in range(n_ub)], [entry() for _ in range(n_eq)]
    if a_eq and rng.random() < 0.4:
        k = MULTIPLES[int(rng.integers(0, len(MULTIPLES)))]
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return [entry() for _ in range(nx)], a_ub, b_ub, a_eq, b_eq


def _pivots_of(solve, owner, name, *args, **kwargs):
    """solve's result and the (row, column) of each pivot it made through owner.name."""
    real, made = getattr(owner, name), []

    def recording(*pivot_args):
        made.append(pivot_args[-2:])
        return real(*pivot_args)

    setattr(owner, name, recording)
    try:
        return solve(*args, **kwargs), made
    finally:
        setattr(owner, name, real)


def _solve_as_the_reference(*args, **kwargs):
    """solve_lp's result, asserting that it equals the reference's and that both made the same pivots."""
    res = _pivots_of(solve_lp, geometry, "_pivot", *args, **kwargs)
    assert res == _pivots_of(_reference_solve_lp, sys.modules[__name__], "_reference_pivot", *args, **kwargs)
    return res[0]


def test_simplex_equals_the_fraction_reference_on_random_lps():
    rng = np.random.default_rng(24)
    statuses = Counter()
    kinds = Counter()
    for _ in range(1500):
        lp = _random_lp(rng)
        res = _solve_as_the_reference(*lp)
        statuses[res.status] += 1
        c, a_ub, b_ub, a_eq, b_eq = lp
        kinds["mixed"] += bool(a_ub and a_eq)
        kinds["negative rhs"] += any(v < 0 for v in b_ub + b_eq)
        kinds["zero rhs"] += any(v == 0 for v in b_ub + b_eq)
        kinds["redundant"] += len(a_eq) > 1 and any(
            a_eq[-1] == [k * v for v in a_eq[0]] and b_eq[-1] == k * b_eq[0] for k in MULTIPLES
        )
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 200, statuses
    assert min(kinds.values()) >= 100, kinds


def test_simplex_drops_a_redundant_equality_row():
    # the second row is twice the first: phase 1 ends with its artificial basic at 0 and no column to pivot on
    lp = ([F(1), F(2)], [], [], [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])
    assert _solve_as_the_reference(*lp) == LpResult("optimal", F(1), [F(1), F(0)])


def test_simplex_ends_beales_cycling_example_at_its_optimum():
    # Beale (1955): the largest-coefficient rule cycles on these degenerate rows; Bland's rule ends at -5/4
    c = [F(-3, 4), F(20), F(-1, 2), F(6)]
    a_ub = [[F(1, 4), F(-8), F(-1), F(9)], [F(1, 2), F(-12), F(-1, 2), F(3)], [F(0), F(0), F(1), F(0)]]
    b_ub = [F(0), F(0), F(1)]
    assert _solve_as_the_reference(c, a_ub, b_ub) == LpResult("optimal", F(-5, 4), [F(1), F(0), F(1), F(0)])


def _analyze_scenarios():
    """scenarios/analyze_*.json and the benchmark's analyze_iq3 at seeds 0, 3 and 5."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    named = {p.stem: json.loads(p.read_text()) for p in sorted((root / "scenarios").glob("analyze_*.json"))}
    return named | {f"analyze_iq3 seed {s}": workloads.scenario("analyze_iq3", s) for s in (0, 3, 5)}


ANALYZE_SCENARIOS = _analyze_scenarios()


@pytest.mark.parametrize("name", sorted(ANALYZE_SCENARIOS))
def test_every_analyze_lp_equals_the_fraction_reference(name, tmp_path, monkeypatch):
    # the primal, the dual and the complete-loading LP of each analyze run
    posed = []

    def recording(*args, **kwargs):
        posed.append((args, kwargs, solve_lp(*args, **kwargs)))
        return posed[-1][2]

    monkeypatch.setattr("swnet.geometry.solve_lp", recording)
    assert execute(parse_scenario(ANALYZE_SCENARIOS[name]), tmp_path) == 0
    assert len(posed) == 3
    for args, kwargs, res in posed:
        assert res == _solve_as_the_reference(*args, **kwargs)


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


def _reference_solve_square(a, b):
    """solve_square as it was written over Fractions."""
    n, rows = len(a[0]), len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, rows) if m[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(rows):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    if any(m[r][n] != 0 for r in range(n, rows)):
        return None
    return [m[r][n] for r in range(n)]


def test_solve_square_equals_the_fraction_reference():
    # square and tall systems over small rationals: unique, dependent and contradicted ones all occur
    rng = np.random.default_rng(7)
    outcomes = Counter()
    for _ in range(600):
        n = int(rng.integers(1, 5))
        rows = n + int(rng.integers(0, 3))
        a = [[F(int(rng.integers(-2, 3)), int(rng.integers(1, 4))) for _ in range(n)] for _ in range(rows)]
        b = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in range(rows)]
        if rows > n and rng.random() < 0.5:  # a consistent extra row: the sum of the first two
            a[-1] = [u + v for u, v in zip(a[0], a[min(1, rows - 2)])]
            b[-1] = b[0] + b[min(1, rows - 2)]
        x = solve_square(a, b)
        assert x == _reference_solve_square(a, b)
        outcomes["none" if x is None else "tall" if rows > n else "square"] += 1
    assert min(outcomes[k] for k in ("none", "tall", "square")) >= 50, outcomes


def test_verify_vertex_with_more_tight_rows_than_queues():
    # (1, 0) is tight on xi_2 = 0, xi_1 = 1 and xi_1 + xi_2 = 1: a degenerate vertex
    square = validate_network([[1, 0], [0, 1], [1, 1]])
    assert verify_vertex(square, [F(1), F(0)])
    assert all(verify_vertex(square, xi) for xi in enumerate_dual_vertices(square).vertices)
    # a schedule listed twice: three tight rows of rank 2 at (1/2, 1/2, 0), four of rank 3 at (1, 0, 1)
    twice = validate_network([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
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
        yield validate_network(scheds)


def _criterion3_models():
    """The 100 random instances of acceptance criterion 3 (same seed and draws)."""
    rng = np.random.default_rng(20240809)
    return [_random_instance(rng)[0] for _ in range(100)]


def _shrink(xs):
    return [tuple(v / 2**40 for v in xi) for xi in xs]


def _assert_both_paths_match_reference(model):
    # schedules times 2^40 push the Hadamard bound past int64: the same
    # elimination then runs on Python ints, and the vertices scale by 2^-40
    big = validate_network(model.schedules * 2.0**40)
    assert _exact_dtype([_int_row(pi) for pi in _schedule_rows(model)]) is np.int64
    assert _exact_dtype([_int_row(pi) for pi in _schedule_rows(big)]) is object
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
    ok, _ = complete_loading_check(ex2, critically_loaded(ex2, [1, 1], ex2_vrs)[0])
    assert not ok
    clvr, _ = critically_loaded(switch2, switch2_lam, switch2_vrs)
    ok, weights = complete_loading_check(switch2, clvr)
    assert ok
    # the certificate is a convex combination over Xi reproducing the
    # uniform direction 1/(max matching size) = (1/2, ..., 1/2)
    assert sum(weights) == 1 and all(w >= 0 for w in weights)
    combo = [
        sum(w * xi[k] for w, xi in zip(weights, sorted(clvr))) for k in range(4)
    ]
    assert combo == [F(1, 2)] * 4
    # the uniform weights 1/(2M) are also a valid certificate
    uniform = [sum(F(1, 4) * xi[k] for xi in clvr) for k in range(4)]
    assert uniform == [F(1, 2)] * 4
    clvr_empty, _ = critically_loaded(ex2, [F(1, 2), F(1, 2)], ex2_vrs)
    assert clvr_empty == []
    ok, cert = complete_loading_check(ex2, clvr_empty)
    assert not ok and cert is None


def test_critically_loaded_with_tolerance(switch2, switch2_vrs):
    # row 2 and column 2 load to 1 + 2**-53 in exact arithmetic: only a tolerance admits them
    lam = [0.5, 0.5, 0.5, 0.5000000000000001]
    exact, exact_plus = critically_loaded(switch2, lam, switch2_vrs)
    assert len(exact) == 2 and len(exact_plus) == 2
    clvr, clvr_plus = critically_loaded(switch2, lam, switch2_vrs, tol=1e-9)
    assert clvr == switch2_vrs.maximal and len(clvr) == 4
    assert clvr_plus == [xi for xi in switch2_vrs.vertices if sum(xi) == 2]
    assert critically_loaded(switch2, [0.5, 0.5, 0.5, 0.5 + 1e-8], switch2_vrs, tol=1e-9)[0] == exact
    # the run's Xi(lam) is what complete loading is tested against
    assert complete_loading_check(switch2, clvr)[0]
    assert not complete_loading_check(switch2, exact)[0]


def test_hull_membership_examples(ex2):
    assert hull_membership(ex2, [2, F(1, 2)])
    assert not hull_membership(ex2, [2, 1])
    assert hull_membership(ex2, [3, 0])  # a schedule itself
    assert hull_membership(ex2, [1, F(1, 2)], dominated=True)
    assert not hull_membership(ex2, [1, F(1, 2)])


def test_infeasible_plan_raises():
    model = validate_network([[1, 0]])
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
    return validate_network(scheds), lam


def test_strong_duality_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(60):
        model, lam = _random_instance(rng)
        pv, _ = solve_primal(model, lam)
        dv, xi = solve_dual(model, lam)
        assert pv == dv
        # dual maximizer is feasible
        assert all(v >= 0 for v in xi)
        for pi in model.schedules:
            assert sum(to_fraction(p) * v for p, v in zip(pi, xi)) <= 1
