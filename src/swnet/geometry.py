"""Exact static-planning geometry: admissibility LPs, dual-polytope vertex
enumeration, virtual resources, critically loaded sets, complete loading.

All geometry runs in exact rational arithmetic (fractions.Fraction); the
dual-vertex enumeration works on integer-scaled rows and makes Fractions only
for the vertices it finds. Floats entering through lambda are converted to
their exact binary value; when that happens, classifications near the
critical boundary can be snapped by a configurable tolerance and are flagged
approximate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import NetworkModel

DEFAULT_VERTEX_BUDGET = 20_000


class BudgetExceeded(ValueError):
    """Vertex enumeration would exceed the configured subset budget."""


class InfeasiblePlan(ValueError):
    """PRIMAL(lambda) is infeasible: some queue with positive rate is never
    served by any schedule."""


def to_fraction(x) -> Fraction:
    """Exact coercion: int/Fraction pass through, strings parse as 'p/q',
    floats convert to their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (float, np.floating)):
        return Fraction(float(x))
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def fraction_vector(xs) -> tuple[Fraction, ...]:
    return tuple(to_fraction(x) for x in xs)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def solve_square(a: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve a rational system a x = b by Gauss-Jordan elimination.

    ``a`` has one column per unknown and at least as many rows as columns
    (verify_vertex passes every tight row). Returns None at the first column
    without a pivot, i.e. when the columns are dependent, and when a row
    beyond the pivots contradicts them.
    """
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


# ---------------------------------------------------------------------------
# exact two-phase simplex (Bland's rule)
# ---------------------------------------------------------------------------


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    x: Optional[list[Fraction]]


def _pivot(rows, cost, basis, r, col) -> None:
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


def _run_phase(rows, cost, basis, allowed) -> str:
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
        _pivot(rows, cost, basis, best[1], enter)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LpResult:
    """Exact rational simplex: minimize c.x s.t. a_ub x <= b_ub,
    a_eq x = b_eq, x >= 0. Bland's rule prevents cycling; problem sizes here
    are tiny, so no effort is spent on sparsity or revised form.
    """
    zero, one = Fraction(0), Fraction(1)
    nx = len(c)
    rows: list[list[Fraction]] = []
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
    tab: list[list[Fraction]] = []
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
    status = _run_phase(tab, cost, basis, allowed)
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
                _pivot(tab, cost, basis, i, col)
    for i in reversed(drop):
        del tab[i]
        del basis[i]

    # phase 2: original objective over x and slacks
    cost = [to_fraction(v) for v in c] + [zero] * (n_slack + m) + [zero]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            cost = [a - f * v for a, v in zip(cost, tab[i])]
    status = _run_phase(tab, cost, basis, allowed)
    if status == "unbounded":
        return LpResult(status="unbounded", value=None, x=None)
    x = [zero] * nx
    for i, b in enumerate(basis):
        if b < nx:
            x[b] = tab[i][-1]
    return LpResult(status="optimal", value=-cost[-1], x=x)


# ---------------------------------------------------------------------------
# static planning problems
# ---------------------------------------------------------------------------


def _schedule_rows(model: NetworkModel) -> list[tuple[Fraction, ...]]:
    return [fraction_vector(pi) for pi in model.schedules.as_array]


def solve_primal(model: NetworkModel, lam) -> tuple[Fraction, list[Fraction]]:
    """Minimize sum(alpha) subject to lam <= sum alpha_pi * pi, alpha >= 0.

    Returns the exact optimal value and one optimal weight vector alpha.
    """
    pis = _schedule_rows(model)
    lam = fraction_vector(lam)
    n, ns = model.n_queues, len(pis)
    # lam - sum alpha pi <= 0  componentwise
    a_ub = [[-pis[s][q] for s in range(ns)] for q in range(n)]
    b_ub = [-lam[q] for q in range(n)]
    res = solve_lp([Fraction(1)] * ns, a_ub=a_ub, b_ub=b_ub)
    if res.status != "optimal":
        served = {q for pi in pis for q in range(n) if pi[q] > 0}
        missing = [q for q in range(n) if lam[q] > 0 and q not in served]
        raise InfeasiblePlan(
            f"no schedule serves positively loaded queue(s) {missing}"
            if missing
            else "static planning primal is infeasible"
        )
    return res.value, res.x


def solve_dual(model: NetworkModel, lam) -> tuple[Fraction, list[Fraction]]:
    """Maximize xi.lam over xi >= 0 with xi.pi <= 1 for every schedule.

    Returns the exact optimal value and a maximizing vertex of the feasible
    polytope (the simplex optimum is a basic feasible solution).
    """
    pis = _schedule_rows(model)
    lam = fraction_vector(lam)
    n = model.n_queues
    res = solve_lp([-v for v in lam], a_ub=pis, b_ub=[Fraction(1)] * len(pis))
    if res.status == "unbounded":
        raise InfeasiblePlan("dual unbounded: some positively loaded queue is never served")
    return -res.value, res.x


@dataclass
class LoadClass:
    """Admissibility classification from the exact primal value."""

    primal_value: Fraction
    load_class: str  # strictly_admissible | critical | inadmissible
    exact: bool
    tolerance: float = 0.0


def classify_primal(value: Fraction, lam) -> LoadClass:
    """strictly_admissible (<1), critical (=1) or inadmissible (>1) from the
    exact primal value, for the rates ``lam`` as given (on a multi-hop
    network, the exogenous rates the aggregated ones come from).

    Exact whenever lam is given in exact form (ints, Fractions, 'p/q'
    strings). Float inputs are converted to their exact binary values; if
    the exact verdict then sits within 1e-9 of critical without being
    exactly critical, the class is snapped to critical and flagged.
    """
    was_float = any(isinstance(v, (float, np.floating)) for v in lam)
    if value == 1:
        return LoadClass(value, "critical", exact=True)
    exact_class = "strictly_admissible" if value < 1 else "inadmissible"
    if was_float and abs(float(value) - 1.0) <= 1e-9:
        return LoadClass(value, "critical", exact=False, tolerance=1e-9)
    return LoadClass(value, exact_class, exact=not was_float)


def classify_load(model: NetworkModel, lam) -> LoadClass:
    """classify_primal of the static planning value at lam."""
    return classify_primal(solve_primal(model, lam)[0], lam)


# ---------------------------------------------------------------------------
# dual polytope vertices and virtual resources
# ---------------------------------------------------------------------------


@dataclass
class VirtualResourceSet:
    """Vertices E of the dual feasible polytope and the maximal subset S*.

    Vertices are exact rational tuples in a canonical sorted order.
    """

    vertices: list[tuple[Fraction, ...]]
    maximal: list[tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        self.vertices = sorted(self.vertices)
        self.maximal = sorted(self.maximal)

    @property
    def n_queues(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0


# Entries of one block of stacked systems, counting each system's k x (k+1)
# matrix, its full-length solution and its schedule products: the
# temporaries stay a few hundred KB whatever the instance.
_BLOCK_ENTRIES = 1 << 13


def _integer_rows(pis: list[tuple[Fraction, ...]]) -> tuple[list[list[int]], list[int]]:
    """Each schedule row times the lcm of its denominators: pi.xi <= 1
    becomes p.xi <= d with integer p and d."""
    p_rows, d = [], []
    for pi in pis:
        scale = math.lcm(*(v.denominator for v in pi))
        p_rows.append([int(v * scale) for v in pi])
        d.append(scale)
    return p_rows, d


def _exact_dtype(p_rows: list[list[int]], d: list[int]):
    """int64 when Hadamard's bound shows that nothing can overflow it, else
    object (Python ints).

    Every elimination entry is a minor of [P | D], hence at most H in
    absolute value, where H^2 is the product over the columns of [P | D] of
    max(1, |column|^2). A cross-product before the exact division is at
    most 2 H^2, and a feasibility product P.num or D.det at most
    max_s |[P | D]_s|_1 H.
    """
    columns = [*zip(*p_rows), d]
    h2 = math.prod(max(1, sum(v * v for v in col)) for col in columns)
    l1 = max(sum(map(abs, row)) + ds for row, ds in zip(p_rows, d))
    return np.int64 if 2 * h2 < 2**63 and l1 * l1 * h2 < 2**126 else object


def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in lexicographic order, one per row."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)


def _eliminate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fraction-free Gauss-Jordan elimination of a stack of integer systems
    [A | b], m of shape (B, k, k + 1).

    Each column's pivot is the first nonzero at or below the diagonal; a
    system without one is singular and dropped. Every update divides
    exactly by the previous pivot (Bareiss), so entries stay integer.
    Returns (kept, det, num) with det > 0 and A num = det b for the kept
    systems.
    """
    batch, k = m.shape[:2]
    kept = np.arange(batch)
    prev = np.ones(batch, dtype=m.dtype)
    for c in range(k):
        nonzero = m[:, c:, c] != 0
        found = nonzero.any(axis=1)
        if not found.all():
            m, prev, kept, nonzero = m[found], prev[found], kept[found], nonzero[found]
        rows, piv = np.arange(len(m)), c + nonzero.argmax(axis=1)
        prow = m[rows, piv]
        m[rows, piv] = m[:, c]
        pivot = prow[:, c]
        m = (pivot[:, None, None] * m - m[:, :, c, None] * prow[:, None, :]) // prev[:, None, None]
        m[:, c] = prow
        prev = pivot
    sign = np.where(prev < 0, -1, 1).astype(m.dtype)
    return kept, prev * sign, m[:, :, k] * sign[:, None]


def enumerate_dual_vertices(
    model: NetworkModel, budget: int = DEFAULT_VERTEX_BUDGET
) -> VirtualResourceSet:
    """Enumerate all vertices of {xi >= 0 : xi.pi <= 1 for all pi}.

    Brute force over N-subsets of the N + |S| constraints: a basis with k
    tight schedules and N - k zero coordinates is a k x k system. The
    schedule rows are scaled to integers, and the systems of each k are
    solved a stacked block at a time by one fraction-free integer
    Gauss-Jordan elimination (_eliminate). Feasibility, deduplication and
    maximality are decided on integer numerators; only the distinct vertices
    become Fractions. Entries are int64 where a Hadamard bound rules out
    overflow and Python ints otherwise. Refuses instances where the subset
    count exceeds ``budget``.
    """
    pis = _schedule_rows(model)
    n, ns = model.n_queues, len(pis)
    n_candidates = math.comb(n + ns, n)
    if n_candidates > budget:
        raise BudgetExceeded(
            f"{n_candidates} candidate bases exceed budget {budget}; "
            "raise the budget explicitly to force enumeration"
        )
    p_rows, d_rows = _integer_rows(pis)
    dtype = _exact_dtype(p_rows, d_rows)
    p, d = np.array(p_rows, dtype=dtype), np.array(d_rows, dtype=dtype)
    seen: dict[tuple[int, ...], None] = {}  # reduced rows (num..., det)
    for k in range(min(n, ns) + 1):
        tight, free = _subsets(ns, k), _subsets(n, k)
        total, block = len(tight) * len(free), max(1, _BLOCK_ENTRIES // (k * (k + 1) + n + ns))
        for start in range(0, total, block):
            idx = np.arange(start, min(start + block, total))
            t, f = tight[idx // len(free)], free[idx % len(free)]
            m = np.concatenate([p[t[:, :, None], f[:, None, :]], d[t][:, :, None]], axis=2)
            kept, det, num = _eliminate(m)
            x = np.zeros((len(kept), n), dtype=dtype)
            x[np.arange(len(kept))[:, None], f[kept]] = num
            ok = (num >= 0).all(axis=1) & (x @ p.T <= det[:, None] * d).all(axis=1)
            rows = np.concatenate([x[ok], det[ok, None]], axis=1)
            rows //= np.gcd.reduce(rows, axis=1)[:, None]
            seen.update(dict.fromkeys(map(tuple, rows.tolist())))
    # maximality on integer numerators over one common denominator
    denom = math.lcm(*(row[-1] for row in seen))
    scaled = [[v * (denom // row[-1]) for v in row[:-1]] for row in seen]
    big = max((abs(v) for row in scaled for v in row), default=0)
    xs = np.array(scaled, dtype=np.int64 if big < 2**63 else object)
    vertices = [tuple(Fraction(v, row[-1]) for v in row[:-1]) for row in seen]
    maximal = [xi for xi, x in zip(vertices, xs) if (x <= xs).all(axis=1).sum() == 1]
    return VirtualResourceSet(vertices=vertices, maximal=maximal)


def verify_vertex(model: NetworkModel, xi: Sequence[Fraction]) -> bool:
    """Post-hoc check: xi is feasible and has N independent tight constraints."""
    pis = _schedule_rows(model)
    n = model.n_queues
    xi = fraction_vector(xi)
    if any(v < 0 for v in xi):
        return False
    tight = [[Fraction(int(k == q)) for k in range(n)] for q in range(n) if xi[q] == 0]
    rhs = [Fraction(0)] * len(tight)
    for pi in pis:
        val = sum(p * v for p, v in zip(pi, xi))
        if val > 1:
            return False
        if val == 1:
            tight.append(list(pi))
            rhs.append(Fraction(1))
    # independent tight rows pin xi down: it is their unique solution
    return bool(tight) and solve_square(tight, rhs) is not None


def critically_loaded(
    model: NetworkModel, lam, vrs: VirtualResourceSet, tol: float = 0.0
) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]]]:
    """(Xi(lam), Xi+(lam)): maximal resp. all dual vertices with xi.lam = 1.

    Exact equality filtering; pass ``tol`` > 0 only for irrational float
    rates, in which case membership is approximate by construction.
    """
    lam = fraction_vector(lam)

    def loaded(xi) -> bool:
        v = sum(a * b for a, b in zip(xi, lam))
        if tol == 0.0:
            return v == 1
        return abs(float(v) - 1.0) <= tol

    clvr = [xi for xi in vrs.maximal if loaded(xi)]
    clvr_plus = [xi for xi in vrs.vertices if loaded(xi)]
    return clvr, clvr_plus


def complete_loading_check(
    model: NetworkModel, lam, vrs: VirtualResourceSet
) -> tuple[bool, Optional[list[Fraction]]]:
    """Is 1/(max_pi 1.pi) in the convex hull of Xi(lam)?

    Returns (True, convex weights over Xi(lam) in canonical vertex order)
    or (False, None). Exact LP feasibility over rationals.
    """
    clvr, _ = critically_loaded(model, lam, vrs)
    if not clvr:
        return False, None
    n = model.n_queues
    denom = max(sum(fraction_vector(pi)) for pi in model.schedules.as_array)
    target = [Fraction(1) / denom] * n
    k = len(clvr)
    a_eq = [[clvr[j][q] for j in range(k)] for q in range(n)]
    a_eq.append([Fraction(1)] * k)
    b_eq = target + [Fraction(1)]
    res = solve_lp([Fraction(0)] * k, a_eq=a_eq, b_eq=b_eq)
    if res.status != "optimal":
        return False, None
    return True, res.x


def hull_membership(model: NetworkModel, sigma, dominated: bool = False) -> bool:
    """Exact membership of sigma in the convex hull of the schedule set.

    With ``dominated=True``, tests sigma <= some hull point componentwise
    instead (the admissible-region predicate).
    """
    pis = _schedule_rows(model)
    sigma = fraction_vector(sigma)
    n, ns = model.n_queues, len(pis)
    if dominated:
        # sum a_pi pi >= sigma, sum a = 1, a >= 0
        a_ub = [[-pis[s][q] for s in range(ns)] for q in range(n)]
        b_ub = [-sigma[q] for q in range(n)]
        res = solve_lp(
            [Fraction(0)] * ns,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=[[Fraction(1)] * ns],
            b_eq=[Fraction(1)],
        )
    else:
        a_eq = [[pis[s][q] for s in range(ns)] for q in range(n)]
        a_eq.append([Fraction(1)] * ns)
        b_eq = list(sigma) + [Fraction(1)]
        res = solve_lp([Fraction(0)] * ns, a_eq=a_eq, b_eq=b_eq)
    return res.status == "optimal"
