"""MILP backend built on :func:`scipy.optimize.milp` (HiGHS).

This plays the role of COIN-OR CBC + PuLP in the paper's prototype: an
off-the-shelf exact solver for the Fig. 7 ILP.

HiGHS satisfies constraints to its feasibility tolerance, not exactly: an
``OPTIMAL`` selection may sum to just outside the band (seen at 58 DIPs:
Σw = L − 6.3e-7, with an objective 1.1e-5 below that of any selection inside
it).  Compare its objectives with another backend's on a band widened by
1e-6.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.solver.assignment import AssignmentProblem
from repro.solver.result import SolveResult, SolveStatus

_BACKEND_NAME = "scipy"


def solve_scipy(
    problem: AssignmentProblem,
    *,
    time_limit_s: float | None = None,
    mip_rel_gap: float = 1e-6,
) -> SolveResult:
    """Solve the weight-assignment ILP with HiGHS.

    Variables are the booleans ``X_{d,w}`` flattened in DIP order.  The
    constraints mirror Fig. 7:

    (a) one candidate per DIP,
    (b) total weight within the tolerance band around the target,
    (c)/(d) optional imbalance bound via auxiliary ``ymax``/``ymin``
        continuous variables.
    """
    start = time.perf_counter()

    num_x = problem.num_variables
    has_theta = problem.theta is not None
    # Variable layout: [X_{d,w} ...] (+ [ymax, ymin] when theta is bounded).
    num_vars = num_x + (2 if has_theta else 0)

    costs = np.zeros(num_vars)
    integrality = np.zeros(num_vars)
    lower = np.zeros(num_vars)
    upper = np.ones(num_vars)

    offsets: list[int] = []
    pos = 0
    for cand in problem.dips:
        offsets.append(pos)
        for j in range(cand.count):
            costs[pos + j] = cand.latencies_ms[j]
            integrality[pos + j] = 1
        pos += cand.count

    if has_theta:
        ymax_idx, ymin_idx = num_x, num_x + 1
        upper[ymax_idx] = 1.0
        upper[ymin_idx] = 1.0

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lbs: list[float] = []
    ubs: list[float] = []
    row = 0

    # (a) exactly one candidate per DIP.
    for d, cand in enumerate(problem.dips):
        for j in range(cand.count):
            rows.append(row)
            cols.append(offsets[d] + j)
            vals.append(1.0)
        lbs.append(1.0)
        ubs.append(1.0)
        row += 1

    # (b) total chosen weight within the tolerance band.
    for d, cand in enumerate(problem.dips):
        for j in range(cand.count):
            rows.append(row)
            cols.append(offsets[d] + j)
            vals.append(cand.weights[j])
    lbs.append(problem.total_weight - problem.total_weight_tolerance)
    ubs.append(problem.total_weight + problem.total_weight_tolerance)
    row += 1

    if has_theta:
        # (d) ymax >= chosen weight of every DIP, ymin <= chosen weight.
        for d, cand in enumerate(problem.dips):
            for j in range(cand.count):
                rows.append(row)
                cols.append(offsets[d] + j)
                vals.append(cand.weights[j])
            rows.append(row)
            cols.append(ymax_idx)
            vals.append(-1.0)
            lbs.append(-np.inf)
            ubs.append(0.0)
            row += 1

            for j in range(cand.count):
                rows.append(row)
                cols.append(offsets[d] + j)
                vals.append(cand.weights[j])
            rows.append(row)
            cols.append(ymin_idx)
            vals.append(-1.0)
            lbs.append(0.0)
            ubs.append(np.inf)
            row += 1

        # (c) ymax - ymin <= theta.
        rows.extend([row, row])
        cols.extend([ymax_idx, ymin_idx])
        vals.extend([1.0, -1.0])
        lbs.append(-np.inf)
        ubs.append(float(problem.theta))
        row += 1

    matrix = csr_matrix((vals, (rows, cols)), shape=(row, num_vars))
    constraints = LinearConstraint(matrix, np.array(lbs), np.array(ubs))
    bounds = Bounds(lower, upper)

    options: dict[str, float] = {"mip_rel_gap": mip_rel_gap}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)

    result = milp(
        c=costs,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    elapsed = time.perf_counter() - start

    if result.x is None:
        status = (
            SolveStatus.TIMEOUT
            if time_limit_s is not None and elapsed >= time_limit_s * 0.95
            else SolveStatus.INFEASIBLE
        )
        return SolveResult(status=status, solve_time_s=elapsed, backend=_BACKEND_NAME)

    selection: dict[str, int] = {}
    for d, cand in enumerate(problem.dips):
        values = result.x[offsets[d] : offsets[d] + cand.count]
        selection[cand.dip] = int(np.argmax(values))

    weights = problem.weights_of(selection)
    objective = problem.objective_of(selection)
    status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
    return SolveResult(
        status=status,
        objective_ms=objective,
        weights=weights,
        selection=selection,
        solve_time_s=elapsed,
        backend=_BACKEND_NAME,
        overloaded_dips=problem.overloaded_dips(weights),
    )
