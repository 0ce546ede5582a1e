"""MILP solver substrate for KnapsackLB.

The paper's prototype uses COIN-OR CBC through PuLP; this package provides
the same capability through interchangeable backends:

* ``mckp`` — the problem without θ is a multiple-choice knapsack; LP
  relaxation by one sort plus an expanding-core dynamic program (numpy, with
  the DP's stage loop compiled in :func:`repro.kernels.expand_core`),
  certified to a 1e-4 gap and bounded by a state budget instead of the clock
  (:mod:`repro.solver.mckp`);
* ``scipy`` — :func:`scipy.optimize.milp` (HiGHS), the generic exact solver
  and the only fast one that takes a finite θ;
* ``branch_and_bound`` — a pure-Python exact solver (no SciPy needed, and its
  node counter is useful for scaling studies);
* ``greedy`` — a fast marginal-cost heuristic with local search;
* ``dp`` — a pseudo-polynomial dynamic program over a fixed weight grid.

Use :func:`solve` to dispatch by backend name; it imports only the backend
it dispatches to.  ``"auto"`` picks ``mckp`` whenever θ is unset (every
problem the controller builds by default); a finite θ couples the DIPs and
is not a knapsack, so there ``auto`` picks scipy and falls back to
branch-and-bound if SciPy is not installed.
"""

from __future__ import annotations

import functools
import importlib.util
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.core.config import SOLVER_BACKENDS
from repro.exceptions import ConfigurationError
from repro.solver.result import SolveStatus

if TYPE_CHECKING:
    from repro.solver.assignment import AssignmentProblem
    from repro.solver.dp import SolveCache
    from repro.solver.result import SolveResult

__getattr__, __dir__, _exports = lazy_exports(
    __name__,
    {
        "repro.solver.assignment": (
            "AssignmentProblem",
            "DipCandidates",
            "uniform_weight_grid",
        ),
        "repro.solver.branch_and_bound": ("solve_branch_and_bound",),
        "repro.solver.dp": ("SolveCache", "solve_dp"),
        "repro.solver.greedy": ("solve_greedy",),
        "repro.solver.mckp": ("solve_mckp",),
        "repro.solver.result": ("SolveResult", "SolveStatus"),
    },
)
__all__ = [*_exports, "available_backends", "solve", "solve_scipy"]


@functools.cache
def _scipy_installed() -> bool:
    """Whether SciPy can be imported, asked without importing it.

    HiGHS costs about half a second to load, so the package answers
    ``available_backends()`` and ``backend="auto"`` from the import system's
    finder and leaves the import to the first :func:`solve_scipy` call.
    """
    return importlib.util.find_spec("scipy") is not None


def solve_scipy(problem: AssignmentProblem, **kwargs) -> SolveResult:
    """Solve with the SciPy/HiGHS backend (raises if SciPy is unavailable)."""
    try:
        from repro.solver.scipy_backend import solve_scipy as _solve
    except ImportError as error:
        raise ConfigurationError("SciPy MILP backend is not available") from error
    return _solve(problem, **kwargs)


def available_backends() -> tuple[str, ...]:
    """Names :func:`solve` can run here, in preference order for ``auto``."""
    return tuple(
        name
        for name in SOLVER_BACKENDS
        if name != "auto" and (name != "scipy" or _scipy_installed())
    )


def solve(
    problem: AssignmentProblem,
    *,
    backend: str = "auto",
    time_limit_s: float | None = None,
    cache: SolveCache | None = None,
    **kwargs,
) -> SolveResult:
    """Solve ``problem`` with the requested backend.

    ``backend="auto"`` uses ``mckp`` when ``problem.theta`` is ``None``.
    With a finite θ it uses SciPy/HiGHS when present and otherwise the
    pure-Python branch-and-bound.

    ``cache`` memoizes solved problems across calls (see
    :class:`~repro.solver.dp.SolveCache`): an unchanged problem — e.g. a
    fleet VIP whose measured curves did not move between control rounds —
    returns its previous assignment without re-solving.  What may be stored
    differs by backend.  ``mckp`` and ``dp`` are functions of the problem
    (``dp`` also of its grid resolution) and store every outcome under their
    own token, except an ``mckp`` result cut by ``time_limit_s``; the others
    store only ``OPTIMAL`` / ``INFEASIBLE``, under a token that carries the
    time limit.
    """
    if backend == "auto":
        if problem.theta is None:
            backend = "mckp"
        else:
            backend = "scipy" if _scipy_installed() else "branch_and_bound"

    if backend == "mckp":
        from repro.solver.mckp import solve_mckp

        return solve_mckp(problem, time_limit_s=time_limit_s, cache=cache, **kwargs)
    if backend == "dp":
        from repro.solver.dp import solve_dp

        return solve_dp(problem, time_limit_s=time_limit_s, cache=cache, **kwargs)
    # The token carries the time limit and every backend-specific parameter
    # so differently configured solves of the same problem never alias.
    token = (backend, time_limit_s, tuple(sorted(kwargs.items())))
    if cache is not None:
        cached = cache.get(problem, token)
        if cached is not None:
            return cached
    if backend == "scipy":
        result = solve_scipy(problem, time_limit_s=time_limit_s, **kwargs)
    elif backend == "branch_and_bound":
        from repro.solver.branch_and_bound import solve_branch_and_bound

        result = solve_branch_and_bound(problem, time_limit_s=time_limit_s, **kwargs)
    elif backend == "greedy":
        from repro.solver.greedy import solve_greedy

        result = solve_greedy(problem, time_limit_s=time_limit_s, **kwargs)
    else:
        raise ConfigurationError(
            f"unknown solver backend {backend!r}; expected one of {SOLVER_BACKENDS}"
        )
    if cache is not None and result.status in (
        SolveStatus.OPTIMAL,
        SolveStatus.INFEASIBLE,
    ):
        # FEASIBLE from these backends can mean a wall-clock-truncated
        # incumbent (b&b/HiGHS) or a deadline-bounded local search
        # (greedy); caching it would freeze a suboptimal assignment.
        cache.put(problem, token, result)
    return result
