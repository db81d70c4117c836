"""Dense two-phase simplex for the small LPs used throughout the package.

Every program solved here has a handful of variables and rows, so a plain
tableau method with Bland's rule (no cycling) is adequate, dependency-free,
and reproducible across platforms. Variables are implicitly nonnegative;
callers split free variables into positive and negative parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reduced-cost optimality tolerance; pivot elements below this are treated as 0.
_TOL = 1e-10
# Phase-1 objective above this means the program is infeasible.
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Minimize cost over the tableau in place. Returns "optimal" or "unbounded"."""
    m = tableau.shape[0]
    while True:
        # Reduced costs of the current basis.
        z = cost.copy()
        for r in range(m):
            if abs(cost[basis[r]]) > 0.0:
                z -= cost[basis[r]] * tableau[r, :-1]
        entering = -1
        for j in range(len(z)):  # Bland: smallest eligible index
            if z[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        ratio = np.inf
        leaving = -1
        for r in range(m):
            a = tableau[r, entering]
            if a > _TOL:
                t = tableau[r, -1] / a
                if t < ratio - _TOL or (t < ratio + _TOL and (leaving < 0 or basis[r] < basis[leaving])):
                    ratio = t
                    leaving = r
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LPResult:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, ``x >= 0``."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    n_ub = 0
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
        for i in range(n_ub):
            rows.append(a_ub[i])
            rhs.append(b_ub[i])
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        for i in range(a_eq.shape[0]):
            rows.append(a_eq[i])
            rhs.append(b_eq[i])
    m = len(rows)
    if m == 0:
        # Unconstrained over the nonnegative orthant.
        if np.any(c < -_TOL):
            return LPResult("unbounded")
        return LPResult("optimal", np.zeros(n), 0.0)

    # Standard form: slacks for the <= rows, then one artificial per row.
    a = np.zeros((m, n + n_ub + m))
    b = np.array(rhs, dtype=float)
    for i, row in enumerate(rows):
        a[i, :n] = row
        if i < n_ub:
            a[i, n + i] = 1.0
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    for i in range(m):
        a[i, n + n_ub + i] = 1.0

    a_std = a[:, : n + n_ub].copy()  # pre-pivot copy for the refinement step
    b_std = b.copy()

    tableau = np.hstack([a, b[:, None]])
    basis = np.array([n + n_ub + i for i in range(m)], dtype=int)

    phase1 = np.zeros(n + n_ub + m)
    phase1[n + n_ub :] = 1.0
    status = _run_simplex(tableau, basis, phase1)
    if status != "optimal":
        raise RuntimeError(f"phase-1 LP returned {status!r}; it is always bounded below by 0")
    if float(phase1[basis] @ tableau[:, -1]) > _FEAS_TOL:
        return LPResult("infeasible")

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n + n_ub:
            for j in range(n + n_ub):
                if abs(tableau[r, j]) > _TOL:
                    _pivot(tableau, basis, r, j)
                    break
            else:
                keep[r] = False
    tableau = tableau[keep]
    basis = basis[keep]
    tableau[:, n + n_ub : -1] = 0.0  # artificials are dead from here on

    cost = np.zeros(n + n_ub + m)
    cost[:n] = c
    status = _run_simplex(tableau, basis, cost)
    if status == "unbounded":
        return LPResult("unbounded")

    x = np.zeros(n + n_ub)
    for r, col in enumerate(basis):
        x[col] = tableau[r, -1]

    x = _refine(x, basis, a_std, b_std)
    sol = np.maximum(x[:n], 0.0)
    return LPResult("optimal", sol, float(c @ sol))


def _refine(x: np.ndarray, basis: np.ndarray, a_std: np.ndarray, b_std: np.ndarray) -> np.ndarray:
    """Re-solve the final basic system against the original data.

    Kills the rounding accumulated by tableau pivots; on failure the tableau
    solution is returned unchanged.
    """
    cols = a_std[:, basis]
    try:
        xb, residual, rank, _ = np.linalg.lstsq(cols, b_std, rcond=None)
    except np.linalg.LinAlgError:
        return x
    if rank < len(basis):
        return x
    if np.any(xb < -1e-7) or np.max(np.abs(cols @ xb - b_std)) > 1e-7:
        return x
    out = np.zeros_like(x)
    out[basis] = np.maximum(xb, 0.0)
    return out
