"""Dense two-phase simplex for the small LPs used throughout the package.

Every program solved here has a handful of variables and rows, so a plain
tableau method with Bland's rule is adequate, dependency-free, and
reproducible across platforms (its ratio test compares within ``_TOL``, so it
can cycle; see ``_MAX_PIVOTS``). No pivot element is at or below
``_PIVOT_TOL``: on these programs such entries are round-off of zeros.
Variables are implicitly nonnegative; callers split free variables into
positive and negative parts.

The dense tableau is updated with whole-array operations: one broadcast update
per pivot, reduced costs from all basic rows at once, and a ratio test over
only the rows with a positive entry in the entering column. Bland's rule is
unchanged, and every entry rounds as in a row-by-row update, so the kernel
takes the same pivots and returns bitwise the same results as that loop
(kept as the test reference in ``tests/_reference_linprog.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reduced-cost optimality tolerance, and the ratio test's tie tolerance.
_TOL = 1e-10
# Pivot elements at or below this are treated as 0: the ratio test takes only
# rows whose entering-column entry exceeds it, and a leftover artificial is
# driven out only on a larger entry. Round-off of a zero reaches 1e-9 on the
# block LPs; a pivot on it blows the tableau up, after which the simplex can
# stop "optimal" at a point that breaks its constraints.
_PIVOT_TOL = 1e-8
# Phase-1 objective above this means the program is infeasible.
_FEAS_TOL = 1e-8
# Pivots allowed in one simplex run. The ratio test compares within _TOL, so
# Bland's rule no longer rules out cycling: some random 10x10 games reach this
# cap, while no run on the tests' or benchmark's games (6x6 at most) takes 86.
_MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    factor = tableau[:, col, None]
    # Rows with a zero factor are left untouched, as in a row-by-row update.
    np.subtract(tableau, factor * pivot_row, out=tableau, where=factor != 0.0)
    tableau[row] = pivot_row
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Minimize cost over the tableau in place. Returns "optimal" or "unbounded".

    Raises ``RuntimeError`` when the run would take more than ``_MAX_PIVOTS`` pivots.
    """
    terms = np.empty((tableau.shape[0] + 1, tableau.shape[1] - 1))
    terms[0] = cost  # the accumulation below leaves this row as it is
    for pivots in range(_MAX_PIVOTS + 1):
        # Reduced costs of the current basis. The rows are subtracted in order,
        # so every entry rounds exactly as in a row-by-row update.
        np.multiply(cost[basis][:, None], tableau[:, :-1], out=terms[1:])
        z = np.subtract.accumulate(terms, out=terms)[-1]
        eligible = z < -_TOL
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            return "optimal"
        column = tableau[:, entering]
        rows = (column > _PIVOT_TOL).nonzero()[0].tolist()
        if not rows:
            return "unbounded"
        if pivots == _MAX_PIVOTS:
            break
        col, rhs, var = column.tolist(), tableau[:, -1].tolist(), basis.tolist()
        ratio = np.inf
        leaving = -1
        for r in rows:
            t = rhs[r] / col[r]
            if t < ratio - _TOL or (t < ratio + _TOL and (leaving < 0 or var[r] < var[leaving])):
                ratio = t
                leaving = r
        _pivot(tableau, basis, leaving, entering)
    raise RuntimeError(f"simplex made {_MAX_PIVOTS} pivots without finishing; the ratio test is cycling")


def _constraints(a, b, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block as a (rows, n) matrix and its right-hand side."""
    if a is None and b is None:
        return np.empty((0, n)), np.empty(0)
    if a is None or b is None:
        raise ValueError(f"a_{kind} and b_{kind} must be given together")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"a_{kind} must have rows of length {n}, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"b_{kind} must have {a.shape[0]} entries, got shape {b.shape}")
    return a, b


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LPResult:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, ``x >= 0``.

    Raises ``ValueError`` when a matrix comes without its right-hand side (or
    the reverse), when the shapes disagree, or when any entry is not finite.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"c must be a vector, got shape {c.shape}")
    n = c.shape[0]
    a_ub, b_ub = _constraints(a_ub, b_ub, n, "ub")
    a_eq, b_eq = _constraints(a_eq, b_eq, n, "eq")
    n_ub = a_ub.shape[0]
    m = n_ub + a_eq.shape[0]
    k = n + n_ub  # structural and slack columns; the artificials follow

    # Standard form: slacks for the <= rows, then one artificial per row.
    width = k + m + 1
    tableau = np.zeros((m, width))
    tableau[:n_ub, :n] = a_ub
    tableau[n_ub:, :n] = a_eq
    tableau[:n_ub, -1] = b_ub
    tableau[n_ub:, -1] = b_eq
    if not (np.isfinite(c).all() and np.isfinite(tableau).all()):
        raise ValueError("LP data must be finite")
    if m == 0:
        # Unconstrained over the nonnegative orthant.
        if np.any(c < -_TOL):
            return LPResult("unbounded")
        return LPResult("optimal", np.zeros(n), 0.0)
    # Entry (i, j + i) of the tableau is entry j + i * (width + 1) of its flat view.
    flat = tableau.reshape(-1)
    flat[n : n_ub * (width + 1) : width + 1] = 1.0  # slack i in row i
    np.negative(tableau, out=tableau, where=tableau[:, -1:] < 0)  # make b >= 0
    flat[k :: width + 1] = 1.0  # artificial i in row i

    a_std = tableau[:, :k].copy()  # pre-pivot copy for the refinement step
    b_std = tableau[:, -1].copy()
    basis = np.arange(k, k + m)

    phase1 = np.zeros(k + m)
    phase1[k:] = 1.0
    status = _run_simplex(tableau, basis, phase1)
    if status != "optimal":
        raise RuntimeError(f"phase-1 LP returned {status!r}; it is always bounded below by 0")
    if float(phase1[basis] @ tableau[:, -1]) > _FEAS_TOL:
        return LPResult("infeasible")

    # Drive leftover artificials out of the basis; drop redundant rows.
    redundant = []
    for r, var in enumerate(basis.tolist()):
        if var >= k:
            for j in range(k):
                if abs(tableau[r, j]) > _PIVOT_TOL:
                    _pivot(tableau, basis, r, j)
                    break
            else:
                redundant.append(r)
    if redundant:
        tableau = np.delete(tableau, redundant, axis=0)
        basis = np.delete(basis, redundant)
    tableau[:, k:-1] = 0.0  # artificials are dead from here on

    cost = np.zeros(k + m)
    cost[:n] = c
    status = _run_simplex(tableau, basis, cost)
    if status == "unbounded":
        return LPResult("unbounded")

    x = np.zeros(k)
    x[basis] = tableau[:, -1]

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
