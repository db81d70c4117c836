"""Dense two-phase simplex for the small LPs used throughout the package.

Every program solved here has a handful of variables and rows, so a plain
tableau method with Bland's rule is adequate, dependency-free, and
reproducible across platforms (its ratio test compares within ``_TOL``, so it
can cycle; see ``_MAX_PIVOTS``). No pivot element is at or below
``_PIVOT_TOL``: on these programs such entries are round-off of zeros.
Variables are implicitly nonnegative; callers split free variables into
positive and negative parts.

A ``<=`` row with a nonnegative right-hand side starts with its slack basic;
only flipped ``<=`` rows and equality rows get an artificial, and phase 1 runs
only when one does. A caller that knows a vertex of a program with one
equality row names its column as ``start`` instead: one crash pivot puts it
in that row, every ``<=`` row keeps its slack and no row is flipped, so no
artificial is built and phase 2 runs alone. The tableau's last row holds the
reduced costs: each phase sets it once, and each pivot's one broadcast update
carries it with the basic rows. The programs are small enough that NumPy's
per-call cost outweighs the arithmetic, so the basis is a list of column
indices, and each pivot reads the reduced costs, the entering column and the
right-hand side once each as lists: the entering scan and the ratio test run
on those lists, the latter only over the rows with a positive entry in the
entering column; the floating-point operations are those of the array form.
At the optimum, the square basic system of the rows not found redundant is
solved again against the original data. Its solution is kept only if it is
nonnegative and meets every original row within ``_POINT_TOL``; otherwise the
tableau's point stands. The pivots run with NumPy set to raise on overflow
and NaN, so data near the float range is refused, not answered from an
overflowed tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reduced-cost optimality tolerance, and the ratio test's tie tolerance. No
# tolerance of this module follows ``--tol``.
_TOL = 1e-10
# Pivot elements at or below this are treated as 0: the ratio test takes only
# rows whose entering-column entry exceeds it, and a leftover artificial is
# driven out only on a larger entry. Round-off of a zero reaches 1e-9 on the
# block LPs; a pivot on it blows the tableau up, after which the simplex can
# stop "optimal" at a point that breaks its constraints.
_PIVOT_TOL = 1e-8
# Phase-1 objective above this means the program is infeasible.
_FEAS_TOL = 1e-8
# How far an optimal point may miss its rows or signs, in their own units
# (mass and payoff on the block LPs): _refine keeps a re-solved point within
# it, and the block witness decoders absorb rounding up to it.
_POINT_TOL = 1e-7
# Pivots allowed in one simplex run. The ratio test compares within _TOL, so
# Bland's rule no longer rules out cycling. The most pivots measured in one
# run: 73 in the tests; in the benchmark's workloads (10 passes at seeds 1 to
# 11), 100 on game_files' 5x5 games, its largest, 46 at 4x4, 24 at 3x3 and 5
# on its fixtures, statics_sweep and sim_paths; and 322 on random 12x12 games.
# No random 7x7 to 16x16 game tried (default_rng(4)) came near this cap. Yet
# decompose_target's membership LP reaches it on two of the wide games of
# ``scripts/cli_digest.py --games wide`` (wide_00_9x9_uniform and
# wide_04_8x8_uniform), so in-set-a refuses the frequency program's own
# witnesses there.
_MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> str:
    """Minimize cost over the tableau in place. Returns "optimal" or "unbounded".

    The last row is set once to the reduced costs ``cost - cost[basis] @ T``
    (minus the objective in its last entry); each pivot then carries it along
    with the basic rows. ``basis`` lists the basic variable of each row and is
    updated in place.

    Raises ``RuntimeError`` when the run would take more than ``_MAX_PIVOTS`` pivots.
    """
    body, reduced, rhs = tableau[:-1], tableau[-1, :-1], tableau[:-1, -1]
    tableau[-1] = cost - cost[basis] @ body
    for pivots in range(_MAX_PIVOTS + 1):
        for entering, d in enumerate(reduced.tolist()):  # Bland: smallest eligible index
            if d < -_TOL:
                break
        else:
            return "optimal"
        col = body[:, entering].tolist()
        rows = [r for r, v in enumerate(col) if v > _PIVOT_TOL]
        if not rows:
            return "unbounded"
        if pivots == _MAX_PIVOTS:
            break
        b = rhs.tolist()
        ratio = np.inf
        leaving = -1
        for r in rows:
            t = b[r] / col[r]
            if t < ratio - _TOL or (t < ratio + _TOL and (leaving < 0 or basis[r] < basis[leaving])):
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
    a = np.array(a, dtype=float, copy=None, ndmin=2)
    b = np.array(b, dtype=float, copy=None, ndmin=1)
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
    start: int | None = None,
) -> LPResult:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, ``x >= 0``.

    ``start`` names a column that, pivoted into the single equality row with
    every ``<=`` row's slack basic and no row flipped, gives a feasible basis:
    the simplex then builds no artificials and runs phase 2 alone from there.

    Raises ``ValueError`` when a matrix comes without its right-hand side (or
    the reverse), when the shapes disagree, when any entry is not finite,
    when ``start`` is given for a program without exactly one equality row or
    its pivot leaves a right-hand side negative, or when a pivot overflows or
    makes a NaN, as on data near the float range.
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
    # Without a start, a row with b < 0 is flipped. A <= row with b >= 0 starts
    # with its slack basic; every other row (a flipped <= row or an equality)
    # starts with an artificial. A start flips no row and needs no artificial.
    if start is None:
        flipped = [i for i, b in enumerate(b_ub.tolist() + b_eq.tolist()) if b < 0]
        art_rows = [i for i in flipped if i < n_ub] + list(range(n_ub, m))
    elif m - n_ub != 1 or not 0 <= start < n:
        raise ValueError(f"a start needs one equality row and a column in [0, {n}), got {m - n_ub} rows and {start}")
    else:
        flipped = art_rows = []
    n_art = len(art_rows)

    # Rows 0..m-1 are the constraints in standard form; the last row holds the
    # reduced costs, and holds c until the first phase sets them.
    width = k + n_art + 1
    tableau = np.zeros((m + 1, width))
    tableau[:n_ub, :n] = a_ub
    tableau[n_ub:m, :n] = a_eq
    tableau[:n_ub, -1] = b_ub
    tableau[n_ub:m, -1] = b_eq
    tableau[m, :n] = c
    if not np.isfinite(tableau).all():
        raise ValueError("LP data must be finite")
    # Entry (i, j + i) of the tableau is entry j + i * (width + 1) of its flat view.
    tableau.reshape(-1)[n : n_ub * (width + 1) : width + 1] = 1.0  # slack i in row i
    body = tableau[:m]
    for r in flipped:  # make b >= 0
        np.negative(body[r], out=body[r])
    a_std = body[:, :k].copy()  # pre-pivot copy for the refinement step
    b_std = body[:, -1].copy()
    basis = list(range(n, n + m))
    for a, r in enumerate(art_rows, start=k):
        basis[r] = a
        tableau[r, a] = 1.0
    # The pivots below raise on overflow or NaN; _refine sets its own error state.
    try:
        with np.errstate(over="raise", invalid="raise"):
            if start is not None:  # the crash pivot, which makes ``start`` basic in the equality row
                if not body[-1, start] > _PIVOT_TOL:
                    raise ValueError(f"start column {start} has no positive entry in the equality row")
                _pivot(tableau, basis, m - 1, start)
                if body[:, -1].min() < 0.0:
                    raise ValueError(f"start column {start} leaves a negative right-hand side")

            kept = slice(None)  # the original rows not found redundant in phase 1
            cost = np.zeros(width)
            if n_art:
                # Phase 1 minimizes the sum of the artificials.
                cost[k:-1] = 1.0
                status = _run_simplex(tableau, basis, cost)
                if status != "optimal":
                    raise RuntimeError(f"phase-1 LP returned {status!r}; it is always bounded below by 0")
                left = [r for r, v in enumerate(basis) if v >= k]  # rows whose artificial is still basic
                if left and tableau[left, -1].sum() > _FEAS_TOL:
                    return LPResult("infeasible")

                # Drive leftover artificials out of the basis; drop redundant rows.
                redundant = []
                for r in left:
                    movable = np.abs(tableau[r, :k]) > _PIVOT_TOL
                    j = int(movable.argmax())
                    if movable[j]:
                        _pivot(tableau, basis, r, j)
                    else:
                        redundant.append(r)
                if redundant:
                    # A row's leftover artificial names the original row it made redundant.
                    dropped = {art_rows[basis[r] - k] for r in redundant}
                    kept = [i for i in range(m) if i not in dropped]
                    tableau = np.delete(tableau, redundant, axis=0)
                    basis = [v for r, v in enumerate(basis) if r not in redundant]
                tableau[:, k:-1] = 0.0  # artificials are dead from here on
                cost[k:-1] = 0.0

            cost[:n] = c
            if _run_simplex(tableau, basis, cost) == "unbounded":
                return LPResult("unbounded")
    except FloatingPointError as err:
        raise ValueError(f"LP pivots overflowed the float range ({err})") from err

    x = np.zeros(k)
    x[basis] = _refine(tableau[:-1, -1], basis, a_std, b_std, kept)
    sol = np.maximum(x[:n], 0.0)
    return LPResult("optimal", sol, float(c @ sol))


def _refine(
    xb: np.ndarray, basis: list[int], a_std: np.ndarray, b_std: np.ndarray, kept: slice | list[int]
) -> np.ndarray:
    """Re-solve the final basic system against the original data.

    The basis columns of the ``kept`` rows form a square system. Solving it
    kills the rounding accumulated by tableau pivots. The solution is kept only
    when both checks below hold, so a NaN, which fails every comparison, is
    never kept; otherwise the tableau's basic values ``xb`` are returned
    unchanged.
    """
    cols = a_std[:, basis]
    try:
        refined = np.linalg.solve(cols[kept], b_std[kept])
    except np.linalg.LinAlgError:
        return xb
    if refined.min(initial=0.0) >= -_POINT_TOL and abs(cols @ refined - b_std).max(initial=0.0) <= _POINT_TOL:
        return refined
    return xb
