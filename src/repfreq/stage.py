"""Stage-game analysis: best replies, Stackelberg quantities, payoff bounds.

Player 1's minmax against rationalizable myopic opponents and the cap v-bar
of Fudenberg, Kreps and Maskin (1990) read one table of support pairs, built
without an LP. Let P_b be the mixed actions alpha to which b is a best reply.
For a player-1 face T and a player-2 support S containing b, the alphas on T
to which every action in S is a best reply are P_b with some of its
inequalities (alpha_i >= 0 off T, the ties with the rest of S) held as
equalities: a face of P_b. A nonempty face of a polytope holds one of its
vertices, so the pair (T, S) is feasible exactly when some vertex v of some
P_b has supp(v) in T and S in BR(v), the replies tied at v.

- v-bar is the largest, over feasible pairs, of max over beta on S of
  min over a in T of u1(a, beta). That value rises as T shrinks or S grows,
  so the pairs (supp v, BR v) attain it, and a pair dominated by another
  (support no smaller, replies no larger) can be dropped.
- The minmax is the least, over rationalizable supports S, of min over beta
  on S of max over a of u1(a, beta), which falls as S grows. The
  rationalizable supports are the subsets of the sets BR(v), so the maximal
  BR(v) attain it.

The table holds the undominated pairs, from every vertex of every P_b; one
max-min LP per pair gives the value, and none is solved where a pure saddle
point or a pure bound settles it. The vertex count is exponential in the
number of actions, which is fine at desk scale (six or fewer per side).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .game import MixedAction, StageGame
from .linprog import solve_lp

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class StackelbergResult:
    """Optimal pure commitment action and its worst-case reply payoff."""

    a_star: str
    b_star: str
    v_star: float
    unique_action: bool
    unique_reply: bool

    @property
    def unique(self) -> bool:
        return self.unique_action and self.unique_reply


@dataclass(frozen=True)
class AssumptionReport:
    a1_unique_stackelberg: bool
    a1_unique_reply: bool
    a2_not_best_reply: bool
    a2_above_minmax: bool
    minmax: float

    @property
    def satisfied(self) -> bool:
        return (
            self.a1_unique_stackelberg
            and self.a1_unique_reply
            and self.a2_not_best_reply
            and self.a2_above_minmax
        )


def _tied(values: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the entries within ``tol`` of the largest in their row: every best-reply tie rule.

    Raises ``ValueError`` when ``tol`` is negative or NaN, which would leave a
    row with no best entry.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return values >= values.max(axis=-1, keepdims=True) - tol


def _best(values: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the best entries of a vector, by the :func:`_tied` rule."""
    return _tied(values, tol).nonzero()[0]


def best_replies_p2(game: StageGame, alpha: MixedAction, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """All player-2 actions within ``tol`` of the best payoff against ``alpha``."""
    return tuple(game.actions2[j] for j in _best(alpha.as_vector(game.actions1) @ game.u2, tol))


def _pure_best_replies_p1(game: StageGame, b: str, tol: float) -> tuple[str, ...]:
    return tuple(game.actions1[i] for i in _best(game.u1[:, game.b_index(b)], tol))


def _worst_replies(game: StageGame, tol: float) -> np.ndarray:
    """Player 1's worst best reply to each of its pure actions, the lowest index on ties.

    Row i's best replies are its :func:`_tied` entries of u2; of those, the
    first with the least u1 is taken.
    """
    return np.where(_tied(game.u2, tol), game.u1, np.inf).argmin(axis=1)


def stackelberg(game: StageGame, tol: float = DEFAULT_TOL) -> StackelbergResult:
    """Enumerate pure commitments; ties are reported, never broken silently.

    Each pure action is valued at its worst best reply (:func:`_worst_replies`).
    """
    worst = _worst_replies(game, tol)
    candidates = _best(game.u1[np.arange(len(worst)), worst], tol)
    i_star = int(candidates[0])
    j_star = int(worst[i_star])
    return StackelbergResult(
        a_star=game.actions1[i_star],
        b_star=game.actions2[j_star],
        v_star=float(game.u1[i_star, j_star]),
        unique_action=len(candidates) == 1,
        unique_reply=len(_best(game.u2[i_star], tol)) == 1,
    )


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` scaled to unit length, rows of zeros dropped."""
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0.0
    return rows[keep] / norms[keep, None]


def _simplex_vertices(eq: np.ndarray, ineq: np.ndarray) -> np.ndarray:
    """Vertices of {alpha in the simplex : eq @ alpha = 0, ineq @ alpha >= 0}, one per row.

    A vertex is where n independent constraints bind: the simplex sum, a basis
    of the ``eq`` rows, and as many inequalities (``alpha >= 0`` among them) as
    are still needed. Every choice of those inequalities is solved in one
    batch. Rows have unit length, so the tolerances do not depend on the
    payoff scale.
    """
    n = eq.shape[1]
    eq = _unit_rows(eq)
    if len(eq) > 1:  # an orthonormal basis in place of rows that may be dependent
        _, sing, vt = np.linalg.svd(eq)
        eq = vt[: np.count_nonzero(sing > DEFAULT_TOL)]
    need = n - 1 - len(eq)
    if need < 0:
        return np.empty((0, n))
    ineq = np.vstack([_unit_rows(ineq), np.eye(n)])
    choices = list(combinations(range(len(ineq)), need))
    systems = np.empty((len(choices), n, n))
    systems[:, 0] = n**-0.5
    systems[:, 1 : n - need] = eq
    systems[:, n - need :] = ineq[np.array(choices, dtype=np.intp).reshape(len(choices), need)]
    systems = systems[np.abs(np.linalg.det(systems)) > 1e-12]  # drop choices of dependent rows
    rhs = np.zeros((len(systems), n, 1))
    rhs[:, 0] = n**-0.5
    points = np.linalg.solve(systems, rhs)[..., 0]
    return points[np.all(points @ ineq.T >= -DEFAULT_TOL, axis=1)]


def _maximal(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a boolean matrix that no other row contains."""
    rows = np.unique(rows, axis=0)
    contains = (rows[:, None] >= rows).all(axis=2)
    np.fill_diagonal(contains, False)
    return rows[~contains.any(axis=0)]


def _reply_table(game: StageGame) -> tuple[np.ndarray, np.ndarray]:
    """The undominated (supp v, BR v) pairs over the vertices v of every P_b,
    as boolean rows over player 1's and player 2's actions."""
    return _reply_table_of(game.u2.tobytes(), game.u2.shape)


@lru_cache(maxsize=16)
def _reply_table_of(data: bytes, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    u2 = np.frombuffer(data).reshape(shape)
    n_a = shape[0]
    pairs = []
    for j in range(shape[1]):
        diff = u2[:, j, None] - u2  # column k: u2(., b_j) - u2(., b_k)
        vertices = _simplex_vertices(np.empty((0, n_a)), diff.T)
        replies = vertices @ diff <= DEFAULT_TOL * np.linalg.norm(diff, axis=0)
        pairs.append(np.hstack([vertices <= DEFAULT_TOL, replies]))
    # A pair dominates another when its row (actions off the support, then
    # replies) contains the other's.
    pairs = _maximal(np.vstack(pairs))
    table = ~pairs[:, :n_a], pairs[:, n_a:]
    for part in table:
        part.setflags(write=False)  # shared by every caller of the cache
    return table


def _maxmin(pay: np.ndarray) -> float:
    """Max over beta in the simplex of the smallest entry of ``pay @ beta``."""
    lower, upper = pay.min(axis=0).max(), pay.max(axis=1).min()
    if lower >= upper:  # a pure saddle point
        return float(lower)
    m, k = pay.shape
    # Variables: beta, then the value t split as t+ - t-; maximize t => minimize -t.
    c = np.zeros(k + 2)
    c[k] = -1.0
    c[k + 1] = 1.0
    a_ub = np.hstack([-pay, np.ones((m, 1)), -np.ones((m, 1))])
    res = solve_lp(c, a_ub=a_ub, b_ub=np.zeros(m), a_eq=np.r_[np.ones(k), 0.0, 0.0], b_eq=np.ones(1))
    if not res.optimal:
        raise RuntimeError("max-min LP must be feasible and bounded")
    return -res.value


def _largest_maxmin(blocks: list[np.ndarray]) -> float:
    """The largest ``_maxmin`` over ``blocks``. A block's value is at most its
    least row maximum, so blocks are taken in falling order of that bound and
    the scan stops once the bound cannot beat the best value found."""
    best = -np.inf
    for block in sorted(blocks, key=lambda block: block.max(axis=1).min(), reverse=True):
        if block.max(axis=1).min() <= best:
            break
        best = max(best, _maxmin(block))
    return best


def minmax_p1(game: StageGame) -> float:
    """Worst payoff rationalizable myopic opponents can hold player 1 to.

    The least, over the maximal reply sets S of the vertex table, of the min
    over beta on S of max over a of u1(a, beta).
    """
    return -_largest_maxmin([-game.u1[:, s] for s in _maximal(_reply_table(game)[1])])


def vbar_p1(game: StageGame) -> float:
    """Highest payoff supportable with myopic opponents best-replying.

    The largest, over the vertex table's pairs (T, S), of the max over beta
    on S of min over a in T of u1(a, beta). The module docstring says why
    those pairs suffice.
    """
    supports, replies = _reply_table(game)
    return _largest_maxmin([game.u1[np.ix_(t, s)] for t, s in zip(supports, replies)])


def check_assumptions(game: StageGame, tol: float = DEFAULT_TOL) -> AssumptionReport:
    stack = stackelberg(game, tol)
    not_br = stack.a_star not in _pure_best_replies_p1(game, stack.b_star, tol)
    mm = minmax_p1(game)
    return AssumptionReport(
        a1_unique_stackelberg=stack.unique_action,
        a1_unique_reply=stack.unique_reply,
        a2_not_best_reply=not_br,
        a2_above_minmax=stack.v_star > mm + tol,
        minmax=mm,
    )


def _require_order(game: StageGame, which: str) -> tuple[str, ...]:
    order = getattr(game, which)
    if order is None:
        raise ValueError(f"game has no {which}; action orders are user-supplied, not inferred")
    return order


def is_monotone_supermodular(game: StageGame, tol: float = DEFAULT_TOL) -> bool:
    """True iff u1 strictly falls along the player-1 order for every opposing
    action and u2 has strictly increasing differences under both orders.

    Checking consecutive pairs suffices: strictness telescopes.
    """
    order1 = _require_order(game, "order1")
    order2 = _require_order(game, "order2")
    idx1 = [game.a_index(a) for a in order1]
    idx2 = [game.b_index(b) for b in order2]
    for hi, lo in zip(idx1, idx1[1:]):
        if not np.all(game.u1[hi] < game.u1[lo] - tol):
            return False
    for hi, lo in zip(idx1, idx1[1:]):
        diff = game.u2[hi] - game.u2[lo]
        for bh, bl in zip(idx2, idx2[1:]):
            if not diff[bh] > diff[bl] + tol:
                return False
    return True


def lowest_pair(game: StageGame, tol: float = DEFAULT_TOL) -> tuple[str, str]:
    """Lowest-ranked player-1 action and its player-1-best reply."""
    order1 = _require_order(game, "order1")
    a_low = order1[-1]
    i = game.a_index(a_low)
    j_low = max(_best(game.u2[i], tol), key=lambda j: (game.u1[i, j], -j))
    return a_low, game.actions2[j_low]
