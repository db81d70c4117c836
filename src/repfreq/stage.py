"""Stage-game analysis: best replies, Stackelberg quantities, payoff bounds.

All subset enumerations here are exponential in the number of actions, which
is fine at desk scale (six or fewer actions per side) and keeps every value
exact up to LP tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class BRPolytope:
    """Halfspace description of the mixed actions to which ``b`` best-replies.

    Rows of ``halfspaces`` are u2(.,b) - u2(.,b') for b' != b; alpha is in the
    polytope iff all rows dot alpha are nonnegative (and alpha is a simplex
    point, which the caller guarantees).
    """

    b: str
    halfspaces: np.ndarray

    def contains(self, alpha_vec: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        if self.halfspaces.size == 0:
            return True
        return bool(np.all(self.halfspaces @ alpha_vec >= -tol))


def br_polytope(game: StageGame, b: str) -> BRPolytope:
    j = game.b_index(b)
    cols = [game.u2[:, j] - game.u2[:, k] for k in range(len(game.actions2)) if k != j]
    return BRPolytope(b, np.array(cols, dtype=float))


def _stacked_reply_blocks(game: StageGame) -> tuple[np.ndarray, np.ndarray]:
    """Best-reply rows and payoff vector over stacked reply blocks.

    The variable stacks one block x_b = mass_b * alpha_b per reply, in reply
    order. ``cone @ x <= 0`` holds iff every block lies in the (homogeneous)
    best-reply cone of its reply, and ``pay @ x`` is player 1's payoff.
    """
    n_a = len(game.actions1)
    n_b = len(game.actions2)
    cone = np.zeros((n_b * (n_b - 1), n_a * n_b))
    for j, b in enumerate(game.actions2):
        rows = slice(j * (n_b - 1), (j + 1) * (n_b - 1))
        cone[rows, j * n_a : (j + 1) * n_a] = -br_polytope(game, b).halfspaces
    return cone, game.u1.T.flatten()


def best_replies_p2(game: StageGame, alpha: MixedAction, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """All player-2 actions within ``tol`` of the best payoff against ``alpha``."""
    for label in alpha.support():
        game.a_index(label)
    vals = alpha.as_vector(game.actions1) @ game.u2
    best = vals.max()
    return tuple(b for j, b in enumerate(game.actions2) if vals[j] >= best - tol)


def _pure_best_replies_p1(game: StageGame, b: str, tol: float) -> tuple[str, ...]:
    col = game.u1[:, game.b_index(b)]
    best = col.max()
    return tuple(a for i, a in enumerate(game.actions1) if col[i] >= best - tol)


def stackelberg(game: StageGame, tol: float = DEFAULT_TOL) -> StackelbergResult:
    """Enumerate pure commitments; ties are reported, never broken silently."""
    # Best replies to pure action i, as best_replies_p2 finds them for e_i @ u2 == u2[i].
    replies = [np.flatnonzero(row >= row.max() - tol) for row in game.u2]
    worst = np.array([game.u1[i, js].min() for i, js in enumerate(replies)])
    candidates = np.flatnonzero(worst >= worst.max() - tol)
    i_star = int(candidates[0])
    j_star = min(replies[i_star].tolist(), key=lambda j: (game.u1[i_star, j], j))
    return StackelbergResult(
        a_star=game.actions1[i_star],
        b_star=game.actions2[j_star],
        v_star=float(game.u1[i_star, j_star]),
        unique_action=len(candidates) == 1,
        unique_reply=len(replies[i_star]) == 1,
    )


def _jointly_best_replied(game: StageGame, subset: tuple[int, ...]) -> bool:
    """Is there an alpha making every action in ``subset`` a best reply?"""
    n = len(game.actions1)
    rows = []
    for j in subset:
        for k in range(len(game.actions2)):
            if k != j:
                rows.append(-(game.u2[:, j] - game.u2[:, k]))  # u2(.,j) >= u2(.,k)
    res = solve_lp(
        np.zeros(n),
        a_ub=np.array(rows) if rows else None,
        b_ub=np.zeros(len(rows)) if rows else None,
        a_eq=np.ones((1, n)),
        b_eq=np.ones(1),
    )
    return res.optimal


def minmax_p1(game: StageGame, tol: float = DEFAULT_TOL) -> float:
    """Worst payoff rationalizable myopic opponents can hold player 1 to.

    Enumerates the subsets of player-2 actions that are jointly best replies
    to some mixed action, and minimizes the max-payoff LP over each feasible
    support.
    """
    n_b = len(game.actions2)
    best = np.inf
    for size in range(1, n_b + 1):
        for subset in combinations(range(n_b), size):
            if not _jointly_best_replied(game, subset):
                continue
            value = _min_max_over_support(game, subset)
            best = min(best, value)
    return best


def _min_max_over_support(game: StageGame, subset: tuple[int, ...]) -> float:
    # min over beta on subset of max_a u1(a, beta); t free, split as t+ - t-.
    k = len(subset)
    n_a = len(game.actions1)
    c = np.zeros(k + 2)
    c[k] = 1.0
    c[k + 1] = -1.0
    a_ub = np.zeros((n_a, k + 2))
    for i in range(n_a):
        a_ub[i, :k] = game.u1[i, list(subset)]
        a_ub[i, k] = -1.0
        a_ub[i, k + 1] = 1.0
    a_eq = np.zeros((1, k + 2))
    a_eq[0, :k] = 1.0
    res = solve_lp(c, a_ub=a_ub, b_ub=np.zeros(n_a), a_eq=a_eq, b_eq=np.ones(1))
    if not res.optimal:
        raise RuntimeError("inner minmax LP must be feasible and bounded")
    return res.value


def vbar_p1(game: StageGame, tol: float = DEFAULT_TOL) -> float:
    """Highest payoff supportable with myopic opponents best-replying.

    Enumerates support pairs (T over player-1 actions, S over player-2
    actions); feasibility relaxes supp(alpha) = T to supp(alpha) in T, which
    is harmless for the value because every realizable sub-support pair is
    itself enumerated.
    """
    n_a = len(game.actions1)
    n_b = len(game.actions2)
    best = -np.inf
    for size_t in range(1, n_a + 1):
        for t_set in combinations(range(n_a), size_t):
            for size_s in range(1, n_b + 1):
                for s_set in combinations(range(n_b), size_s):
                    if not _support_pair_feasible(game, t_set, s_set):
                        continue
                    best = max(best, _max_min_over_pair(game, t_set, s_set))
    return best


def _support_pair_feasible(game: StageGame, t_set, s_set) -> bool:
    k = len(t_set)
    rows = []
    for j in s_set:
        for j2 in range(len(game.actions2)):
            if j2 != j:
                rows.append(-(game.u2[list(t_set), j] - game.u2[list(t_set), j2]))
    res = solve_lp(
        np.zeros(k),
        a_ub=np.array(rows) if rows else None,
        b_ub=np.zeros(len(rows)) if rows else None,
        a_eq=np.ones((1, k)),
        b_eq=np.ones(1),
    )
    return res.optimal


def _max_min_over_pair(game: StageGame, t_set, s_set) -> float:
    # max over beta on s_set of min_{a in t_set} u1(a, beta); maximize t => minimize -t.
    k = len(s_set)
    c = np.zeros(k + 2)
    c[k] = -1.0
    c[k + 1] = 1.0
    a_ub = np.zeros((len(t_set), k + 2))
    for r, i in enumerate(t_set):
        a_ub[r, :k] = -game.u1[i, list(s_set)]
        a_ub[r, k] = 1.0
        a_ub[r, k + 1] = -1.0
    a_eq = np.zeros((1, k + 2))
    a_eq[0, :k] = 1.0
    res = solve_lp(c, a_ub=a_ub, b_ub=np.zeros(len(t_set)), a_eq=a_eq, b_eq=np.ones(1))
    if not res.optimal:
        raise RuntimeError("inner support-pair LP must be feasible and bounded")
    return -res.value


def check_assumptions(game: StageGame, tol: float = DEFAULT_TOL) -> AssumptionReport:
    stack = stackelberg(game, tol)
    not_br = stack.a_star not in _pure_best_replies_p1(game, stack.b_star, tol)
    mm = minmax_p1(game, tol)
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
    replies = best_replies_p2(game, MixedAction.delta(a_low), tol)
    b_low = max(replies, key=lambda b: (game.u1[i, game.b_index(b)], -game.b_index(b)))
    return a_low, b_low
