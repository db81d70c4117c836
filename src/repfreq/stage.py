"""Stage-game analysis: best replies, Stackelberg quantities, payoff bounds.

All subset enumerations here are exponential in the number of actions, which
is fine at desk scale (six or fewer actions per side) and keeps every value
exact up to LP tolerance.

Player 1's minmax against rationalizable myopic opponents and the cap v-bar
of Fudenberg, Kreps and Maskin (1990) share one enumeration. A player-2
support S is rationalizable when some mixed action alpha makes every action in
S a best reply. v-bar maximizes, over the support pairs (T, S) for which some
alpha with supp(alpha) in T makes all of S best replies, the value
max over beta on S of min over a in T of u1(a, beta). Relaxing
supp(alpha) = T to supp(alpha) in T cannot raise v-bar: the pair
(supp(alpha), S) is itself a candidate, and its minimum runs over fewer
actions. Two monotone facts make the pruning exact:

- An S that fails with T = every action fails with every T, because an alpha
  on a smaller T is an alpha on all actions. So both bounds iterate only the
  rationalizable supports.
- For one S, a superset T' of a feasible T is feasible (the same alpha
  serves), and its value, a minimum over more actions, is no higher. So
  ``vbar_p1`` tries T in order of size and skips every T that contains a T
  already found feasible for that S; no skipped pair can raise the maximum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

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


def _live_blocks(game: StageGame, blocks: np.ndarray) -> list[tuple[int, float, MixedAction]]:
    """The components of a (k x n_a) block matrix, row j being mass_j * alpha_j:
    (j, mass_j, alpha_j) for each row whose mass exceeds rounding dust."""
    masses = blocks.sum(axis=1)
    return [
        (int(j), float(masses[j]), MixedAction.from_vector(game.actions1, blocks[j] / masses[j], tol=1e-7))
        for j in np.flatnonzero(masses > 1e-9)  # below is dust at a degenerate vertex
    ]


def _best(values: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the entries within ``tol`` of the largest: every best-reply tie rule."""
    return np.flatnonzero(values >= values.max() - tol)


def best_replies_p2(game: StageGame, alpha: MixedAction, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """All player-2 actions within ``tol`` of the best payoff against ``alpha``."""
    for label in alpha.support():
        game.a_index(label)
    return tuple(game.actions2[j] for j in _best(alpha.as_vector(game.actions1) @ game.u2, tol))


def _pure_best_replies_p1(game: StageGame, b: str, tol: float) -> tuple[str, ...]:
    return tuple(game.actions1[i] for i in _best(game.u1[:, game.b_index(b)], tol))


def stackelberg(game: StageGame, tol: float = DEFAULT_TOL) -> StackelbergResult:
    """Enumerate pure commitments; ties are reported, never broken silently."""
    replies = [_best(row, tol) for row in game.u2]
    worst = np.array([game.u1[i, js].min() for i, js in enumerate(replies)])
    candidates = _best(worst, tol)
    i_star = int(candidates[0])
    j_star = min(replies[i_star].tolist(), key=lambda j: (game.u1[i_star, j], j))
    return StackelbergResult(
        a_star=game.actions1[i_star],
        b_star=game.actions2[j_star],
        v_star=float(game.u1[i_star, j_star]),
        unique_action=len(candidates) == 1,
        unique_reply=len(replies[i_star]) == 1,
    )


def _supports(n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of ``range(n)``, smallest first."""
    return chain.from_iterable(combinations(range(n), size) for size in range(1, n + 1))


def _best_replied(game: StageGame, t: tuple[int, ...], s: tuple[int, ...]) -> bool:
    """Is there an alpha on ``t`` to which every action in ``s`` is a best reply?"""
    rows = np.vstack([br_polytope(game, game.actions2[j]).halfspaces[:, t] for j in s])
    res = solve_lp(
        np.zeros(len(t)),
        a_ub=-rows,
        b_ub=np.zeros(len(rows)),
        a_eq=np.ones((1, len(t))),
        b_eq=np.ones(1),
    )
    return res.optimal


def _maxmin(pay: np.ndarray) -> float:
    """Max over beta in the simplex of the smallest entry of ``pay @ beta``."""
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


def _rationalizable_supports(game: StageGame) -> list[tuple[int, ...]]:
    """Player-2 supports whose actions are jointly best replies to some alpha."""
    everyone = tuple(range(len(game.actions1)))
    return [s for s in _supports(len(game.actions2)) if _best_replied(game, everyone, s)]


def minmax_p1(game: StageGame) -> float:
    """Worst payoff rationalizable myopic opponents can hold player 1 to.

    The least, over rationalizable player-2 supports S, of the min over beta
    on S of max over a of u1(a, beta).
    """
    return min(-_maxmin(-game.u1[:, s]) for s in _rationalizable_supports(game))


def vbar_p1(game: StageGame) -> float:
    """Highest payoff supportable with myopic opponents best-replying.

    The largest, over feasible support pairs (T, S), of the max over beta on S
    of min over a in T of u1(a, beta). The module docstring says why the pairs
    it skips cannot raise it.
    """
    best = -np.inf
    for s in _rationalizable_supports(game):
        feasible: list[set[int]] = []
        for t in _supports(len(game.actions1)):
            if any(f.issubset(t) for f in feasible) or not _best_replied(game, t, s):
                continue
            feasible.append(set(t))
            best = max(best, _maxmin(game.u1[np.ix_(t, s)]))
    return best


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
