"""Exhaustive reference enumeration for the stage-game payoff bounds.

These are ``minmax_p1`` and ``vbar_p1`` as they were before both iterated one
list of rationalizable supports: ``minmax_p1`` tests every player-2 support,
and ``vbar_p1`` runs a feasibility LP and a value LP for every (T, S) support
pair, with no pruning. Each helper builds its own LP straight from the
payoffs, so the comparison test checks the pruned enumeration in
:mod:`repfreq.stage` against code that shares none of its LP construction.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repfreq.game import StageGame
from repfreq.linprog import solve_lp
from repfreq.stage import DEFAULT_TOL


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
