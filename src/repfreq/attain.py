"""Membership of a target action distribution in the attainable set.

A target marginal is attainable when it decomposes over reply-consistent
profiles whose expected payoff equals the commitment payoff. One conditional
mixture per reply suffices: the reply-consistent region for a fixed reply is
convex and payoffs are linear, so averaging distinct mixtures for the same
reply loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _live_blocks, _solve_block_lp, _stacked_reply_blocks, _witness_marginal
from .game import MixedAction, StageGame
from .stage import DEFAULT_TOL, stackelberg

# Feasibility slack absorbing LP rounding in the exact-payoff constraint, in
# payoff units; kept well inside the 1e-9 tolerances used by callers.
# ``--tol`` does not reach it.
_PAYOFF_SLACK = 1e-10


@dataclass(frozen=True)
class TargetDecomposition:
    """Witness that a target marginal is attainable.

    ``weights`` maps each reply to its mass and the conditional mixture
    played against it; masses sum to one and the mass-weighted mixtures
    average to the target.
    """

    weights: dict[str, tuple[float, MixedAction]]
    payoff: float

    def marginal(self, game: StageGame) -> MixedAction:
        return _witness_marginal(game, self.weights.values())


def decompose_target(
    game: StageGame,
    target: MixedAction,
    epsilon: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> TargetDecomposition | None:
    """Find a reply-consistent decomposition of ``target`` delivering the
    commitment payoff within ``epsilon``, or ``None`` when there is none.

    The frequency bound's block program (:mod:`repfreq.bounds`) as a
    feasibility LP: each block x_b = mass_b * alpha_b obeys the (homogeneous)
    best-reply halfspaces of its reply, the blocks sum to the target, and the
    total payoff sits in the required band.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    stack = stackelberg(game, tol)
    n_a = len(game.actions1)
    cone, pay = _stacked_reply_blocks(game)
    sums = np.tile(np.eye(n_a), len(game.actions2))  # row i: the blocks' total weight on action i
    band = epsilon + _PAYOFF_SLACK
    res = _solve_block_lp(
        np.zeros(len(pay)), pay, cone, sums, target.as_vector(game.actions1), stack.v_star - band, stack.v_star + band
    )
    if not res.optimal:
        return None

    blocks = res.x.reshape(-1, n_a)
    live = _live_blocks(game, blocks)
    total_mass = sum(mass for _, mass, _ in live)
    weights: dict[str, tuple[float, MixedAction]] = {}
    total_pay = 0.0
    for j, mass, alpha in live:
        weights[game.actions2[j]] = (mass / total_mass, alpha)
        total_pay += float(blocks[j] @ game.u1[:, j]) / total_mass
    return TargetDecomposition(weights=weights, payoff=total_pay)
