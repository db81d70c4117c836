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

from .game import MixedAction, StageGame
from .linprog import solve_lp
from .stage import DEFAULT_TOL, _stacked_reply_blocks, stackelberg

# Feasibility slack absorbing LP rounding in the exact-payoff constraint;
# kept well inside the 1e-9 tolerances used by callers.
_PAYOFF_SLACK = 1e-10


@dataclass(frozen=True)
class TargetDecomposition:
    """Witness that a target marginal is attainable.

    ``weights`` maps each reply to its mass and the conditional mixture
    played against it; masses sum to one and the mass-weighted mixtures
    average to ``target``.
    """

    weights: dict[str, tuple[float, MixedAction]]
    target: MixedAction
    payoff: float

    def marginal(self, game: StageGame) -> MixedAction:
        vec = np.zeros(len(game.actions1))
        for mass, alpha in self.weights.values():
            vec += mass * alpha.as_vector(game.actions1)
        return MixedAction.from_vector(game.actions1, vec, tol=1e-7)


def decompose_target(
    game: StageGame,
    target: MixedAction,
    epsilon: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> TargetDecomposition | None:
    """Find a reply-consistent decomposition of ``target`` delivering the
    commitment payoff within ``epsilon``, or ``None`` when there is none.

    Feasibility LP over stacked blocks x_b = mass_b * alpha_b: each block
    obeys the (homogeneous) best-reply halfspaces of its reply, the blocks
    sum to the target, and the total payoff sits in the required band.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    for label in target.support():
        game.a_index(label)
    stack = stackelberg(game, tol)
    n_a = len(game.actions1)
    n_b = len(game.actions2)
    target_vec = target.as_vector(game.actions1)

    cone, pay = _stacked_reply_blocks(game)
    band = epsilon + _PAYOFF_SLACK
    b_ub = np.zeros(len(cone) + 2)
    b_ub[-2] = stack.v_star + band
    b_ub[-1] = -(stack.v_star - band)

    res = solve_lp(
        np.zeros(n_a * n_b),
        a_ub=np.vstack([cone, pay, -pay]),
        b_ub=b_ub,
        a_eq=np.tile(np.eye(n_a), n_b),
        b_eq=target_vec,
    )
    if not res.optimal:
        return None

    kept: dict[str, tuple[float, np.ndarray]] = {}
    for j, b in enumerate(game.actions2):
        block = res.x[j * n_a : (j + 1) * n_a]
        mass = float(block.sum())
        if mass <= 1e-9:  # numerical dust, not a real component
            continue
        kept[b] = (mass, block)
    total_mass = sum(mass for mass, _ in kept.values())
    weights: dict[str, tuple[float, MixedAction]] = {}
    total_pay = 0.0
    for b, (mass, block) in kept.items():
        alpha = MixedAction.from_vector(game.actions1, block / mass, tol=1e-7)
        weights[b] = (mass / total_mass, alpha)
        total_pay += float(block @ game.u1[:, game.b_index(b)]) / total_mass
    return TargetDecomposition(weights=weights, target=target, payoff=total_pay)
