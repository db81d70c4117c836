"""Minimal commitment-action frequency: exact LPs, a finite-candidate variant,
indifference pieces, and a brute-force grid oracle.

The headline program minimizes the weight on the Stackelberg action over
two-point mixtures of reply-consistent profiles subject to a payoff floor.
It is bilinear as stated, but it becomes one LP over stacked reply blocks
x_b = mass_b * alpha_b, one block per opponent reply: the best-reply
halfspaces are homogeneous in alpha, so each block stays in its reply's cone
unchanged. Only two constraints couple the blocks (total mass one and the
payoff floor), so a basic optimum has at most two nonzero blocks --
Caratheodory in the (frequency, payoff) plane -- and the LP value is the
two-point program's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .game import MixedAction, StageGame
from .linprog import solve_lp
from .stage import (
    DEFAULT_TOL,
    _stacked_reply_blocks,
    best_replies_p2,
    is_monotone_supermodular,
    lowest_pair,
    stackelberg,
)


@dataclass(frozen=True)
class FreqBound:
    """Value of the minimal-frequency program plus the optimizing witness.

    The witness mixes (alpha1, b1) with weight q and (alpha2, b2) with weight
    1-q. A component that carries no weight is reported as a canonical
    reply-consistent placeholder and flagged. The exact LP reports its nonzero
    reply blocks in reply order; when only one block has mass, q is 1, that
    reply is b1, and the placeholder is the second component with
    ``placeholder2`` set.
    """

    value: float
    q: float
    alpha1: MixedAction
    b1: str
    alpha2: MixedAction
    b2: str
    method: str
    epsilon: float = 0.0
    equality: bool = False
    placeholder1: bool = False
    placeholder2: bool = False


@dataclass(frozen=True)
class IndifferencePiece:
    """A region of mixed actions where several replies tie and ``b`` is the
    player-1-optimal one among them, given by its vertices."""

    b: str
    vertices: np.ndarray  # one vertex per row


def _require_unique_stackelberg(game: StageGame, tol: float):
    stack = stackelberg(game, tol)
    if not stack.unique_action:
        raise ValueError("stage game has multiple optimal commitment actions")
    if not stack.unique_reply:
        raise ValueError("opponent reply to the optimal commitment action is not unique")
    return stack


def _placeholder_component(game: StageGame, tol: float) -> tuple[MixedAction, str]:
    a = game.actions1[0]
    b = best_replies_p2(game, MixedAction.delta(a), tol)[0]
    return MixedAction.delta(a), b


def _clamp_unit(value: float, tol: float = 1e-9) -> float:
    if -tol < value < 0.0:
        return 0.0
    if 1.0 < value < 1.0 + tol:
        return 1.0
    return value


def min_stackelberg_freq(
    game: StageGame,
    epsilon: float = 0.0,
    equality: bool = False,
    tol: float = DEFAULT_TOL,
) -> FreqBound:
    """Exact minimal discounted frequency of the Stackelberg action.

    ``epsilon`` relaxes the payoff floor; ``equality`` pins the payoff to the
    commitment payoff exactly instead of bounding it below.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    stack = _require_unique_stackelberg(game, tol)
    n_a = len(game.actions1)
    n_b = len(game.actions2)
    target = stack.v_star - epsilon

    cone, pay = _stacked_reply_blocks(game)
    c = np.zeros(n_a * n_b)
    c[game.a_index(stack.a_star) :: n_a] = 1.0
    mass = np.ones((1, n_a * n_b))
    if equality:
        res = solve_lp(c, a_ub=cone, b_ub=np.zeros(len(cone)), a_eq=np.vstack([mass, pay]), b_eq=[1.0, target])
    else:
        b_ub = np.zeros(len(cone) + 1)
        b_ub[-1] = -target
        res = solve_lp(c, a_ub=np.vstack([cone, -pay]), b_ub=b_ub, a_eq=mass, b_eq=[1.0])
    if not res.optimal:
        raise RuntimeError("frequency program infeasible; the Stackelberg point always qualifies")

    blocks = res.x.reshape(n_b, n_a)
    masses = blocks.sum(axis=1)
    live = np.flatnonzero(masses > 1e-9)  # below is rounding dust at a degenerate vertex
    if not 1 <= len(live) <= 2:
        raise RuntimeError(f"frequency LP returned {len(live)} nonzero reply blocks; a basic optimum has one or two")
    components = [
        (float(masses[j]), MixedAction.from_vector(game.actions1, blocks[j] / masses[j], tol=1e-7), game.actions2[j])
        for j in live
    ]
    if len(components) == 1:
        q = 1.0
        ((_, alpha1, b1),) = components
        alpha2, b2 = _placeholder_component(game, tol)
    else:
        (m1, alpha1, b1), (m2, alpha2, b2) = components
        q = m1 / (m1 + m2)
    return FreqBound(
        value=_clamp_unit(float(res.value)),
        q=q,
        alpha1=alpha1,
        b1=b1,
        alpha2=alpha2,
        b2=b2,
        method="lp",
        epsilon=epsilon,
        equality=equality,
        placeholder2=len(components) == 1,
    )


def indifference_pieces(game: StageGame, tol: float = DEFAULT_TOL) -> list[IndifferencePiece]:
    """Regions where the opponent has two or more tied best replies, split by
    which tied reply maximizes player 1's payoff; empty when some reply is
    strictly dominant everywhere."""
    n_a = len(game.actions1)
    n_b = len(game.actions2)
    pieces: list[IndifferencePiece] = []
    for size in range(2, n_b + 1):
        for subset in combinations(range(n_b), size):
            j0 = subset[0]
            eq_rows = [game.u2[:, j0] - game.u2[:, j] for j in subset[1:]]
            eq_rows.append(np.ones(n_a))
            eq_rhs = np.zeros(len(eq_rows))
            eq_rhs[-1] = 1.0
            base_ub = [-(game.u2[:, j0] - game.u2[:, j]) for j in range(n_b) if j not in subset]
            base_ub.extend(-np.eye(n_a))  # alpha >= 0
            for j_best in subset:
                ub_rows = list(base_ub)
                for j in subset:
                    if j != j_best:
                        ub_rows.append(-(game.u1[:, j_best] - game.u1[:, j]))
                vertices = _polytope_vertices(
                    np.array(eq_rows), eq_rhs, np.array(ub_rows), np.zeros(len(ub_rows)), n_a
                )
                if vertices.size:
                    pieces.append(IndifferencePiece(b=game.actions2[j_best], vertices=vertices))
    return pieces


def _polytope_vertices(a_eq, b_eq, a_ub, b_ub, dim, tol: float = 1e-9) -> np.ndarray:
    """Vertices of {x : a_eq x = b_eq, a_ub x <= b_ub} by basis enumeration."""
    rank_eq = np.linalg.matrix_rank(a_eq, tol=1e-11)
    need = dim - rank_eq
    found: list[np.ndarray] = []
    for active in combinations(range(len(a_ub)), need):
        mat = np.vstack([a_eq, a_ub[list(active)]]) if need else a_eq
        rhs = np.concatenate([b_eq, b_ub[list(active)]]) if need else b_eq
        if np.linalg.matrix_rank(mat, tol=1e-11) < dim:
            continue
        x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.max(np.abs(mat @ x - rhs)) > tol:
            continue
        if np.any(a_ub @ x > b_ub + tol) or np.max(np.abs(a_eq @ x - b_eq)) > tol:
            continue
        if not any(np.allclose(x, v, atol=10 * tol) for v in found):
            found.append(x)
    return np.array(found) if found else np.empty((0, dim))


def min_stackelberg_freq_finite(game: StageGame, tol: float = DEFAULT_TOL) -> FreqBound:
    """Same value as :func:`min_stackelberg_freq`, optimizing only over the
    indifference pieces plus the lowest-action pair.

    Valid when the game is monotone under the supplied orders; each piece
    enters the pair LP through the conic hull of its vertices.
    """
    if not is_monotone_supermodular(game, tol):
        raise ValueError("game is not monotone-supermodular under the supplied orders")
    stack = _require_unique_stackelberg(game, tol)
    i_star = game.a_index(stack.a_star)

    a_low, b_low = lowest_pair(game, tol)
    candidates: list[tuple[np.ndarray, str]] = [
        (piece.vertices, piece.b) for piece in indifference_pieces(game, tol)
    ]
    low_vec = MixedAction.delta(a_low).as_vector(game.actions1)
    candidates.append((low_vec[None, :], b_low))

    best_value = np.inf
    best: tuple | None = None
    for v1, b1 in candidates:
        for v2, b2 in candidates:
            k1, k2 = len(v1), len(v2)
            pay1 = v1 @ game.u1[:, game.b_index(b1)]
            pay2 = v2 @ game.u1[:, game.b_index(b2)]
            c = np.concatenate([v1[:, i_star], v2[:, i_star]])
            a_eq = np.ones((1, k1 + k2))
            a_ub = -np.concatenate([pay1, pay2])[None, :]
            b_ub = np.array([-stack.v_star])
            res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.ones(1))
            if res.optimal and res.value < best_value - 1e-12:
                best_value = res.value
                best = (res.x.copy(), v1, b1, v2, b2)
    if best is None:
        raise RuntimeError("finite candidate program infeasible")

    lam, v1, b1, v2, b2 = best
    k1 = len(v1)
    q = _clamp_unit(float(lam[:k1].sum()))
    placeholder1 = q <= 1e-12
    placeholder2 = 1.0 - q <= 1e-12
    if placeholder1:
        alpha1, b1 = _placeholder_component(game, tol)
    else:
        alpha1 = MixedAction.from_vector(game.actions1, lam[:k1] @ v1 / q, tol=1e-7)
    if placeholder2:
        alpha2, b2 = _placeholder_component(game, tol)
    else:
        alpha2 = MixedAction.from_vector(game.actions1, lam[k1:] @ v2 / (1.0 - q), tol=1e-7)
    return FreqBound(
        value=_clamp_unit(float(best_value)),
        q=q,
        alpha1=alpha1,
        b1=b1,
        alpha2=alpha2,
        b2=b2,
        method="prop1",
        placeholder1=placeholder1,
        placeholder2=placeholder2,
    )


def min_freq_grid(game: StageGame, resolution: int, br_tol: float = DEFAULT_TOL) -> float:
    """Brute-force upper bound on the minimal frequency from a simplex grid.

    Enumerates mixtures with weights in multiples of 1/resolution, keeps the
    reply-consistent (alpha, b) pairs, and scans all two-point combinations
    with grid mixing weights. Independent of the LP path by construction.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    stack = _require_unique_stackelberg(game, br_tol)
    n_a = len(game.actions1)
    n_points = comb(resolution + n_a - 1, n_a - 1)
    if n_points * len(game.actions2) > 200_000 or (n_points * len(game.actions2)) ** 2 * (resolution + 1) > 10**8:
        raise ValueError("grid too large for the enumeration budget")

    i_star = game.a_index(stack.a_star)
    freq_list: list[float] = []
    pay_list: list[float] = []
    for counts in _compositions(resolution, n_a):
        vec = np.array(counts, dtype=float) / resolution
        alpha = MixedAction.from_vector(game.actions1, vec)
        u2_vals = vec @ game.u2
        top = u2_vals.max()
        for j in range(len(game.actions2)):
            if u2_vals[j] >= top - br_tol:
                freq_list.append(vec[i_star])
                pay_list.append(float(vec @ game.u1[:, j]))
    freq = np.array(freq_list)
    pay = np.array(pay_list)

    best = np.inf
    for k in range(resolution + 1):
        q = k / resolution
        u_first = q * pay
        f_first = q * freq
        u_second = (1.0 - q) * pay
        f_second = (1.0 - q) * freq
        order = np.argsort(u_second)
        u_sorted = u_second[order]
        suffix_min = np.minimum.accumulate(f_second[order][::-1])[::-1]
        needed = stack.v_star - u_first
        pos = np.searchsorted(u_sorted, needed, side="left")
        ok = pos < len(u_sorted)
        if np.any(ok):
            cand = f_first[ok] + suffix_min[pos[ok]]
            best = min(best, float(cand.min()))
    return best


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def min_freq_curve(
    game: StageGame, epsilons, tol: float = DEFAULT_TOL
) -> list[tuple[float, float]]:
    """Evaluate the relaxed program along an ascending grid of payoff slacks."""
    eps = list(epsilons)
    if any(e < 0 for e in eps):
        raise ValueError("slack values must be nonnegative")
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValueError("slack values must be sorted ascending")
    return [(e, min_stackelberg_freq(game, epsilon=e, tol=tol).value) for e in eps]
