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

The finite-candidate variant is the same program with other columns: one
weight per vertex of each candidate (indifference pieces and the lowest-action
pair), no cone rows, and a candidate's block is its weighted vertex sum. Both
routes share one LP builder and one witness rule. The block layout, that
builder and the block decoder live here alone: attainability
(:mod:`repfreq.attain`) asks the same program a feasibility question.
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
    _best,
    _pure_best_replies_p1,
    _simplex_vertices,
    br_polytope,
    is_monotone_supermodular,
    lowest_pair,
    stackelberg,
)

_INFEASIBLE = "frequency program infeasible; the Stackelberg point always qualifies"


@dataclass(frozen=True)
class FreqBound:
    """Value of the minimal-frequency program plus the optimizing witness.

    The witness mixes (alpha1, b1) with weight q and (alpha2, b2) with weight
    1-q. Both methods report their nonzero blocks in block order (reply order
    for the exact LP, candidate order for prop1). When only one block has
    mass, q is 1, that block is the first component, and the second is a
    canonical reply-consistent placeholder with ``placeholder2`` set. The
    first component always carries weight, so ``placeholder1`` is always
    false; the field stays for the output schema.
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
    return MixedAction.delta(game.actions1[0]), game.actions2[_best(game.u2[0], tol)[0]]


def _clamp_unit(value: float, tol: float = 1e-9) -> float:
    if -tol < value < 0.0:
        return 0.0
    if 1.0 < value < 1.0 + tol:
        return 1.0
    return value


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


def _solve_block_lp(c, pay, cone, a_eq, b_eq, lo: float, hi: float = np.inf):
    """Minimize ``c @ x`` over x >= 0 with ``cone @ x <= 0``, ``a_eq @ x = b_eq``
    and the payoff ``pay @ x`` in [lo, hi].

    ``lo == hi`` pins the payoff with one equality row after ``a_eq``.
    Otherwise the band adds the row ``pay @ x <= hi`` when ``hi`` is finite,
    then ``-pay @ x <= -lo``.
    """
    if lo == hi:
        return solve_lp(c, a_ub=cone, b_ub=np.zeros(len(cone)), a_eq=np.vstack([a_eq, pay]), b_eq=np.append(b_eq, lo))
    cap, rhs = ([pay], [hi]) if hi < np.inf else ([], [])
    a_ub = np.vstack([cone, *cap, -pay])
    return solve_lp(c, a_ub=a_ub, b_ub=np.concatenate([np.zeros(len(cone)), rhs, [-lo]]), a_eq=a_eq, b_eq=b_eq)


def _live_blocks(game: StageGame, blocks: np.ndarray) -> list[tuple[int, float, MixedAction]]:
    """The components of a (k x n_a) block matrix, row j being mass_j * alpha_j:
    (j, mass_j, alpha_j) for each row whose mass exceeds rounding dust."""
    masses = blocks.sum(axis=1)
    return [
        (int(j), float(masses[j]), MixedAction.from_vector(game.actions1, blocks[j] / masses[j], tol=1e-7))
        for j in np.flatnonzero(masses > 1e-9)  # below is dust at a degenerate vertex
    ]


def _freq_bound(
    game: StageGame, value, blocks, replies, method: str, tol: float, epsilon=0.0, equality=False
) -> FreqBound:
    """The witness of a frequency LP optimum from its blocks: row j of
    ``blocks`` is mass_j * alpha_j, paired with reply ``replies[j]``."""
    live = _live_blocks(game, blocks)
    if not 1 <= len(live) <= 2:
        raise RuntimeError(f"frequency LP returned {len(live)} nonzero reply blocks; a basic optimum has one or two")
    if len(live) == 1:
        q = 1.0
        ((j1, _, alpha1),) = live
        alpha2, b2 = _placeholder_component(game, tol)
    else:
        (j1, m1, alpha1), (j2, m2, alpha2) = live
        b2 = replies[j2]
        q = m1 / (m1 + m2)
    return FreqBound(
        value=_clamp_unit(float(value)),
        q=q,
        alpha1=alpha1,
        b1=replies[j1],
        alpha2=alpha2,
        b2=b2,
        method=method,
        epsilon=epsilon,
        equality=equality,
        placeholder2=len(live) == 1,
    )


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
    cone, pay = _stacked_reply_blocks(game)
    c = np.zeros(len(pay))
    c[game.a_index(stack.a_star) :: n_a] = 1.0
    floor = stack.v_star - epsilon
    res = _solve_block_lp(c, pay, cone, np.ones((1, len(c))), [1.0], floor, floor if equality else np.inf)
    if not res.optimal:
        raise RuntimeError(_INFEASIBLE)
    return _freq_bound(game, res.value, res.x.reshape(-1, n_a), game.actions2, "lp", tol, epsilon, equality)


def indifference_pieces(game: StageGame, tol: float = DEFAULT_TOL) -> list[IndifferencePiece]:
    """Regions where the opponent has two or more tied best replies, split by
    which tied reply maximizes player 1's payoff; empty when some reply is
    strictly dominant everywhere."""
    n_b = len(game.actions2)
    pieces: list[IndifferencePiece] = []
    for size in range(2, n_b + 1):
        for subset in combinations(range(n_b), size):
            gap = game.u2[:, subset[0], None] - game.u2  # column j: u2(., b_j0) - u2(., b_j)
            others = [j for j in range(n_b) if j not in subset]
            for j_best in subset:
                ahead = game.u1[:, j_best, None] - game.u1[:, [j for j in subset if j != j_best]]
                found: list[np.ndarray] = []
                for x in _simplex_vertices(gap[:, list(subset[1:])].T, np.hstack([gap[:, others], ahead]).T):
                    if not any(np.allclose(x, v, atol=1e-8) for v in found):
                        found.append(x)
                if found:
                    pieces.append(IndifferencePiece(b=game.actions2[j_best], vertices=np.array(found)))
    return pieces


def min_stackelberg_freq_finite(game: StageGame, tol: float = DEFAULT_TOL) -> FreqBound:
    """Same value as :func:`min_stackelberg_freq`, optimizing only over the
    indifference pieces plus the lowest-action pair.

    Valid when the game is monotone under the supplied orders and the
    commitment action is not a stage best reply to its reply. The program is
    the exact route's block LP with one column per candidate vertex in place
    of the reply cones; a candidate's block is its weighted vertex sum.
    """
    if not is_monotone_supermodular(game, tol):
        raise ValueError("game is not monotone-supermodular under the supplied orders")
    stack = _require_unique_stackelberg(game, tol)
    if stack.a_star in _pure_best_replies_p1(game, stack.b_star, tol):
        raise ValueError("the finite-candidate program needs a commitment action that is not a best reply to its reply")

    a_low, b_low = lowest_pair(game, tol)
    candidates = [(piece.vertices, piece.b) for piece in indifference_pieces(game, tol)]
    candidates.append((MixedAction.delta(a_low).as_vector(game.actions1)[None, :], b_low))
    vertices = np.vstack([v for v, _ in candidates])
    pay = np.concatenate([v @ game.u1[:, game.b_index(b)] for v, b in candidates])
    c = vertices[:, game.a_index(stack.a_star)]
    res = _solve_block_lp(c, pay, np.empty((0, len(c))), np.ones((1, len(c))), [1.0], stack.v_star)
    if not res.optimal:
        raise RuntimeError(_INFEASIBLE)
    starts = np.cumsum([0] + [len(v) for v, _ in candidates[:-1]])
    blocks = np.add.reduceat(res.x[:, None] * vertices, starts, axis=0)
    return _freq_bound(game, res.value, blocks, [b for _, b in candidates], "prop1", tol)


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
        for j in _best(vec @ game.u2, br_tol):
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
