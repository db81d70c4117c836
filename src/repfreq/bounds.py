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
two-point program's value. The commitment type's own play, all mass on
(a*, b*), keeps b* a best reply and pays v*, so it meets every row of the
program with a floor: its simplex starts at that vertex and runs no phase 1.
The pinned-payoff program knows no such vertex and runs both phases.

The finite-candidate variant is the same program with other columns: one
weight per vertex of each candidate (indifference pieces and the lowest-action
pair), no cone rows, and a candidate's block is its weighted vertex sum. Both
routes share one LP builder and one witness rule. The block layout, that
builder and the block decoder live here alone: attainability,
:func:`decompose_target`, asks the same program a feasibility question.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .game import MixedAction, StageGame
from .linprog import _POINT_TOL, solve_lp
from .stage import (
    DEFAULT_TOL,
    _best,
    _pure_best_replies_p1,
    _reply_gaps,
    _simplex_vertices,
    is_monotone_supermodular,
    lowest_pair,
    stackelberg,
)

# The most (q, point) pairs min_freq_grid scans at once; it bounds the working
# memory only.
_GRID_CELLS = 2**16
# LP dust in probability units, which ``--tol`` does not reach: a lighter
# block is dropped, and a frequency this close outside [0, 1] is clamped.
_DUST = 1e-9
# Feasibility slack absorbing LP rounding in attainability's exact-payoff
# constraint, in payoff units; kept well inside the 1e-9 tolerances used by
# callers. ``--tol`` does not reach it.
_PAYOFF_SLACK = 1e-10
# indifference_pieces' vertices within _VERTEX_ATOL in every weight
# (probability units) are one. ``--tol`` does not reach it.
_VERTEX_ATOL = 1e-8

@dataclass(frozen=True)
class FreqBound:
    """Value of the minimal-frequency program plus the optimizing witness.

    The witness mixes (alpha1, b1) with weight q and (alpha2, b2) with weight
    1-q. Both methods report their nonzero blocks in block order (reply order
    for the exact LP, candidate order for prop1). When only one block has
    mass, q is 1, that block is the first component, and the second is a
    canonical reply-consistent placeholder with ``placeholder2`` set.
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
    placeholder2: bool = False

    def marginal(self, game: StageGame) -> MixedAction:
        """Player 1's action distribution under the witness."""
        return _witness_marginal(game, [(self.q, self.alpha1), (1 - self.q, self.alpha2)])


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
    return MixedAction.delta(game.actions1[0]), game.actions2[_best(game.u2[0].tolist(), tol)[0]]


def _witness_marginal(game: StageGame, parts) -> MixedAction:
    """Player 1's action distribution under a witness: the sum of mass * alpha
    over its (mass, alpha) ``parts``, decoded as an LP point."""
    vec = sum(mass * alpha.as_vector(game.actions1) for mass, alpha in parts)
    return MixedAction.from_vector(game.actions1, vec, tol=_POINT_TOL)


def _clamp_unit(value: float) -> float:
    if -_DUST < value < 0.0:
        return 0.0
    if 1.0 < value < 1.0 + _DUST:
        return 1.0
    return value


def _stacked_reply_blocks(game: StageGame) -> tuple[np.ndarray, np.ndarray]:
    """Best-reply rows and payoff vector over stacked reply blocks.

    The variable stacks one block x_b = mass_b * alpha_b per reply, in reply
    order. ``cone @ x <= 0`` holds iff every block lies in the (homogeneous)
    best-reply cone of its reply, and ``pay @ x`` is player 1's payoff.
    """
    n_a, n_b = game.u2.shape
    cone = np.zeros((n_b, n_b - 1, n_b, n_a))
    np.einsum("jkja->jka", cone)[...] = -_reply_gaps(game.u2)[1]  # block j's negated rival rows in block j's columns
    return cone.reshape(n_b * (n_b - 1), n_a * n_b), game.u1.T.flatten()


def _solve_block_lp(c, pay, cone, a_eq, b_eq, lo: float, hi: float = np.inf, start: int | None = None):
    """Minimize ``c @ x`` over x >= 0 with ``cone @ x <= 0``, ``a_eq @ x = b_eq``
    and the payoff ``pay @ x`` in [lo, hi].

    ``lo == hi`` pins the payoff with one equality row after ``a_eq``.
    Otherwise the band adds the row ``pay @ x <= hi`` when ``hi`` is finite,
    then ``-pay @ x <= -lo``, and ``start`` reaches :func:`solve_lp`.
    """
    if lo == hi:
        return solve_lp(c, a_ub=cone, b_ub=np.zeros(len(cone)), a_eq=np.vstack([a_eq, pay]), b_eq=np.append(b_eq, lo))
    capped = hi < np.inf
    a_ub = np.empty((len(cone) + capped + 1, len(pay)))
    b_ub = np.zeros(len(a_ub))
    a_ub[: len(cone)] = cone
    if capped:
        a_ub[-2] = pay
        b_ub[-2] = hi
    a_ub[-1] = -pay
    b_ub[-1] = -lo
    return solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, start=start)


def _live_blocks(game: StageGame, blocks: np.ndarray) -> list[tuple[int, float, MixedAction]]:
    """The components of a (k x n_a) block matrix, row j being mass_j * alpha_j:
    (j, mass_j, alpha_j) for each row whose mass exceeds rounding dust."""
    masses = blocks.sum(axis=1).tolist()
    rows = blocks.tolist()
    return [
        (j, mass, MixedAction.from_vector(game.actions1, [x / mass for x in rows[j]], tol=_POINT_TOL))
        for j, mass in enumerate(masses)
        if mass > _DUST  # below is dust at a degenerate vertex
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

    ``epsilon`` lowers the payoff floor to v* - epsilon; ``equality`` pins the
    payoff at that floor, v* - epsilon, instead of bounding it below, and a
    pinned payoff that no reply-consistent profile pays raises ``ValueError``.
    """
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    stack = _require_unique_stackelberg(game, tol)
    n_a = len(game.actions1)
    cone, pay = _stacked_reply_blocks(game)
    c = np.zeros(len(pay))
    i_star = game.a_index(stack.a_star)
    c[i_star::n_a] = 1.0
    floor = stack.v_star - epsilon
    start = None if equality else game.b_index(stack.b_star) * n_a + i_star
    res = _solve_block_lp(c, pay, cone, np.ones((1, len(c))), [1.0], floor, floor if equality else np.inf, start)
    if not res.optimal:
        if equality:
            raise ValueError(f"no reply-consistent profile pays the pinned payoff v* - epsilon = {floor}")
        raise RuntimeError(f"frequency LP returned {res.status!r}; its objective is bounded below by 0")
    return _freq_bound(game, res.value, res.x.reshape(-1, n_a), game.actions2, "lp", tol, epsilon, equality)


def decompose_target(
    game: StageGame,
    target: MixedAction,
    epsilon: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> TargetDecomposition | None:
    """Find a reply-consistent decomposition of ``target`` delivering the
    commitment payoff within ``epsilon``, or ``None`` when there is none.

    The frequency bound's block program as a feasibility LP: each block
    x_b = mass_b * alpha_b obeys the (homogeneous) best-reply halfspaces of
    its reply, the blocks sum to the target, and the total payoff sits in the
    required band. One conditional mixture per reply suffices: the
    reply-consistent region for a fixed reply is convex and payoffs are
    linear, so averaging distinct mixtures for the same reply loses nothing.
    """
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
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


def indifference_pieces(game: StageGame) -> list[IndifferencePiece]:
    """Regions where the opponent has two or more tied best replies, split by
    which tied reply maximizes player 1's payoff; empty when some reply is
    strictly dominant everywhere. The vertices are found under the vertex
    enumerator's fixed tolerance on unit-length rows."""
    n_b = len(game.actions2)
    gaps = _reply_gaps(game.u2)[0]
    pieces: list[IndifferencePiece] = []
    for size in range(2, n_b + 1):
        for subset in combinations(range(n_b), size):
            others = [j for j in range(n_b) if j not in subset]
            # One system per j_best in the subset, each of n_b - 1 rows: the
            # gaps u2(., b_j0) - u2(., b_j) to the other replies, then
            # j_best's lead over the rest of the subset.
            leads = [game.u1[:, j, None] - game.u1[:, [k for k in subset if k != j]] for j in subset]
            ineq = np.stack([np.vstack([gaps[subset[0], others], ahead.T]) for ahead in leads])
            points, owner = _simplex_vertices(gaps[subset[0], list(subset[1:])], ineq)
            for i, j_best in enumerate(subset):
                found: list[list[float]] = []
                for x in points[owner == i].tolist():
                    if all(max(abs(a - b) for a, b in zip(x, v)) > _VERTEX_ATOL for v in found):
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
    candidates = [(piece.vertices, piece.b) for piece in indifference_pieces(game)]
    candidates.append((MixedAction.delta(a_low).as_vector(game.actions1)[None, :], b_low))
    vertices = np.vstack([v for v, _ in candidates])
    pay = np.concatenate([v @ game.u1[:, game.b_index(b)] for v, b in candidates])
    c = vertices[:, game.a_index(stack.a_star)]
    res = _solve_block_lp(c, pay, np.empty((0, len(c))), np.ones((1, len(c))), [1.0], stack.v_star)
    if not res.optimal:
        raise RuntimeError("frequency program infeasible; the Stackelberg point always qualifies")
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
    # The scan below visits every (point, reply) pair once per mixing weight q.
    if (resolution + 1) * n_points * len(game.actions2) > 20_000_000:
        raise ValueError("grid too large for the enumeration budget")

    i_star = game.a_index(stack.a_star)
    freq_list: list[float] = []
    pay_list: list[float] = []
    for bars in combinations(range(resolution + n_a - 1), n_a - 1):  # stars and bars
        edges = (-1, *bars, resolution + n_a - 1)
        vec = np.array([b - a - 1 for a, b in zip(edges, edges[1:])], dtype=float) / resolution
        for j in _best((vec @ game.u2).tolist(), br_tol):
            freq_list.append(vec[i_star])
            pay_list.append(float(vec @ game.u1[:, j]))
    order = np.argsort(pay_list)
    freq, pay = np.array(freq_list)[order], np.array(pay_list)[order]

    # For each q, the cheapest second point paying at least v* - q * pay:
    # the first second-point payoff at or above it, and the least frequency
    # from there on. Scaling by 1 - q >= 0 keeps the payoff order, so one sort
    # serves every q. All q of a group, at most _GRID_CELLS pairs of them, are
    # scanned at once.
    best = np.inf
    qs = np.arange(resolution + 1) / resolution
    step = max(1, _GRID_CELLS // len(pay))
    for lo in range(0, len(qs), step):
        q = qs[lo : lo + step, None]
        u_second = (1.0 - q) * pay
        suffix_min = np.minimum.accumulate(((1.0 - q) * freq)[:, ::-1], axis=1)[:, ::-1]
        needed = stack.v_star - q * pay
        pos = np.array([np.searchsorted(row, need, side="left") for row, need in zip(u_second, needed)])
        ok = pos < len(pay)
        if np.any(ok):
            cand = (q * freq)[ok] + suffix_min[ok.nonzero()[0], pos[ok]]
            best = min(best, float(cand.min()))
    return best


def min_freq_curve(
    game: StageGame, epsilons, tol: float = DEFAULT_TOL
) -> list[tuple[float, float]]:
    """Evaluate the relaxed program along an ascending grid of payoff slacks."""
    eps = list(epsilons)
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValueError("slack values must be sorted ascending")
    return [(e, min_stackelberg_freq(game, epsilon=e, tol=tol).value) for e in eps]
