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

The table holds the undominated pairs, from every vertex of every P_b. One
batched solve finds the vertices of all the P_b at once: P_b's system holds
its rival rows u2(., b) - u2(., b') only, and a row that is zero (a rival
that ties b everywhere) stays in place, since every choice that uses it is
singular and dropped. The batch is cut, by whole replies, into groups of at
most ``_VERTEX_CELLS`` matrix cells. The bound of a pair, the least over T of
the largest u1 over S, is found for every pair at once; pairs are scanned in
falling order of it, and one max-min LP per pair gives the value, none
solved where a pure saddle point or a bound settles it. The vertex count is
exponential in the number of actions, which is fine at desk scale (six or
fewer per side).

``_reply_gaps`` is the one source of the P_b rows, and of every other
opponent-payoff gap u2(., b) - u2(., b'): the frequency LP's reply cones,
the indifference pieces and the simulator's reply margins read theirs from
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .game import MixedAction, StageGame
from .linprog import solve_lp

# The default of every ``tol`` argument and of ``--tol``: the slack of the
# best-reply ties and the other payoff comparisons, in payoff units.
DEFAULT_TOL = 1e-9
# The vertex enumerator's own tolerances, which ``--tol`` does not reach.
# _UNIT_ROW_TOL (DEFAULT_TOL's value, not its meaning) is the slack of each
# test on unit-length rows: their rank, slacks and reply ties at a vertex, and
# its zero weights. A choice of unit rows whose determinant is at most
# _DET_TOL is dependent.
_UNIT_ROW_TOL = 1e-9
_DET_TOL = 1e-12
# The most matrix cells (systems x n x n) one batch of _simplex_vertices
# solves: 8 MB of systems. It bounds the working memory only.
_VERTEX_CELLS = 2**20


@dataclass(frozen=True)
class StackelbergResult:
    """Optimal pure commitment action and its worst-case reply payoff."""

    a_star: str
    b_star: str
    v_star: float
    unique_action: bool
    unique_reply: bool


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


def _best(values: list[float], tol: float) -> list[int]:
    """Indices of the entries of ``values`` within ``tol`` of the largest:
    every best-reply tie rule, for either player.

    ``values`` is a list of Python floats: the callers' rows hold a handful
    of entries, where NumPy's per-call cost outweighs the comparisons.
    Raises ``ValueError`` when ``tol`` is negative or NaN, which would leave
    no best entry.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    floor = max(values) - tol
    return [i for i, v in enumerate(values) if v >= floor]


def best_replies_p2(game: StageGame, alpha: MixedAction, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """All player-2 actions within ``tol`` of the best payoff against ``alpha``."""
    return tuple(game.actions2[j] for j in _best((alpha.as_vector(game.actions1) @ game.u2).tolist(), tol))


def _pure_best_replies_p1(game: StageGame, b: str, tol: float) -> tuple[str, ...]:
    return tuple(game.actions1[i] for i in _best(game.u1[:, game.b_index(b)].tolist(), tol))


def _worst_replies(game: StageGame, tol: float) -> list[int]:
    """Player 1's worst best reply to each of its pure actions, the lowest index on ties.

    Row i's best replies are its :func:`_best` entries of u2; of those, the
    first with the least u1 is taken. This one rule picks both b* and the
    simulator's reply b' to the tempting action.
    """
    return [min(_best(row2, tol), key=row1.__getitem__) for row1, row2 in zip(game.u1.tolist(), game.u2.tolist())]


def stackelberg(game: StageGame, tol: float = DEFAULT_TOL) -> StackelbergResult:
    """Enumerate pure commitments; ties are reported, never broken silently.

    Each pure action is valued at its worst best reply (:func:`_worst_replies`).
    """
    worst = _worst_replies(game, tol)
    values = [row[j] for row, j in zip(game.u1.tolist(), worst)]
    candidates = _best(values, tol)
    i_star = candidates[0]
    return StackelbergResult(
        a_star=game.actions1[i_star],
        b_star=game.actions2[worst[i_star]],
        v_star=values[i_star],
        unique_action=len(candidates) == 1,
        unique_reply=len(_best(game.u2[i_star].tolist(), tol)) == 1,
    )


def _simplex_vertices(eq: np.ndarray, ineq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of {alpha in the simplex : eq @ alpha = 0, ineq[i] @ alpha >= 0}
    for each system i of ``ineq``, one per row, and the system each came from.

    The systems share ``eq`` and have the same number of rows. A vertex is
    where n independent constraints bind: the simplex sum, a basis of the
    ``eq`` rows, and as many inequalities (``alpha >= 0`` among them) as are
    still needed. Every choice of those inequalities, for every system, is
    solved in batches of whole systems of at most ``_VERTEX_CELLS`` matrix
    cells, or of one system where its choices alone hold more. Rows are
    scaled to unit length, so the tolerances do not depend on the payoff
    scale. A row of zero length stays in place, unscaled: every choice that
    uses it is singular and dropped, and every point meets it. So each
    system's vertices come in the order of its choices, as a call on that
    system alone gives them.
    """
    m, rows, n = ineq.shape
    if len(eq):
        norms = np.linalg.norm(eq, axis=-1)
        eq = eq[norms > 0.0] / norms[norms > 0.0, None]
    if len(eq) > 1:  # an orthonormal basis in place of rows that may be dependent
        _, sing, vt = np.linalg.svd(eq)
        eq = vt[: np.count_nonzero(sing > _UNIT_ROW_TOL)]
    need = n - 1 - len(eq)
    if need < 0:
        return np.empty((0, n)), np.empty(0, np.intp)
    norms = np.linalg.norm(ineq, axis=-1)[..., None]
    ineq = np.concatenate([ineq / np.where(norms > 0.0, norms, 1.0), np.zeros((m, n, n))], axis=1)
    ineq[:, rows:] = np.eye(n)  # alpha >= 0
    choices = combinations(range(rows + n), need)
    choices = np.fromiter(chain.from_iterable(choices), np.intp).reshape(comb(rows + n, need), need)
    step = max(1, _VERTEX_CELLS // (len(choices) * n * n))
    points, owners = [], []
    for lo in range(0, m, step):
        group = ineq[lo : lo + step]
        systems = np.empty((len(group), len(choices), n, n))
        systems[:, :, 0] = n**-0.5
        systems[:, :, 1 : n - need] = eq
        systems[:, :, n - need :] = group[:, choices]
        systems = systems.reshape(-1, n, n)
        keep = np.abs(np.linalg.det(systems)) > _DET_TOL  # drop choices of dependent rows
        owner = np.repeat(np.arange(lo, lo + len(group)), len(choices))[keep]
        rhs = np.zeros((len(owner), n, 1))
        rhs[:, 0] = n**-0.5
        point = np.linalg.solve(systems[keep], rhs)[..., 0]
        feasible = np.all(np.einsum("pn,prn->pr", point, ineq[owner]) >= -_UNIT_ROW_TOL, axis=1)
        points.append(point[feasible])
        owners.append(owner[feasible])
    return np.concatenate(points), np.concatenate(owners)


def _maximal(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a boolean matrix that no other row contains, in
    lexicographic order.

    Each row is packed into 64-bit words, its first column the most
    significant bit, so the words sort as the rows do, and a row contains
    another exactly when their AND is the other.
    """
    width = rows.shape[1]
    packed = np.zeros((len(rows), -(-width // 64) * 8), np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(rows, axis=1)
    words = packed.view(">u8").astype(np.uint64)
    words = words[np.lexsort(words.T[::-1])]
    distinct = np.ones(len(words), bool)
    distinct[1:] = (words[1:] != words[:-1]).any(axis=1)
    words = words[distinct]
    contained = ((words[:, None] & words) == words).all(axis=2).sum(axis=0) > 1  # by itself and another
    kept = words[~contained].astype(">u8").view(np.uint8)
    return np.unpackbits(kept, axis=1, count=width).view(bool)


def _reply_table(game: StageGame) -> tuple[np.ndarray, np.ndarray]:
    """The undominated (supp v, BR v) pairs over the vertices v of every P_b,
    as boolean rows over player 1's and player 2's actions."""
    return _reply_table_of(game.u2.tobytes(), game.u2.shape)


def _reply_gaps(u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every opponent-payoff gap, gaps[j, k] = u2(., b_j) - u2(., b_k), and
    each reply's rival rows, rivals[j] = gaps[j, k] for k != j in k order:
    P_b_j is the simplex cut by rivals[j] @ alpha >= 0.

    Flattened in (j, k) order, the pairs k = j are every (n_b + 1)-th from
    the first; dropping them leaves n_b - 1 per j.
    """
    n_a, n_b = u2.shape
    gaps = u2.T[:, None] - u2.T
    return gaps, gaps.reshape(n_b * n_b, n_a)[1:].reshape(n_b - 1, n_b + 1, n_a)[:, :-1].reshape(n_b, n_b - 1, n_a)


@lru_cache(maxsize=16)
def _reply_table_of(data: bytes, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n_a = shape[0]
    # Raise on overflow or NaN, so payoffs near the float range are refused,
    # not tabled from gaps or norms that overflowed.
    try:
        with np.errstate(over="raise", invalid="raise"):
            gaps, rivals = _reply_gaps(np.frombuffer(data).reshape(shape))
            vertices, owner = _simplex_vertices(np.empty((0, n_a)), rivals)
            bound = _UNIT_ROW_TOL * np.linalg.norm(gaps, axis=-1)[owner]
            replies = np.einsum("va,vka->vk", vertices, gaps[owner]) <= bound
    except FloatingPointError as err:
        raise ValueError(f"player 2's payoff gaps overflowed the float range in the vertex table ({err})") from err
    # A pair dominates another when its row (actions off the support, then
    # replies) contains the other's.
    pairs = _maximal(np.hstack([vertices <= _UNIT_ROW_TOL, replies]))
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


def _largest_maxmin(u: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """The largest ``_maxmin`` of the blocks u[T, S], one per pair of boolean
    masks (T, S) = (rows[p], cols[p]). A block's value is at most its bound,
    the least over T of the largest entry over S, so blocks are taken in
    falling order of that bound (the first pair first on ties) and the scan
    stops once the bound cannot beat the best value found. Only the blocks it
    solves are cut out."""
    bound = np.where(rows, np.where(cols[:, None], u, -np.inf).max(axis=2), np.inf).min(axis=1)
    best = -np.inf
    for p in np.argsort(-bound, kind="stable").tolist():
        if bound[p] <= best:
            break
        best = max(best, _maxmin(u[np.ix_(rows[p], cols[p])]))
    return best


def minmax_p1(game: StageGame) -> float:
    """Worst payoff rationalizable myopic opponents can hold player 1 to.

    The least, over the maximal reply sets S of the vertex table, of the min
    over beta on S of max over a of u1(a, beta).
    """
    replies = _maximal(_reply_table(game)[1])
    return -_largest_maxmin(-game.u1, np.ones((len(replies), len(game.actions1)), bool), replies)


def vbar_p1(game: StageGame) -> float:
    """Highest payoff supportable with myopic opponents best-replying.

    The largest, over the vertex table's pairs (T, S), of the max over beta
    on S of min over a in T of u1(a, beta). The module docstring says why
    those pairs suffice.
    """
    supports, replies = _reply_table(game)
    return _largest_maxmin(game.u1, supports, replies)


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
    u1 = game.u1[i].tolist()
    j_low = max(_best(game.u2[i].tolist(), tol), key=lambda j: (u1[j], -j))
    return a_low, game.actions2[j_low]
