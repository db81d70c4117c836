"""On-path simulation of the multi-phase reputation equilibrium.

The strategic player's path starts in a preparation phase (mix toward the
tempting action until it realizes), then cycles through normal-phase blocks:
a fixed-length run of the same mixture, a review, then either an absorbing
subphase that plays the target decomposition under a public randomization
device, or a compensation subphase that burns the block's payoff surplus
until the block's discounted average hits the commitment payoff exactly (in
expectation over the device at the block's last period). Punishment is never
reached on-path; it enters only through the deviation cap in
:func:`check_incentives`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .bounds import _require_unique_stackelberg, decompose_target
from .concentration import MAX_HORIZON, FiniteDist, _cum_edges, _draw_words, _philox, _word_index, tail_exponent
from .game import PROB_TOL, MixedAction, StageGame
from .stage import DEFAULT_TOL, _reply_gaps, _worst_replies, minmax_p1

# Path simulation stops once the remaining discounted weight (a share of the
# path's, 1) is below this; ``--tol`` does not reach it.
_RESIDUAL_WEIGHT = 1e-8
# Backoff applied to the largest mixture weight that keeps the reply strict.
_MIX_MARGIN = 1e-3
# Payoff tolerances, which ``--tol`` does not reach. They compare a block's
# surplus g over v*, discounted to its first period: it burns g above
# _SURPLUS_CUT, its run ends exactly where at most _EXACT_END of g is left, and
# it owes a deficit below -_DEFICIT_CUT.
_SURPLUS_CUT, _EXACT_END, _DEFICIT_CUT = 1e-12, 1e-15, 1e-9

# The most normal-phase blocks a chunk draws (see _chunk_blocks). Part of the
# stream definition: changing it changes the path drawn for a given (seed, stream).
_MAX_CHUNK_BLOCKS = 128

# Cells (review periods, and absorbing periods under the device) that one round
# of chunks may draw over the paths a simulate_path call runs at once (see
# _paths_at_once). A round keeps a review cell as a bool and an absorbing cell
# as a one-byte outcome code, so its draws take at most _BATCH_CELLS bytes. It
# bounds two things: the paths run at once, and the absorbing scan's slices of
# rows, about a 64th of it, 2**14 cells, or one row where t2_bar is longer.
# Each path codes its own absorbing words as it draws them, so the words not
# yet coded are one path's at most. It bounds the working memory only: every
# path, and so every estimate, is bit for bit the same at any value.
_BATCH_CELLS = 2**20

MIN_REPS = 100  # fewest replications estimate_frequencies accepts

PHASE_PREP, PHASE_REVIEW, PHASE_ABSORB, PHASE_COMP = 0, 1, 2, 3
# How a block's absorbing run ended, as _Chunk.breach codes them.
BREACHES = (None, "low", "high", "cap")


@dataclass(frozen=True)
class SimParams:
    """Derived constants of the construction for one game and target."""

    a_star: str
    b_star: str
    v_star: float
    eps1: float
    trivial: bool
    a_prime: str | None = None
    b_prime: str | None = None
    alpha_prime: MixedAction | None = None
    p: float = 0.0
    c: float = 0.0
    t1: int = 0
    t2_bar: int = 0
    r1_star: float | None = None
    r2_star: float | None = None
    z1: FiniteDist | None = None
    z2: FiniteDist | None = None
    drift_target: float = 0.0
    delta_bar: float = 0.0
    delta_bar_theory: float = 0.0
    # The absorbing subphase's outcome table. atom_cum: the witness atoms'
    # cumulative probabilities. out_a, out_b: each outcome code's action and
    # reply index, the witness atoms in order, then (a', b*), then (a*, b*),
    # the mixture's two actions against the commitment reply.
    atom_cum: np.ndarray | None = field(default=None, repr=False)
    out_a: np.ndarray | None = field(default=None, repr=False)
    out_b: np.ndarray | None = field(default=None, repr=False)

    # 32-bit word edges (concentration._cum_edges): a draw of probability F is
    # the event w < round(F * 2**32). p_edge is the mixture's tempting action;
    # joint_edges split an absorbing period's word into its outcome codes (see
    # _Chunk). Derived on first use, so they always agree with the fields they
    # come from.
    @cached_property
    def p_edge(self) -> int:
        return int(_cum_edges(self.p))

    @cached_property
    def joint_edges(self) -> np.ndarray:
        return _cum_edges(np.append((1.0 - self.eps1) * self.atom_cum, 1.0 - self.eps1 + self.eps1 * self.p))


@dataclass
class PathStats:
    """One path's discounted frequency, payoff and phase accounting.

    The block tallies count the completed blocks, those that end inside the
    horizon; the block cut at the horizon is not one of them. ``max_residual``
    is the largest |device-expected residual| of a completed block in
    discounted-average units: (1 - delta) times the block's payoff surplus over
    the commitment payoff, discounted to its first period, that is left in
    expectation over the compensation coin. The block identity says it
    vanishes, up to rounding. ``comp_unending`` says the cut block reached a
    compensation run that no length could end.
    """

    freq: np.ndarray
    payoff: float
    prep_periods: int
    review_periods: int
    absorb_periods: int
    comp_periods: int
    absorb_entries: int
    phase_weights: np.ndarray  # discounted weight of each phase, indexed by PHASE_*
    block_count: int = 0
    breach_low: int = 0
    breach_high: int = 0
    absorb_cap_ends: int = 0
    max_residual: float = 0.0
    comp_unending: bool = False


@dataclass(frozen=True)
class SimOutcome:
    freq: dict[str, float]
    payoff: float
    reps: int
    ci_radius: float
    payoff_ci: float
    phase_stats: dict[str, float]


@dataclass(frozen=True)
class IncentiveReport:
    deviation_cap: float
    min_continuation: float
    slack: float
    passes: bool


def derive_params(
    game: StageGame,
    target: MixedAction,
    eps1: float,
    delta: float,
    tol: float = DEFAULT_TOL,
) -> SimParams:
    """Derive every constant of the construction for a target distribution.

    The target must be attainable (it is decomposed here); the construction
    additionally needs an action strictly better than the commitment action
    against the commitment reply. A target putting all mass on the commitment
    action selects the trivial always-commit equilibrium instead, at any delta;
    every other target needs delta above 1 - eps1.
    """
    if not 0.0 < eps1 < 1.0:
        raise ValueError("eps1 must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    stack = _require_unique_stackelberg(game, tol)

    if target.as_vector(game.actions1)[game.a_index(stack.a_star)] >= 1.0 - PROB_TOL:
        return SimParams(
            a_star=stack.a_star,
            b_star=stack.b_star,
            v_star=stack.v_star,
            eps1=eps1,
            trivial=True,
        )
    delta_bar = 1.0 - eps1
    if delta <= delta_bar:
        cause = "; 1 - eps1 rounds to 1" if delta_bar == 1.0 else ""
        raise ValueError(f"delta {delta} is at or below the construction bound {delta_bar} (1 - eps1){cause}")

    witness = decompose_target(game, target, epsilon=0.0, tol=tol)
    if witness is None:
        raise ValueError("target distribution is not attainable at the commitment payoff")

    i_star, jb_star = game.a_index(stack.a_star), game.b_index(stack.b_star)
    i_prime = int(np.argmax(game.u1[:, jb_star]))  # the lowest index among the best
    u_tempt = float(game.u1[i_prime, jb_star])
    if u_tempt <= stack.v_star + tol:
        raise ValueError(
            "no action beats the commitment payoff against the commitment reply; "
            "the commitment outcome is a stage-game best reply"
        )
    a_prime = game.actions1[i_prime]
    # stackelberg values a_prime at b_prime, so a unique a_star puts u1(a_prime, b_prime) below v* - tol.
    b_prime = game.actions2[_worst_replies(game, tol)[i_prime]]

    # Against each rival reply k, b_star's margin under weight w on a_prime is
    # linear, (1 - w) * d0[k] + w * d1[k], with d0 > 0 as b_star is the unique
    # reply to a_star; it vanishes at d0 / (d0 - d1) where d1 < d0.
    rivals = _reply_gaps(game.u2)[1][jb_star]  # rows k != b_star: u2(., b_star) - u2(., b_k)
    d0, d1 = rivals[:, [i_star, i_prime]].T
    falls = d1 < d0
    w_max = float(np.min(d0[falls] / (d0 - d1)[falls], initial=1.0))
    w = w_max - _MIX_MARGIN if w_max > 2 * _MIX_MARGIN else 0.5 * w_max
    if w <= 0.0:
        raise ValueError("cannot mix toward the tempting action while keeping the reply strict")
    alpha_prime = MixedAction({stack.a_star: 1.0 - w, a_prime: w})
    u_prime_mix = (1.0 - w) * stack.v_star + w * u_tempt

    atoms = [
        (mass * alpha.prob(a), game.a_index(a), game.b_index(b))
        for b, (mass, alpha) in witness.weights.items()
        for a in alpha.support()
    ]
    atom_probs, atom_a, atom_b = map(np.array, zip(*atoms))
    atom_pay = game.u1[atom_a, atom_b]
    mean_witness_payoff = float(atom_probs @ atom_pay)
    atom_cum = np.cumsum(atom_probs / atom_probs.sum())
    atom_cum[-1] = 1.0

    drift_target = eps1 * u_prime_mix + (1.0 - eps1) * mean_witness_payoff + eps1

    def finite_dist(pairs: list[tuple[float, float]]) -> FiniteDist | None:
        merged: dict[float, float] = {}  # equal payoffs are one atom
        for value, prob in pairs:
            if prob > 0.0:
                merged[value] = merged.get(value, 0.0) + prob
        values = np.array(list(merged))
        probs = np.array(list(merged.values()))
        probs = probs / probs.sum()
        if values.max() <= 0.0:
            return None  # breach event unreachable; the bound is vacuous
        return FiniteDist(values=values, probs=probs)

    # Player 1's per-period payoff law over a block: the mixture's two
    # actions against b_star, then the witness atoms. z1 is the deficit below
    # v*, z2 the excess over the drift target.
    v = stack.v_star
    law = [(v, eps1 * (1.0 - w)), (u_tempt, eps1 * w)]
    law += [(float(pay), (1.0 - eps1) * float(pr)) for pay, pr in zip(atom_pay, atom_probs)]
    z1 = finite_dist([(v - x, q) for x, q in law])
    z2 = finite_dist([(x - drift_target, q) for x, q in law])
    for z, name in ((z1, "z1, the deficit below v*,"), (z2, "z2, the excess over the drift target,")):
        if z is not None and z.mean >= 0:
            raise ValueError(f"drift variable {name} has nonnegative mean; tail exponent undefined")
    r1, r2 = (tail_exponent(z) if z is not None else None for z in (z1, z2))
    finite = [r for r in (r1, r2) if r is not None]
    c = -math.log(eps1) / min(finite) if finite else 1.0

    gap = u_tempt - v
    m_bar = game.max_payoff1
    t1 = max(1, math.ceil((m_bar + c) / gap))
    # delta > 1 - eps1 puts t2_bar at 1 or more.
    t2_bar = math.ceil(math.log(1.0 - eps1) / math.log(delta))
    delta_bar_theory = max((1.0 - eps1**3) ** (1.0 / t1), 1.0 - eps1**2)

    return SimParams(
        a_star=stack.a_star,
        b_star=stack.b_star,
        v_star=v,
        eps1=eps1,
        trivial=False,
        a_prime=a_prime,
        b_prime=b_prime,
        alpha_prime=alpha_prime,
        p=w,
        c=c,
        t1=t1,
        t2_bar=t2_bar,
        r1_star=r1,
        r2_star=r2,
        z1=z1,
        z2=z2,
        drift_target=drift_target,
        delta_bar=delta_bar,
        delta_bar_theory=delta_bar_theory,
        atom_cum=atom_cum,
        out_a=np.append(atom_a, [i_prime, i_star]),
        out_b=np.append(atom_b, [jb_star, jb_star]),
    )


def _horizon(delta: float) -> int:
    # Last simulated period: the weight beyond it is below _RESIDUAL_WEIGHT.
    return max(0, math.ceil(math.log(_RESIDUAL_WEIGHT) / math.log(delta)) - 1)


def _total_weight(delta: float) -> float:
    # Discounted weight of periods 0 .. _horizon(delta), 1 - delta**(t_max + 1).
    return -math.expm1((_horizon(delta) + 1) * math.log(delta))


def _chunk_blocks(left, blocks, periods):
    """Blocks in a path's next chunk: ceil(left * blocks / periods) + 1, at most
    ``_MAX_CHUNK_BLOCKS``, where ``left`` periods remain to the horizon and the
    path's completed ``blocks`` took ``periods`` periods. One block more than
    the path's own rate predicts, so most paths need no further chunk.
    Elementwise over arrays."""
    return np.minimum(_MAX_CHUNK_BLOCKS, -(-left * blocks // periods) + 1)


def _burned(n: np.ndarray, lead: np.ndarray, log_d: float) -> np.ndarray:
    # Weight of the first n periods of a run whose endless tail weighs lead = delta**off / (1 - delta).
    return lead * -np.expm1(n * log_d)


def _comp_length(g: np.ndarray, lead: np.ndarray, rate: float, log_d: float) -> np.ndarray:
    """Shortest compensation runs, elementwise: the least n whose burn,
    ``rate * _burned(n, lead, log_d)``, is at least the surplus ``g``. ``inf``
    where no run is that long: the whole tail's burn, ``rate * lead``, does not
    exceed ``g`` (as when ``lead`` underflows to 0). The closed form gives n up
    to rounding; one exact step in each direction fixes it."""
    reachable = g < rate * lead
    y = np.divide(g, rate * lead, out=np.zeros_like(lead), where=reachable)
    n = np.ceil(np.log1p(-y) / log_d)
    n = np.where(
        rate * _burned(n - 1, lead, log_d) >= g, n - 1, np.where(rate * _burned(n, lead, log_d) < g, n + 1, n)
    )
    return np.where(reachable, n, np.inf)


def _block_length(game: StageGame, params: SimParams, delta: float) -> float:
    """An estimated block length: t1 plus the compensation run that burns a
    review's mean surplus, with p as its word edge quantises it, ``inf``
    where no run does. The run length is convex in the surplus, and absorbing
    runs are left out, so the estimate errs toward blocks shorter than the
    mean, and a chunk sized from it toward being large enough."""
    t1, v, log_d = params.t1, params.v_star, math.log(delta)
    tempt = game.payoff1(params.a_prime, params.b_star) - v
    surplus = tempt * params.p_edge / 2.0**32 * _burned(t1, 1.0 / (1.0 - delta), log_d)
    rate = v - game.payoff1(params.a_prime, params.b_prime)
    return t1 + float(_comp_length(surplus, delta**t1 / (1.0 - delta), rate, log_d))


def _path_sums(owner: np.ndarray, values: np.ndarray, paths: int) -> np.ndarray:
    """Sums of the rows of ``values`` by owning path, one row per path, for a
    nondecreasing ``owner``. Each path's rows are summed on their own, so its
    sums do not depend on the other paths of its batch."""
    starts = np.searchsorted(owner, np.arange(paths))
    sums = np.add.reduceat(values, np.minimum(starts, len(owner) - 1), axis=0)
    sums[np.diff(starts, append=len(owner)) == 0] = 0
    return sums


class _Chunk:
    """A chunk of i.i.d. normal-phase blocks for each path of a batch.

    Path ``i`` draws ``sizes[i]`` blocks from its own bit generator, exactly the
    words it would draw alone, and lays them back to back from period ``t[i]``
    on. Only the draws are made path by path; the blocks of all paths are
    settled together.

    Every quantity of a block is local to it: the surplus ``g`` is measured in
    units of the block's first period, the breach test discounts within the
    absorbing run, and the compensation length depends only on ``g`` and the
    offset at which compensation starts. A block that starts at period ``s``
    therefore adds ``delta**s`` times its local frequency, payoff and phase
    weights. A block is completed if its review and absorbing part ends by the
    horizon ``t_max`` and its full compensation run fits by it. A path keeps
    its leading completed blocks; its first block that is not completed is cut
    at the horizon as drawn, since redrawing it would bias the length of the
    last block, and the blocks after it are discarded. Compensation runs are
    capped at ``t_max + 2`` periods, which no completed block reaches.

    Every draw is a 32-bit word from :func:`concentration._draw_words`,
    compared with integer edges round(F * 2**32) (:func:`concentration._cum_edges`),
    so each probability is quantised to a multiple of 2**-32. In stream order:
    a ``(blocks, t1)`` review matrix, tempting where w < edge(p); for the rows
    whose review was all tempting, one ``(rows, t2_bar)`` absorbing matrix, a
    word per period drawn from the joint law of the device and the action:
    its outcome code is the number of ``SimParams.joint_edges`` <= w, a
    witness atom k where w < edge((1 - eps1) * atom_cum[k]), else the
    mixture's tempting action where w < edge(1 - eps1 + eps1 * p), else its
    commitment action; then one compensation coin per block, ending the run
    one period early where w < edge(phi), and a block's expected residual is
    computed from that quantised phi. A path with ``left = t_max + 1 - t
    <= t1`` periods left is surely cut inside its next block's review, so its
    chunk is that one block, of which it draws only the ``left`` review words
    it reads.

    The paths draw one after another, each all of its words in that order in
    one pass (see :meth:`_draw`). Each path turns all its words, review and
    absorbing, into what the chunk keeps during its own turn: its reviews as
    bool rows of ``review`` and each review's tempting weight, its absorbing
    words as one ``outcome`` code per absorbing period. So no words are kept
    from one path to the next, and a block keeps a byte per review or
    absorbing period. The absorbing scan then runs over slices of rows of
    about 2**14 cells (see ``_BATCH_CELLS``).
    """

    def __init__(
        self,
        bitgens: list[np.random.Philox],
        game: StageGame,
        params: SimParams,
        delta: float,
        sizes: np.ndarray,
        t: np.ndarray,
        t_max: int,
    ) -> None:
        self.params, self.t_max = params, t_max
        self.ia_star, self.ia_prime = game.a_index(params.a_star), game.a_index(params.a_prime)
        self.jb_star, self.jb_prime = game.b_index(params.b_star), game.b_index(params.b_prime)
        self.n_a, t1, t2, v = len(game.actions1), params.t1, params.t2_bar, params.v_star
        self.u_tempt = float(game.u1[self.ia_prime, self.jb_star])
        self.u_comp = float(game.u1[self.ia_prime, self.jb_prime])
        left = t_max + 1 - t
        in_review = left <= t1  # paths surely cut inside their next review
        self.sizes = sizes = np.where(in_review, 1, sizes)
        self.first = np.cumsum(sizes) - sizes
        self.end = self.first + sizes
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        blocks = int(sizes.sum())
        self.width = width = min(t1, t_max)  # no path draws a longer review
        self.disc = delta ** np.arange(max(width, t2), dtype=float)
        self.cum_disc = np.cumsum(self.disc)

        coins = self._draw(bitgens, np.where(in_review, left, 0))
        # Review: the commitment reply throughout, so only tempting periods add surplus.
        g = (self.u_tempt - v) * self.w_prime

        # Absorbing: the device picks the mixture or a witness atom each period.
        rows = self.rows
        self.absorb_len = np.zeros(blocks, dtype=np.int64)
        self.breach = np.zeros(blocks, dtype=np.int8)  # index into BREACHES
        self.row_of = np.full(blocks, -1)
        self.row_of[rows] = np.arange(len(rows))
        self.scale_t1 = delta**t1
        if rows.size:
            # Each outcome code's action, in a narrow type, and payoff.
            self.out_a = params.out_a.astype(np.int16)
            self.out_pay = game.u1[params.out_a, params.out_b]
            self.absorb_actions = np.unique(self.out_a).tolist()
            # A slice of rows at a time keeps the scan's float arrays to
            # _BATCH_CELLS // 64 cells.
            step = max(1, _BATCH_CELLS // 64 // t2)
            runs = [self._absorb(self.outcome[lo : lo + step], t2) for lo in range(0, len(rows), step)]
            sub_len, code, self.sub_freq, self.sub_pay, self.sub_weight = map(np.concatenate, zip(*runs))
            self.absorb_len[rows] = sub_len
            self.breach[rows] = code
            g[rows] += self.scale_t1 * (self.sub_pay - v * self.sub_weight)
        self.off = t1 + self.absorb_len

        # Compensation: the shortest run that covers g (_comp_length), capped.
        rate = v - self.u_comp
        self.log_d = log_d = math.log(delta)
        self.lead = lead = delta**self.off / (1.0 - delta)
        self.burns = g > _SURPLUS_CUT
        n = _comp_length(g, lead, rate, log_d)
        self.unending = self.burns & np.isinf(n)
        self.n_comp = np.where(self.burns, np.minimum(n, t_max + 2), 0).astype(np.int64)
        g_after = g - rate * _burned(self.n_comp, lead, log_d)
        g_before = g - rate * _burned(self.n_comp - 1, lead, log_d)
        # 0 where the run ends exactly, or where its last period moves g by nothing.
        moves = (np.abs(g_after) > _EXACT_END) & (g_before > g_after)
        phi_edge = _cum_edges(np.divide(-g_after, g_before - g_after, out=np.zeros_like(g), where=moves))
        # The coin's probability as drawn, so the expected residual is exact for it.
        self.phi = phi_edge / 2.0**32
        early = coins < phi_edge
        self.comp_len = np.where(self.burns, self.n_comp - early, 0)
        self.length = self.off + self.comp_len
        self.g = g
        self.realized_residual = np.where(self.burns, np.where(early, g_before, g_after), g)
        self.expected_residual = np.where(self.burns, self.phi * g_before + (1.0 - self.phi) * g_after, g)
        self._place(t)

    def _draw(self, bitgens: list[np.random.Philox], partial: np.ndarray) -> np.ndarray:
        """Draw each path's words in its stream order, one path after another:
        its review words, the absorbing words of its all-tempting rows, then
        its coins; ``partial[i]`` > 0 draws only that many words of path i's
        one review. Each path turns all its words, review and absorbing, into
        what the chunk keeps during its own turn: the ``review`` rows, padded
        with False to ``width``, each full review's tempting weight
        ``w_prime``, and the ``outcome`` codes of its all-tempting rows,
        listed in ``rows``. Returns the coins."""
        params, t1, t2 = self.params, self.params.t1, self.params.t2_bar
        blocks = len(self.owner)
        self.review = np.zeros((blocks, self.width), dtype=bool)
        self.w_prime = np.zeros(blocks)
        tempting = np.zeros(blocks, dtype=bool)  # full reviews, all tempting
        coins = np.zeros(blocks, dtype=np.uint32)
        codes = [np.empty((0, t2), dtype=np.uint8)]
        for bitgen, lo, n, k in zip(bitgens, self.first.tolist(), self.sizes.tolist(), partial.tolist()):
            review = _draw_words(bitgen, (n, k or t1)) < params.p_edge
            self.review[lo : lo + n, : review.shape[1]] = review
            if k:
                continue  # a cut review, the path's last words
            self.w_prime[lo : lo + n] = review @ self.disc[:t1]
            tempting[lo : lo + n] = full = review.all(axis=1)
            if rows := np.count_nonzero(full):
                codes.append(_word_index(_draw_words(bitgen, (rows, t2)), params.joint_edges))
            coins[lo : lo + n] = _draw_words(bitgen, (n,))
        self.rows, self.outcome = np.flatnonzero(tempting), np.concatenate(codes)
        return coins

    def _place(self, t: np.ndarray) -> None:
        """Lay each path's blocks from its period ``t`` on: ``start`` of each
        block, ``kept`` for the completed blocks a path keeps, ``stop`` for
        each path's first block not kept (its end if it kept all), and
        ``span``, each block's periods inside the horizon: its length if kept,
        up to the horizon for each path's cut block (listed in ``cut``), else 0."""
        t_max = self.t_max
        before = np.cumsum(self.length) - self.length
        self.start = before + np.repeat(t - before[self.first], self.sizes)
        fits = (self.start + self.off <= t_max) & (self.start + self.off + self.n_comp <= t_max + 1)
        unfit = np.append(np.flatnonzero(~fits), len(fits))
        self.stop = np.minimum(unfit[np.searchsorted(unfit, self.first)], self.end)
        self.kept = np.arange(len(fits)) < self.stop[self.owner]
        self.span = np.where(self.kept, self.length, 0)
        cut = self.stop[self.stop < self.end]
        self.cut = cut[self.start[cut] <= t_max]
        self.span[self.cut] = t_max + 1 - self.start[self.cut]

    def _absorb(self, outcome: np.ndarray, limit) -> tuple[np.ndarray, ...]:
        """The absorbing runs coded by the rows of ``outcome``, each ending at
        its first breach or at the cap: their lengths and breach codes, and
        their frequency by action, payoff and weight over their first
        min(length, ``limit``) periods, in units of the run's first period.
        Every sum is its row's own: the payoff adds the row's periods one by
        one in order, and each action's frequency is a row-local einsum, so no
        sum depends on the other rows of ``outcome``."""
        params, t2 = self.params, outcome.shape[1]
        disc, weight_sum = self.disc[:t2], self.cum_disc[:t2]
        outcome = outcome.astype(np.intp)
        running = self.out_pay.take(outcome)
        action = self.out_a.take(outcome)
        del outcome
        running *= disc
        np.cumsum(running, axis=1, out=running)
        low = running < params.v_star * weight_sum - params.c
        breached = running > params.drift_target * weight_sum + params.c
        breached |= low
        i = np.arange(len(action))
        first = breached.argmax(axis=1)
        hit = breached[i, first]
        length = np.where(hit, first + 1, t2)
        code = np.where(hit, np.where(low[i, first], 1, 2), 3)
        k = np.minimum(length, limit)
        pay = running[i, k - 1]
        del running, low, breached
        steps = np.arange(t2, dtype=np.min_scalar_type(t2))  # a narrow type compares faster
        kept = steps < k.astype(steps.dtype)[:, None]
        freq = np.zeros((len(action), self.n_a))
        for a in self.absorb_actions:
            # einsum without optimize sums each row apart, without BLAS.
            freq[:, a] = np.einsum("ij,j->i", ((action == a) & kept).astype(float), disc)
        return length, code, freq, pay, weight_sum[k - 1]

    def path_sums(self, delta: float) -> tuple[np.ndarray, ...]:
        """Each path's additions from this chunk, one row per path, in the
        column layouts of :func:`_simulate`'s ``sums`` and ``counts``: the
        discounted frequency, payoff and phase weights of its blocks inside
        the horizon, and their phase periods and absorbing entries, its
        completed blocks by breach code and, last, whether its cut block reached
        a compensation run that cannot end. Then two vectors: the largest
        |expected residual| of its completed blocks, and the payoff deficit of
        its first completed block that entered compensation with one (NaN if
        none).

        A block inside the horizon for ``span`` periods spends min(span, t1) of
        them in review, up to its absorbing run's length in absorbing, and the
        rest in compensation. Only a cut block stops short of a phase's end; its
        review and absorbing parts are summed from the prefixes of its rows.
        """
        t1, n_a, v, paths = self.params.t1, self.n_a, self.params.v_star, len(self.sizes)
        kept = np.flatnonzero(self.kept)
        owed = kept[self.g[kept] < -_DEFICIT_CUT]
        owners, first = np.unique(self.owner[owed], return_index=True)
        deficit = np.full(paths, np.nan)
        deficit[owners] = self.g[owed[first]]

        idx = np.flatnonzero(self.span)
        span = self.span[idx]
        rev = np.minimum(span, t1)
        absorb = np.minimum(np.maximum(span - t1, 0), self.absorb_len[idx])
        comp = np.maximum(span - self.off[idx], 0)
        # Review weights: tempting, commitment, total.
        w_prime = self.w_prime[idx]
        w_review = np.full(len(idx), self.disc[:t1].sum())
        w_star = w_review - w_prime
        cut = np.flatnonzero(~self.kept[idx])
        if cut.size:
            # Each action's periods summed apart: no cancellation when one dominates.
            rows, disc, at = self.review[idx[cut]], self.disc[: self.width], (np.arange(cut.size), rev[cut] - 1)
            w_prime[cut] = np.cumsum(np.where(rows, disc, 0.0), axis=1)[at]
            w_star[cut] = np.cumsum(np.where(rows, 0.0, disc), axis=1)[at]
            w_review[cut] = self.cum_disc[rev[cut] - 1]
        local = np.zeros((len(idx), n_a + 5))  # frequency by action, payoff, phase weights
        freq, phase = local[:, :n_a], local[:, n_a + 1 :]
        freq[:, self.ia_prime] = w_prime
        freq[:, self.ia_star] = w_star
        local[:, n_a] = self.u_tempt * w_prime + v * w_star
        phase[:, PHASE_REVIEW] = w_review
        has = np.flatnonzero(absorb)
        if has.size:
            r = self.row_of[idx[has]]
            sub_freq, sub_pay, sub_weight = self.sub_freq[r], self.sub_pay[r], self.sub_weight[r]
            cut = np.flatnonzero(absorb[has] < self.absorb_len[idx[has]])
            if cut.size:
                runs = self._absorb(self.outcome[r[cut]], absorb[has][cut])
                _, _, sub_freq[cut], sub_pay[cut], sub_weight[cut] = runs
            freq[has] += self.scale_t1 * sub_freq
            local[has, n_a] += self.scale_t1 * sub_pay
            phase[has, PHASE_ABSORB] = self.scale_t1 * sub_weight
        comp_w = _burned(comp, self.lead[idx], self.log_d)
        freq[:, self.ia_prime] += comp_w
        local[:, n_a] += self.u_comp * comp_w
        phase[:, PHASE_COMP] = comp_w

        owner = self.owner[idx]
        local *= delta ** self.start[idx].astype(float)[:, None]
        ends = self.kept[idx, None] & (self.breach[idx, None] == np.arange(len(BREACHES)))
        unending = ~self.kept[idx] & self.unending[idx] & (self.start[idx] + self.off[idx] <= self.t_max)
        periods = np.column_stack([np.zeros_like(rev), rev, absorb, comp, absorb > 0, ends, unending])
        max_residual = np.zeros(paths)
        np.maximum.at(max_residual, self.owner[kept], np.abs(self.expected_residual[kept]))
        return _path_sums(owner, local, paths), _path_sums(owner, periods, paths), max_residual, deficit

    def next_period(self) -> np.ndarray:
        """Each path's next period: after its last block if it kept them all,
        else past the horizon."""
        last = self.end - 1
        return np.where(self.stop == self.end, self.start[last] + self.length[last], self.t_max + 1)


def simulate_path(
    game: StageGame,
    params: SimParams,
    delta: float,
    seed: int,
    stream: int | range = 0,
) -> PathStats | list[PathStats]:
    """Simulate one on-path history; deterministic in (seed, stream).

    The path draws every random word from one Philox bit generator keyed by
    ``(seed % 2**64, stream % 2**64)``. Preparation draws up to 256 words at a
    time, tempting where w < round(p * 2**32). The normal phase then draws its
    blocks a chunk at a time (see :class:`_Chunk`), each chunk as many as
    :func:`_chunk_blocks` predicts from the blocks and periods of the path so
    far, but never more than the path's first chunk. The first chunk, before
    any block, predicts from one block of the length :func:`_block_length`
    estimates, t1 periods and the compensation run that burns a review's mean
    surplus; where no run burns it, the first chunk is one block. Every block
    that ends inside the horizon is added at once; the first block that does
    not is cut at the horizon, as drawn. The chunks add only to the path's
    sums and block tallies; no per-period history is kept.

    ``stream`` may also be a range of streams; a list of results then comes
    back, one per stream. The paths run together, as many at once as
    ``_BATCH_CELLS`` admits (see :func:`_paths_at_once`), the next stream
    starting as a path ends. Each round, every running path draws its next
    chunk, and the chunks are settled in one set of array operations. Each
    path still reads only its own stream, the same words in the same order,
    and adds up its own blocks in its own order, so each result equals what
    ``stream=s`` alone returns, bit for bit.

    A path holds min(t1, t_max) or t2_bar discounts, whichever is more; past
    ``concentration.MAX_HORIZON`` entries it is refused with a ``ValueError``
    before anything is drawn. Always-commit parameters hold none.
    """
    if not params.delta_bar < delta < 1.0:
        raise ValueError(f"delta must lie in ({params.delta_bar}, 1)")
    length = max(min(params.t1, _horizon(delta)), params.t2_bar)
    if length > MAX_HORIZON:
        raise ValueError(f"the path's discount vector would take {length} entries, above the cap of {MAX_HORIZON}")
    streams = stream if isinstance(stream, range) else range(stream, stream + 1)
    paths = _simulate(game, params, delta, seed, streams)
    return paths if isinstance(stream, range) else paths[0]


def _prepare(bitgen: np.random.Philox, p_edge: int, t_max: int) -> tuple[int, bool]:
    """A path's preparation periods, and whether the tempting action ended it
    (rather than the horizon): up to 256 words a draw, each tempting where
    w < ``p_edge``, until one is."""
    t = 0
    while t <= t_max:
        n = min(256, t_max - t + 1)
        hits = _draw_words(bitgen, (n,)) < p_edge
        k = int(hits.argmax())
        if hits[k]:
            return t + k + 1, True
        t += n
    return t, False


def _paths_at_once(params: SimParams, t_max: int) -> int:
    """How many paths a ``simulate_path`` call simulates at once: as many as
    keep one round of their chunks within ``_BATCH_CELLS`` cells, but at least
    one, so a path whose first chunk alone exceeds the budget runs alone. A
    path's first chunk is its largest, since it caps the later ones, and it
    has at most ``_chunk_blocks(t_max, 1, t1)`` blocks, since the estimated
    block length it is sized from is at least t1 (see :func:`simulate_path`).
    Each block has at most min(t1, t_max) review cells and t2_bar absorbing
    cells, kept as a byte each (see :class:`_Chunk`). An always-commit path
    draws no blocks; it is counted as one cell."""
    if params.trivial:
        return _BATCH_CELLS
    blocks = int(_chunk_blocks(t_max, 1, params.t1))
    return max(1, _BATCH_CELLS // (blocks * (min(params.t1, t_max) + params.t2_bar)))


def _simulate(game: StageGame, params: SimParams, delta: float, seed: int, streams: range) -> list[PathStats]:
    n_a, n_paths = len(game.actions1), len(streams)
    t_max = _horizon(delta)
    ia_star = game.a_index(params.a_star)
    jb_star = game.b_index(params.b_star)
    # One row per path. sums: the discounted frequency by action, payoff, then
    # the phase weights by PHASE_*. counts: the phase periods by PHASE_*, the
    # absorbing entries, the completed blocks by breach code (BREACHES), then
    # whether the cut block reached a compensation run that no length could end.
    sums = np.zeros((n_paths, n_a + 5))
    counts = np.zeros((n_paths, 6 + len(BREACHES)), dtype=np.int64)
    max_residual = np.zeros(n_paths)

    if params.trivial:
        # Always commit: preparation to the horizon. Its weight, frequency and
        # payoff are written in discounted-average units, so they are not scaled.
        w = _total_weight(delta)
        sums[:, [ia_star, n_a, n_a + 1 + PHASE_PREP]] = w, params.v_star * w, w
        counts[:, PHASE_PREP] = t_max + 1
    else:
        ia_prime = game.a_index(params.a_prime)
        pay_star, pay_hit = game.u1[ia_star, jb_star], game.u1[ia_prime, jb_star]
        deficit = np.full(n_paths, np.nan)
        t = np.zeros(n_paths, dtype=np.int64)  # each path's next period
        size = np.zeros(n_paths, dtype=np.int64)  # blocks in its next chunk
        cap = np.zeros(n_paths, dtype=np.int64)  # blocks in its first chunk, the most any chunk takes
        length = _block_length(game, params, delta)
        bitgens: dict[int, np.random.Philox] = {}
        spare: list[np.random.Philox] = []  # bit generators of finished paths
        capacity = _paths_at_once(params, t_max)
        live = np.zeros(0, dtype=np.int64)
        joined = 0
        while joined < n_paths or live.size:
            # Paths join while there is room, each after its preparation: mix
            # toward the tempting action until it realizes.
            new = np.arange(joined, min(n_paths, joined + capacity - live.size))
            joined += new.size
            hit = np.zeros(new.size, dtype=bool)
            for j, i in enumerate(new.tolist()):
                bitgens[i] = _philox(np.array([seed % 2**64, streams[i] % 2**64], dtype=np.uint64), spare)
                t[i], hit[j] = _prepare(bitgens[i], params.p_edge, t_max)
            if new.size:
                prep = t[new]
                weights = delta ** np.arange(prep.max(), dtype=float)
                cum = np.cumsum(weights)
                n_star = prep - hit  # periods of the commitment action
                w_star = np.where(n_star > 0, cum[n_star - 1], 0.0)
                w_hit = np.where(hit, weights[prep - 1], 0.0)
                sums[new, ia_star] = w_star
                sums[new, ia_prime] = w_hit
                sums[new, n_a] = pay_star * w_star + pay_hit * w_hit
                sums[new, n_a + 1 + PHASE_PREP] = cum[prep - 1]
                counts[new, PHASE_PREP] = prep
                # The first chunk is sized as a later one would be after one block
                # of the estimated length, or is one block where that length is
                # endless; it caps every later chunk of the path.
                size[new] = cap[new] = _chunk_blocks(t_max + 1 - prep, 1, length) if math.isfinite(length) else 1
                live = np.concatenate([live, new[prep <= t_max]])
                spare += [bitgens.pop(i) for i in new[prep > t_max].tolist()]
            if not live.size:
                continue

            # Normal phase: blocks of review / absorbing / compensation, a chunk of each live path at a time.
            chunk = _Chunk([bitgens[i] for i in live.tolist()], game, params, delta, size[live], t[live], t_max)
            add, tally, residual, owed = chunk.path_sums(delta)
            sums[live] += add
            counts[live] += tally
            max_residual[live] = np.maximum(max_residual[live], residual)
            deficit[live] = np.where(np.isnan(deficit[live]), owed, deficit[live])
            t[live] = chunk.next_period()
            spare += [bitgens.pop(i) for i in live[t[live] > t_max].tolist()]
            del chunk  # before the next round's chunk is built
            live = live[t[live] <= t_max]
            done = counts[live, 5:-1].sum(axis=1)  # completed blocks, from the breach columns
            later = _chunk_blocks(t_max + 1 - t[live], done, t[live] - counts[live, PHASE_PREP])
            size[live] = np.minimum(later, cap[live])
        # Raised for the first such path, so a batch fails as its first failing path does alone.
        failed = np.flatnonzero(~np.isnan(deficit))
        if failed.size:
            raise RuntimeError(f"block entered compensation with a payoff deficit ({deficit[failed[0]]})")

        sums *= 1.0 - delta
        max_residual *= 1.0 - delta
    # PathStats fields in order, from the columns of sums and counts.
    return [
        PathStats(s[:n_a], float(s[n_a]), *c[:5], s[n_a + 1 :], sum(c[5:-1]), *c[6:-1], residual, bool(c[-1]))
        for s, c, residual in zip(sums, counts.tolist(), max_residual.tolist())
    ]


def estimate_frequencies(
    game: StageGame,
    params: SimParams,
    delta: float,
    reps: int,
    seed: int,
) -> SimOutcome:
    """Average discounted action frequencies and payoff over independent paths.

    Path ``k`` is ``simulate_path(..., seed, stream=k)``, and one
    ``simulate_path`` call with ``stream=range(reps)`` runs them all, as many
    at once as keep a round's draws within ``_BATCH_CELLS`` = 2**20 cells, a
    byte per review or absorbing period. How many run at once bounds the
    working memory only; the estimate is bit for bit the same at any number.
    """
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}")
    paths = simulate_path(game, params, delta, seed, stream=range(reps))
    # One array per PathStats field, a row per path.
    col = {f.name: np.array([getattr(st, f.name) for st in paths]) for f in fields(PathStats)}
    freqs, payoffs = col["freq"], col["payoff"]

    freq_mean = freqs.mean(axis=0)
    freq_se = freqs.std(axis=0, ddof=1) / math.sqrt(reps)
    payoff_se = float(payoffs.std(ddof=1)) / math.sqrt(reps)
    # Every count and flag, averaged over paths; block_count is reported as "blocks".
    phase_stats = {
        ("blocks" if name == "block_count" else name): float(val.sum() / reps)
        for name, val in col.items()
        if val.dtype.kind in "bi"
    }
    phase_stats["max_block_residual"] = float(col["max_residual"].max())
    # Share of the discounted weight each phase carries, averaged over paths.
    for name, weight in zip(("prep", "review", "absorb", "comp"), col["phase_weights"].sum(axis=0) / reps):
        phase_stats[f"share_{name}"] = float(weight / _total_weight(delta))
    return SimOutcome(
        freq={a: float(freq_mean[i]) for i, a in enumerate(game.actions1)},
        payoff=float(payoffs.mean()),
        reps=reps,
        ci_radius=float(1.96 * freq_se.max()),
        payoff_ci=1.96 * payoff_se,
        phase_stats=phase_stats,
    )


def check_incentives(game: StageGame, params: SimParams, delta: float) -> IncentiveReport:
    """One-shot deviation check: worst on-path continuation versus the cap.

    Deviating yields at most one period of the best payoff followed by the
    minmax continuation. The worst on-path continuation is the commitment
    payoff dented by the longest possible compensation run.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    cap = (1.0 - delta) * game.max_payoff1 + delta * minmax_p1(game)
    if params.trivial:
        min_cont = params.v_star
    else:
        u_comp = game.payoff1(params.a_prime, params.b_prime)
        rate = params.v_star - u_comp
        span = params.t1 + params.t2_bar
        g_max = (game.max_payoff1 - params.v_star) * (1.0 - delta**span) / (1.0 - delta)
        # n_max = inf (no run ends) gives dip = u_comp.
        n_max = float(_comp_length(g_max, delta**span / (1.0 - delta), rate, math.log(delta)))
        dip = (1.0 - delta**n_max) * u_comp + delta**n_max * params.v_star
        min_cont = min(params.v_star, dip)
    slack = min_cont - cap
    return IncentiveReport(
        deviation_cap=cap,
        min_continuation=min_cont,
        slack=slack,
        passes=slack > 0,
    )
