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
from dataclasses import dataclass, field

import numpy as np

from .attain import decompose_target
from .concentration import FiniteDist, tail_exponent
from .game import MixedAction, StageGame
from .stage import DEFAULT_TOL, _best, minmax_p1, stackelberg

# Path simulation stops once the remaining discounted weight is below this.
_RESIDUAL_WEIGHT = 1e-8
# Backoff applied to the largest mixture weight that keeps the reply strict.
_MIX_MARGIN = 1e-3

# Normal-phase blocks drawn per chunk. Part of the stream definition: changing
# it changes the path drawn for a given (seed, stream).
_CHUNK_BLOCKS = 48

MIN_REPS = 100  # fewest replications estimate_frequencies accepts

PHASE_PREP, PHASE_REVIEW, PHASE_ABSORB, PHASE_COMP = 0, 1, 2, 3


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
    z2_variant: str = "drift"
    drift_target: float = 0.0
    delta_bar: float = 0.0
    delta_bar_theory: float = 0.0
    m_bar: float = 0.0
    # q-sampling table for the absorbing subphase, flattened to atoms.
    atom_cum: np.ndarray | None = field(default=None, repr=False)
    atom_a: np.ndarray | None = field(default=None, repr=False)
    atom_b: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class BlockRecord:
    length: int
    absorbed: bool
    breach: str | None  # "low" | "high" | "cap" | None
    phi: float | None
    expected_residual: float
    realized_residual: float


@dataclass
class PathStats:
    freq: np.ndarray
    payoff: float
    prep_periods: int
    review_periods: int
    absorb_periods: int
    comp_periods: int
    absorb_entries: int
    blocks: list[BlockRecord]
    phase_weights: np.ndarray  # discounted weight of each phase, indexed by PHASE_*
    actions: np.ndarray | None = None
    replies: np.ndarray | None = None
    phases: np.ndarray | None = None


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
    minmax: float
    compensation_dip: float


def _strict_unique_reply_weight(game: StageGame, a_star: str, a_prime: str, b_star: str) -> float:
    """Largest weight on ``a_prime`` keeping ``b_star`` the strict unique reply."""
    i_star, i_prime = game.a_index(a_star), game.a_index(a_prime)
    j_star = game.b_index(b_star)

    def strict(w: float) -> bool:
        row = (1.0 - w) * game.u2[i_star] + w * game.u2[i_prime]
        margin = row[j_star] - np.max(np.delete(row, j_star))
        return margin > 0.0

    if strict(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if strict(mid):
            lo = mid
        else:
            hi = mid
    return lo


def derive_params(
    game: StageGame,
    target: MixedAction,
    eps1: float,
    delta: float,
    z2_variant: str = "drift",
    tol: float = DEFAULT_TOL,
) -> SimParams:
    """Derive every constant of the construction for a target distribution.

    The target must be attainable (it is decomposed here); the construction
    additionally needs an action strictly better than the commitment action
    against the commitment reply. A target putting all mass on the commitment
    action selects the trivial always-commit equilibrium instead.
    """
    if not 0.0 < eps1 < 1.0:
        raise ValueError("eps1 must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if z2_variant not in ("drift", "literal"):
        raise ValueError(f"unknown z2 variant {z2_variant!r}")
    stack = stackelberg(game, tol)
    if not (stack.unique_action and stack.unique_reply):
        raise ValueError("construction requires a unique commitment action and reply")
    for label in target.support():
        game.a_index(label)

    if target.prob(stack.a_star) >= 1.0 - 1e-12:
        return SimParams(
            a_star=stack.a_star,
            b_star=stack.b_star,
            v_star=stack.v_star,
            eps1=eps1,
            trivial=True,
        )

    witness = decompose_target(game, target, epsilon=0.0, tol=tol)
    if witness is None:
        raise ValueError("target distribution is not attainable at the commitment payoff")

    col = game.u1[:, game.b_index(stack.b_star)]
    candidates = [i for i in range(len(game.actions1)) if col[i] > stack.v_star + tol]
    if not candidates:
        raise ValueError(
            "no action beats the commitment payoff against the commitment reply; "
            "the commitment outcome is a stage-game best reply"
        )
    i_prime = max(candidates, key=lambda i: (col[i], -i))
    a_prime = game.actions1[i_prime]
    j_prime = min(_best(game.u2[i_prime], tol), key=lambda j: (game.u1[i_prime, j], j))
    b_prime = game.actions2[j_prime]
    u_comp = game.payoff1(a_prime, b_prime)
    if not u_comp < stack.v_star - tol:
        raise ValueError("no reply to the tempting action pays strictly below the commitment payoff")

    w_max = _strict_unique_reply_weight(game, stack.a_star, a_prime, stack.b_star)
    w = w_max - _MIX_MARGIN if w_max > 2 * _MIX_MARGIN else 0.5 * w_max
    if w <= 0.0:
        raise ValueError("cannot mix toward the tempting action while keeping the reply strict")
    alpha_prime = MixedAction({stack.a_star: 1.0 - w, a_prime: w})
    u_prime_mix = (1.0 - w) * stack.v_star + w * game.payoff1(a_prime, stack.b_star)

    atoms: list[tuple[float, int, int]] = []
    for b, (mass, alpha) in witness.weights.items():
        jb = game.b_index(b)
        for a in alpha.support():
            atoms.append((mass * alpha.prob(a), game.a_index(a), jb))
    atom_probs = np.array([p for p, _, _ in atoms])
    atom_a = np.array([ia for _, ia, _ in atoms], dtype=np.int64)
    atom_b = np.array([jb for _, _, jb in atoms], dtype=np.int64)
    atom_pay = game.u1[atom_a, atom_b]
    mean_witness_payoff = float(atom_probs @ atom_pay)
    atom_cum = np.cumsum(atom_probs / atom_probs.sum())
    atom_cum[-1] = 1.0

    drift_target = eps1 * u_prime_mix + (1.0 - eps1) * mean_witness_payoff + eps1
    z2_base = drift_target if z2_variant == "drift" else eps1

    def finite_dist(pairs: list[tuple[float, float]]) -> FiniteDist | None:
        merged: dict[float, float] = {}
        for value, prob in pairs:
            if prob <= 0.0:
                continue
            for known in merged:
                if abs(known - value) <= 1e-12:
                    value = known
                    break
            merged[value] = merged.get(value, 0.0) + prob
        values = np.array(list(merged))
        probs = np.array([merged[v] for v in values])
        probs = probs / probs.sum()
        if values.max() <= 0.0:
            return None  # breach event unreachable; the bound is vacuous
        dist = FiniteDist(values=values, probs=probs)
        if dist.mean >= 0:
            raise ValueError("drift variable has nonnegative mean; tail exponent undefined")
        return dist

    v = stack.v_star
    z1_pairs = [(0.0, eps1 * (1.0 - w)), (v - game.payoff1(a_prime, stack.b_star), eps1 * w)]
    z1_pairs += [(v - float(pay), (1.0 - eps1) * float(pr)) for pay, pr in zip(atom_pay, atom_probs)]
    z2_pairs = [(v - z2_base, eps1 * (1.0 - w)), (game.payoff1(a_prime, stack.b_star) - z2_base, eps1 * w)]
    z2_pairs += [(float(pay) - z2_base, (1.0 - eps1) * float(pr)) for pay, pr in zip(atom_pay, atom_probs)]
    z1 = finite_dist(z1_pairs)
    z2 = finite_dist(z2_pairs)
    r1 = tail_exponent(z1) if z1 is not None else None
    r2 = tail_exponent(z2) if z2 is not None else None
    finite = [r for r in (r1, r2) if r is not None]
    c = -math.log(eps1) / min(finite) if finite else 1.0

    gap = game.payoff1(a_prime, stack.b_star) - v
    m_bar = game.max_payoff1
    t1 = max(1, math.ceil((m_bar + c) / gap))
    t2_bar = math.ceil(math.log(1.0 - eps1) / math.log(delta))
    if t2_bar < 1:
        raise ValueError("absorbing subphase cap degenerates to zero periods")
    delta_bar = 1.0 - eps1
    delta_bar_theory = max((1.0 - eps1**3) ** (1.0 / t1), 1.0 - eps1**2)
    if delta < delta_bar:
        raise ValueError(f"delta {delta} is below the construction bound {delta_bar} (1 - eps1)")

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
        z2_variant=z2_variant,
        drift_target=drift_target,
        delta_bar=delta_bar,
        delta_bar_theory=delta_bar_theory,
        m_bar=m_bar,
        atom_cum=atom_cum,
        atom_a=atom_a,
        atom_b=atom_b,
    )


def _horizon(delta: float) -> int:
    # Last simulated period: the weight beyond it is below _RESIDUAL_WEIGHT.
    return max(0, math.ceil(math.log(_RESIDUAL_WEIGHT) / math.log(delta)) - 1)


def _total_weight(delta: float) -> float:
    # Discounted weight of periods 0 .. _horizon(delta), 1 - delta**(t_max + 1).
    return -math.expm1((_horizon(delta) + 1) * math.log(delta))


class _Chunk:
    """A chunk of i.i.d. normal-phase blocks, drawn and settled together.

    Every quantity of a block is local to it: the surplus ``g`` is measured in
    units of the block's first period, the breach test discounts within the
    absorbing run, and the compensation length depends only on ``g`` and the
    offset at which compensation starts. A block that starts at period ``s``
    therefore adds ``delta**s`` times its local frequency, payoff and phase
    weights. Blocks are drawn untruncated; the caller cuts the one that crosses
    the horizon. Compensation runs are capped at ``max_comp`` periods, which no
    block that fits the horizon reaches.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        game: StageGame,
        params: SimParams,
        delta: float,
        max_comp: int,
    ) -> None:
        self.ia_star, self.ia_prime = game.a_index(params.a_star), game.a_index(params.a_prime)
        self.jb_star, self.jb_prime = game.b_index(params.b_star), game.b_index(params.b_prime)
        n_a, t1, t2, v = len(game.actions1), params.t1, params.t2_bar, params.v_star
        disc = delta ** np.arange(max(t1, t2), dtype=float)

        # Stream order: review matrix, absorbing draws for the all-tempting
        # rows only, one compensation coin per block.
        self.prime = rng.random((_CHUNK_BLOCKS, t1)) < params.p
        self.rows = rows = np.flatnonzero(self.prime.all(axis=1))
        device = rng.random((len(rows), t2)) < params.eps1
        action_u = rng.random((len(rows), t2))
        coins = rng.random(_CHUNK_BLOCKS)

        # Review: the commitment reply throughout, so only tempting periods add surplus.
        w_prime = self.prime @ disc[:t1]
        w_star = ~self.prime @ disc[:t1]
        u_tempt = float(game.u1[self.ia_prime, self.jb_star])
        self.freq = np.zeros((_CHUNK_BLOCKS, n_a))
        self.freq[:, self.ia_prime] = w_prime
        self.freq[:, self.ia_star] = w_star
        self.payoff = u_tempt * w_prime + v * w_star
        self.phase = np.zeros((_CHUNK_BLOCKS, 4))
        self.phase[:, PHASE_REVIEW] = disc[:t1].sum()
        g = (u_tempt - v) * w_prime

        # Absorbing: the device picks the mixture or a witness atom each period;
        # the run ends at its first breach or at the cap.
        self.absorb_len = np.zeros(_CHUNK_BLOCKS, dtype=np.int64)
        self.breach: list[str | None] = [None] * _CHUNK_BLOCKS
        if rows.size:
            # Outcomes: the witness atoms, then the mixture's tempting and
            # commitment actions, both against the commitment reply. An atom's
            # index is the number of cumulative edges at or below u.
            out_a = np.append(params.atom_a, [self.ia_prime, self.ia_star])
            out_b = np.append(params.atom_b, [self.jb_star, self.jb_star])
            atom = sum((action_u >= edge).view(np.int8) for edge in params.atom_cum[:-1])
            mix = len(params.atom_cum) + (action_u >= params.p).view(np.int8)
            outcome = np.where(device, mix, atom)
            self.a_sub, self.b_sub = out_a.take(outcome), out_b.take(outcome)
            running = np.cumsum(disc[:t2] * game.u1[out_a, out_b].take(outcome), axis=1)
            weight_sum = np.cumsum(disc[:t2])
            low = running < v * weight_sum - params.c
            breached = low | (running > params.drift_target * weight_sum + params.c)
            r = np.arange(len(rows))
            first = breached.argmax(axis=1)
            hit = breached[r, first]
            sub_len = np.where(hit, first + 1, t2)
            self.absorb_len[rows] = sub_len
            for k, k_hit, k_low in zip(rows.tolist(), hit.tolist(), low[r, first].tolist()):
                self.breach[k] = ("low" if k_low else "high") if k_hit else "cap"
            kept = np.where(np.arange(t2) < sub_len[:, None], disc[:t2], 0.0)
            cells = (r[:, None] * n_a + self.a_sub).ravel()
            sub_freq = np.bincount(cells, weights=kept.ravel(), minlength=len(rows) * n_a)
            sub_pay, sub_weight = running[r, sub_len - 1], weight_sum[sub_len - 1]
            scale = delta**t1
            self.freq[rows] += scale * sub_freq.reshape(-1, n_a)
            self.payoff[rows] += scale * sub_pay
            self.phase[rows, PHASE_ABSORB] = scale * sub_weight
            g[rows] += scale * (sub_pay - v * sub_weight)
        self.off = t1 + self.absorb_len

        # Compensation: the shortest run of n periods whose burn,
        # rate * delta**off * (1 - delta**n) / (1 - delta), covers g. The closed
        # form gives n up to rounding; one exact step in each direction fixes it.
        u_comp = float(game.u1[self.ia_prime, self.jb_prime])
        rate = v - u_comp
        log_d = math.log(delta)
        lead = delta**self.off / (1.0 - delta)

        def burned(n: np.ndarray) -> np.ndarray:
            return lead * -np.expm1(n * log_d)

        self.burns = g > 1e-12
        y = np.where(self.burns, g / (rate * lead), 0.0)
        reachable = y < 1.0
        n = np.ceil(np.log1p(-np.where(reachable, y, 0.0)) / log_d)
        n = np.where(rate * burned(n - 1) >= g, n - 1, np.where(rate * burned(n) < g, n + 1, n))
        n = np.where(reachable, np.minimum(n, max_comp), max_comp)
        self.n_comp = np.where(self.burns, n, 0).astype(np.int64)
        g_after = g - rate * burned(self.n_comp)
        g_before = g - rate * burned(self.n_comp - 1)
        exact = np.abs(g_after) <= 1e-15
        self.phi = np.where(exact, 0.0, -g_after / np.where(exact, 1.0, g_before - g_after))
        early = coins < self.phi
        self.comp_len = np.where(self.burns, self.n_comp - early, 0)
        comp_w = burned(self.comp_len)
        self.freq[:, self.ia_prime] += comp_w
        self.payoff += u_comp * comp_w
        self.phase[:, PHASE_COMP] = comp_w
        self.length = self.off + self.comp_len
        self.g = g
        self.realized_residual = np.where(self.burns, np.where(early, g_before, g_after), g)
        self.expected_residual = np.where(self.burns, self.phi * g_before + (1.0 - self.phi) * g_after, g)

    def periods(self, first: int, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Actions, replies and phases of consecutive blocks from ``first`` on,
        each cut to its entry of ``lengths``, back to back."""
        t1 = self.prime.shape[1]
        offsets = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        # Every period not in review or absorbing is compensation.
        a = np.full(total, self.ia_prime)
        b = np.full(total, self.jb_prime)
        phase = np.full(total, PHASE_COMP)
        steps = np.arange(t1)
        keep = steps < lengths[:, None]
        at = (offsets[:, None] + steps)[keep]
        a[at] = np.where(self.prime[first : first + len(lengths)], self.ia_prime, self.ia_star)[keep]
        b[at] = self.jb_star
        phase[at] = PHASE_REVIEW
        r = np.flatnonzero((self.rows >= first) & (self.rows < first + len(lengths)))
        if r.size:
            j = self.rows[r] - first
            steps = np.arange(self.a_sub.shape[1])
            keep = (steps < self.absorb_len[self.rows[r], None]) & (t1 + steps < lengths[j, None])
            at = (offsets[j, None] + t1 + steps)[keep]
            a[at] = self.a_sub[r][keep]
            b[at] = self.b_sub[r][keep]
            phase[at] = PHASE_ABSORB
        return a, b, phase

    def records(self, n: int, delta: float) -> list[BlockRecord]:
        """Block records of the first ``n`` blocks.

        Residuals are in discounted-average units: the block identity says the
        block-local average payoff equals the commitment payoff, so the
        device-expected residual must vanish.
        """
        cols = zip(
            self.length[:n].tolist(),
            self.breach[:n],
            self.burns[:n].tolist(),
            self.phi[:n].tolist(),
            ((1.0 - delta) * self.expected_residual[:n]).tolist(),
            ((1.0 - delta) * self.realized_residual[:n]).tolist(),
        )
        return [
            BlockRecord(length, breach is not None, breach, phi if burns else None, expected, realized)
            for length, breach, burns, phi, expected, realized in cols
        ]


def simulate_path(
    game: StageGame,
    params: SimParams,
    delta: float,
    seed: int,
    stream: int = 0,
    record: bool = False,
) -> PathStats:
    """Simulate one on-path history; deterministic in (seed, stream).

    After preparation the path draws its blocks ``_CHUNK_BLOCKS`` at a time
    from the same stream (see :class:`_Chunk`), adds every block that ends
    inside the horizon at once, and cuts the first block that does not at the
    horizon, as drawn.
    """
    if not params.trivial and not params.delta_bar < delta < 1.0:
        raise ValueError(f"delta must lie in ({params.delta_bar}, 1)")
    if params.trivial and not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")

    n_a = len(game.actions1)
    t_max = _horizon(delta)

    if params.trivial:
        total_weight = _total_weight(delta)
        freq = np.zeros(n_a)
        freq[game.a_index(params.a_star)] = total_weight
        stats = PathStats(
            freq=freq,
            payoff=params.v_star * total_weight,
            prep_periods=t_max + 1,
            review_periods=0,
            absorb_periods=0,
            comp_periods=0,
            absorb_entries=0,
            blocks=[],
            phase_weights=np.array([total_weight, 0.0, 0.0, 0.0]),
        )
        if record:
            stats.actions = np.full(t_max + 1, game.a_index(params.a_star), dtype=np.int16)
            stats.replies = np.full(t_max + 1, game.b_index(params.b_star), dtype=np.int16)
            stats.phases = np.full(t_max + 1, PHASE_PREP, dtype=np.uint8)
        return stats

    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    ia_star = game.a_index(params.a_star)
    ia_prime = game.a_index(params.a_prime)
    jb_star = game.b_index(params.b_star)

    freq_raw = np.zeros(n_a)
    payoff_raw = 0.0
    phase_raw = np.zeros(4)
    periods = np.zeros(4, dtype=np.int64)
    rec_a = np.empty(t_max + 1, dtype=np.int16) if record else None
    rec_b = np.empty(t_max + 1, dtype=np.int16) if record else None
    rec_phase = np.empty(t_max + 1, dtype=np.uint8) if record else None
    blocks: list[BlockRecord] = []
    absorb_entries = 0

    def write(t0: int, a_vec: np.ndarray, b_vec: np.ndarray, phase: np.ndarray) -> None:
        rec_a[t0 : t0 + len(a_vec)] = a_vec
        rec_b[t0 : t0 + len(a_vec)] = b_vec
        rec_phase[t0 : t0 + len(a_vec)] = phase

    def fill(t0: int, a_vec: np.ndarray, b_vec: np.ndarray, phase: np.ndarray) -> None:
        nonlocal payoff_raw, freq_raw, phase_raw, periods
        wts = delta ** np.arange(t0, t0 + len(a_vec), dtype=float)
        freq_raw += np.bincount(a_vec, weights=wts, minlength=n_a)
        payoff_raw += float(wts @ game.u1[a_vec, b_vec])
        phase_raw += np.bincount(phase, weights=wts, minlength=4)
        periods += np.bincount(phase, minlength=4)
        if record:
            write(t0, a_vec, b_vec, phase)

    t = 0
    # Preparation: mix toward the tempting action until it realizes.
    while t <= t_max:
        n = min(256, t_max - t + 1)
        hits = rng.random(n) < params.p
        k = int(np.argmax(hits)) if hits.any() else -1
        stop = k + 1 if k >= 0 else n
        a_vec = np.full(stop, ia_star, dtype=np.int64)
        if k >= 0:
            a_vec[k] = ia_prime
        fill(t, a_vec, np.full(stop, jb_star, dtype=np.int64), np.full(stop, PHASE_PREP))
        t += stop
        if k >= 0:
            break

    # Normal phase: blocks of review / absorbing / compensation.
    while t <= t_max:
        chunk = _Chunk(rng, game, params, delta, max_comp=t_max + 2)
        starts = t + np.cumsum(chunk.length) - chunk.length
        # A block is kept if its review and absorbing part ends before the
        # horizon and its full compensation run fits by it.
        fits = (starts + chunk.off <= t_max) & (starts + chunk.off + chunk.n_comp <= t_max + 1)
        n = _CHUNK_BLOCKS if fits.all() else int(fits.argmin())
        deficit = chunk.g[:n][chunk.g[:n] < -1e-9]
        if deficit.size:
            raise RuntimeError(f"block entered compensation with a payoff deficit ({deficit[0]})")
        scale = delta ** starts[:n].astype(float)
        freq_raw += scale @ chunk.freq[:n]
        payoff_raw += float(scale @ chunk.payoff[:n])
        phase_raw += scale @ chunk.phase[:n]
        periods[PHASE_REVIEW] += n * params.t1
        periods[PHASE_ABSORB] += chunk.absorb_len[:n].sum()
        periods[PHASE_COMP] += chunk.comp_len[:n].sum()
        absorb_entries += int(np.count_nonzero(chunk.absorb_len[:n]))
        blocks += chunk.records(n, delta)
        if record and n:
            write(t, *chunk.periods(0, chunk.length[:n]))
        if n == _CHUNK_BLOCKS:
            t = int(starts[-1] + chunk.length[-1])
            continue
        # The first block that does not fit is cut at the horizon as drawn;
        # redrawing it would bias the length of the last block.
        t = int(starts[n])
        if t <= t_max:
            a_vec, b_vec, phase = chunk.periods(n, np.array([t_max + 1 - t]))
            fill(t, a_vec, b_vec, phase)
            absorb_entries += int(PHASE_ABSORB in phase)
        break

    stats = PathStats(
        freq=(1.0 - delta) * freq_raw,
        payoff=(1.0 - delta) * payoff_raw,
        prep_periods=int(periods[PHASE_PREP]),
        review_periods=int(periods[PHASE_REVIEW]),
        absorb_periods=int(periods[PHASE_ABSORB]),
        comp_periods=int(periods[PHASE_COMP]),
        absorb_entries=absorb_entries,
        blocks=blocks,
        phase_weights=(1.0 - delta) * phase_raw,
    )
    if record:
        stats.actions = rec_a
        stats.replies = rec_b
        stats.phases = rec_phase
    return stats


def estimate_frequencies(
    game: StageGame,
    params: SimParams,
    delta: float,
    reps: int,
    seed: int,
) -> SimOutcome:
    """Average discounted action frequencies and payoff over independent paths."""
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}")
    n_a = len(game.actions1)
    freqs = np.empty((reps, n_a))
    payoffs = np.empty(reps)
    tallies = {
        "prep_periods": 0.0,
        "review_periods": 0.0,
        "absorb_periods": 0.0,
        "comp_periods": 0.0,
        "absorb_entries": 0.0,
        "blocks": 0.0,
        "breach_low": 0.0,
        "breach_high": 0.0,
        "absorb_cap_ends": 0.0,
    }
    max_residual = 0.0
    phase_weights = np.zeros(4)
    for rep in range(reps):
        st = simulate_path(game, params, delta, seed, stream=rep)
        freqs[rep] = st.freq
        payoffs[rep] = st.payoff
        phase_weights += st.phase_weights
        tallies["prep_periods"] += st.prep_periods
        tallies["review_periods"] += st.review_periods
        tallies["absorb_periods"] += st.absorb_periods
        tallies["comp_periods"] += st.comp_periods
        tallies["absorb_entries"] += st.absorb_entries
        tallies["blocks"] += len(st.blocks)
        for blk in st.blocks:
            max_residual = max(max_residual, float(abs(blk.expected_residual)))
            if blk.breach == "low":
                tallies["breach_low"] += 1
            elif blk.breach == "high":
                tallies["breach_high"] += 1
            elif blk.breach == "cap":
                tallies["absorb_cap_ends"] += 1

    freq_mean = freqs.mean(axis=0)
    freq_se = freqs.std(axis=0, ddof=1) / math.sqrt(reps)
    payoff_se = float(payoffs.std(ddof=1)) / math.sqrt(reps)
    phase_stats = {key: val / reps for key, val in tallies.items()}
    phase_stats["max_block_residual"] = max_residual
    # Share of the discounted weight each phase carries, averaged over paths.
    for name, weight in zip(("prep", "review", "absorb", "comp"), phase_weights / reps):
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
    mm = minmax_p1(game)
    cap = (1.0 - delta) * game.max_payoff1 + delta * mm
    if params.trivial:
        min_cont = params.v_star
        dip = params.v_star
    else:
        u_comp = game.payoff1(params.a_prime, params.b_prime)
        rate = params.v_star - u_comp
        span = params.t1 + params.t2_bar
        g_max = (params.m_bar - params.v_star) * (1.0 - delta**span) / (1.0 - delta)
        x = g_max * (1.0 - delta) / (rate * delta**span)
        if x >= 1.0:
            dip = u_comp
        else:
            n_max = math.ceil(math.log1p(-x) / math.log(delta))
            dip = (1.0 - delta**n_max) * u_comp + delta**n_max * params.v_star
        min_cont = min(params.v_star, dip)
    slack = min_cont - cap
    return IncentiveReport(
        deviation_cap=cap,
        min_continuation=min_cont,
        slack=slack,
        passes=slack > 0,
        minmax=mm,
        compensation_dip=dip,
    )
