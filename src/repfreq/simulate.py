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

from .attain import TargetDecomposition, decompose_target
from .concentration import FiniteDist, tail_exponent
from .game import MixedAction, StageGame
from .stage import DEFAULT_TOL, best_replies_p2, minmax_p1, stackelberg

# Path simulation stops once the remaining discounted weight is below this.
_RESIDUAL_WEIGHT = 1e-8
# Backoff applied to the largest mixture weight that keeps the reply strict.
_MIX_MARGIN = 1e-3

PHASE_PREP, PHASE_REVIEW, PHASE_ABSORB, PHASE_COMP = 0, 1, 2, 3


@dataclass(frozen=True)
class SimParams:
    """Derived constants of the construction for one game and target."""

    target: MixedAction
    witness: TargetDecomposition | None
    a_star: str
    b_star: str
    v_star: float
    eps1: float
    pi: float
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
    mean_witness_payoff: float = 0.0
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
    pi: float = 0.5,
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
            target=target,
            witness=None,
            a_star=stack.a_star,
            b_star=stack.b_star,
            v_star=stack.v_star,
            eps1=eps1,
            pi=pi,
            trivial=True,
        )

    witness = decompose_target(game, target, epsilon=0.0, tol=tol)
    if witness is None:
        raise ValueError("target distribution is not attainable at the commitment payoff")

    i_star = game.a_index(stack.a_star)
    j_star = game.b_index(stack.b_star)
    col = game.u1[:, j_star]
    candidates = [i for i in range(len(game.actions1)) if col[i] > stack.v_star + tol]
    if not candidates:
        raise ValueError(
            "no action beats the commitment payoff against the commitment reply; "
            "the commitment outcome is a stage-game best reply"
        )
    i_prime = max(candidates, key=lambda i: (col[i], -i))
    a_prime = game.actions1[i_prime]
    replies = best_replies_p2(game, MixedAction.delta(a_prime), tol)
    b_prime = min(replies, key=lambda b: (game.u1[i_prime, game.b_index(b)], game.b_index(b)))
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
        target=target,
        witness=witness,
        a_star=stack.a_star,
        b_star=stack.b_star,
        v_star=v,
        eps1=eps1,
        pi=pi,
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
        mean_witness_payoff=mean_witness_payoff,
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


def simulate_path(
    game: StageGame,
    params: SimParams,
    delta: float,
    seed: int,
    stream: int = 0,
    record: bool = False,
) -> PathStats:
    """Simulate one on-path history; deterministic in (seed, stream)."""
    if not params.trivial and not params.delta_bar < delta < 1.0:
        raise ValueError(f"delta must lie in ({params.delta_bar}, 1)")
    if params.trivial and not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")

    n_a = len(game.actions1)
    t_max = _horizon(delta)
    powers = delta ** np.arange(t_max + 2, dtype=float)
    total_weight = float((1.0 - delta) * powers[: t_max + 1].sum())

    if params.trivial:
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
    jb_prime = game.b_index(params.b_prime)
    u_comp = float(game.u1[ia_prime, jb_prime])
    rate = params.v_star - u_comp
    p = params.p
    eps1 = params.eps1

    freq_raw = np.zeros(n_a)
    payoff_raw = 0.0
    rec_a = np.empty(t_max + 1, dtype=np.int16) if record else None
    rec_b = np.empty(t_max + 1, dtype=np.int16) if record else None
    rec_phase = np.empty(t_max + 1, dtype=np.uint8) if record else None
    blocks: list[BlockRecord] = []
    prep_periods = review_periods = absorb_periods = comp_periods = absorb_entries = 0

    def fill(t0: int, a_vec: np.ndarray, b_vec: np.ndarray, phase: int) -> float:
        nonlocal payoff_raw, freq_raw
        n = len(a_vec)
        wts = powers[t0 : t0 + n]
        pay = game.u1[a_vec, b_vec]
        freq_raw += np.bincount(a_vec, weights=wts, minlength=n_a)
        payoff_raw += float(wts @ pay)
        if record:
            rec_a[t0 : t0 + n] = a_vec
            rec_b[t0 : t0 + n] = b_vec
            rec_phase[t0 : t0 + n] = phase
        return float(wts @ (pay - params.v_star))

    t = 0
    # Preparation: mix toward the tempting action until it realizes.
    while t <= t_max:
        n = min(256, t_max - t + 1)
        hits = rng.random(n) < p
        k = int(np.argmax(hits)) if hits.any() else -1
        stop = k + 1 if k >= 0 else n
        a_vec = np.full(stop, ia_star, dtype=np.int64)
        if k >= 0:
            a_vec[k] = ia_prime
        fill(t, a_vec, np.full(stop, jb_star, dtype=np.int64), PHASE_PREP)
        prep_periods += stop
        t += stop
        if k >= 0:
            break

    # Normal phase: blocks of review / absorbing / compensation.
    while t <= t_max:
        block_t0 = t
        inv0 = 1.0 / powers[block_t0]
        g = 0.0

        n = min(params.t1, t_max - t + 1)
        a_vec = np.where(rng.random(n) < p, ia_prime, ia_star)
        g += fill(t, a_vec, np.full(n, jb_star, dtype=np.int64), PHASE_REVIEW) * inv0
        review_periods += n
        t += n
        if n < params.t1:
            break  # horizon hit mid-review; final block is incomplete
        all_prime = bool(np.all(a_vec == ia_prime))

        absorbed = False
        breach: str | None = None
        if all_prime and t <= t_max:
            absorbed = True
            absorb_entries += 1
            cap = min(params.t2_bar, t_max - t + 1)
            device = rng.random(cap) < eps1
            action_u = rng.random(cap)
            a_sub = np.empty(cap, dtype=np.int64)
            b_sub = np.empty(cap, dtype=np.int64)
            a_sub[device] = np.where(action_u[device] < p, ia_prime, ia_star)
            b_sub[device] = jb_star
            idx = np.searchsorted(params.atom_cum, action_u[~device], side="right")
            idx = idx.clip(max=len(params.atom_cum) - 1)
            a_sub[~device] = params.atom_a[idx]
            b_sub[~device] = params.atom_b[idx]

            sub_disc = powers[t : t + cap] / powers[t]
            pay_sub = game.u1[a_sub, b_sub]
            running = np.cumsum(sub_disc * pay_sub)
            weight_sum = np.cumsum(sub_disc)
            low = running < params.v_star * weight_sum - params.c
            high = running > params.drift_target * weight_sum + params.c
            breached = low | high
            if breached.any():
                k = int(np.argmax(breached))
                length = k + 1
                breach = "low" if low[k] else "high"
            else:
                length = cap
                breach = "cap" if cap == params.t2_bar else None
            g += fill(t, a_sub[:length], b_sub[:length], PHASE_ABSORB) * inv0
            absorb_periods += length
            t += length

        if t > t_max:
            break
        if g < -1e-9:
            raise RuntimeError(f"block entered compensation with a payoff deficit ({g})")

        phi: float | None = None
        realized_residual = g
        expected_residual = g
        if g > 1e-12:
            need = g / (rate * inv0)
            # Closed-form estimate of the run length, then an exact local scan.
            y = need * (1.0 - delta) / powers[t]
            if y >= 1.0:
                n_est = t_max - t + 1
            else:
                n_est = min(t_max - t + 1, math.ceil(math.log1p(-y) / math.log(delta)) + 2)
            csum = np.cumsum(powers[t : t + n_est])
            idx = int(np.searchsorted(csum, need, side="left"))
            if t + idx > t_max or idx >= len(csum):
                n_fill = t_max - t + 1
                fill(t, np.full(n_fill, ia_prime, dtype=np.int64), np.full(n_fill, jb_prime, dtype=np.int64), PHASE_COMP)
                comp_periods += n_fill
                t += n_fill
                break  # surplus cannot be burned before the horizon
            n_comp = idx + 1
            g_after = g - rate * float(csum[idx]) * inv0
            g_before = g - rate * float(csum[idx - 1]) * inv0 if idx >= 1 else g
            if abs(g_after) <= 1e-15:
                phi = 0.0
                realized = n_comp
                realized_residual = g_after
                expected_residual = g_after
            else:
                phi = -g_after / (g_before - g_after)
                end_early = bool(rng.random() < phi)
                realized = n_comp - 1 if end_early else n_comp
                realized_residual = g_before if end_early else g_after
                expected_residual = phi * g_before + (1.0 - phi) * g_after
            if realized:
                fill(
                    t,
                    np.full(realized, ia_prime, dtype=np.int64),
                    np.full(realized, jb_prime, dtype=np.int64),
                    PHASE_COMP,
                )
            comp_periods += realized
            t += realized

        # Residuals in discounted-average units: the block identity says the
        # block-local average payoff equals the commitment payoff, so the
        # device-expected residual must vanish.
        blocks.append(
            BlockRecord(
                length=t - block_t0,
                absorbed=absorbed,
                breach=breach,
                phi=phi,
                expected_residual=(1.0 - delta) * expected_residual,
                realized_residual=(1.0 - delta) * realized_residual,
            )
        )

    stats = PathStats(
        freq=(1.0 - delta) * freq_raw,
        payoff=(1.0 - delta) * payoff_raw,
        prep_periods=prep_periods,
        review_periods=review_periods,
        absorb_periods=absorb_periods,
        comp_periods=comp_periods,
        absorb_entries=absorb_entries,
        blocks=blocks,
    )
    if record:
        stats.actions = rec_a[:t]
        stats.replies = rec_b[:t]
        stats.phases = rec_phase[:t]
    return stats


def estimate_frequencies(
    game: StageGame,
    params: SimParams,
    delta: float,
    reps: int,
    seed: int,
) -> SimOutcome:
    """Average discounted action frequencies and payoff over independent paths."""
    if reps < 100:
        raise ValueError("reps must be at least 100")
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
    for rep in range(reps):
        st = simulate_path(game, params, delta, seed, stream=rep)
        freqs[rep] = st.freq
        payoffs[rep] = st.payoff
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
