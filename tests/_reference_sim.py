"""Per-period reference simulator for the statistical oracle test.

This is the simulator as it was before paths were drawn a chunk of blocks at a
time: every block is stepped in Python, drawing only the periods it uses. It
shares no sampling code with :mod:`repfreq.simulate`, so the two agree only in
distribution, not path by path. ``PathStats`` is its own result type, without
the phase weights the current simulator reports; ``BlockRecord`` is the record
of one completed block, which :func:`tests._trace.traced_path` also builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repfreq.game import StageGame
from repfreq.simulate import (
    PHASE_ABSORB,
    PHASE_COMP,
    PHASE_PREP,
    PHASE_REVIEW,
    SimParams,
    _horizon,
)


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
            a_sub[~device] = params.out_a[idx]
            b_sub[~device] = params.out_b[idx]

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
