"""Exponential tail bound for discounted sums and its Monte Carlo check.

For an i.i.d. sequence with negative mean that still takes positive values,
the probability that the discounted running sum ever reaches a level c is at
most exp(-r * c), where r is the positive root of the exponential-moment
equation E[exp(r Z)] = 1. This module finds the root and estimates the tail
probability by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ROOT_WIDTH = 1e-13  # bisection stops when the bracket is this narrow
_EXP_CAP = 700.0  # beyond this, exp overflows; the moment is effectively +inf
# Monte Carlo stream layout: replications per Philox stream, and steps drawn
# per live row between prune checks. Both fix which uniform each step uses, so
# changing either changes every estimate for a given seed. 256 x 64 float64
# keeps each chunk's working set near 128 KB.
_BATCH = 256
_CHUNK = 64
_HORIZON_REL = 1e-6  # most the sum may still gain after the horizon, as a share of max(c, 1)
MIN_REPS = 1000  # fewest replications tail_probability_mc accepts


@dataclass(frozen=True)
class FiniteDist:
    """Finite-support distribution given as matched value/probability arrays."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise ValueError("values and probs must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("support values must be finite")
        if np.any(probs <= 0):
            raise ValueError("probabilities must be positive")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {math.fsum(probs)!r}, expected 1")
        if len(np.unique(values)) != len(values):
            raise ValueError("support values must be distinct")
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_pairs(cls, pairs) -> "FiniteDist":
        pairs = list(pairs)
        return cls(
            values=np.array([v for v, _ in pairs], dtype=float),
            probs=np.array([p for _, p in pairs], dtype=float),
        )

    @property
    def mean(self) -> float:
        return float(self.values @ self.probs)

    @property
    def max_value(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class TailReport:
    r_star: float
    analytic_bound: float
    empirical: float
    reps: int
    std_error: float
    c: float
    delta: float
    horizon: int


def tail_exponent(dist: FiniteDist) -> float:
    """Smallest positive root of E[exp(r Z)] = 1.

    The moment function is convex with value 1 and negative slope at r = 0,
    and diverges because some support value is positive, so the positive root
    exists, is unique, and is found by doubling then bisection.
    """
    if dist.mean >= 0:
        raise ValueError("distribution mean must be negative")
    if dist.max_value <= 0:
        raise ValueError("distribution must take a positive value with positive probability")

    values, probs = dist.values, dist.probs
    max_pos = dist.max_value

    def gap(r: float) -> float:
        if r * max_pos > _EXP_CAP:
            return math.inf
        return float(probs @ np.exp(r * values)) - 1.0

    hi = 1.0
    while gap(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - unreachable given the preconditions
            raise RuntimeError("failed to bracket the tail exponent")
    lo = 0.0
    while hi - lo > _ROOT_WIDTH:
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if g == 0.0:
            return mid
        if g > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def min_horizon(dist: FiniteDist, delta: float, c: float) -> int:
    """Smallest horizon whose post-horizon best case moves the sum by less
    than a millionth (``_HORIZON_REL``) of max(c, 1)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    max_pos = max(dist.max_value, 0.0)
    if max_pos == 0.0:
        return 1
    # delta^(h+1) * max_pos / (1 - delta) < _HORIZON_REL * max(c, 1)
    bound = _HORIZON_REL * max(c, 1.0) * (1.0 - delta) / max_pos
    h = math.ceil(math.log(bound) / math.log(delta)) - 1
    return max(int(h), 1)


def _check_horizon(dist: FiniteDist, delta: float, c: float, horizon: int) -> None:
    max_pos = max(dist.max_value, 0.0)
    residual = delta ** (horizon + 1) * max_pos / (1.0 - delta)
    limit = _HORIZON_REL * max(c, 1.0)
    if residual >= limit:
        raise ValueError(
            f"horizon {horizon} leaves a reachable post-horizon increment of "
            f"{residual:.3g}; need below {limit:.3g}"
        )


def tail_probability_mc(
    dist: FiniteDist,
    delta: float,
    c: float,
    horizon: int,
    reps: int,
    seed: int,
) -> TailReport:
    """Estimate the probability that the discounted running sum of i.i.d.
    draws ever reaches ``c``, and compare against the analytic bound.

    Replications run in batches of ``_BATCH`` rows. Batch ``k`` (rows
    ``k * _BATCH`` onward; the last batch may be short) draws from one Philox
    stream keyed by ``(seed % 2**64, k)``, so results do not depend on the
    order in which batches run. Each draw from that stream is a
    ``(live rows, _CHUNK)`` matrix of uniforms (fewer columns if the horizon
    ends sooner), mapped to support values by the cumulative probabilities;
    rows that hit ``c`` or can no longer reach it leave the batch after each
    chunk. That pruning is exact, while the horizon cut can only lower the
    estimate.

    So after the first chunk, the uniforms a replication receives depend on
    which rows of its batch are still live, which depends on ``delta``,
    ``c`` and the horizon. Calls that differ in those share draws only within
    the first chunk, and only where their horizons give it the same width.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    _check_horizon(dist, delta, c, horizon)

    r_star = tail_exponent(dist)
    analytic = math.exp(-r_star * c)

    values = dist.values
    edges = np.cumsum(dist.probs)[:-1]  # u maps to values[number of edges <= u]
    max_pos = dist.max_value
    disc_all = np.exp(math.log(delta) * np.arange(1, horizon + 1))

    hits = 0
    for batch, first in enumerate(range(0, reps, _BATCH)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, batch], dtype=np.uint64)))
        carry = np.zeros(min(_BATCH, reps - first))  # live rows' sums so far
        start = 1  # the sum runs over t = 1, 2, ...
        while carry.size and start <= horizon:
            n = min(_CHUNK, horizon - start + 1)
            u = rng.random((carry.size, n))
            index = np.zeros(u.shape, dtype=np.intp)
            for edge in edges:
                index += u >= edge
            steps = values[index]
            steps *= disc_all[start - 1 : start - 1 + n]
            sums = np.cumsum(steps, axis=1, out=steps)
            sums += carry[:, None]
            hit = (sums >= c).any(axis=1)
            hits += int(np.count_nonzero(hit))
            carry = sums[:, -1]
            start += n
            # Keep rows that have not hit and whose best future can still reach c.
            carry = carry[~hit & (carry + delta**start * max_pos / (1.0 - delta) >= c)]
    empirical = hits / reps
    std_error = math.sqrt(empirical * (1.0 - empirical) / reps)
    return TailReport(
        r_star=r_star,
        analytic_bound=analytic,
        empirical=empirical,
        reps=reps,
        std_error=std_error,
        c=c,
        delta=delta,
        horizon=horizon,
    )
