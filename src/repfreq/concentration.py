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
from functools import cached_property

import numpy as np

from .game import PROB_TOL

# ``--tol`` reaches neither _ROOT_WIDTH nor _HORIZON_REL.
_ROOT_WIDTH = 1e-13  # bisection stops when the bracket is this narrow, in units of r
_EXP_CAP = 700.0  # beyond this, exp overflows; the moment is effectively +inf
# Monte Carlo stream layout: replications per Philox stream, and steps drawn
# per live row between prune checks. Both fix which 32-bit word each step uses,
# so changing either changes every estimate for a given seed. A 256 x 64 chunk
# is 64 KB of words, plus 128 KB of float64 steps when every row is near.
_BATCH = 256
_CHUNK = 64
_HORIZON_REL = 1e-6  # most the sum may still gain after the horizon, as a share of max(c, 1)
MIN_REPS = 1000  # fewest replications tail_probability_mc accepts
# Most steps tail_probability_mc accepts, and most entries of simulate_path's
# discount vector: 80 MB of float64 discounts.
MAX_HORIZON = 10**7


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
        if not np.all(np.isfinite(probs) & (probs > 0)):
            raise ValueError("probabilities must be finite and positive")
        if abs(math.fsum(probs) - 1.0) > PROB_TOL:
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

    @cached_property  # read on every prune of tail_probability_mc
    def max_value(self) -> float:
        return float(self.values.max())

    @cached_property
    def tail_exponent(self) -> float:
        """The root :func:`tail_exponent` returns, solved on first use. The
        support arrays are read-only, so it never goes stale; an error is not
        cached, so it raises on every call."""
        if self.mean >= 0:
            raise ValueError("distribution mean must be negative")
        if self.max_value <= 0:
            raise ValueError("distribution must take a positive value with positive probability")

        scale = math.ldexp(1.0, math.frexp(self.max_value)[1] - 1)
        # Python floats: the support is tiny, so numpy's per-call overhead would
        # dominate the roughly 45 bisection steps.
        pairs = [(prob, value / scale) for prob, value in zip(self.probs.tolist(), self.values.tolist())]
        max_pos = self.max_value / scale

        def gap(r: float) -> float:
            if r * max_pos > _EXP_CAP:
                return math.inf
            return math.fsum([prob * math.exp(r * value) for prob, value in pairs]) - 1.0

        # Ends by hi = 1024: there r * max_pos >= 1024 > _EXP_CAP, so the gap is inf.
        hi = 1.0
        while gap(hi) <= 0.0:
            hi *= 2.0
        lo = 0.0
        width = _ROOT_WIDTH * min(1.0, scale)
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # adjacent floats: above 512, or where width is below their spacing
            g = gap(mid)
            if g == 0.0:
                lo = hi = mid
                break
            if g > 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi) / scale
        if root == math.inf:  # a subnormal largest value puts the root beyond the float range
            raise ValueError(
                f"the tail exponent's root is not a finite float: the largest value {self.max_value:.3g} is too small"
            )
        return root


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

    The search runs on the support divided by s = 2**floor(log2 max(Z)), which
    is exact and puts the largest value in [1, 2), so the result does not
    depend on the support's scale; the root found is then divided by s. The
    bracket on the scaled root stops below ``_ROOT_WIDTH * min(1, s)``, so the
    root's own bracket is never wider than ``_ROOT_WIDTH``.

    The root is solved once per distribution and kept on it
    (``FiniteDist.tail_exponent``); later calls return that same float.
    """
    return dist.tail_exponent


def _post_horizon(dist: FiniteDist, delta: float, horizon: int) -> float:
    """The most the discounted sum can still gain after ``horizon``."""
    return delta ** (horizon + 1) * max(dist.max_value, 0.0) / (1.0 - delta)


def min_horizon(dist: FiniteDist, delta: float, c: float) -> int:
    """Smallest horizon whose post-horizon best case moves the sum by less
    than a millionth (``_HORIZON_REL``) of max(c, 1)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("c must be finite and nonnegative")
    max_pos = max(dist.max_value, 0.0)
    if max_pos == 0.0:
        return 1
    # Below 2**-1024, 1 / max_pos, the scale of tail_exponent's root, overflows.
    if 1.0 / max_pos == math.inf:
        raise ValueError(f"the largest value {max_pos:.3g} is too small: its reciprocal is not a finite float")
    # delta^(h+1) * max_pos / (1 - delta) < limit, solved in closed form as a
    # sum of logarithms, each finite where the product of their arguments may
    # underflow; where rounding puts h on the boundary, the guard's own test
    # moves it up one.
    limit = _HORIZON_REL * max(c, 1.0)
    root = (math.log(limit) + math.log(1.0 - delta) - math.log(max_pos)) / math.log(delta)
    h = max(math.ceil(root) - 1, 1)
    return h + 1 if _post_horizon(dist, delta, h) >= limit else h


def _draw_words(bitgen: np.random.Philox, shape: tuple[int, ...]) -> np.ndarray:
    """The next ``prod(shape)`` 32-bit words of ``bitgen``, filled row-major.

    The words are the halves of ceil(m / 2) raw 64-bit outputs in memory order
    (low half first on little-endian machines); an odd count drops the last
    half. Every Monte Carlo in the package draws through this one layout.
    """
    m = math.prod(shape)
    return bitgen.random_raw((m + 1) // 2).view(np.uint32)[:m].reshape(shape)


def _philox(key: np.ndarray, spare: list[np.random.Philox]) -> np.random.Philox:
    """A Philox bit generator in the state ``Philox(key=key)`` starts in. It
    re-keys a spare generator if there is one: setting a state costs a sixth of
    making a generator, which draws entropy for a seed it does not use."""
    if not spare:
        return np.random.Philox(key=key)
    bitgen = spare.pop()
    fresh = np.zeros(4, dtype=np.uint64)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": fresh, "key": key},
        "buffer": fresh,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _cum_edges(cum) -> np.ndarray:
    """Integer edges E = round(F * 2**32), clipped to [0, 2**32 - 1], of the
    cumulative probabilities F, elementwise. A word w falls below the edge of F
    with probability E / 2**32, which is F quantised to a multiple of 2**-32."""
    scaled = np.rint(np.asarray(cum, dtype=float) * 2.0**32)
    return np.minimum(np.maximum(scaled, 0.0), 2.0**32 - 1).astype(np.uint32)


def _word_index(words: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map each 32-bit word w to the number of edges <= w. With the K - 1
    edges E_1, ..., E_{K-1}, E_0 = 0 and E_K = 2**32, index k has probability
    (E_{k+1} - E_k) / 2**32; with one edge, index 0 is the event w < E_1."""
    index = np.zeros(words.shape, dtype=np.min_scalar_type(len(edges)))
    for edge in edges:
        index += (words >= edge).view(np.uint8)
    return index


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
    order in which batches run. Each draw from that stream fills a
    ``(live rows, _CHUNK)`` matrix of steps' words (fewer columns if the
    horizon ends sooner): the bit generator's ``random_raw`` gives
    ceil(steps / 2) 64-bit words, viewed as 32-bit halves in memory order (low
    half first on little-endian machines), and the first halves fill the
    matrix row by row. A half w stands for the step
    ``values[number of edges <= w]``, where the integer edges
    are the cumulative probabilities times 2**32, rounded, so each support
    probability is quantised to a multiple of 2**-32. Rows that hit ``c`` or
    can no longer reach it leave the batch after each chunk. That pruning is
    exact, while the horizon cut can only lower the estimate.

    Within a chunk, only a near row can hit ``c``: one whose sum so far (its
    carry) plus ``max(values) * sum(delta**t)`` over the chunk's steps, the
    most the chunk can add, is at least ``c``. Only near rows map their words
    to steps, form prefix sums and test them against ``c``; a near row's carry
    becomes its last prefix sum, as a sequential sum would give. A far row
    skips the test, which is exact as the pruning is, and its carry advances
    by its pairwise row total ``sum_k values[k] * (A_k - A_{k+1})``: A_k is
    the sum of ``delta**t`` over the row's words at or above edge k (a
    row-local ``einsum``, no BLAS), A_0 the chunk's whole weight and A_K = 0.
    Its rounding may differ from the sequential sum's in the last bits.

    The horizon must be at least :func:`min_horizon`, which is never below
    1, so this refuses every horizon below 1 too. It must be at most
    ``MAX_HORIZON`` (10**7) steps, whose discounts take 80 MB, and the largest
    ``|value| / (1 - delta)`` must be a finite float, or the discounted sums
    could overflow; each is refused with a ``ValueError``. The distribution
    is checked first: :func:`tail_exponent`'s refusals come before these.

    So after the first chunk, the words a replication receives depend on
    which rows of its batch are still live, which depends on ``delta``,
    ``c`` and the horizon. Calls that differ in those share draws only within
    the first chunk, and only where their horizons give it the same width.
    """
    need = min_horizon(dist, delta, c)
    r_star = tail_exponent(dist)
    values = dist.values.tolist()
    largest = max(map(abs, values))
    if largest / (1.0 - delta) == math.inf:
        raise ValueError(
            f"the largest |value| {largest:.3g} / (1 - delta) is not a finite float, so the discounted sums can overflow"
        )
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} is above the cap of {MAX_HORIZON} steps")
    if horizon < need:
        raise ValueError(f"horizon {horizon} is below min_horizon's {need} for this distribution, delta and c")

    analytic = math.exp(-r_star * c)

    edges = _cum_edges(np.cumsum(dist.probs)[:-1])
    max_pos = dist.max_value
    disc_all = np.exp(math.log(delta) * np.arange(1, horizon + 1))
    chunk_disc = np.add.reduceat(disc_all, np.arange(0, horizon, _CHUNK))
    # The most each chunk's steps can add; max_pos > 0, as tail_exponent checked.
    reach = max_pos * chunk_disc

    hits = 0
    spare: list[np.random.Philox] = []
    for batch, first in enumerate(range(0, reps, _BATCH)):
        bitgen = _philox(np.array([seed % 2**64, batch], dtype=np.uint64), spare)
        carry = np.zeros(min(_BATCH, reps - first))  # live rows' sums so far
        start = 1  # the sum runs over t = 1, 2, ...
        while carry.size and start <= horizon:
            n = min(_CHUNK, horizon - start + 1)
            disc = disc_all[start - 1 : start - 1 + n]
            words = _draw_words(bitgen, (carry.size, n))
            # Only a near row, one whose carry plus the chunk's reach is at
            # least c, can hit in the chunk, so only near rows form prefix
            # sums; a near row's carry becomes its last prefix sum. A far
            # row's carry advances by its row total sum_k values[k] * (A_k -
            # A_{k+1}), where A_k is the discounted weight of its words at or
            # above edge k, A_0 the chunk's whole weight and A_K = 0.
            chunk = (start - 1) // _CHUNK
            near = np.flatnonzero(carry + reach[chunk] >= c)
            near_words, near_carry = words, carry
            if near.size < carry.size:
                near_words, near_carry = words[near], carry[near]
                weights = [chunk_disc[chunk]]
                weights += [np.einsum("ij,j->i", (words >= edge).astype(float), disc) for edge in edges]
                total = values[-1] * weights[-1]
                for k, value in enumerate(values[:-1]):
                    total += value * (weights[k] - weights[k + 1])
                carry += total
            hit = near[:0]
            if near.size:
                sums = dist.values.take(_word_index(near_words, edges))
                sums *= disc
                np.cumsum(sums, axis=1, out=sums)
                sums += near_carry[:, None]
                hit = near[(sums >= c).any(axis=1)]
                carry[near] = sums[:, -1]
            hits += hit.size
            start += n
            # Keep rows that have not hit and whose best future can still reach c.
            keep = carry + _post_horizon(dist, delta, start - 1) >= c
            keep[hit] = False
            carry = carry[keep]
        spare.append(bitgen)
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
