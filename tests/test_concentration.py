import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfreq import concentration
from repfreq.concentration import (
    _BATCH,
    _CHUNK,
    _EXP_CAP,
    MAX_HORIZON,
    _ROOT_WIDTH,
    FiniteDist,
    _cum_edges,
    _draw_words,
    _philox,
    _word_index,
    min_horizon,
    tail_exponent,
    tail_probability_mc,
)

# Distributions whose exponent solves a factorable polynomial in exp(r).
DIST_QUARTER = FiniteDist.from_pairs([(1.0, 0.25), (-1.0, 0.75)])
# 0.2 x^3 - x^2 + 0.8 = 0 factors as (x - 1)(x^2 - 4x - 4) / 5.
DIST_CUBIC = FiniteDist.from_pairs([(1.0, 0.2), (-2.0, 0.8)])
# Dyadic values: at delta = 0.5 every discounted partial sum is exact in float64.
SIX_POINTS = [(1.0, 0.2), (0.5, 0.1), (0.25, 0.1), (-0.25, 0.2), (-0.5, 0.2), (-1.0, 0.2)]
R_QUARTER = math.log(3.0)
R_CUBIC = math.log(2.0 + 2.0 * math.sqrt(2.0))


def test_exponent_quarter_dist():
    assert abs(tail_exponent(DIST_QUARTER) - R_QUARTER) < 1e-10


def test_exponent_cubic_dist():
    assert abs(tail_exponent(DIST_CUBIC) - R_CUBIC) < 1e-10


def test_exponent_other_cubic():
    # 0.2 x^3 - x + 0.8 = 0 factors as (x - 1)(x^2 + x - 4) / 5.
    dist = FiniteDist.from_pairs([(2.0, 0.2), (-1.0, 0.8)])
    assert abs(tail_exponent(dist) - math.log((math.sqrt(17.0) - 1.0) / 2.0)) < 1e-10


def test_exponent_requires_positive_support():
    with pytest.raises(ValueError, match="positive value"):
        tail_exponent(FiniteDist.from_pairs([(-1.0, 1.0)]))


def test_exponent_requires_negative_mean():
    with pytest.raises(ValueError, match="mean"):
        tail_exponent(FiniteDist.from_pairs([(1.0, 0.5), (-1.0, 0.5)]))


def test_a_subnormal_largest_value_is_refused_not_returned_as_inf():
    # The root is about 1.39 / 5e-324, beyond the float range.
    dist = FiniteDist.from_pairs([(5e-324, 0.25), (-1e-300, 0.75)])
    with pytest.raises(ValueError, match="is not a finite float"):
        tail_exponent(dist)
    with pytest.raises(ValueError, match="is not a finite float"):
        min_horizon(dist, 0.9, 1.0)


def test_exponent_is_solved_once_per_distribution(monkeypatch):
    dist = FiniteDist.from_pairs([(1.0, 0.25), (-1.0, 0.75)])
    first = tail_exponent(dist)
    # The second call reads the root kept on the distribution: with the math
    # module gone, a second solve would fail.
    monkeypatch.setattr(concentration, "math", None)
    assert tail_exponent(dist).hex() == first.hex()
    monkeypatch.undo()
    # An error is not kept: it raises on every call.
    fair = FiniteDist.from_pairs([(1.0, 0.5), (-1.0, 0.5)])
    for _ in range(2):
        with pytest.raises(ValueError, match="mean must be negative"):
            tail_exponent(fair)


def test_exponent_is_smallest_positive_root():
    r_star = tail_exponent(DIST_QUARTER)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        r = frac * r_star
        moment = float(DIST_QUARTER.probs @ np.exp(r * DIST_QUARTER.values))
        assert moment < 1.0


@pytest.mark.parametrize("k", [0.5, 2.0, 1e-300, 1e-9, 1e9, 1e306])
def test_exponent_scaling(k):
    # Scaling the support by k divides the root by k, at any magnitude.
    for dist in (DIST_QUARTER, FiniteDist.from_pairs([(1.0, 0.25), (-10.0, 0.75)])):
        scaled = FiniteDist(values=k * dist.values, probs=dist.probs)
        assert tail_exponent(scaled) == pytest.approx(tail_exponent(dist) / k, rel=1e-12, abs=0.0)


def numpy_moment_root(dist: FiniteDist) -> float:
    """The doubling and bisection of tail_exponent, with the moment evaluated by numpy."""

    def gap(r: float) -> float:
        if r * dist.max_value > _EXP_CAP:
            return math.inf
        return float(dist.probs @ np.exp(r * dist.values)) - 1.0

    lo, hi = 0.0, 1.0
    while gap(hi) <= 0.0:
        hi *= 2.0
    while hi - lo > _ROOT_WIDTH:
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if g == 0.0:
            return mid
        lo, hi = (lo, mid) if g > 0.0 else (mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "dist",
    [DIST_QUARTER, FiniteDist.from_pairs([(2.0, 0.2), (-0.5, 0.3), (-1.0, 0.5)]), FiniteDist.from_pairs(SIX_POINTS)],
    ids=["2-point", "3-point", "6-point"],
)
def test_exponent_matches_the_numpy_moment(dist):
    # The two evaluations round differently, so a sign flip next to the root
    # can move the bracket by one width either way.
    assert abs(tail_exponent(dist) - numpy_moment_root(dist)) <= 2 * _ROOT_WIDTH


@settings(max_examples=60, deadline=None)
@given(
    up=st.floats(0.05, 5.0),
    down=st.floats(0.05, 5.0),
    p=st.floats(0.01, 0.99),
)
def test_exponent_root_property_on_two_point_dists(up, down, p):
    # Any two-point distribution with negative mean and a positive value has
    # one positive root, at which the exponential moment is exactly one.
    if p * up - (1 - p) * down >= -1e-3:
        return
    dist = FiniteDist.from_pairs([(up, p), (-down, 1 - p)])
    r = tail_exponent(dist)
    assert r > 0
    moment = float(dist.probs @ np.exp(r * dist.values))
    assert moment == pytest.approx(1.0, abs=1e-9)
    assert float(dist.probs @ np.exp(0.5 * r * dist.values)) < 1.0


def test_dist_validation():
    with pytest.raises(ValueError, match="sum"):
        FiniteDist.from_pairs([(1.0, 0.5), (-1.0, 0.4)])
    with pytest.raises(ValueError, match="positive"):
        FiniteDist.from_pairs([(1.0, 1.0), (-1.0, 0.0)])
    with pytest.raises(ValueError, match="distinct"):
        FiniteDist.from_pairs([(1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError, match="finite"):
        FiniteDist.from_pairs([(math.inf, 1.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="probabilities must be finite and positive"):
            FiniteDist.from_pairs([(1.0, bad), (-1.0, 0.5)])


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
def test_c_must_be_finite_and_nonnegative(c):
    with pytest.raises(ValueError, match="c must be finite and nonnegative"):
        min_horizon(DIST_QUARTER, 0.9, c)
    with pytest.raises(ValueError, match="c must be finite and nonnegative"):
        tail_probability_mc(DIST_QUARTER, 0.9, c, 200, reps=1000, seed=0)


def test_zero_threshold_bound_is_one():
    report = tail_probability_mc(DIST_QUARTER, delta=0.9, c=0.0, horizon=200, reps=1000, seed=1)
    assert report.analytic_bound == 1.0
    assert report.empirical <= 1.0


def test_bound_holds_at_reference_cell():
    horizon = min_horizon(DIST_QUARTER, 0.99, 2.0)
    report = tail_probability_mc(DIST_QUARTER, delta=0.99, c=2.0, horizon=horizon, reps=20_000, seed=5)
    assert report.analytic_bound == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert report.empirical <= report.analytic_bound + 3 * report.std_error


def test_monotone_in_delta_at_matched_seeds():
    empiricals = []
    for delta in (0.9, 0.99, 0.999):
        horizon = min_horizon(DIST_QUARTER, delta, 1.0)
        report = tail_probability_mc(DIST_QUARTER, delta=delta, c=1.0, horizon=horizon, reps=20_000, seed=42)
        empiricals.append(report.empirical)
    assert empiricals[0] <= empiricals[1] + 1e-12
    assert empiricals[1] <= empiricals[2] + 1e-12


def _exact_tail(dist, delta, c, horizon):
    """Probability that the discounted sum reaches c by ``horizon``, by
    enumerating every draw sequence; sequences that hit or can no longer
    reach c stop branching."""
    sums, probs = np.zeros(1), np.ones(1)
    total = 0.0
    for t in range(1, horizon + 1):
        sums = (sums[:, None] + delta**t * dist.values).ravel()
        probs = (probs[:, None] * dist.probs).ravel()
        hit = sums >= c
        total += probs[hit].sum()
        alive = ~hit & (sums + delta ** (t + 1) * dist.max_value / (1 - delta) >= c)
        sums, probs = sums[alive], probs[alive]
    return total


@pytest.mark.parametrize(
    "pairs, delta, c",
    [
        # Short horizons (20 steps at delta = 0.5). c = 0.6 needs two or more
        # steps and sits more than 5e-8 from every reachable partial sum.
        ([(1.0, 0.3), (-0.5, 0.7)], 0.5, 0.6),  # two-point support
        ([(1.0, 0.2), (0.3, 0.3), (-0.8, 0.5)], 0.5, 0.6),  # three-point support
        # A hit needs 70 straight +1 steps, so it spans two chunks of draws;
        # one -100 step puts c out of reach and prunes the sequence.
        ([(1.0, 0.965), (-100.0, 0.035)], 0.99, 49.76),
        (SIX_POINTS, 0.5, 0.6),  # six-point support, short horizon as the first two
    ],
)
def test_estimate_matches_exact_tail(pairs, delta, c):
    dist = FiniteDist.from_pairs(pairs)
    reps = 20_077  # not a multiple of the batch size
    horizon = min_horizon(dist, delta, c)
    exact = _exact_tail(dist, delta, c, horizon)
    assert 0.05 < exact < 0.1
    report = tail_probability_mc(dist, delta, c, horizon, reps=reps, seed=17)
    assert report.reps == reps
    sigma = math.sqrt(exact * (1 - exact) / reps)
    assert abs(report.empirical - exact) <= 4 * sigma


SUPPORT_PROBS = [[0.25, 0.75], [0.2, 0.3, 0.5], [p for _, p in SIX_POINTS]]


@pytest.mark.parametrize("probs", SUPPORT_PROBS)
def test_word_map_counts_the_edges_at_or_below_each_word(probs):
    edges = _cum_edges(np.cumsum(probs)[:-1])
    assert edges.dtype == np.uint32 and len(edges) == len(probs) - 1
    values = 10.0 * np.arange(len(probs)) - 7.0
    at_edges = edges.astype(np.int64)
    words = np.unique(np.concatenate([[0, 2**32 - 1], at_edges - 1, at_edges])).astype(np.uint32)
    expected = values[np.searchsorted(edges, words, side="right")]
    assert np.array_equal(values.take(_word_index(words[None, :], edges)), expected[None, :])


@pytest.mark.parametrize("probs", SUPPORT_PROBS)
def test_word_edges_quantise_each_probability_within_2_pow_minus_32(probs):
    bounds = np.concatenate([[0], _cum_edges(np.cumsum(probs)[:-1]).astype(np.int64), [2**32]])
    assert np.all(np.abs(np.diff(bounds) / 2.0**32 - np.array(probs)) <= 2.0**-32)


def test_stream_is_raw_philox_halves_row_major():
    # With the horizon under one 64-step chunk, every replication ends in its
    # first chunk, so the hits can be rebuilt from the raw words alone.
    dist = FiniteDist.from_pairs(SIX_POINTS)
    delta, c, seed, reps = 0.5, 0.6, 23, 1000
    horizon = min_horizon(dist, delta, c)
    assert horizon < 64 and reps > 256
    edges = np.round(np.cumsum(dist.probs)[:-1] * 2.0**32)
    disc = delta ** np.arange(1, horizon + 1)
    hits = 0
    for batch, first in enumerate(range(0, reps, 256)):
        rows = min(256, reps - first)
        words = np.random.Philox(key=[seed, batch]).random_raw(-(-rows * horizon // 2))
        # Low 32 bits first: the memory order of each word on little-endian machines.
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()[: rows * horizon]
        steps = dist.values[np.searchsorted(edges, halves, side="right")].reshape(rows, horizon)
        hits += int(np.count_nonzero((np.cumsum(steps * disc, axis=1) >= c).any(axis=1)))
    report = tail_probability_mc(dist, delta, c, horizon, reps=reps, seed=seed)
    assert hits > 0
    assert report.empirical == hits / reps


def reference_tail_hits(dist, delta, c, horizon, reps, seed):
    """tail_probability_mc's hit count with every live row's prefix sums
    formed in every chunk and its carry taken from the last one, plus the
    number of near and far (row, chunk) pairs: those whose carry plus the most
    the chunk can add is at least c, and the others."""
    edges = _cum_edges(np.cumsum(dist.probs)[:-1])
    disc_all = np.exp(math.log(delta) * np.arange(1, horizon + 1))
    hits = near = far = 0
    for batch, first in enumerate(range(0, reps, _BATCH)):
        bitgen = np.random.Philox(key=np.array([seed, batch], dtype=np.uint64))
        carry = np.zeros(min(_BATCH, reps - first))
        start = 1
        while carry.size and start <= horizon:
            n = min(_CHUNK, horizon - start + 1)
            disc = disc_all[start - 1 : start - 1 + n]
            steps = dist.values.take(_word_index(_draw_words(bitgen, (carry.size, n)), edges)) * disc
            row_near = int(np.count_nonzero(carry + dist.max_value * disc.sum() >= c))
            near, far = near + row_near, far + carry.size - row_near
            sums = np.cumsum(steps, axis=1) + carry[:, None]
            hit = (sums >= c).any(axis=1)
            hits += int(np.count_nonzero(hit))
            carry = sums[:, -1]
            start += n
            carry = carry[~hit & (carry + delta**start * dist.max_value / (1.0 - delta) >= c)]
    return hits, near, far


GRID = ((0.9, 0.99, 0.999), (0.5, 2.0, 4.0))


@pytest.mark.parametrize(
    "dist, deltas, cs",
    [
        (DIST_QUARTER, *GRID),
        (DIST_CUBIC, *GRID),
        (FiniteDist.from_pairs(SIX_POINTS), *GRID),
        # Mostly +1 steps with a rare fall of 150: a row can stay far below c
        # for whole chunks and then climb back to hit it.
        (FiniteDist.from_pairs([(1.0, 0.99), (-150.0, 0.01)]), (0.999,), (40.0, 100.0)),
        # Values out of order along the edges, and the large value first: a
        # far row's total that paired a value with the wrong edge's weight
        # would move its carry. The first climbs back as "climb" does.
        (FiniteDist.from_pairs([(1.0, 0.6), (-150.0, 0.01), (0.5, 0.39)]), (0.999,), (20.0, 40.0)),
        (FiniteDist.from_pairs([(5.0, 0.1), (-1.0, 0.9)]), *GRID),
    ],
    ids=["quarter", "cubic", "6-point", "climb", "unsorted", "large-first"],
)
def test_estimate_matches_the_full_prefix_sum_reference(dist, deltas, cs):
    # 1300 replications leave the last batch partial.
    reps, near, far = 1300, 0, 0
    for delta in deltas:
        for c in cs:
            horizon = min_horizon(dist, delta, c)
            for seed in (3, 8):
                hits, n_near, n_far = reference_tail_hits(dist, delta, c, horizon, reps, seed)
                assert tail_probability_mc(dist, delta, c, horizon, reps, seed).empirical == hits / reps
                near, far = near + n_near, far + n_far
    assert near > 0 and far > 0


def test_a_rekeyed_spare_draws_what_a_fresh_generator_draws():
    spare = np.random.Philox(key=np.array([3, 0], dtype=np.uint64))
    _draw_words(spare, (7,))
    # Three 32-bit draws leave a half of the 64-bit buffer unread.
    np.random.Generator(spare).integers(2**32, size=3, dtype=np.uint32)
    key = np.array([11, 5], dtype=np.uint64)
    bitgen = _philox(key, [spare])
    assert bitgen is spare
    assert np.array_equal(_draw_words(bitgen, (5, 9)), _draw_words(np.random.Philox(key=key), (5, 9)))


def test_determinism():
    a = tail_probability_mc(DIST_QUARTER, 0.9, 1.0, 200, reps=2000, seed=9)
    b = tail_probability_mc(DIST_QUARTER, 0.9, 1.0, 200, reps=2000, seed=9)
    assert a.empirical == b.empirical


def test_undiscounted_limit_rejected_but_near_one_accepted():
    with pytest.raises(ValueError, match="delta"):
        tail_probability_mc(DIST_QUARTER, 1.0, 2.0, 100, reps=1000, seed=0)
    delta = 0.9999
    report = tail_probability_mc(
        DIST_QUARTER, delta, 2.0, min_horizon(DIST_QUARTER, delta, 2.0), reps=1000, seed=0
    )
    assert report.empirical <= 1.0


def test_domain_guards():
    with pytest.raises(ValueError, match="delta"):
        tail_probability_mc(DIST_QUARTER, 1.0, 1.0, 100, reps=2000, seed=0)
    with pytest.raises(ValueError, match="reps"):
        tail_probability_mc(DIST_QUARTER, 0.9, 1.0, 100, reps=10, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        # A horizon this short leaves a reachable tail above the guard.
        tail_probability_mc(DIST_QUARTER, 0.999, 1.0, 50, reps=2000, seed=0)


def test_a_horizon_above_the_cap_is_refused_before_its_discounts_are_allocated():
    # About 4.6e17 steps: 3.16 EiB of float64 discounts.
    horizon = min_horizon(DIST_QUARTER, 0.9999999999999999, 1.0)
    assert horizon > MAX_HORIZON
    with pytest.raises(ValueError, match=f"horizon {horizon} is above the cap of {MAX_HORIZON} steps"):
        tail_probability_mc(DIST_QUARTER, 0.9999999999999999, 1.0, horizon, reps=1000, seed=0)


HUGE = FiniteDist.from_pairs([(1e308, 0.25), (-1e308, 0.75)])


def test_min_horizon_is_finite_where_its_ratio_underflows():
    # limit * (1 - delta) / 1e308 underflows to 0; the sum of logarithms does not.
    delta = 0.9999999999999999
    horizon = min_horizon(HUGE, delta, 1.0)
    # delta**horizon underflows too, so the residual is checked in logarithms.
    log_residual = (horizon + 1) * math.log(delta) + math.log(1e308) - math.log(1 - delta)
    assert log_residual == pytest.approx(math.log(1e-6), abs=1e-9)


@pytest.mark.parametrize("delta", [0.5, 0.9, 0.9999999999999999])
def test_sums_that_can_overflow_are_refused(delta):
    with pytest.raises(ValueError, match=r"1e\+308 / \(1 - delta\) is not a finite float"):
        tail_probability_mc(HUGE, delta, 1.0, min_horizon(HUGE, delta, 1.0), reps=1000, seed=0)


def test_min_horizon_satisfies_guard():
    cases = [(delta, c) for delta in (0.9, 0.99, 0.999) for c in (0.5, 1.0, 2.0, 4.0)]
    # At delta 0.5 these c put the residual of the closed form's horizon on the limit itself.
    cases += [(0.5, c) for c in (125000.0, 250000.0, 500000.0)]
    for delta, c in cases:
        h = min_horizon(DIST_QUARTER, delta, c)
        residual = delta ** (h + 1) * DIST_QUARTER.max_value / (1 - delta)
        assert residual < 1e-6 * max(c, 1.0)
        shorter = delta**h * DIST_QUARTER.max_value / (1 - delta)
        assert shorter >= 1e-6 * max(c, 1.0) or h == 1
        # tail_probability_mc's guard is min_horizon's own rule, at its boundary.
        assert tail_probability_mc(DIST_QUARTER, delta, c, h, reps=1000, seed=0).horizon == h
        if h > 1:
            with pytest.raises(ValueError, match=f"horizon {h - 1} "):
                tail_probability_mc(DIST_QUARTER, delta, c, h - 1, reps=1000, seed=0)
