import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfreq.concentration import FiniteDist, min_horizon, tail_exponent, tail_probability_mc

# Distributions whose exponent solves a factorable polynomial in exp(r).
DIST_QUARTER = FiniteDist.from_pairs([(1.0, 0.25), (-1.0, 0.75)])
# 0.2 x^3 - x^2 + 0.8 = 0 factors as (x - 1)(x^2 - 4x - 4) / 5.
DIST_CUBIC = FiniteDist.from_pairs([(1.0, 0.2), (-2.0, 0.8)])
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


def test_exponent_is_smallest_positive_root():
    r_star = tail_exponent(DIST_QUARTER)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        r = frac * r_star
        moment = float(DIST_QUARTER.probs @ np.exp(r * DIST_QUARTER.values))
        assert moment < 1.0


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_exponent_scaling(k):
    scaled = FiniteDist(values=k * DIST_QUARTER.values, probs=DIST_QUARTER.probs)
    assert tail_exponent(scaled) == pytest.approx(tail_exponent(DIST_QUARTER) / k, abs=1e-9)


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


def test_min_horizon_satisfies_guard():
    for delta in (0.9, 0.99, 0.999):
        for c in (0.5, 1.0, 2.0, 4.0):
            h = min_horizon(DIST_QUARTER, delta, c)
            residual = delta ** (h + 1) * DIST_QUARTER.max_value / (1 - delta)
            assert residual < 1e-6 * max(c, 1.0)
            shorter = delta**h * DIST_QUARTER.max_value / (1 - delta)
            assert shorter >= 1e-6 * max(c, 1.0) or h == 1
