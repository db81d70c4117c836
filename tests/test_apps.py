import numpy as np
import pytest

from repfreq.apps import (
    EntryDeterrenceParams,
    FiscalPolicyParams,
    ProductChoiceParams,
    ThreeProductParams,
    build_stage_game,
    closed_form_min_freq,
    expropriation_freq,
)
from repfreq.bounds import min_stackelberg_freq
from repfreq.game import MixedAction
from repfreq.stage import best_replies_p2, check_assumptions


def test_product_choice_closed_form():
    assert closed_form_min_freq(ProductChoiceParams(0.5, 0.4, 0.2)) == pytest.approx(0.375)


def test_entry_closed_form():
    assert closed_form_min_freq(EntryDeterrenceParams(0.6, 0.5, 0.3)) == pytest.approx(0.3 / 0.7)


def test_fiscal_closed_form():
    params = FiscalPolicyParams(0.3, 0.2)
    assert closed_form_min_freq(params) == pytest.approx(3.0 / 28.0)
    assert expropriation_freq(params) == pytest.approx(25.0 / 28.0)


def test_three_product_cases():
    # Regime splits at mid_value vs gamma_lo/gamma_hi and at the cost cutoff.
    low_margin = ThreeProductParams(gamma_hi=0.6, gamma_lo=0.4, mid_value=0.5, cost=0.5)
    assert closed_form_min_freq(low_margin) == pytest.approx(0.3 / 0.7)
    high_margin_high_cost = ThreeProductParams(gamma_hi=0.6, gamma_lo=0.4, mid_value=0.8, cost=0.5)
    assert closed_form_min_freq(high_margin_high_cost) == pytest.approx(0.4 * 0.5 / (0.8 - 0.2))
    high_margin_low_cost = ThreeProductParams(gamma_hi=0.6, gamma_lo=0.4, mid_value=0.8, cost=0.2)
    assert closed_form_min_freq(high_margin_low_cost) == pytest.approx(0.5)


def test_three_product_case_boundaries_are_continuous():
    g1, g2 = 0.6, 0.4
    # Boundary between the first and third regimes: mid_value = g2/g1.
    p0 = g2 / g1
    for c in (0.2, 0.35, 0.49):
        below = closed_form_min_freq(ThreeProductParams(g1, g2, p0 - 1e-9, c))
        above = closed_form_min_freq(ThreeProductParams(g1, g2, p0 + 1e-9, c))
        assert below == pytest.approx(above, abs=1e-6)
    # Boundary between the second and third regimes: c = (1-p)/(1-g2).
    for p in (0.7, 0.8, 0.9):
        c0 = (1.0 - p) / (1.0 - g2)
        below = closed_form_min_freq(ThreeProductParams(g1, g2, p, c0 - 1e-9))
        above = closed_form_min_freq(ThreeProductParams(g1, g2, p, c0 + 1e-9))
        assert below == pytest.approx(above, abs=1e-6)


def test_build_product_choice_table():
    game = build_stage_game(ProductChoiceParams(0.5, 0.4, 0.2))
    assert np.allclose(game.u1, [[0.6, -0.2], [1.0, 0.0]])
    assert np.allclose(game.u2, [[1.5, 1.0], [-0.5, 0.0]])


def test_build_entry_table():
    game = build_stage_game(EntryDeterrenceParams(0.6, 0.5, 0.3))
    j = game.b_index("I")
    assert np.allclose(game.u2[:, j], [-0.4, 0.6])
    assert np.allclose(game.u1, [[0.5, -0.3], [1.0, 0.0]])


def test_build_fiscal_table():
    game = build_stage_game(FiscalPolicyParams(0.3, 0.2))
    assert np.allclose(game.u1, [[0.3, 0.0], [1.0, 0.0]])
    assert np.allclose(game.u2, [[0.5, 0.0], [-0.2, 0.0]])


def test_three_product_thresholds_realized():
    params = ThreeProductParams(gamma_hi=0.6, gamma_lo=0.4, mid_value=0.5, cost=0.5)
    game = build_stage_game(params)

    def best(prob_high):
        alpha = MixedAction.from_vector(game.actions1, [prob_high, 1 - prob_high])
        return best_replies_p2(game, alpha, tol=1e-12)

    assert best(0.2) == ("l",)
    assert best(0.5) == ("m",)
    assert best(0.8) == ("h",)
    assert set(best(0.4)) == {"m", "l"}
    assert set(best(0.6)) == {"h", "m"}


@pytest.mark.parametrize(
    "params",
    [
        ProductChoiceParams(0.3, 0.7, 0.5),
        ProductChoiceParams(0.8, 0.2, 0.9),
        ThreeProductParams(0.7, 0.2, 0.6, 0.3),
        ThreeProductParams(0.5, 0.3, 0.9, 0.8),
        EntryDeterrenceParams(0.25, 0.6, 1.5),
        EntryDeterrenceParams(0.9, 0.1, 0.2),
        FiscalPolicyParams(0.5, 0.4),
        FiscalPolicyParams(0.1, 0.85),
    ],
)
def test_lp_matches_closed_form(params):
    game = build_stage_game(params)
    assert min_stackelberg_freq(game).value == pytest.approx(closed_form_min_freq(params), abs=1e-8)


def test_product_choice_monotonicity_claims():
    base = dict(gamma=0.5, cost_high=0.4, cost_low=0.2)
    value = closed_form_min_freq(ProductChoiceParams(**base))
    assert closed_form_min_freq(ProductChoiceParams(0.6, 0.4, 0.2)) > value
    assert closed_form_min_freq(ProductChoiceParams(0.5, 0.5, 0.2)) < value
    assert closed_form_min_freq(ProductChoiceParams(0.5, 0.4, 0.8)) == value


def test_entry_monotonicity_claims():
    value = closed_form_min_freq(EntryDeterrenceParams(0.6, 0.5, 0.3))
    assert closed_form_min_freq(EntryDeterrenceParams(0.7, 0.5, 0.3)) > value
    assert closed_form_min_freq(EntryDeterrenceParams(0.6, 0.6, 0.3)) < value
    assert closed_form_min_freq(EntryDeterrenceParams(0.6, 0.5, 9.0)) == value


def test_entry_subsidy_analysis():
    base = EntryDeterrenceParams(0.6, 0.5, 0.3)
    values = [
        closed_form_min_freq(EntryDeterrenceParams(0.6, 0.5, 0.3, subsidy=s))
        for s in (0.0, 0.1, 0.2, 0.3, 0.39)
    ]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    # Beyond the gap the entrant enters no matter what; the assumptions fail.
    flooded = build_stage_game(EntryDeterrenceParams(0.6, 0.5, 0.3, subsidy=0.5))
    assert not check_assumptions(flooded).satisfied
    with pytest.raises(ValueError, match="dominant"):
        closed_form_min_freq(EntryDeterrenceParams(0.6, 0.5, 0.3, subsidy=0.5))


def test_subsidized_lp_still_matches():
    params = EntryDeterrenceParams(0.6, 0.5, 0.3, subsidy=0.2)
    game = build_stage_game(params)
    assert min_stackelberg_freq(game).value == pytest.approx(closed_form_min_freq(params), abs=1e-8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ProductChoiceParams(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        ThreeProductParams(0.4, 0.6, 0.5, 0.5)  # thresholds out of order
    with pytest.raises(ValueError):
        EntryDeterrenceParams(0.5, 0.5, -1.0)
    with pytest.raises(ValueError):
        FiscalPolicyParams(0.5, 0.6)  # cost above 1 - tax
    for build in (build_stage_game, closed_form_min_freq):
        with pytest.raises(TypeError, match="unsupported parameter set object"):
            build(object())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_entry_rejects_non_finite_cost_in_and_subsidy(bad):
    with pytest.raises(ValueError, match="cost_in must be finite and positive"):
        EntryDeterrenceParams(0.6, 0.5, bad)
    with pytest.raises(ValueError, match="subsidy must be finite and nonnegative"):
        EntryDeterrenceParams(0.6, 0.5, 0.3, subsidy=bad)
