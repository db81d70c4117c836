import numpy as np
import pytest

from repfreq.attain import decompose_target
from repfreq.bounds import min_stackelberg_freq
from repfreq.game import MixedAction
from repfreq.stage import best_replies_p2, stackelberg
from .conftest import UNIQUE_GAMES


def test_stackelberg_profile_is_member(product_choice):
    witness = decompose_target(product_choice, MixedAction.delta("H"))
    assert witness is not None
    mass, alpha = witness.weights["h"]
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert alpha.prob("H") == pytest.approx(1.0, abs=1e-9)
    assert witness.payoff == pytest.approx(0.6, abs=1e-9)


def test_pure_low_effort_is_not_member(product_choice):
    # All mass on L forces the zero-payoff reply, not the commitment payoff.
    assert decompose_target(product_choice, MixedAction.delta("L")) is None


def test_lp_witness_marginal_is_member(product_choice):
    witness = decompose_target(product_choice, MixedAction({"H": 0.375, "L": 0.625}))
    assert witness is not None
    mass_h, alpha_h = witness.weights["h"]
    assert mass_h == pytest.approx(0.75, abs=1e-7)
    assert alpha_h.prob("H") == pytest.approx(0.5, abs=1e-7)
    mass_l, alpha_l = witness.weights["l"]
    assert mass_l == pytest.approx(0.25, abs=1e-7)
    assert alpha_l.prob("L") == pytest.approx(1.0, abs=1e-7)


def test_witness_invariants(games):
    for name in UNIQUE_GAMES:
        game = games[name]
        stack = stackelberg(game)
        witness = decompose_target(game, MixedAction.delta(stack.a_star))
        assert witness is not None, name
        total_mass = sum(mass for mass, _ in witness.weights.values())
        assert total_mass == pytest.approx(1.0, abs=1e-9)
        recombined = sum(mass * alpha.as_vector(game.actions1) for mass, alpha in witness.weights.values())
        assert recombined[game.a_index(stack.a_star)] == pytest.approx(1.0, abs=1e-7)
        payoff = 0.0
        for b, (mass, alpha) in witness.weights.items():
            assert b in best_replies_p2(game, alpha, tol=1e-7)
            payoff += mass * (alpha.as_vector(game.actions1) @ game.u1[:, game.b_index(b)])
        assert payoff == pytest.approx(stack.v_star, abs=1e-8)


@pytest.mark.parametrize("name", UNIQUE_GAMES)
def test_equality_bound_witness_marginal_is_member(games, name):
    game = games[name]
    marginal = min_stackelberg_freq(game, equality=True).marginal(game)
    assert decompose_target(game, marginal) is not None, name


def test_membership_monotone_in_epsilon(product_choice):
    target = MixedAction({"H": 0.3, "L": 0.7})
    # Not attainable exactly (0.3 < 0.375 floor) but attainable with slack.
    assert decompose_target(product_choice, target, epsilon=0.0) is None
    witness = decompose_target(product_choice, target, epsilon=0.1)
    if witness is not None:
        assert decompose_target(product_choice, target, epsilon=0.2) is not None


def test_member_payoff_reproduced_by_expected_payoffs(product_choice):
    witness = decompose_target(product_choice, MixedAction({"H": 0.375, "L": 0.625}))
    payoff = 0.0
    for b, (mass, alpha) in witness.weights.items():
        payoff += mass * (alpha.as_vector(product_choice.actions1) @ product_choice.u1[:, product_choice.b_index(b)])
    assert payoff == pytest.approx(0.6, abs=1e-9)
    assert witness.payoff == pytest.approx(0.6, abs=1e-9)


def test_epsilon_validation(product_choice):
    with pytest.raises(ValueError, match="nonnegative"):
        decompose_target(product_choice, MixedAction.delta("H"), epsilon=-0.5)


def test_a_huge_epsilon_witness_recombines_to_its_target(product_choice):
    target = MixedAction({"H": 0.375, "L": 0.625})
    witness = decompose_target(product_choice, target, epsilon=1e308)
    assert witness is not None
    recombined = sum(mass * alpha.as_vector(product_choice.actions1) for mass, alpha in witness.weights.values())
    assert recombined == pytest.approx([0.375, 0.625], abs=1e-9)
