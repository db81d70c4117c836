import numpy as np
import pytest

from repfreq.game import MixedAction, StageGame
from repfreq.stage import (
    best_replies_p2,
    br_polytope,
    check_assumptions,
    is_monotone_supermodular,
    lowest_pair,
    minmax_p1,
    stackelberg,
    vbar_p1,
)
from .conftest import UNIQUE_GAMES


def test_best_replies_indifference_point(product_choice):
    # At the buyer's threshold both purchases tie.
    assert best_replies_p2(product_choice, MixedAction({"H": 0.5, "L": 0.5})) == ("h", "l")
    assert best_replies_p2(product_choice, MixedAction.delta("H")) == ("h",)


def test_best_replies_three_by_two(nash_overlap):
    alpha = MixedAction({"M": 0.5, "L": 0.5})
    assert best_replies_p2(nash_overlap, alpha) == ("T", "N")


def test_best_replies_match_bruteforce_on_pure_actions(games):
    for game in games.values():
        for i, a in enumerate(game.actions1):
            replies = best_replies_p2(game, MixedAction.delta(a), tol=0.0)
            col = game.u2[i]
            expected = tuple(b for j, b in enumerate(game.actions2) if col[j] == col.max())
            assert replies == expected


def test_polytope_membership_agrees_with_best_replies(games):
    rng = np.random.default_rng(7)
    for game in games.values():
        polys = {b: br_polytope(game, b) for b in game.actions2}
        for _ in range(1000):
            vec = rng.dirichlet(np.ones(len(game.actions1)))
            alpha = MixedAction.from_vector(game.actions1, vec)
            replies = set(best_replies_p2(game, alpha))
            for b, poly in polys.items():
                assert poly.contains(vec) == (b in replies)


def test_stackelberg_product_choice(product_choice):
    res = stackelberg(product_choice)
    assert (res.a_star, res.b_star) == ("H", "h")
    assert res.v_star == pytest.approx(0.6)
    assert res.unique


def test_stackelberg_entry(entry_deterrence):
    res = stackelberg(entry_deterrence)
    assert (res.a_star, res.b_star) == ("F", "O")
    assert res.v_star == pytest.approx(0.5)


def test_stackelberg_constant_payoffs_not_unique():
    game = StageGame(("a", "b"), ("x", "y"), np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]))
    res = stackelberg(game)
    assert not res.unique_action


def test_stackelberg_value_dominates_every_pure_commitment(games):
    for game in games.values():
        res = stackelberg(game)
        for i, a in enumerate(game.actions1):
            replies = best_replies_p2(game, MixedAction.delta(a))
            worst = min(game.u1[i, game.b_index(b)] for b in replies)
            assert res.v_star >= worst - 1e-9


def test_minmax_values(product_choice, entry_deterrence, matching_pennies):
    assert minmax_p1(product_choice) == pytest.approx(0.0, abs=1e-9)
    assert minmax_p1(entry_deterrence) == pytest.approx(0.0, abs=1e-9)
    assert minmax_p1(matching_pennies) == pytest.approx(0.05, abs=1e-9)


def test_vbar_values(product_choice, entry_deterrence):
    assert vbar_p1(product_choice) == pytest.approx(0.6, abs=1e-9)
    assert vbar_p1(entry_deterrence) == pytest.approx(0.5, abs=1e-9)


def test_vbar_constant_game():
    game = StageGame(("a", "b"), ("x", "y"), np.full((2, 2), 3.25), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert vbar_p1(game) == pytest.approx(3.25, abs=1e-9)


@pytest.mark.parametrize("name", UNIQUE_GAMES)
def test_minmax_below_vbar(games, name):
    game = games[name]
    assert minmax_p1(game) <= vbar_p1(game) + 1e-9


def test_minmax_below_vbar_random_games():
    rng = np.random.default_rng(21)
    for _ in range(15):
        game = StageGame(
            ("a", "b", "c"),
            ("x", "y", "z"),
            rng.uniform(-1, 1, (3, 3)),
            rng.uniform(-1, 1, (3, 3)),
        )
        vb = vbar_p1(game)
        assert minmax_p1(game) <= vb + 1e-9
        # The commitment point itself is a supportable profile.
        assert vb >= stackelberg(game).v_star - 1e-9


def test_assumptions_product_choice(product_choice):
    rep = check_assumptions(product_choice)
    assert rep.satisfied
    assert vbar_p1(product_choice) == pytest.approx(0.6, abs=1e-9)


def test_assumptions_hold_on_all_applied_games(games):
    from .conftest import APPLIED_GAMES

    for name in APPLIED_GAMES:
        rep = check_assumptions(games[name])
        assert rep.satisfied, name
        assert rep.minmax == pytest.approx(0.0, abs=1e-9), name


def test_assumptions_matching_pennies(matching_pennies):
    rep = check_assumptions(matching_pennies)
    assert rep.a1_unique_stackelberg and rep.a1_unique_reply
    assert rep.a2_not_best_reply
    assert not rep.a2_above_minmax  # -0.9 < 0.05
    assert rep.minmax == pytest.approx(0.05, abs=1e-9)


def test_assumptions_nash_overlap(nash_overlap):
    rep = check_assumptions(nash_overlap)
    assert not rep.a2_not_best_reply  # commitment outcome is a stage Nash profile
    assert rep.a2_above_minmax


def test_monotone_supermodular(product_choice, entry_deterrence):
    assert is_monotone_supermodular(product_choice)
    assert is_monotone_supermodular(entry_deterrence)
    reversed_order = StageGame(
        product_choice.actions1,
        product_choice.actions2,
        product_choice.u1,
        product_choice.u2,
        order1=("L", "H"),
        order2=product_choice.order2,
    )
    assert not is_monotone_supermodular(reversed_order)


def test_monotone_supermodular_needs_orders(matching_pennies):
    with pytest.raises(ValueError, match="order"):
        is_monotone_supermodular(matching_pennies)


def test_lowest_pair(product_choice, entry_deterrence):
    assert lowest_pair(product_choice) == ("L", "l")
    assert lowest_pair(entry_deterrence) == ("A", "I")


def test_lowest_pair_full_tie_takes_first_label():
    game = StageGame(
        ("hi", "lo"),
        ("x", "y"),
        np.array([[1.0, 1.0], [0.5, 0.5]]),
        np.zeros((2, 2)),
        order1=("hi", "lo"),
    )
    assert lowest_pair(game) == ("lo", "x")


def test_lowest_pair_needs_order(matching_pennies):
    with pytest.raises(ValueError, match="order"):
        lowest_pair(matching_pennies)
