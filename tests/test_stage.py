from itertools import product

import numpy as np
import pytest

from repfreq import stage
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
from . import _reference_stage
from .conftest import UNIQUE_GAMES


def _random_game(rng, n_a: int, n_b: int, integer: bool) -> StageGame:
    """Uniform payoffs in [-1, 1], or integers in [-2, 2] to force ties."""

    def draw():
        return rng.integers(-2, 3, (n_a, n_b)).astype(float) if integer else rng.uniform(-1, 1, (n_a, n_b))

    return StageGame(tuple(f"a{i}" for i in range(n_a)), tuple(f"b{j}" for j in range(n_b)), draw(), draw())


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


def test_bounds_match_the_exhaustive_reference(games):
    # Non-square shapes matter: T and S are pruned differently.
    rng = np.random.default_rng(606)
    shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2), (3, 4)]
    cases = list(games.values())
    cases += [_random_game(rng, *shape, integer) for shape in shapes for integer in (False, True)]
    cases += [_random_game(rng, 3, 3, integer) for integer in (False, True) for _ in range(4)]
    for game in cases:
        assert minmax_p1(game) == pytest.approx(_reference_stage.minmax_p1(game), abs=1e-12)
        assert vbar_p1(game) == pytest.approx(_reference_stage.vbar_p1(game), abs=1e-12)


def test_vbar_skips_every_superset_of_a_feasible_t(monkeypatch, games):
    # Skipping supersets is what saves the LPs; values alone cannot show it.
    calls = []
    real = stage._best_replied

    def record(game, t, s):
        feasible = real(game, t, s)
        calls.append((set(t), s, feasible))
        return feasible

    monkeypatch.setattr(stage, "_best_replied", record)
    rng = np.random.default_rng(608)
    for game in [games["product_choice_three"], _random_game(rng, 4, 4, False), _random_game(rng, 4, 3, True)]:
        calls.clear()
        vbar_p1(game)
        for k, (t, s, _) in enumerate(calls):
            assert not any(s2 == s and ok and t2 < t for t2, s2, ok in calls[:k]), (t, s)


def _flags(rep) -> tuple[bool, ...]:
    return (rep.a1_unique_stackelberg, rep.a1_unique_reply, rep.a2_not_best_reply, rep.a2_above_minmax)


def test_bounds_and_assumptions_are_invariant():
    """u1 -> s u1 + k moves both bounds to s v + k; u2 -> s u2 + k and
    relabelling both players' actions leave them, and the assumptions, as they are.

    ``check_assumptions`` reports ``minmax_p1``'s value, so its ``minmax``
    field stands for that function here."""
    rng = np.random.default_rng(607)
    for scale, integer, _ in product((1e-2, 0.5, 3.0, 1e2), (False, True), range(3)):
        game = _random_game(rng, *rng.integers(2, 5, 2), integer)
        rep, vb = check_assumptions(game), vbar_p1(game)
        k = rng.uniform(-2, 2)
        tol = 1e-10 * max(1.0, scale)
        for u1, u2, expect in (
            (scale * game.u1 + k, game.u2, lambda v: scale * v + k),
            (game.u1, scale * game.u2 + k, lambda v: v),
        ):
            moved = StageGame(game.actions1, game.actions2, u1, u2)
            moved_rep = check_assumptions(moved)
            assert moved_rep.minmax == pytest.approx(expect(rep.minmax), abs=tol)
            assert vbar_p1(moved) == pytest.approx(expect(vb), abs=tol)
            assert _flags(moved_rep) == _flags(rep)
        rows = rng.permutation(len(game.actions1))
        cols = rng.permutation(len(game.actions2))
        shuffled = StageGame(
            tuple(game.actions1[i] for i in rows),
            tuple(game.actions2[j] for j in cols),
            game.u1[np.ix_(rows, cols)],
            game.u2[np.ix_(rows, cols)],
        )
        shuffled_rep = check_assumptions(shuffled)
        assert shuffled_rep.minmax == pytest.approx(rep.minmax, abs=1e-10)
        assert vbar_p1(shuffled) == pytest.approx(vb, abs=1e-10)
        # Tied commitments are broken by action order, so the other flags
        # survive a relabelling only when the commitment is unique.
        assert shuffled_rep.satisfied == rep.satisfied
        if rep.a1_unique_stackelberg:
            assert _flags(shuffled_rep) == _flags(rep)
