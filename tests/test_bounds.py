from functools import cache

import numpy as np
import pytest

from repfreq import bounds
from repfreq.bounds import (
    indifference_pieces,
    min_freq_curve,
    min_freq_grid,
    min_stackelberg_freq,
    min_stackelberg_freq_finite,
)
from repfreq.game import MixedAction, StageGame, expected_payoffs
from repfreq.linprog import LPResult, solve_lp
from repfreq.stage import best_replies_p2, stackelberg
from .conftest import TWO_BY_TWO, UNIQUE_GAMES, load_fixture, random_assumption_games


def _witness_payoff(game, fb):
    u1_1, _ = expected_payoffs(game, fb.alpha1, MixedAction.delta(fb.b1))
    u1_2, _ = expected_payoffs(game, fb.alpha2, MixedAction.delta(fb.b2))
    return fb.q * u1_1 + (1 - fb.q) * u1_2


def test_product_choice_value_and_witness(product_choice):
    fb = min_stackelberg_freq(product_choice)
    assert fb.value == pytest.approx(0.375, abs=1e-9)
    assert fb.q == pytest.approx(0.75, abs=1e-7)
    assert {fb.b1, fb.b2} == {"h", "l"}
    assert fb.alpha1.prob("H") == pytest.approx(0.5, abs=1e-7)
    assert fb.alpha2.prob("L") == pytest.approx(1.0, abs=1e-7)


def test_nash_overlap_value_is_exactly_zero(nash_overlap):
    assert min_stackelberg_freq(nash_overlap).value == 0.0


def test_stackelberg_point_always_feasible(games):
    for game in games.values():
        fb = min_stackelberg_freq(game)
        assert 0.0 <= fb.value <= 1.0


def test_witness_satisfies_program_constraints(games):
    for game in games.values():
        stack = stackelberg(game)
        fb = min_stackelberg_freq(game)
        assert fb.value == pytest.approx(
            fb.q * fb.alpha1.prob(stack.a_star) + (1 - fb.q) * fb.alpha2.prob(stack.a_star),
            abs=1e-9,
        )
        assert fb.b1 in best_replies_p2(game, fb.alpha1, tol=1e-7)
        assert fb.b2 in best_replies_p2(game, fb.alpha2, tol=1e-7)
        assert _witness_payoff(game, fb) >= stack.v_star - 1e-9


def test_epsilon_shifts_payoff_floor(product_choice):
    eps = 0.05
    fb = min_stackelberg_freq(product_choice, epsilon=eps)
    stack = stackelberg(product_choice)
    assert fb.value <= min_stackelberg_freq(product_choice).value
    assert _witness_payoff(product_choice, fb) >= stack.v_star - eps - 1e-9


def test_equality_with_slack_pins_shifted_payoff(product_choice):
    eps = 0.05
    fb = min_stackelberg_freq(product_choice, epsilon=eps, equality=True)
    stack = stackelberg(product_choice)
    assert _witness_payoff(product_choice, fb) == pytest.approx(stack.v_star - eps, abs=1e-8)
    assert fb.value <= min_stackelberg_freq(product_choice, equality=True).value + 1e-9


@pytest.mark.parametrize("name", UNIQUE_GAMES)
def test_equality_variant_matches_inequality(games, name):
    game = games[name]
    assert min_stackelberg_freq(game, equality=True).value == pytest.approx(
        min_stackelberg_freq(game).value, abs=1e-8
    )


def test_value_is_one_when_commitment_point_is_uniquely_best(games):
    # When the commitment outcome is the strictly highest payoff, the payoff
    # floor pins all mass on it.
    for name in ("battle_of_sexes", "chicken"):
        fb = min_stackelberg_freq(games[name])
        assert fb.value == pytest.approx(1.0, abs=1e-9)
        assert fb.q == pytest.approx(1.0, abs=1e-9) or fb.q == pytest.approx(0.0, abs=1e-9)
        placeholder = fb.alpha2 if fb.q > 0.5 else fb.alpha1
        flag = fb.placeholder2 if fb.q > 0.5 else fb.placeholder1
        assert flag
        assert placeholder.support()  # canonical reply-consistent filler


@pytest.mark.parametrize("equality", [False, True])
@pytest.mark.parametrize("name", ["battle_of_sexes", "chicken"])
def test_single_block_witness_puts_the_placeholder_second(games, name, equality):
    game = games[name]
    fb = min_stackelberg_freq(game, equality=equality)
    placeholder = game.actions1[0]
    assert fb.q == 1.0
    assert fb.b1 == stackelberg(game).b_star
    assert not fb.placeholder1 and fb.placeholder2
    assert fb.alpha2.prob(placeholder) == 1.0
    assert fb.b2 == best_replies_p2(game, MixedAction.delta(placeholder))[0]


def test_requires_unique_commitment_point():
    game = StageGame(("a", "b"), ("x", "y"), np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="multiple optimal commitment"):
        min_stackelberg_freq(game)


def test_finite_variant_matches_lp(product_choice, entry_deterrence, games):
    for game in (product_choice, entry_deterrence, games["product_choice_three"]):
        assert min_stackelberg_freq_finite(game).value == pytest.approx(
            min_stackelberg_freq(game).value, abs=1e-8
        )


def test_finite_variant_entry_value(entry_deterrence):
    # (1 - co) * gamma / (1 - co * gamma) at gamma=0.6, co=0.5
    assert min_stackelberg_freq_finite(entry_deterrence).value == pytest.approx(0.3 / 0.7, abs=1e-9)


def test_finite_variant_rejects_non_monotone(fiscal_policy):
    # The expropriation game has a payoff tie when the citizen stays out.
    with pytest.raises(ValueError, match="monotone"):
        min_stackelberg_freq_finite(fiscal_policy)


def test_indifference_pieces_product_choice(product_choice):
    pieces = indifference_pieces(product_choice)
    assert len(pieces) == 1
    (piece,) = pieces
    assert piece.b == "h"
    assert piece.vertices.shape == (1, 2)
    assert piece.vertices[0] == pytest.approx([0.5, 0.5], abs=1e-9)


def test_indifference_pieces_three_products(games):
    pieces = indifference_pieces(games["product_choice_three"])
    by_reply = {p.b: p.vertices for p in pieces}
    assert set(by_reply) == {"h", "m"}
    assert by_reply["h"][0][0] == pytest.approx(0.6, abs=1e-9)
    assert by_reply["m"][0][0] == pytest.approx(0.4, abs=1e-9)


def test_indifference_pieces_empty_under_dominance():
    game = StageGame(
        ("a", "b"),
        ("x", "y"),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),  # x strictly dominant
    )
    assert indifference_pieces(game) == []


def test_piece_vertices_have_tied_replies(games):
    for name in ("product_choice", "product_choice_three", "entry_deterrence"):
        game = games[name]
        for piece in indifference_pieces(game):
            for vec in piece.vertices:
                alpha = MixedAction.from_vector(game.actions1, vec)
                replies = best_replies_p2(game, alpha, tol=1e-7)
                assert len(replies) >= 2
                assert piece.b in replies
                own, _ = expected_payoffs(game, alpha, MixedAction.delta(piece.b))
                for other in replies:
                    other_pay, _ = expected_payoffs(game, alpha, MixedAction.delta(other))
                    assert own >= other_pay - 1e-7


def test_grid_oracle_contains_exact_witness(product_choice):
    # gamma and q are both on the grid at resolution 20.
    assert min_freq_grid(product_choice, 20) == pytest.approx(0.375, abs=1e-12)


def test_grid_oracle_upper_bounds_lp(games):
    for name in TWO_BY_TWO:
        game = games[name]
        lp = min_stackelberg_freq(game).value
        for resolution in (1, 10, 25):
            assert min_freq_grid(game, resolution) >= lp - 1e-9


def test_grid_oracle_gap_shrinks_with_resolution(games):
    for name in TWO_BY_TWO:
        game = games[name]
        lp = min_stackelberg_freq(game).value
        coarse = min_freq_grid(game, 10) - lp
        fine = min_freq_grid(game, 50) - lp
        assert fine <= coarse + 1e-9


def test_grid_oracle_nash_overlap(nash_overlap):
    assert min_freq_grid(nash_overlap, 10) == pytest.approx(0.0, abs=1e-12)


def test_grid_oracle_budget_guard(nash_overlap):
    with pytest.raises(ValueError, match="budget"):
        min_freq_grid(nash_overlap, 2000)


def test_curve_nonincreasing_and_anchored(product_choice):
    pts = min_freq_curve(product_choice, [0.0, 0.01, 0.1])
    values = [v for _, v in pts]
    assert values[0] == pytest.approx(0.375, abs=1e-9)
    assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


def test_curve_vacuous_constraint_reaches_zero(product_choice):
    stack = stackelberg(product_choice)
    big = stack.v_star - float(product_choice.u1.min()) + 1.0
    (_, value), = min_freq_curve(product_choice, [big])
    assert value == pytest.approx(0.0, abs=1e-9)


def test_curve_validates_input(product_choice):
    with pytest.raises(ValueError, match="nonnegative"):
        min_freq_curve(product_choice, [-0.1, 0.0])
    with pytest.raises(ValueError, match="ascending"):
        min_freq_curve(product_choice, [0.1, 0.0])


def test_random_games_equality_matches_and_stays_interior():
    for game in random_assumption_games(25, seed=97):
        fb = min_stackelberg_freq(game)
        fb_eq = min_stackelberg_freq(game, equality=True)
        assert fb_eq.value == pytest.approx(fb.value, abs=1e-8)
        assert 0.0 <= fb.value < 1.0


def _min_freq_scipy(game, equality=False):
    # Same pair programs, solved by an external LP engine.
    import scipy.optimize

    from repfreq.stage import br_polytope

    stack = stackelberg(game)
    n = len(game.actions1)
    i_star = game.a_index(stack.a_star)
    c = np.zeros(2 * n)
    c[i_star] = 1.0
    c[n + i_star] = 1.0
    best = np.inf
    for j1 in range(len(game.actions2)):
        for j2 in range(len(game.actions2)):
            h1 = br_polytope(game, game.actions2[j1]).halfspaces
            h2 = br_polytope(game, game.actions2[j2]).halfspaces
            pay = np.concatenate([game.u1[:, j1], game.u1[:, j2]])
            cones = [np.hstack([-h1, np.zeros_like(h1)]), np.hstack([np.zeros_like(h2), -h2])]
            if equality:
                a_ub = np.vstack(cones)
                b_ub = np.zeros(len(a_ub))
                a_eq = np.vstack([np.ones(2 * n), pay])
                b_eq = [1.0, stack.v_star]
            else:
                a_ub = np.vstack(cones + [-pay[None, :]])
                b_ub = np.zeros(len(a_ub))
                b_ub[-1] = -stack.v_star
                a_eq = np.ones((1, 2 * n))
                b_eq = [1.0]
            res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
            if res.status == 0:
                best = min(best, res.fun)
    return best


def test_lp_engine_agrees_with_scipy_on_random_games(games):
    targets = list(games.values()) + random_assumption_games(20, seed=555)
    for game in targets:
        ours = min_stackelberg_freq(game).value
        ref = _min_freq_scipy(game)
        assert ours == pytest.approx(ref, abs=1e-8)


def test_product_choice_comparative_statics_quick():
    from repfreq.apps import ProductChoiceParams, build_stage_game

    def value(gamma, ch, cl):
        return min_stackelberg_freq(build_stage_game(ProductChoiceParams(gamma, ch, cl))).value

    assert value(0.6, 0.4, 0.2) > value(0.5, 0.4, 0.2) + 1e-6
    assert value(0.5, 0.5, 0.2) < value(0.5, 0.4, 0.2) - 1e-6
    assert value(0.5, 0.4, 0.7) == pytest.approx(value(0.5, 0.4, 0.2), abs=1e-9)


@cache
def _block_games() -> dict[str, StageGame]:
    """The fixtures plus random assumption-satisfying games at 3, 4 and 5 actions."""
    out = {name: load_fixture(name) for name in UNIQUE_GAMES}
    for size in (3, 4, 5):
        for i, game in enumerate(random_assumption_games(8, seed=700 + size, size=size)):
            out[f"random_{size}x{size}_{i}"] = game
    return out


@pytest.mark.parametrize("equality", [False, True])
def test_block_lp_witness_on_fixtures_and_random_games(monkeypatch, equality):
    solutions = []

    def recording_solve_lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        solutions.append(res.x)
        return res

    monkeypatch.setattr(bounds, "solve_lp", recording_solve_lp)
    for name, game in _block_games().items():
        stack = stackelberg(game)
        fb = min_stackelberg_freq(game, equality=equality)
        (x,) = solutions
        solutions.clear()
        masses = x.reshape(len(game.actions2), len(game.actions1)).sum(axis=1)
        assert np.count_nonzero(masses > 1e-9) <= 2, name
        assert fb.b1 in best_replies_p2(game, fb.alpha1, tol=1e-7), name
        assert fb.b2 in best_replies_p2(game, fb.alpha2, tol=1e-7), name
        freq = fb.q * fb.alpha1.prob(stack.a_star) + (1 - fb.q) * fb.alpha2.prob(stack.a_star)
        assert freq == pytest.approx(fb.value, abs=1e-9), name
        payoff = _witness_payoff(game, fb)
        if equality:
            assert abs(payoff - stack.v_star) <= 1e-9, name
        else:
            assert payoff >= stack.v_star - 1e-9, name


@pytest.mark.parametrize("equality", [False, True])
def test_block_lp_matches_scipy_pair_programs(equality):
    for name, game in _block_games().items():
        ours = min_stackelberg_freq(game, equality=equality).value
        assert ours == pytest.approx(_min_freq_scipy(game, equality), abs=1e-8), name


def test_more_than_two_nonzero_blocks_is_an_error(monkeypatch, games):
    game = games["product_choice_three"]
    n = len(game.actions1) * len(game.actions2)
    spread = LPResult("optimal", np.full(n, 1.0 / n), 0.5)
    monkeypatch.setattr(bounds, "solve_lp", lambda *args, **kwargs: spread)
    with pytest.raises(RuntimeError, match="3 nonzero reply blocks"):
        min_stackelberg_freq(game)


def _relabelled_affine(game: StageGame, rng, player: int, scale: float) -> StageGame:
    """Shuffle both players' actions and map one player's payoffs to scale * u + shift."""
    rows = rng.permutation(len(game.actions1))
    cols = rng.permutation(len(game.actions2))
    payoffs = [game.u1, game.u2]
    payoffs[player] = scale * payoffs[player] + rng.uniform(-5.0, 5.0)
    return StageGame(
        tuple(game.actions1[i] for i in rows),
        tuple(game.actions2[j] for j in cols),
        payoffs[0][np.ix_(rows, cols)],
        payoffs[1][np.ix_(rows, cols)],
        order1=game.order1,
        order2=game.order2,
    )


def test_value_invariant_under_affine_payoff_maps_and_relabelling():
    rng = np.random.default_rng(31)
    for name, game in _block_games().items():
        a_star = stackelberg(game).a_star
        value = min_stackelberg_freq(game).value
        for player in (0, 1):
            for scale in (1e-2, 0.5, 3.0, 1e2):
                moved = _relabelled_affine(game, rng, player, scale)
                assert stackelberg(moved).a_star == a_star, (name, player, scale)
                assert abs(min_stackelberg_freq(moved).value - value) <= 1e-10, (name, player, scale)
