from functools import cache
from itertools import product

import numpy as np
import pytest

from repfreq import attain, bounds
from repfreq.apps import build_stage_game
from repfreq.bounds import (
    indifference_pieces,
    min_freq_curve,
    min_freq_grid,
    min_stackelberg_freq,
    min_stackelberg_freq_finite,
)
from repfreq.game import MixedAction, StageGame
from repfreq.linprog import LPResult, solve_lp
from repfreq.stage import DEFAULT_TOL, best_replies_p2, check_assumptions, is_monotone_supermodular, stackelberg
from .conftest import (
    TWO_BY_TWO,
    UNIQUE_GAMES,
    criterion_1_params,
    load_fixture,
    random_assumption_games,
    reply_halfspaces,
)


def _witness_payoff(game, fb):
    u1_1 = fb.alpha1.as_vector(game.actions1) @ game.u1[:, game.b_index(fb.b1)]
    u1_2 = fb.alpha2.as_vector(game.actions1) @ game.u1[:, game.b_index(fb.b2)]
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
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        min_stackelberg_freq(product_choice, epsilon=-0.1)


EPSILON_CALLS = {
    "lp": lambda game, eps: min_stackelberg_freq(game, epsilon=eps),
    "pinned": lambda game, eps: min_stackelberg_freq(game, epsilon=eps, equality=True),
    "decompose": lambda game, eps: bounds.decompose_target(game, MixedAction({"H": 0.375, "L": 0.625}), epsilon=eps),
    "curve": lambda game, eps: min_freq_curve(game, [eps]),
}


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("call", list(EPSILON_CALLS))
def test_a_nan_or_infinite_epsilon_is_refused_by_name(product_choice, call, epsilon):
    # Before the LP is built, which would refuse it as nonfinite data.
    with pytest.raises(ValueError, match=rf"^epsilon must be nonnegative and finite, got {epsilon}$"):
        EPSILON_CALLS[call](product_choice, epsilon)


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
        assert fb.q == pytest.approx(1.0, abs=1e-9)
        assert fb.placeholder2
        assert fb.alpha2.support()  # canonical reply-consistent filler


@pytest.mark.parametrize("equality", [False, True])
@pytest.mark.parametrize("name", ["battle_of_sexes", "chicken"])
def test_single_block_witness_puts_the_placeholder_second(games, name, equality):
    game = games[name]
    fb = min_stackelberg_freq(game, equality=equality)
    placeholder = game.actions1[0]
    assert fb.q == 1.0
    assert fb.b1 == stackelberg(game).b_star
    assert fb.placeholder2
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


def test_finite_variant_rejects_commitment_best_reply():
    # Monotone with a unique commitment point, but a0 is player 1's best reply
    # to b0; the candidates would give 0.6 where the exact value is 0.25.
    game = StageGame(
        ("a0", "a1"),
        ("b0", "b1"),
        u1=np.array([[0.4, -0.8], [0.6, 0.45]]),
        u2=np.array([[0.25, -0.95], [-0.6, 0.2]]),
        order1=("a0", "a1"),
        order2=("b0", "b1"),
    )
    assert min_stackelberg_freq(game).value == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError, match="not a best reply"):
        min_stackelberg_freq_finite(game)


@cache
def _prop1_games() -> list[StageGame]:
    """The monotone fixtures plus random 2- and 3-action games that are
    monotone-supermodular under a0 > a1 > ... and b0 > b1 > ... and meet
    prop1's hypothesis; half have payoffs on a quarter grid, which gives
    degenerate ties."""
    out = [load_fixture(name) for name in ("product_choice", "product_choice_three", "entry_deterrence")]
    rng = np.random.default_rng(9)
    while len(out) < 153:
        size = int(rng.integers(2, 4))
        y = np.sort(rng.uniform(0, 1, size))[::-1]
        x = np.sort(rng.uniform(0, 1, size))[::-1]
        u1 = np.sort(rng.uniform(-1, 1, (size, size)), axis=0) + y
        u2 = rng.uniform(-1, 1, (size, size)) + 2 * np.outer(x, y)
        if rng.random() < 0.5:
            u1, u2 = np.round(u1 * 4) / 4, np.round(u2 * 4) / 4
        labels1 = tuple(f"a{i}" for i in range(size))
        labels2 = tuple(f"b{j}" for j in range(size))
        game = StageGame(labels1, labels2, u1, u2, order1=labels1, order2=labels2)
        if not is_monotone_supermodular(game):
            continue
        report = check_assumptions(game)
        if report.a1_unique_stackelberg and report.a1_unique_reply and report.a2_not_best_reply:
            out.append(game)
    return out


def test_finite_variant_is_one_lp_with_a_valid_witness(monkeypatch):
    solutions = []

    def recording_solve_lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        solutions.append(res.x)
        return res

    monkeypatch.setattr(bounds, "solve_lp", recording_solve_lp)
    single = spread = 0
    for n, game in enumerate(_prop1_games()):
        stack = stackelberg(game)
        fb = min_stackelberg_freq_finite(game)
        (x,) = solutions
        solutions.clear()
        assert fb.value == pytest.approx(min_stackelberg_freq(game).value, abs=1e-12), n
        solutions.clear()
        assert fb.b1 in best_replies_p2(game, fb.alpha1, tol=1e-7), n
        assert fb.b2 in best_replies_p2(game, fb.alpha2, tol=1e-7), n
        freq = fb.q * fb.alpha1.prob(stack.a_star) + (1 - fb.q) * fb.alpha2.prob(stack.a_star)
        assert freq == pytest.approx(fb.value, abs=1e-9), n
        assert _witness_payoff(game, fb) >= stack.v_star - 1e-9, n
        # Weights per candidate, in the order the finite program lists them.
        sizes = [len(piece.vertices) for piece in indifference_pieces(game)] + [1]
        starts = np.cumsum([0] + sizes[:-1])
        live = np.flatnonzero(np.add.reduceat(x, starts) > 1e-9)
        assert 1 <= len(live) <= 2, n
        assert fb.placeholder2 == (len(live) == 1), n
        if len(live) == 1:
            single += 1
            assert fb.q == 1.0, n
        spread += sum(np.count_nonzero(x[starts[j] : starts[j] + sizes[j]] > 1e-9) > 1 for j in live)
    # The sample holds single-candidate optima and candidates weighted on
    # more than one vertex, so both parts of the witness rule are exercised.
    assert single > 0 and spread > 0


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


def test_indifference_pieces_keep_vertices_200_vertex_tolerances_apart():
    # b0 and b1 tie where x2 = 0 and beat b2 there from x0 = 0.5 on; player 1
    # prefers b0 up to x0 = 0.5 + d. The piece's two ends differ by
    # d = 2e-6, 200 times _VERTEX_ATOL, in two weights, so they are two
    # vertices, which a relative merge tolerance of 1e-5 would make one.
    d = 2e-6
    game = StageGame(
        ("a0", "a1", "a2"),
        ("b0", "b1", "b2"),
        np.array([[-(0.5 - d), 0.0, 0.0], [0.5 + d, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]),
    )
    piece = indifference_pieces(game)[0]
    assert piece.b == "b0"
    assert len(piece.vertices) == 2
    expected = [[0.5, 0.5, 0.0], [0.5 + d, 0.5 - d, 0.0]]
    for target in expected:
        assert any(np.abs(vertex - target).max() <= 1e-12 for vertex in piece.vertices)


def test_piece_vertices_have_tied_replies(games):
    for name in ("product_choice", "product_choice_three", "entry_deterrence"):
        game = games[name]
        for piece in indifference_pieces(game):
            for vec in piece.vertices:
                alpha = MixedAction.from_vector(game.actions1, vec)
                replies = best_replies_p2(game, alpha, tol=1e-7)
                assert len(replies) >= 2
                assert piece.b in replies
                av = alpha.as_vector(game.actions1)
                own = av @ game.u1[:, game.b_index(piece.b)]
                for other in replies:
                    assert own >= av @ game.u1[:, game.b_index(other)] - 1e-7


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


def test_grid_oracle_does_not_depend_on_its_group_budget(games, monkeypatch):
    # Below one q's worth of pairs, each q is scanned on its own.
    names = [*TWO_BY_TWO, "nash_overlap_3x2", "product_choice_three"]
    values = [min_freq_grid(games[name], 20) for name in names]
    monkeypatch.setattr(bounds, "_GRID_CELLS", 1)
    assert [min_freq_grid(games[name], 20) for name in names] == values


def _grid_scan(game, resolution, tol=DEFAULT_TOL):
    """The grid oracle's value by a direct scan: every grid point found by
    filtering all count vectors, each reply within ``tol`` of the best, and
    every ordered pair of (point, reply) candidates at every grid weight q."""
    stack = stackelberg(game, tol)
    i_star = game.a_index(stack.a_star)
    cands = []
    for counts in product(range(resolution + 1), repeat=len(game.actions1)):
        if sum(counts) == resolution:
            vec = np.array(counts, dtype=float) / resolution
            values = vec @ game.u2
            for j in np.flatnonzero(values >= values.max() - tol):
                cands.append((float(vec[i_star]), float(vec @ game.u1[:, j])))
    best = np.inf
    for k in range(resolution + 1):
        q = k / resolution
        for f_i, u_i in cands:
            for f_j, u_j in cands:
                if (1 - q) * u_j >= stack.v_star - q * u_i:
                    best = min(best, q * f_i + (1 - q) * f_j)
    return best


def test_grid_oracle_equals_a_direct_scan():
    # Same candidates and the same arithmetic, so the same float, whatever
    # order the oracle enumerates and sorts its points in.
    rng = np.random.default_rng(42)
    games = []
    while len(games) < 20:
        n_a, n_b = rng.integers(2, 4, size=2)
        game = StageGame(
            tuple(f"a{i}" for i in range(n_a)),
            tuple(f"b{j}" for j in range(n_b)),
            rng.uniform(-1, 1, (n_a, n_b)),
            rng.uniform(-1, 1, (n_a, n_b)),
        )
        stack = stackelberg(game)
        if stack.unique_action and stack.unique_reply:
            games.append(game)
    for game in games:
        for resolution in range(1, 7):
            assert min_freq_grid(game, resolution) == _grid_scan(game, resolution)


def test_grid_oracle_nash_overlap(nash_overlap):
    assert min_freq_grid(nash_overlap, 10) == pytest.approx(0.0, abs=1e-12)


def test_grid_oracle_budget_guard(nash_overlap):
    with pytest.raises(ValueError, match="budget"):
        min_freq_grid(nash_overlap, 2000)
    with pytest.raises(ValueError, match="resolution must be at least 1"):
        min_freq_grid(nash_overlap, 0)


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

    stack = stackelberg(game)
    n = len(game.actions1)
    i_star = game.a_index(stack.a_star)
    c = np.zeros(2 * n)
    c[i_star] = 1.0
    c[n + i_star] = 1.0
    best = np.inf
    for j1 in range(len(game.actions2)):
        for j2 in range(len(game.actions2)):
            h1 = reply_halfspaces(game, j1)
            h2 = reply_halfspaces(game, j2)
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


def _two_action_min_freq(game: StageGame, epsilon: float) -> float:
    """The frequency bound of a game where player 1 has two actions, without an LP.

    With ``a`` the weight on a*, each reply's best-reply set is an interval
    [lo, hi] of ``a``, cut by one division per rival reply, and a block's
    (payoff, a) images form the segment between its ends. So the value is the
    least ``a`` among the ends paying at least v* - epsilon, or among mixes of
    two ends that straddle that floor and pay it exactly.
    """
    stack = stackelberg(game)
    s = game.a_index(stack.a_star)
    u1, u2 = game.u1[[1 - s, s]].tolist(), game.u2[[1 - s, s]].tolist()  # row 0 at a = 0, row 1 at a = 1
    floor = stack.v_star - epsilon
    ends = []
    for b in range(len(game.actions2)):
        lo, hi = 0.0, 1.0
        for k in range(len(game.actions2)):
            g0, g1 = u2[0][b] - u2[0][k], u2[1][b] - u2[1][k]  # b's gap over k at a = 0 and a = 1
            if g1 > g0:
                lo = max(lo, g0 / (g0 - g1))
            elif g1 < g0:
                hi = min(hi, g0 / (g0 - g1))
            elif g0 < 0.0:
                hi = -1.0
        if lo <= hi:
            ends += [(a * u1[1][b] + (1.0 - a) * u1[0][b], a) for a in (lo, hi)]
    best = min(a for pay, a in ends if pay >= floor)
    for (p1, a1), (p2, a2) in product(ends, ends):
        if p1 > floor > p2:
            mix = (floor - p2) / (p1 - p2)
            best = min(best, mix * a1 + (1.0 - mix) * a2)
    return best


def _two_action_games():
    """The criterion-1 games, then seeded random 2 x k games (k = 2 to 6) with
    uniform and with {0, 1, 2}-integer payoffs."""
    yield from (build_stage_game(params) for params in criterion_1_params())
    rng = np.random.default_rng(2024)
    for k in range(2, 7):
        labels2 = tuple(f"b{j}" for j in range(k))
        for _ in range(60):
            yield StageGame(("a0", "a1"), labels2, rng.uniform(-1, 1, (2, k)), rng.uniform(-1, 1, (2, k)))
            yield StageGame(("a0", "a1"), labels2, rng.integers(0, 3, (2, k)) * 1.0, rng.integers(0, 3, (2, k)) * 1.0)


def test_two_action_frequency_bound_matches_an_exact_oracle():
    checked = 0
    for game in _two_action_games():
        stack = stackelberg(game)
        if not (stack.unique_action and stack.unique_reply):
            continue  # the LP refuses a non-unique commitment point
        for epsilon in (0.0, 0.05, 0.3):
            assert min_stackelberg_freq(game, epsilon).value == pytest.approx(
                _two_action_min_freq(game, epsilon), abs=1e-12
            ), (game, epsilon)
            checked += 1
    assert checked > 7_000


def test_more_than_two_nonzero_blocks_is_an_error(monkeypatch, games):
    game = games["product_choice_three"]
    n = len(game.actions1) * len(game.actions2)
    spread = LPResult("optimal", np.full(n, 1.0 / n), 0.5)
    monkeypatch.setattr(bounds, "solve_lp", lambda *args, **kwargs: spread)
    with pytest.raises(RuntimeError, match="3 nonzero reply blocks"):
        min_stackelberg_freq(game)


def test_the_warm_start_matches_the_two_phase_route(monkeypatch):
    # Each inequality program is solved from the Stackelberg vertex, as
    # min_stackelberg_freq solves it, and again by two phases from the slack basis.
    solved = []

    def both_routes(*args, **kwargs):
        warm = solve_lp(*args, **kwargs)
        solved.append((kwargs, warm, solve_lp(*args, **{**kwargs, "start": None})))
        return warm

    monkeypatch.setattr(bounds, "solve_lp", both_routes)
    games = [build_stage_game(params) for params in criterion_1_params()]
    for size in range(2, 7):
        games += random_assumption_games(20, seed=900 + size, size=size)
    for n, game in enumerate(games):
        stack = stackelberg(game)
        for eps in (0.0, 0.05):
            fb = min_stackelberg_freq(game, epsilon=eps)
            ((kwargs, warm, cold),) = solved
            solved.clear()
            assert kwargs["start"] is not None, n
            assert warm.optimal and cold.optimal, n
            assert abs(warm.value - cold.value) <= 1e-12, n
            cone, neg_pay = kwargs["a_ub"][:-1], kwargs["a_ub"][-1]
            for res in (warm, cold):
                assert (cone @ res.x).max(initial=0.0) <= 1e-9, n  # every block meets its reply rows
                assert -neg_pay @ res.x >= stack.v_star - eps - 1e-9, n
            assert _witness_payoff(game, fb) >= stack.v_star - eps - 1e-9, n
            freq = fb.q * fb.alpha1.prob(stack.a_star) + (1 - fb.q) * fb.alpha2.prob(stack.a_star)
            assert abs(freq - fb.value) <= 1e-12, n


@pytest.mark.parametrize("mass, kept", [(1e-10, False), (2e-9, True)])
def test_block_mass_at_or_below_dust_is_dropped(monkeypatch, product_choice, mass, kept):
    # Blocks in reply order (h, then l), each over (H, L); the l block has ``mass``.
    solved = LPResult("optimal", np.array([1.0 - mass, 0.0, 0.0, mass]), 0.5)
    monkeypatch.setattr(bounds, "solve_lp", lambda *args, **kwargs: solved)
    fb = min_stackelberg_freq(product_choice)
    a2, b2 = ("L", "l") if kept else ("H", "h")  # the l block, or the placeholder
    assert (fb.placeholder2, fb.alpha2, fb.b2) == (not kept, MixedAction.delta(a2), b2)
    decomposition = attain.decompose_target(product_choice, MixedAction.delta("H"))
    assert sorted(decomposition.weights) == (["h", "l"] if kept else ["h"])
    live = bounds._live_blocks(product_choice, solved.x.reshape(-1, 2))
    assert [(j, m) for j, m, _ in live] == [(0, 1.0 - mass), (1, mass)][: 1 + kept]


def test_a_value_within_round_off_of_the_unit_interval_is_clamped_into_it():
    assert [bounds._clamp_unit(v) for v in (-1e-12, 0.0, 0.25, 1.0, 1.0 + 1e-12)] == [0.0, 0.0, 0.25, 1.0, 1.0]
    assert [bounds._clamp_unit(v) for v in (-1e-8, 1.0 + 1e-8)] == [-1e-8, 1.0 + 1e-8]  # past round-off: kept


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3a: at u1 * 2**-k the payoff row's entries (about 1e-9) fall under linprog's absolute "
    "_PIVOT_TOL of 1e-8, so the floor or pin never binds: from k = 27 the bound reads 0.0 with witness (L, l), "
    "and from k = 26 decompose_target accepts L:1",
)
@pytest.mark.parametrize("k", [26, 27, 28, 29])
def test_an_exact_power_of_two_scale_of_u1_keeps_the_bound_and_attainability(product_choice, k):
    game = product_choice
    scaled = StageGame(game.actions1, game.actions2, np.ldexp(game.u1, -k), game.u2, game.order1, game.order2)
    for equality in (False, True):
        assert min_stackelberg_freq(scaled, equality=equality).value == pytest.approx(0.375, abs=1e-9), equality
    assert attain.decompose_target(scaled, MixedAction.delta("L")) is None
