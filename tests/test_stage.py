from itertools import chain, combinations, product

import numpy as np
import pytest
import scipy.optimize

from repfreq import bounds, simulate, stage
from repfreq.game import MixedAction, StageGame
from repfreq.stage import (
    best_replies_p2,
    check_assumptions,
    is_monotone_supermodular,
    lowest_pair,
    minmax_p1,
    stackelberg,
    vbar_p1,
)
from . import _reference_stage
from .conftest import NEAR_MAX, UNIQUE_GAMES, cycling_game, reply_halfspaces


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


def _cone_blocks(game: StageGame) -> list[np.ndarray]:
    """Block j of the block LP's cone: its rows in block j's columns. Checks
    that the cone has nothing outside its blocks."""
    n_a, n_b = game.u2.shape
    cone, _ = bounds._stacked_reply_blocks(game)
    blocks = [cone[j * (n_b - 1) : (j + 1) * (n_b - 1), j * n_a : (j + 1) * n_a] for j in range(n_b)]
    assert np.count_nonzero(cone) == sum(np.count_nonzero(block) for block in blocks)
    return blocks


def test_polytope_membership_agrees_with_best_replies(games):
    # Block j of the cone holds the alphas to which b_j is a best reply.
    rng = np.random.default_rng(7)
    for game in games.values():
        blocks = _cone_blocks(game)
        for _ in range(1000):
            vec = rng.dirichlet(np.ones(len(game.actions1)))
            replies = set(best_replies_p2(game, MixedAction.from_vector(game.actions1, vec)))
            for block, b in zip(blocks, game.actions2):
                assert bool(np.all(block @ vec <= stage.DEFAULT_TOL)) == (b in replies)
    # Its rows are the rival replies' halfspaces, negated, entry for entry.
    cases = list(games.values()) + [cycling_game()]
    shapes = [(2, 2), (3, 5), (5, 3), (4, 4)]
    cases += [_random_game(rng, *shape, integer) for shape in shapes for integer in (False, True)]
    for game in cases:
        for j, block in enumerate(_cone_blocks(game)):
            assert np.array_equal(block, -reply_halfspaces(game, j))


@pytest.mark.parametrize("integer", [True, False], ids=["tie-heavy-integer", "uniform"])
def test_reply_gaps_layout_bit_for_bit(integer):
    # tobytes tells -0.0 from 0.0, so a gap formed with the opposite sign and
    # negated back would not pass for the subtraction itself.
    rng = np.random.default_rng(45)
    for n_a, n_b in product(range(2, 7), repeat=2):
        for _ in range(3):
            game = _random_game(rng, n_a, n_b, integer)
            gaps, rivals = stage._reply_gaps(game.u2)
            expected = np.array([[game.u2[:, j] - game.u2[:, k] for k in range(n_b)] for j in range(n_b)])
            assert gaps.tobytes() == expected.tobytes()
            rows = np.array([[expected[j, k] for k in range(n_b) if k != j] for j in range(n_b)])
            assert rivals.tobytes() == rows.tobytes()
            cone = np.zeros((n_b, n_b - 1, n_b, n_a))
            for j in range(n_b):
                cone[j, :, j] = -rows[j]  # block j's rival rows in block j's columns, zero elsewhere
            assert bounds._stacked_reply_blocks(game)[0].tobytes() == cone.reshape(-1, n_b * n_a).tobytes()


def test_stackelberg_product_choice(product_choice):
    res = stackelberg(product_choice)
    assert (res.a_star, res.b_star) == ("H", "h")
    assert res.v_star == pytest.approx(0.6)
    assert res.unique_action and res.unique_reply


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


def _replies_by_loop(game: StageGame, i: int, tol: float = stage.DEFAULT_TOL) -> list[int]:
    """Player 2's best replies to player 1's pure action i, row by row: the
    entries within tol of the row's largest u2."""
    row = game.u2[i]
    return [j for j in range(len(row)) if row[j] >= max(row) - tol]


def _tie_heavy_games(count: int, seed: int) -> list[StageGame]:
    """Games of 2 to 5 actions a side with payoffs in {-1, 0, 1}."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        n_a, n_b = (int(n) for n in rng.integers(2, 6, size=2))
        u1, u2 = (rng.integers(-1, 2, (n_a, n_b)).astype(float) for _ in range(2))
        games.append(StageGame(tuple(f"a{i}" for i in range(n_a)), tuple(f"b{j}" for j in range(n_b)), u1, u2))
    return games


def test_worst_replies_agree_with_a_per_row_loop(games):
    tol = stage.DEFAULT_TOL
    cases = list(games.values()) + _tie_heavy_games(300, seed=28)
    tied_rows = b_primes = 0
    for game in cases:
        replies = [_replies_by_loop(game, i) for i in range(len(game.actions1))]
        # Player 1's worst best reply to each action, the lowest index on ties.
        worst = [min(r, key=lambda j: (game.u1[i, j], j)) for i, r in enumerate(replies)]
        values = [game.u1[i, j] for i, j in enumerate(worst)]
        candidates = [i for i, v in enumerate(values) if v >= max(values) - tol]
        i_star = candidates[0]
        res = stackelberg(game)
        assert (res.a_star, res.b_star, res.v_star, res.unique_action, res.unique_reply) == (
            game.actions1[i_star],
            game.actions2[worst[i_star]],
            values[i_star],
            len(candidates) == 1,
            len(replies[i_star]) == 1,
        )
        # Rows where several best replies tie on u1 too, so the index rule decides.
        tied_rows += sum(sum(game.u1[i, j] == v for j in r) > 1 for i, (r, v) in enumerate(zip(replies, values)))
        try:
            target = bounds.min_stackelberg_freq(game, equality=True).marginal(game)
            params = simulate.derive_params(game, target, eps1=0.01, delta=0.999)
        except ValueError:  # no unique commitment point, or no construction
            continue
        if not params.trivial:
            assert params.b_prime == game.actions2[worst[game.a_index(params.a_prime)]]
            b_primes += 1
    assert tied_rows >= 100, tied_rows
    # Most tie-heavy games have no unique commitment point or no tempting action.
    assert b_primes >= 10, b_primes


def _signed_tie_games(count: int, seed: int, scale: float) -> list[StageGame]:
    """Games of 2 to 5 actions a side with payoffs in scale * {-2, ..., 2}, about
    half of their zeros stored as -0.0."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        n_a, n_b = (int(n) for n in rng.integers(2, 6, size=2))
        u1, u2 = (scale * rng.integers(-2, 3, (n_a, n_b)) for _ in range(2))
        for u in (u1, u2):
            u[(u == 0.0) & (rng.random(u.shape) < 0.5)] = -0.0
        labels1, labels2 = tuple(f"a{i}" for i in range(n_a)), tuple(f"b{j}" for j in range(n_b))
        games.append(StageGame(labels1, labels2, u1, u2, order1=labels1))
    return games


def _best_by_loop(row: list[float], tol: float) -> list[int]:
    top = row[0]
    for v in row[1:]:
        if v > top:
            top = v
    return [j for j in range(len(row)) if row[j] >= top - tol]


@pytest.mark.parametrize(
    "scale, tols, count", [(1.0, (0.0, stage.DEFAULT_TOL, 1.0), 1000), (0.25, (0.25, 0.5), 300)]
)
def test_tie_rule_kernels_match_a_plain_loop_bit_for_bit(scale, tols, count):
    # Entries one grid step apart are exactly tol apart at tol = scale.
    for game in _signed_tie_games(count, seed=35, scale=scale):
        u1, u2 = game.u1.tolist(), game.u2.tolist()
        for tol in tols:
            replies = [_best_by_loop(row, tol) for row in u2]
            worst = []
            for i, r in enumerate(replies):
                j_min = r[0]
                for j in r[1:]:
                    if u1[i][j] < u1[i][j_min]:
                        j_min = j
                worst.append(j_min)
            values = [u1[i][j] for i, j in enumerate(worst)]
            candidates = _best_by_loop(values, tol)
            i_star = candidates[0]
            assert stage._worst_replies(game, tol) == worst
            res = stackelberg(game, tol)
            assert (res.a_star, res.b_star, res.unique_action, res.unique_reply) == (
                game.actions1[i_star],
                game.actions2[worst[i_star]],
                len(candidates) == 1,
                len(replies[i_star]) == 1,
            )
            assert res.v_star == values[i_star] and np.signbit(res.v_star) == np.signbit(values[i_star])
            for i, a in enumerate(game.actions1):
                assert best_replies_p2(game, MixedAction.delta(a), tol) == tuple(game.actions2[j] for j in replies[i])
            for j, b in enumerate(game.actions2):
                column = [row[j] for row in u1]
                expected = tuple(game.actions1[i] for i in _best_by_loop(column, tol))
                assert stage._pure_best_replies_p1(game, b, tol) == expected
            i_low = len(u1) - 1
            j_low = max(replies[i_low], key=lambda j: (u1[i_low][j], -j))
            assert lowest_pair(game, tol) == (game.actions1[i_low], game.actions2[j_low])
            placeholder = (MixedAction.delta(game.actions1[0]), game.actions2[replies[0][0]])
            assert bounds._placeholder_component(game, tol) == placeholder


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


def test_reply_tolerance_keeps_a_reply_exactly_tol_below_the_best():
    # Quarter-grid payoffs at tol = 0.25. Against T, x is exactly tol below y and
    # is kept, z is 0.5 below and is not; against B, y is kept and x is not. Each
    # consumer's answer would change if the edge case went the other way.
    game = StageGame(
        ("T", "B"),
        ("x", "y", "z"),
        np.array([[0.5, 1.0, 0.0], [1.0, 0.75, -0.5]]),
        np.array([[0.75, 1.0, 0.5], [0.5, 0.75, 1.0]]),
        order1=("T", "B"),
    )
    tol = 0.25
    assert best_replies_p2(game, MixedAction.delta("T"), tol) == ("x", "y")
    assert best_replies_p2(game, MixedAction.delta("B"), tol) == ("y", "z")
    stack = stackelberg(game, tol)
    assert (stack.a_star, stack.b_star, stack.v_star, stack.unique_reply) == ("T", "x", 0.5, False)
    assert lowest_pair(game, tol) == ("B", "y")
    assert bounds._placeholder_component(game, tol) == (MixedAction.delta("T"), "x")


@pytest.mark.parametrize("tol", [-1e-3, float("nan")])
def test_a_negative_or_nan_reply_tolerance_is_refused(product_choice, tol):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        stackelberg(product_choice, tol)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        best_replies_p2(product_choice, MixedAction.delta("H"), tol)


def test_bounds_match_the_exhaustive_reference(games):
    # Non-square shapes matter: T and S are pruned differently.
    rng = np.random.default_rng(606)
    shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2), (3, 4)]
    cases = list(games.values())
    cases += [_random_game(rng, *shape, integer) for shape in shapes for integer in (False, True)]
    cases += [_random_game(rng, 3, 3, integer) for integer in (False, True) for _ in range(4)]
    cases += [_random_game(rng, 6, 6, integer) for integer in (False, True)]
    for game in cases:
        assert minmax_p1(game) == pytest.approx(_reference_stage.minmax_p1(game), abs=1e-12)
        assert vbar_p1(game) == pytest.approx(_reference_stage.vbar_p1(game), abs=1e-12)


def _subsets(n: int) -> list[tuple[int, ...]]:
    return [s for size in range(1, n + 1) for s in combinations(range(n), size)]


def test_vertex_table_answers_support_feasibility_as_highs_does(games):
    # (T, S) is feasible when some alpha on T makes every action in S a best
    # reply; the table says so when one of its pairs has a support within T
    # and replies containing S.
    rng = np.random.default_rng(608)
    shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 5), (5, 3), (3, 4)]
    cases = list(games.values())
    cases += [_random_game(rng, *shape, integer) for shape in shapes for integer in (False, True)]
    for game in cases:
        supports, replies = stage._reply_table(game)
        n_a, n_b = game.u1.shape
        halfspaces = [reply_halfspaces(game, j) for j in range(n_b)]
        for t in _subsets(n_a):
            for s in _subsets(n_b):
                rows = np.vstack([halfspaces[j][:, t] for j in s])
                highs = scipy.optimize.linprog(
                    np.zeros(len(t)), A_ub=-rows, b_ub=np.zeros(len(rows)), A_eq=np.ones((1, len(t))), b_eq=[1.0]
                )
                assert highs.status in (0, 2)
                in_t, in_s = np.isin(range(n_a), t), np.isin(range(n_b), s)
                table = bool(np.any((supports <= in_t).all(axis=1) & (replies >= in_s).all(axis=1)))
                assert table == (highs.status == 0), (game, t, s)


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
    # Extreme u2 scales: the bounds read u2 only through the vertex table. The
    # 8x8 games reach the width from which np.linalg.norm sums pairwise.
    narrow = product((1e-6, 1e6), (False, True), [None] * 3)
    wide = product((1e-6, 1e6), (False, True), [(8, 8)])
    for scale, integer, shape in chain(narrow, wide):
        game = _random_game(rng, *(shape or rng.integers(2, 6, 2)), integer)
        rep, vb = check_assumptions(game), vbar_p1(game)
        moved = StageGame(game.actions1, game.actions2, game.u1, scale * game.u2 + rng.uniform(-2, 2))
        for moved_part, part in zip(stage._reply_table(moved), stage._reply_table(game)):
            assert np.array_equal(moved_part, part)
        moved_rep = check_assumptions(moved)
        assert moved_rep.minmax == pytest.approx(rep.minmax, abs=1e-10)
        assert vbar_p1(moved) == pytest.approx(vb, abs=1e-10)
        assert _flags(moved_rep) == _flags(rep)


def _one_system_vertices(eq: np.ndarray, ineq: np.ndarray) -> np.ndarray:
    """The vertex enumerator as it was before it took a batch of systems: one
    system, its zero rows dropped before the choices are formed."""

    def unit(rows):
        norms = np.linalg.norm(rows, axis=1)
        keep = norms > 0.0
        return rows[keep] / norms[keep, None]

    n = eq.shape[1]
    eq = unit(eq)
    if len(eq) > 1:
        _, sing, vt = np.linalg.svd(eq)
        eq = vt[: np.count_nonzero(sing > stage.DEFAULT_TOL)]
    need = n - 1 - len(eq)
    if need < 0:
        return np.empty((0, n))
    ineq = np.vstack([unit(ineq), np.eye(n)])
    choices = list(combinations(range(len(ineq)), need))
    systems = np.empty((len(choices), n, n))
    systems[:, 0] = n**-0.5
    systems[:, 1 : n - need] = eq
    systems[:, n - need :] = ineq[np.array(choices, dtype=np.intp).reshape(len(choices), need)]
    systems = systems[np.abs(np.linalg.det(systems)) > 1e-12]
    rhs = np.zeros((len(systems), n, 1))
    rhs[:, 0] = n**-0.5
    points = np.linalg.solve(systems, rhs)[..., 0]
    return points[np.all(points @ ineq.T >= -stage.DEFAULT_TOL, axis=1)]


def _maximal_by_definition(rows: np.ndarray) -> np.ndarray:
    rows = np.unique(rows, axis=0)
    contains = (rows[:, None] >= rows).all(axis=2)
    np.fill_diagonal(contains, False)
    return rows[~contains.any(axis=0)]


def _table_by_loop(game: StageGame) -> tuple[np.ndarray, np.ndarray]:
    """The vertex table as it was built reply by reply, each reply's system
    holding all of its rows, the zero row of the reply itself among them."""
    n_a, n_b = game.u2.shape
    pairs = []
    for j in range(n_b):
        diff = game.u2[:, j, None] - game.u2
        vertices = _one_system_vertices(np.empty((0, n_a)), diff.T)
        replies = vertices @ diff <= stage.DEFAULT_TOL * np.linalg.norm(diff, axis=0)
        pairs.append(np.hstack([vertices <= stage.DEFAULT_TOL, replies]))
    pairs = _maximal_by_definition(np.vstack(pairs))
    return ~pairs[:, :n_a], pairs[:, n_a:]


def _tie_heavy_integer_games(count: int, seed: int) -> list[StageGame]:
    """Games of 2 to 6 actions a side with payoffs in {-1, 0, 1} or {-2, ..., 2}."""
    rng = np.random.default_rng(seed)
    games = []
    for i in range(count):
        n_a, n_b = (int(n) for n in rng.integers(2, 7, size=2))
        top = 1 + i % 2
        u1, u2 = (rng.integers(-top, top + 1, (n_a, n_b)).astype(float) for _ in range(2))
        games.append(StageGame(tuple(f"a{i}" for i in range(n_a)), tuple(f"b{j}" for j in range(n_b)), u1, u2))
    return games


def test_one_batch_table_matches_the_per_reply_loop_row_for_row(games):
    cases = list(games.values()) + _tie_heavy_integer_games(240, seed=31)
    for game in cases:
        for part, expected in zip(stage._reply_table(game), _table_by_loop(game)):
            assert np.array_equal(part, expected), game


def test_table_does_not_depend_on_the_batch_budget(games, monkeypatch):
    # At one cell per batch, every reply's system is solved on its own.
    cases = list(games.values()) + _tie_heavy_integer_games(40, seed=32)
    stage._reply_table_of.cache_clear()
    tables = [stage._reply_table(game) for game in cases]
    monkeypatch.setattr(stage, "_VERTEX_CELLS", 1)
    stage._reply_table_of.cache_clear()
    try:
        for game, table in zip(cases, tables):
            for part, expected in zip(stage._reply_table(game), table):
                assert np.array_equal(part, expected), game
    finally:
        stage._reply_table_of.cache_clear()


def test_maximal_matches_its_definition_at_every_width():
    # Widths past 64 and 128 pack each row into two and three words.
    rng = np.random.default_rng(33)
    for width in range(1, 131):
        for density in (0.2, 0.5, 0.8):
            rows = rng.random((int(rng.integers(1, 30)), width)) < density
            rows = np.vstack([rows, rows[rng.integers(0, len(rows), 5)]])  # duplicates
            assert np.array_equal(stage._maximal(rows), _maximal_by_definition(rows)), (width, density)


def test_batched_vertices_match_one_system_calls_on_the_indifference_pieces(games, monkeypatch):
    calls = []

    def spy(eq, ineq):
        calls.append((eq, ineq))
        return stage._simplex_vertices(eq, ineq)

    monkeypatch.setattr(bounds, "_simplex_vertices", spy)
    for game in games.values():
        bounds.indifference_pieces(game)
    assert len(calls) >= 10
    batched = 0
    for eq, ineq in calls:
        points, owner = stage._simplex_vertices(eq, ineq)
        for i in range(len(ineq)):
            alone, alone_owner = stage._simplex_vertices(eq, ineq[i : i + 1])
            assert np.array_equal(points[owner == i], alone)
            assert np.array_equal(alone, _one_system_vertices(eq, ineq[i]))
            assert not alone_owner.any()
        batched += len(ineq) > 1
    assert batched == len(calls)


@pytest.mark.parametrize("bound", [minmax_p1, vbar_p1], ids=["minmax", "vbar"])
def test_payoffs_near_the_float_range_are_refused_by_the_vertex_table(bound):
    # The norms of player 2's payoff gaps overflowed to inf; NumPy warned, and
    # the max-min LP then failed as an invariant.
    with pytest.raises(ValueError, match="payoff gaps overflowed the float range in the vertex table"):
        bound(NEAR_MAX)
