import math

import numpy as np
import pytest
import scipy.optimize

from repfreq import attain, bounds, linprog
from repfreq.apps import build_stage_game
from repfreq.game import StageGame, parse_mixed_action
from repfreq.linprog import solve_lp
from repfreq.stage import stackelberg

from .conftest import criterion_1_params, cycling_game, reply_halfspaces


def test_simple_bounded():
    res = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.optimal
    assert res.value == pytest.approx(-1.0, abs=1e-10)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-10)


def test_equality_constraint():
    # min x1 s.t. x1 + x2 = 1, x2 <= 0.25
    res = solve_lp([1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[0.25], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.optimal
    assert res.value == pytest.approx(0.75, abs=1e-10)


def test_infeasible():
    res = solve_lp([1.0], a_ub=[[1.0]], b_ub=[-1.0])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
    assert res.status == "unbounded"


def test_negative_rhs_equality():
    # x1 - x2 = -2 with x free via split: feasible at x2 - x1 = 2.
    res = solve_lp([0.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[-2.0])
    assert res.optimal
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_degenerate_many_ties():
    # Multiple optimal bases; Bland's rule has to terminate.
    res = solve_lp(
        [0.0, 0.0, 0.0],
        a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        b_ub=[0.0, 0.0, 0.0],
        a_eq=[[1.0, 1.0, 1.0]],
        b_eq=[0.0],
    )
    assert res.optimal
    assert np.allclose(res.x, 0.0, atol=1e-10)


def test_redundant_rows():
    res = solve_lp(
        [1.0, 2.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    assert res.optimal
    assert res.value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c": [np.nan, 1.0], "a_ub": [[1.0, 1.0]], "b_ub": [1.0]},
        {"c": [-1.0, -1.0], "a_ub": [[1.0, np.nan]], "b_ub": [1.0]},
        {"c": [-1.0, -1.0], "a_ub": [[1.0, 1.0]], "b_ub": [np.inf]},
        {"c": [-1.0, -1.0], "a_eq": [[1.0, 1.0]], "b_eq": [-np.inf]},
        {"c": [-1.0, -1.0], "a_ub": [[1.0, 1.0]], "b_ub": [1.0, 2.0]},
        {"c": [-1.0, -1.0], "a_eq": [[1.0, 1.0], [1.0, 0.0]], "b_eq": [1.0]},
        {"c": [-1.0, -1.0], "a_ub": [[1.0, 1.0]]},
        {"c": [-1.0, -1.0], "a_eq": [[1.0, 1.0]]},
        {"c": [-1.0, -1.0], "b_ub": [1.0]},
        {"c": [-1.0, -1.0], "a_ub": [[1.0, 1.0, 1.0]], "b_ub": [1.0]},
        {"c": [-1.0, -1.0], "a_eq": [[1.0]], "b_eq": [1.0]},
    ],
    ids=[
        "nan-cost", "nan-row", "inf-rhs", "inf-eq-rhs", "long-rhs", "short-eq-rhs",
        "a_ub-without-b_ub", "a_eq-without-b_eq", "b_ub-without-a_ub", "long-row", "short-eq-row",
    ],
)
def test_malformed_input_raises_value_error(kwargs):
    with pytest.raises(ValueError):
        solve_lp(**kwargs)


def _random_instance(rng, n, m_ub, m_eq):
    c = rng.uniform(-1, 1, n)
    a_ub = rng.uniform(-1, 1, (m_ub, n))
    # Keep instances mostly feasible: the rhs admits a random interior point.
    x0 = rng.uniform(0, 1, n)
    b_ub = a_ub @ x0 + rng.uniform(0, 0.5, m_ub)
    a_eq = rng.uniform(-1, 1, (m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    return c, a_ub, b_ub, a_eq, b_eq


@pytest.mark.parametrize("trial", range(60))
def test_matches_scipy_on_random_instances(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 9))
    m_ub = int(rng.integers(1, 7))
    m_eq = int(rng.integers(0, 3))
    c, a_ub, b_ub, a_eq, b_eq = _random_instance(rng, n, m_ub, m_eq)
    ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    ref = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    if ref.status == 3:
        assert ours.status == "unbounded"
        return
    if ref.status == 2:
        assert ours.status == "infeasible"
        return
    assert ref.status == 0
    assert ours.optimal
    assert ours.value == pytest.approx(ref.fun, abs=1e-7)
    # Our point must itself be feasible.
    assert np.all(ours.x >= -1e-9)
    assert np.all(a_ub @ ours.x <= b_ub + 1e-7)
    if a_eq is not None:
        assert np.allclose(a_eq @ ours.x, b_eq, atol=1e-7)


@pytest.mark.parametrize("trial", range(20))
def test_infeasible_instances_agree_with_scipy(trial):
    rng = np.random.default_rng(5000 + trial)
    n = int(rng.integers(2, 6))
    a = rng.uniform(-1, 1, (1, n))
    # a @ x <= -1 and -a @ x <= -1 cannot both hold.
    ours = solve_lp(np.zeros(n), a_ub=np.vstack([a, -a]), b_ub=np.array([-1.0, -1.0]))
    assert ours.status == "infeasible"


def _fuzz_instance(kind, rng):
    n = int(rng.integers(2, 7))
    if kind == "float":
        m_ub, m_eq = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        c, a_ub, b_ub, a_eq, b_eq = _random_instance(rng, n, m_ub, m_eq)
        # Some right-hand sides negative, so rows are flipped in standard form.
        b_ub = b_ub - rng.uniform(0, 1, m_ub) * (rng.random(m_ub) < 0.3)
        return c, a_ub, b_ub, a_eq, b_eq
    if kind == "degenerate":
        # Small integers with mostly zero right-hand sides: many ratio ties.
        m_ub, m_eq = int(rng.integers(2, 7)), int(rng.integers(0, 2))
        c = rng.integers(-2, 3, n).astype(float)
        a_ub = rng.integers(-2, 3, (m_ub, n)).astype(float)
        b_ub = rng.integers(0, 3, m_ub).astype(float) * (rng.random(m_ub) < 0.4)
        if m_eq == 0:
            return c, a_ub, b_ub, None, None
        return c, a_ub, b_ub, np.ones((1, n)), np.ones(1)
    if kind == "equality":
        m_eq = int(rng.integers(1, n + 1))
        a_eq = rng.integers(-3, 4, (m_eq, n)).astype(float)
        b_eq = a_eq @ rng.integers(0, 3, n).astype(float)
        return rng.uniform(-1, 1, n), None, None, a_eq, b_eq
    if kind == "redundant":
        c, a_ub, b_ub, a_eq, b_eq = _random_instance(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        # Append multiples and sums of the equality rows.
        weights = rng.integers(-2, 3, (int(rng.integers(1, 3)), a_eq.shape[0])).astype(float)
        return c, a_ub, b_ub, np.vstack([a_eq, weights @ a_eq]), np.r_[b_eq, weights @ b_eq]
    if kind == "infeasible":
        # Random rows, plus sum(x) == 1 against sum(x) <= 1 - gap.
        c, a_ub, b_ub, _, _ = _random_instance(rng, n, int(rng.integers(1, 4)), 0)
        a_ub = np.vstack([a_ub, np.ones(n)])
        return c, a_ub, np.r_[b_ub, 1.0 - rng.uniform(0.1, 0.5)], np.ones((1, n)), np.ones(1)
    # Unbounded: every cost negative, and the rows never bound the first variable.
    a_ub = rng.uniform(0, 1, (int(rng.integers(1, 4)), n))
    a_ub[:, 0] = -rng.uniform(0, 1, a_ub.shape[0])
    return -rng.uniform(0.1, 1, n), a_ub, rng.uniform(0, 1, a_ub.shape[0]), None, None


def _record_pivots(monkeypatch) -> list[tuple[int, int]]:
    pivots = []
    inner = linprog._pivot

    def pivot(tableau, basis, row, col):
        pivots.append((int(row), int(col)))
        inner(tableau, basis, row, col)

    monkeypatch.setattr(linprog, "_pivot", pivot)
    return pivots


FUZZ_KINDS = ["float", "degenerate", "equality", "redundant", "infeasible", "unbounded"]
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
# HiGHS's presolve calls two unbounded "degenerate" instances infeasible,
# though x = 0 is feasible for both; its simplex alone gets them right.
HIGHS_OPTIONS = {"presolve": False}


@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_fuzz_agrees_with_highs(kind):
    """Same status and value as HiGHS; every optimal point meets its rows."""
    rng = np.random.default_rng(77 + FUZZ_KINDS.index(kind))
    statuses = set()
    for _ in range(300):
        c, a_ub, b_ub, a_eq, b_eq = _fuzz_instance(kind, rng)
        ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        ref = scipy.optimize.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs", options=HIGHS_OPTIONS
        )
        assert ours.status == HIGHS_STATUS[ref.status]
        statuses.add(ours.status)
        if not ours.optimal:
            assert ours.x is None and ours.value is None
            continue
        assert ours.value == pytest.approx(ref.fun, abs=1e-7)
        assert ours.x.min() >= 0.0
        if a_ub is not None:
            assert (a_ub @ ours.x - b_ub).max() <= 1e-9
        if a_eq is not None:
            assert np.abs(a_eq @ ours.x - b_eq).max() <= 1e-9
    assert kind not in ("infeasible", "unbounded") or statuses == {kind}


@pytest.mark.parametrize("gap", [0.0, 5e-11], ids=["exact", "within-tol"])
def test_ratio_ties_leave_the_smaller_basic_index(monkeypatch, gap):
    # min x s.t. x >= 1 and x <= 1 + gap. Row 0 is flipped, so it starts with
    # an artificial (index 3); row 1 starts with its slack (index 2). Phase 1
    # enters x, whose ratios 1 and 1 + gap tie within _TOL: Bland's rule
    # takes row 1 out, the row with the smaller basic index, though it comes
    # second.
    pivots = _record_pivots(monkeypatch)
    res = solve_lp([1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 1.0 + gap])
    assert pivots[0] == (1, 0)
    assert res.optimal
    assert res.value == pytest.approx(1.0, abs=1e-10)


# min x0 s.t. x0 + 2 x1 >= 1 and x0 + x1 = 1: the payoff floor of a frequency
# LP in miniature, whose floor row starts with a negative right-hand side.
FLOOR_LP = {"c": [1.0, 0.0], "a_ub": [[-1.0, -2.0]], "b_ub": [-1.0], "a_eq": [[1.0, 1.0]], "b_eq": [1.0]}


@pytest.mark.parametrize("start, pivots_after", [(0, [(1, 1)]), (1, [])])
def test_start_pivots_into_the_equality_row_and_runs_phase_2_alone(monkeypatch, start, pivots_after):
    pivots = _record_pivots(monkeypatch)
    res = solve_lp(**FLOOR_LP, start=start)
    assert pivots == [(1, start)] + pivots_after
    assert res.optimal
    assert res.value == 0.0
    assert res.x.tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"b_ub": [-2.0]}, "leaves a negative right-hand side"),  # x0 = 1 pays 1 < 2
        ({"a_eq": [[0.0, 1.0]]}, "no positive entry in the equality row"),
        ({"a_eq": [[1.0, 1.0], [1.0, -1.0]], "b_eq": [1.0, 0.0]}, "one equality row"),
        ({"a_eq": None, "b_eq": None}, "one equality row"),
        ({"start": 2}, "one equality row and a column in"),
    ],
    ids=["infeasible-start", "zero-pivot", "two-equality-rows", "no-equality-row", "out-of-range"],
)
def test_start_refuses_what_one_crash_pivot_cannot_make_feasible(change, message):
    with pytest.raises(ValueError, match=message):
        solve_lp(**{**FLOOR_LP, "start": 0, **change})


def test_the_cycling_games_lp_is_infeasible():
    # b1 and b2 cannot both be best replies. With rows of size 1e6 this LP made
    # the tolerance ratio test cycle while every row started with an artificial.
    game = cycling_game()
    rows = np.vstack([reply_halfspaces(game, game.b_index("b1")), reply_halfspaces(game, game.b_index("b2"))])
    res = solve_lp(np.zeros(2), a_ub=-rows, b_ub=np.zeros(len(rows)), a_eq=np.ones((1, 2)), b_eq=np.ones(1))
    assert res.status == "infeasible"


def test_a_cycling_run_stops_at_the_pivot_cap(monkeypatch):
    # No test LP cycles any more, so the cap is lowered to 1 on an LP that
    # takes two pivots: max x1 + x2 s.t. x1 <= 1, x2 <= 1.
    args = ([-1.0, -1.0], np.eye(2), np.ones(2))
    pivots = _record_pivots(monkeypatch)
    assert solve_lp(*args).optimal
    assert len(pivots) == 2
    pivots.clear()
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="made 1 pivots"):
        solve_lp(*args)
    assert len(pivots) == linprog._MAX_PIVOTS


def test_criterion_1_block_lps_stay_within_their_pivot_count(monkeypatch):
    # These LPs start at the Stackelberg vertex, one crash pivot each, and run
    # phase 2 alone: 8,153 pivots over the 2,268 grid points, against 12,754
    # with phase 1 from the slack basis and 17,345 when every row started with
    # an artificial. The ceiling leaves 2 % for round-off on other hosts.
    pivots = _record_pivots(monkeypatch)
    points = 0
    for params in criterion_1_params():
        bounds.min_stackelberg_freq(build_stage_game(params))
        points += 1
    assert points == 2268
    assert len(pivots) <= 8_316


def benchmark_game(seed: int, k: int, n: int, i: int) -> StageGame:
    """Game ``i`` of size n x n in pass ``k`` of the benchmark's game_files
    workload at ``seed``: each pass draws 40 3x3, then 3 4x4, then 1 5x5 games
    from ``default_rng([seed, k])``, u1 then u2 uniform in [-1, 1]."""
    rng = np.random.default_rng([seed, k])
    for size, count in ((3, 40), (4, 3), (5, 1)):
        for j in range(count):
            u1 = rng.uniform(-1.0, 1.0, (size, size))
            u2 = rng.uniform(-1.0, 1.0, (size, size))
            if (size, j) == (n, i):
                return StageGame(tuple(f"a{r}" for r in range(n)), tuple(f"b{c}" for c in range(n)), u1, u2)
    raise ValueError("no such game")


@pytest.mark.parametrize("seed, k, n, i", [(53, 6, 4, 2), (57, 1, 3, 5), (68, 1, 4, 2), (102, 9, 5, 0)])
def test_round_off_is_never_a_pivot(monkeypatch, seed, k, n, i):
    # Each of these games' block LPs once pivoted on an entry of 1e-10 to 1e-9,
    # round-off of a zero. The simplex then said "optimal" at points breaking
    # their rows by up to 8.95, or called the membership LP of the equality
    # witness infeasible.
    game = benchmark_game(seed, k, n, i)
    solved = []

    def recording(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, **kwargs):
        result = solve_lp(c, a_ub, b_ub, a_eq, b_eq, **kwargs)
        solved.append((result, a_ub, b_ub, a_eq, b_eq))
        return result

    monkeypatch.setattr(bounds, "solve_lp", recording)
    fb = bounds.min_stackelberg_freq(game, equality=True)
    payoff = sum(
        weight * (alpha.as_vector(game.actions1) @ game.u1[:, game.b_index(b)])
        for weight, alpha, b in ((fb.q, fb.alpha1, fb.b1), (1.0 - fb.q, fb.alpha2, fb.b2))
    )
    assert abs(payoff - stackelberg(game).v_star) <= 1e-9
    # The witness's marginal, written as the benchmark passes it to in-set-a.
    mix: dict[str, float] = {}
    for weight, alpha in ((fb.q, fb.alpha1), (1.0 - fb.q, fb.alpha2)):
        for label in alpha.support():
            mix[label] = mix.get(label, 0.0) + weight * alpha.prob(label)
    total = math.fsum(mix.values())
    target = parse_mixed_action(",".join(f"{label}:{prob / total!r}" for label, prob in mix.items() if prob > 0.0))
    assert attain.decompose_target(game, target) is not None
    assert solved
    for result, a_ub, b_ub, a_eq, b_eq in solved:
        if result.optimal:
            assert result.x.min() >= 0.0
            if a_ub is not None:
                assert (np.asarray(a_ub) @ result.x - b_ub).max() <= 1e-9
            assert np.abs(np.asarray(a_eq) @ result.x - b_eq).max() <= 1e-9
