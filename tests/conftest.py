from pathlib import Path

import numpy as np
import pytest

from repfreq.apps import EntryDeterrenceParams, FiscalPolicyParams, ProductChoiceParams, ThreeProductParams
from repfreq.game import StageGame, load_game_file
from repfreq.stage import check_assumptions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GAME_FILES = {
    "product_choice": "product_choice.json",
    "product_choice_three": "product_choice_three.json",
    "entry_deterrence": "entry_deterrence.json",
    "fiscal_policy": "fiscal_policy.json",
    "matching_pennies_tilted": "matching_pennies_tilted.json",
    "nash_overlap_3x2": "nash_overlap_3x2.json",
    "battle_of_sexes": "battle_of_sexes.json",
    "chicken": "chicken.json",
}

# Fixtures satisfying the uniqueness assumption (all of them, as it happens).
UNIQUE_GAMES = list(GAME_FILES)
# Fixtures satisfying both assumptions; the simulator targets these.
APPLIED_GAMES = ["product_choice", "product_choice_three", "entry_deterrence", "fiscal_policy"]
TWO_BY_TWO = [
    "product_choice",
    "entry_deterrence",
    "fiscal_policy",
    "matching_pennies_tilted",
    "battle_of_sexes",
    "chicken",
]

GRID9 = [round(0.1 * k, 1) for k in range(1, 10)]
GAMMA_PAIRS = [
    (0.1, 0.2), (0.1, 0.5), (0.2, 0.4), (0.3, 0.6), (0.3, 0.9),
    (0.4, 0.5), (0.5, 0.7), (0.6, 0.8), (0.7, 0.9),
]


def criterion_1_params():
    """The 2,268 parameter points of the applied games' closed-form grid."""
    for gamma in GRID9:
        for ch in GRID9:
            for cl in GRID9:
                yield ProductChoiceParams(gamma, ch, cl)
    for g_lo, g_hi in GAMMA_PAIRS:
        for p in GRID9:
            for c in GRID9:
                yield ThreeProductParams(g_hi, g_lo, p, c)
    for gamma in GRID9:
        for co in GRID9:
            for ci in GRID9:
                yield EntryDeterrenceParams(gamma, co, ci)
    for tau in GRID9:
        for frac in GRID9:  # the investment cost lives in (0, 1 - tax)
            yield FiscalPolicyParams(tau, round(frac * (1.0 - tau), 6))


# With u2 mapped to 1e6 * u2 + 0.37, the simplex once cycled on this game's LP
# for an alpha to which b1 and b2 are both best replies (there is none).
CYCLING_U1 = np.array([[1.0, 0.0, 1.0, -2.0], [1.0, -2.0, -1.0, -1.0]])
CYCLING_U2 = np.array([[-1.0, -2.0, 2.0, 1.0], [2.0, 1.0, -1.0, -2.0]])


def cycling_game(u2_scale: float = 1e6, u2_shift: float = 0.37) -> StageGame:
    return StageGame(("a0", "a1"), ("b0", "b1", "b2", "b3"), CYCLING_U1, u2_scale * CYCLING_U2 + u2_shift)


# Payoffs near the largest float: every frequency and membership LP of this
# game overflows in its pivots.
NEAR_MAX = StageGame(("a", "b"), ("x", "y"), [[1.7e308, 0.0], [0.0, 1e308]], [[1.7e308, 0.0], [0.0, 1.7e308]])

# Player 1's payoffs near the largest float, player 2's at unit scale: nothing
# overflows, but the max-min LP's absolute tolerances fail at this scale.
HUGE_U1 = StageGame(("a", "b"), ("x", "y"), [[1.7e308, 0.0], [0.0, 1e308]], [[1.0, 0.0], [0.0, 1.0]])


def reply_halfspaces(game: StageGame, j: int) -> np.ndarray:
    """Rows u2(., b_j) - u2(., b_k), one per rival reply k != j: b_j is a best
    reply to alpha iff every row dotted with alpha is nonnegative."""
    rows = [game.u2[:, j] - game.u2[:, k] for k in range(len(game.actions2)) if k != j]
    return np.array(rows).reshape(-1, len(game.actions1))


def fixture_path(name: str) -> Path:
    return FIXTURES / GAME_FILES[name]


def load_fixture(name: str) -> StageGame:
    return load_game_file(fixture_path(name))


@pytest.fixture(scope="session")
def games() -> dict[str, StageGame]:
    return {name: load_fixture(name) for name in GAME_FILES}


@pytest.fixture(scope="session")
def product_choice(games):
    return games["product_choice"]


@pytest.fixture(scope="session")
def entry_deterrence(games):
    return games["entry_deterrence"]


@pytest.fixture(scope="session")
def fiscal_policy(games):
    return games["fiscal_policy"]


@pytest.fixture(scope="session")
def matching_pennies(games):
    return games["matching_pennies_tilted"]


@pytest.fixture(scope="session")
def nash_overlap(games):
    return games["nash_overlap_3x2"]


def random_assumption_games(count: int, seed: int, size: int = 3) -> list[StageGame]:
    """Random payoff games (uniform in [-1, 1]) filtered to pass both
    assumptions: unique commitment point, not a best reply, above minmax."""
    rng = np.random.default_rng(seed)
    labels1 = tuple(f"a{i}" for i in range(size))
    labels2 = tuple(f"b{j}" for j in range(size))
    out: list[StageGame] = []
    while len(out) < count:
        game = StageGame(
            labels1,
            labels2,
            rng.uniform(-1, 1, (size, size)),
            rng.uniform(-1, 1, (size, size)),
        )
        if check_assumptions(game).satisfied:
            out.append(game)
    return out
