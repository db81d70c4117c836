"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and then asserts. Tolerances are fixed here, not tuned.
"""

import math
import time

import numpy as np
import pytest

from repfreq.apps import EntryDeterrenceParams, ProductChoiceParams, build_stage_game, closed_form_min_freq
from repfreq.bounds import min_freq_curve, min_freq_grid, min_stackelberg_freq
from repfreq.concentration import FiniteDist, min_horizon, tail_exponent, tail_probability_mc
from repfreq.game import MixedAction
from repfreq.simulate import derive_params, estimate_frequencies, simulate_path
from repfreq.stage import check_assumptions, stackelberg
from .conftest import (
    APPLIED_GAMES,
    GAME_FILES,
    GRID9,
    TWO_BY_TWO,
    criterion_1_params,
    load_fixture,
    random_assumption_games,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_closed_form_agreement():
    t0 = time.time()
    worst = 0.0
    count = 0

    for params in criterion_1_params():
        gap = abs(min_stackelberg_freq(build_stage_game(params)).value - closed_form_min_freq(params))
        worst = max(worst, gap)
        count += 1
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-8 and elapsed < 60.0,
        f"closed-form agreement on {count} grid points: max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_counterexample_fixtures():
    overlap = load_fixture("nash_overlap_3x2")
    value = min_stackelberg_freq(overlap).value
    pennies = load_fixture("matching_pennies_tilted")
    rep = check_assumptions(pennies)
    stack = stackelberg(pennies)
    ok = (
        value == 0.0
        and not rep.satisfied
        and abs(rep.minmax - 0.05) <= 1e-9
        and abs(stack.v_star - (-0.9)) <= 1e-12
    )
    report(
        2,
        ok,
        f"3-action fixture min freq {value}; tilted-pennies minmax {rep.minmax:.12f}, "
        f"commitment payoff {stack.v_star}",
    )


def test_criterion_3_equality_matches_inequality():
    worst = 0.0
    games = [load_fixture(name) for name in GAME_FILES]
    games += random_assumption_games(100, seed=20240817)
    for game in games:
        gap = abs(
            min_stackelberg_freq(game, equality=True).value - min_stackelberg_freq(game).value
        )
        worst = max(worst, gap)
    report(3, worst <= 1e-8, f"equality vs inequality on {len(games)} games: max gap {worst:.2e}")


def test_criterion_4_grid_oracle_sandwich():
    worst_low = 0.0
    worst_high = 0.0
    for name in TWO_BY_TWO:
        game = load_fixture(name)
        lp = min_stackelberg_freq(game).value
        oracle = min_freq_grid(game, 50)
        worst_low = max(worst_low, lp - oracle)
        worst_high = max(worst_high, oracle - lp)
    ok = worst_low <= 0.0 and worst_high <= 0.03
    report(
        4,
        ok,
        f"oracle sandwich on {len(TWO_BY_TWO)} games: max undershoot {worst_low:.2e}, "
        f"max gap {worst_high:.4f}",
    )


def test_criterion_5_slack_curve_continuity():
    epsilons = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    worst_jump = -1.0
    worst_limit = 0.0
    for name in GAME_FILES:
        game = load_fixture(name)
        base = min_stackelberg_freq(game).value
        values = [v for _, v in min_freq_curve(game, epsilons)]
        # Nonincreasing in the slack: later (larger) slack values are lower.
        worst_jump = max(worst_jump, max(b - a for a, b in zip(values, values[1:])))
        worst_limit = max(worst_limit, abs(values[0] - base))
    ok = worst_jump <= 1e-10 and worst_limit <= 1e-4
    report(
        5,
        ok,
        f"slack curve on {len(GAME_FILES)} games: max monotonicity violation {worst_jump:.2e}, "
        f"max limit gap {worst_limit:.2e}",
    )


def test_criterion_6_tail_bound_grid():
    t0 = time.time()
    dists = {
        "sym-quarter": (FiniteDist.from_pairs([(1.0, 0.25), (-1.0, 0.75)]), math.log(3.0)),
        "one-two": (FiniteDist.from_pairs([(1.0, 0.2), (-2.0, 0.8)]), math.log(2.0 + 2.0 * math.sqrt(2.0))),
    }
    failures = []
    for label, (dist, r_ref) in dists.items():
        r_err = abs(tail_exponent(dist) - r_ref)
        if r_err > 1e-10:
            failures.append(f"{label}: exponent off by {r_err:.2e}")
        for c in (0.5, 1.0, 2.0, 4.0):
            for delta in (0.9, 0.99, 0.999):
                horizon = min_horizon(dist, delta, c)
                rep = tail_probability_mc(dist, delta, c, horizon, reps=100_000, seed=61)
                if rep.empirical > rep.analytic_bound + 3 * rep.std_error:
                    failures.append(
                        f"{label} c={c} delta={delta}: {rep.empirical} > "
                        f"{rep.analytic_bound} + 3*{rep.std_error}"
                    )
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    report(6, ok, "; ".join([f"24-cell tail grid at 1e5 reps in {elapsed:.0f}s", *failures]))


def test_criterion_7_simulator_frequency():
    t0 = time.time()
    game = load_fixture("product_choice")
    target = MixedAction({"H": 0.375, "L": 0.625})
    params = derive_params(game, target, eps1=0.01, delta=0.999)
    out = estimate_frequencies(game, params, 0.999, reps=2000, seed=20240817)
    block_residual = out.phase_stats["max_block_residual"]
    elapsed = time.time() - t0
    ok = (
        abs(out.freq["H"] - 0.375) <= 0.05
        and abs(out.payoff - 0.6) <= 0.02
        and block_residual <= 1e-6
        and elapsed < 600.0
    )
    report(
        7,
        ok,
        f"freq(H)={out.freq['H']:.4f} (target 0.375), payoff={out.payoff:.4f} (target 0.6), "
        f"max block residual {block_residual:.2e}, {elapsed:.0f}s",
    )


def test_criterion_8_frequency_endpoints():
    failures = []
    for name in APPLIED_GAMES:
        game = load_fixture(name)
        lp = min_stackelberg_freq(game).value
        target = min_stackelberg_freq(game, equality=True).marginal(game)
        params = derive_params(game, target, eps1=0.01, delta=0.999)
        out = estimate_frequencies(game, params, 0.999, reps=500, seed=7)
        freq_star = out.freq[params.a_star]
        if freq_star < lp - 0.05:
            failures.append(f"{name}: freq {freq_star:.4f} < bound {lp:.4f} - 0.05")
    game = load_fixture("product_choice")
    params = derive_params(game, MixedAction.delta("H"), eps1=0.01, delta=0.999)
    out = estimate_frequencies(game, params, 0.999, reps=500, seed=7)
    if out.freq["H"] < 0.99:
        failures.append(f"always-commit config: freq {out.freq['H']:.4f} < 0.99")
    report(8, not failures, "; ".join(failures) or "simulated frequencies respect the LP bound")


def test_criterion_9_comparative_statics_signs():
    failures = []

    def lp(params) -> float:
        return min_stackelberg_freq(build_stage_game(params)).value

    # Effort game: rising threshold raises the bound, rising effort cost
    # lowers it, the off-path cost never matters.
    for i, gamma in enumerate(GRID9):
        for j, ch in enumerate(GRID9):
            value = lp(ProductChoiceParams(gamma, ch, 0.5))
            if i + 1 < len(GRID9) and not lp(ProductChoiceParams(GRID9[i + 1], ch, 0.5)) > value + 1e-10:
                failures.append(f"product gamma at ({gamma}, {ch})")
            if j + 1 < len(GRID9) and not lp(ProductChoiceParams(gamma, GRID9[j + 1], 0.5)) < value - 1e-10:
                failures.append(f"product ch at ({gamma}, {ch})")
            if abs(lp(ProductChoiceParams(gamma, ch, 0.2)) - value) > 1e-9:
                failures.append(f"product cl at ({gamma}, {ch})")
    for i, gamma in enumerate(GRID9):
        for j, co in enumerate(GRID9):
            value = lp(EntryDeterrenceParams(gamma, co, 0.5))
            if i + 1 < len(GRID9) and not lp(EntryDeterrenceParams(GRID9[i + 1], co, 0.5)) > value + 1e-10:
                failures.append(f"entry gamma at ({gamma}, {co})")
            if j + 1 < len(GRID9) and not lp(EntryDeterrenceParams(gamma, GRID9[j + 1], 0.5)) < value - 1e-10:
                failures.append(f"entry co at ({gamma}, {co})")
            if abs(lp(EntryDeterrenceParams(gamma, co, 3.0)) - value) > 1e-9:
                failures.append(f"entry ci at ({gamma}, {co})")
    report(9, not failures, "; ".join(failures[:5]) or "sign tests hold at every interior grid point")
