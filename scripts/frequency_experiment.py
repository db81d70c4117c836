#!/usr/bin/env python3
"""Simulate the constructed equilibrium on the bundled games and compare the
estimated action frequencies with the LP lower bound and its witness."""

import argparse
from pathlib import Path

from repfreq.bounds import min_stackelberg_freq
from repfreq.game import load_game_file
from repfreq.simulate import check_incentives, derive_params, estimate_frequencies

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GAMES = ["product_choice", "product_choice_three", "entry_deterrence", "fiscal_policy"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=0.999)
    parser.add_argument("--eps1", type=float, default=0.01)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    for name in GAMES:
        game = load_game_file(FIXTURES / f"{name}.json")
        bound = min_stackelberg_freq(game).value
        target = min_stackelberg_freq(game, equality=True).marginal(game)
        params = derive_params(game, target, args.eps1, args.delta)
        out = estimate_frequencies(game, params, args.delta, args.reps, args.seed)
        inc = check_incentives(game, params, args.delta)
        print(f"\n{name}: commitment action {params.a_star}, bound {bound:.6f}")
        print(f"  target   {dict((a, round(target.prob(a), 6)) for a in game.actions1)}")
        print(f"  estimate {dict((a, round(v, 6)) for a, v in out.freq.items())} "
              f"(ci {out.ci_radius:.4f})")
        print(f"  payoff {out.payoff:.6f} vs commitment payoff {params.v_star:.6f}")
        print(f"  incentive slack {inc.slack:.4f} ({'ok' if inc.passes else 'VIOLATED'})")
        print(f"  phases: {out.phase_stats}")


if __name__ == "__main__":
    main()
