"""Command-line interface: one JSON document per invocation on stdout.

Exit codes: 0 on success, 1 on domain errors (bad files, invalid values,
numerical failures), 2 on usage errors. Diagnostics go to stderr only.

The argument parser is built on the first call to :func:`dispatch` and reused
by every later call in the same process; parsing keeps no state in it, so
each call sees the defaults afresh.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import apps, attain, bounds, concentration, simulate, stage
from .game import MixedAction, load_game_file, parse_mixed_action


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text}")
        return value

    return integer


def _unit_open(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text}")
    return value


def _nonneg(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative value, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv", "human"], default="json")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_nonneg, default=stage.DEFAULT_TOL, help="numeric tolerance")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="repfreq",
        description="Equilibrium action-frequency bounds for reputation games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", parents=[fmt, tol], help="stage-game report: assumptions, commitment point, payoff bounds"
    )
    p.add_argument("game", help="path to a game JSON file")

    p = sub.add_parser("fstar", parents=[fmt, tol], help="minimal commitment-action frequency")
    p.add_argument("game")
    p.add_argument("--epsilon", type=_nonneg, default=0.0)
    p.add_argument("--equality", action="store_true")
    p.add_argument("--method", choices=["lp", "prop1", "grid"], default="lp")
    p.add_argument("--resolution", type=_int_at_least(1), default=50)

    p = sub.add_parser("in-set-a", parents=[fmt, tol], help="attainability of a target action distribution")
    p.add_argument("game")
    p.add_argument("--alpha", required=True, help="target as label:prob,label:prob")
    p.add_argument("--epsilon", type=_nonneg, default=0.0)

    p = sub.add_parser("simulate", parents=[fmt, tol, seed], help="simulate the constructed equilibrium")
    p.add_argument("game")
    p.add_argument("--target", required=True, help="target as label:prob,label:prob")
    p.add_argument("--delta", type=_unit_open, required=True)
    p.add_argument("--eps1", type=_unit_open, default=0.01)
    p.add_argument("--reps", type=_int_at_least(simulate.MIN_REPS), default=2000)
    p.add_argument("--z2-variant", choices=["drift", "literal"], default="drift")
    p.add_argument("--out", help="write per-action estimates as CSV to this path")

    p = sub.add_parser(
        "concentration", parents=[fmt, seed], help="tail bound for discounted sums, analytic and Monte Carlo"
    )
    p.add_argument("--dist", required=True, help="JSON file: array of {value, prob}")
    p.add_argument("--delta", type=_unit_open, required=True)
    p.add_argument("--c", type=_nonneg, required=True)
    p.add_argument("--reps", type=_int_at_least(concentration.MIN_REPS), required=True)
    p.add_argument("--horizon", type=_int_at_least(1), default=None)

    p = sub.add_parser("app", help="closed-form applications versus the LP value")
    app_sub = p.add_subparsers(dest="variant", required=True)
    q = app_sub.add_parser("product-choice", parents=[fmt, tol])
    q.add_argument("--gamma", type=_unit_open, required=True)
    q.add_argument("--ch", type=_unit_open, required=True)
    q.add_argument("--cl", type=_unit_open, required=True)
    q = app_sub.add_parser("product3", parents=[fmt, tol])
    q.add_argument("--g1", type=_unit_open, required=True)
    q.add_argument("--g2", type=_unit_open, required=True)
    q.add_argument("--p", type=_unit_open, required=True)
    q.add_argument("--c", type=_unit_open, required=True)
    q = app_sub.add_parser("entry", parents=[fmt, tol])
    q.add_argument("--gamma", type=_unit_open, required=True)
    q.add_argument("--co", type=_unit_open, required=True)
    q.add_argument("--ci", type=float, required=True)
    q.add_argument("--subsidy", type=_nonneg, default=0.0)
    q = app_sub.add_parser("fiscal", parents=[fmt, tol])
    q.add_argument("--tau", type=_unit_open, required=True)
    q.add_argument("--c", type=_unit_open, required=True)
    return parser


def _mixed_to_dict(alpha: MixedAction) -> dict[str, float]:
    return {label: alpha.prob(label) for label in sorted(alpha.support())}


def _cmd_analyze(args) -> dict:
    game = load_game_file(args.game)
    report = stage.check_assumptions(game, args.tol)
    stack = stage.stackelberg(game, args.tol)
    return {
        "assumptions": {
            "a1_unique_stackelberg": report.a1_unique_stackelberg,
            "a1_unique_reply": report.a1_unique_reply,
            "a2_not_best_reply": report.a2_not_best_reply,
            "a2_above_minmax": report.a2_above_minmax,
            "satisfied": report.satisfied,
        },
        "stackelberg": {
            "a_star": stack.a_star,
            "b_star": stack.b_star,
            "v_star": stack.v_star,
        },
        "minmax": report.minmax,
        "vbar": stage.vbar_p1(game),
    }


def _freq_bound_to_dict(result: bounds.FreqBound) -> dict:
    return {
        "value": result.value,
        "method": result.method,
        "epsilon": result.epsilon,
        "equality": result.equality,
        "witness": {
            "q": result.q,
            "alpha1": _mixed_to_dict(result.alpha1),
            "b1": result.b1,
            "alpha2": _mixed_to_dict(result.alpha2),
            "b2": result.b2,
            "placeholder1": result.placeholder1,
            "placeholder2": result.placeholder2,
        },
    }


def _cmd_fstar(args) -> dict:
    game = load_game_file(args.game)
    if args.method == "lp":
        result = bounds.min_stackelberg_freq(game, args.epsilon, args.equality, args.tol)
    elif args.method == "prop1":
        result = bounds.min_stackelberg_freq_finite(game, args.tol)
    else:
        value = bounds.min_freq_grid(game, args.resolution, args.tol)
        return {"value": value, "method": "grid", "resolution": args.resolution}
    return _freq_bound_to_dict(result)


def _cmd_in_set_a(args) -> dict:
    game = load_game_file(args.game)
    target = parse_mixed_action(args.alpha)
    witness = attain.decompose_target(game, target, args.epsilon, args.tol)
    if witness is None:
        return {"member": False}
    return {
        "member": True,
        "payoff": witness.payoff,
        "weights": {
            b: {"mass": mass, "alpha": _mixed_to_dict(alpha)}
            for b, (mass, alpha) in sorted(witness.weights.items())
        },
    }


def _cmd_simulate(args) -> dict:
    game = load_game_file(args.game)
    target = parse_mixed_action(args.target)
    params = simulate.derive_params(game, target, args.eps1, args.delta, z2_variant=args.z2_variant, tol=args.tol)
    outcome = simulate.estimate_frequencies(game, params, args.delta, args.reps, args.seed)
    incentives = simulate.check_incentives(game, params, args.delta)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["action", "freq_estimate", "ci_radius"])
            for action in game.actions1:
                writer.writerow([action, f"{outcome.freq[action]:.10f}", f"{outcome.ci_radius:.10f}"])
    return {
        "freq": {a: outcome.freq[a] for a in game.actions1},
        "payoff": outcome.payoff,
        "reps": outcome.reps,
        "ci_radius": outcome.ci_radius,
        "payoff_ci": outcome.payoff_ci,
        "phase_stats": outcome.phase_stats,
        "params": {
            "trivial": params.trivial,
            "a_star": params.a_star,
            "b_star": params.b_star,
            "v_star": params.v_star,
            "a_prime": params.a_prime,
            "b_prime": params.b_prime,
            "alpha_prime": _mixed_to_dict(params.alpha_prime) if params.alpha_prime else None,
            "p": params.p,
            "eps1": params.eps1,
            "c": params.c,
            "t1": params.t1,
            "t2_bar": params.t2_bar,
            "r1_star": params.r1_star,
            "r2_star": params.r2_star,
            "z2_variant": params.z2_variant,
            "delta_bar": params.delta_bar,
            "delta_bar_theory": params.delta_bar_theory,
        },
        "incentives": {
            "deviation_cap": incentives.deviation_cap,
            "min_continuation": incentives.min_continuation,
            "slack": incentives.slack,
            "passes": incentives.passes,
        },
    }


def _cmd_concentration(args) -> dict:
    with open(args.dist, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("distribution file must be a JSON array of {value, prob}")
    for entry in doc:
        numbers = isinstance(entry, dict) and all(type(v) in (int, float) for v in entry.values())  # not bool
        if not (numbers and set(entry) == {"value", "prob"}):
            raise ValueError(f"distribution entry {json.dumps(entry)} is not a {{value, prob}} object of numbers")
    dist = concentration.FiniteDist.from_pairs((entry["value"], entry["prob"]) for entry in doc)
    horizon = args.horizon or concentration.min_horizon(dist, args.delta, args.c)
    report = concentration.tail_probability_mc(dist, args.delta, args.c, horizon, args.reps, args.seed)
    return {
        "r_star": report.r_star,
        "analytic_bound": report.analytic_bound,
        "empirical": report.empirical,
        "std_error": report.std_error,
        "reps": report.reps,
        "horizon": report.horizon,
        "c": report.c,
        "delta": report.delta,
    }


def _cmd_app(args) -> dict:
    if args.variant == "product-choice":
        params = apps.ProductChoiceParams(gamma=args.gamma, cost_high=args.ch, cost_low=args.cl)
    elif args.variant == "product3":
        params = apps.ThreeProductParams(gamma_hi=args.g1, gamma_lo=args.g2, mid_value=args.p, cost=args.c)
    elif args.variant == "entry":
        params = apps.EntryDeterrenceParams(gamma=args.gamma, cost_out=args.co, cost_in=args.ci, subsidy=args.subsidy)
    else:
        params = apps.FiscalPolicyParams(tax=args.tau, cost=args.c)
    closed = apps.closed_form_min_freq(params)
    game = apps.build_stage_game(params)
    lp_value = bounds.min_stackelberg_freq(game, tol=args.tol).value
    out = {
        "variant": args.variant,
        "closed_form": closed,
        "lp_value": lp_value,
        "difference": lp_value - closed,
    }
    if args.variant == "fiscal":
        out["expropriation_freq"] = apps.expropriation_freq(params)
    return out


_COMMANDS = {
    "analyze": _cmd_analyze,
    "fstar": _cmd_fstar,
    "in-set-a": _cmd_in_set_a,
    "simulate": _cmd_simulate,
    "concentration": _cmd_concentration,
    "app": _cmd_app,
}


def _emit(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if fmt == "csv":
        flat = _flatten(doc)
        lines = ["key,value"]
        lines += [f"{k},{v}" for k, v in flat]
        return "\n".join(lines)
    return "\n".join(f"{k} = {v}" for k, v in _flatten(doc))


def _flatten(doc, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            items.extend(_flatten(doc[key], f"{prefix}{key}."))
    else:
        items.append((prefix.rstrip("."), doc))
    return items


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rendered = _emit(_COMMANDS[args.command](args), args.format)
    except (ValueError, OSError, KeyError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(rendered)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
