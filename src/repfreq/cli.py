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
import dataclasses
import functools
import io
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


# The method-specific options that each fstar method reads.
_FSTAR_READS = {"lp": ("epsilon", "equality"), "prop1": (), "grid": ("resolution",)}

# Each app variant's parameter class and the flag and type of each of its
# fields, in field order. A flag is required exactly when its field has no default.
_APP_VARIANTS = {
    "product-choice": (apps.ProductChoiceParams, {"gamma": _unit_open, "ch": _unit_open, "cl": _unit_open}),
    "product3": (apps.ThreeProductParams, {"g1": _unit_open, "g2": _unit_open, "p": _unit_open, "c": _unit_open}),
    "entry": (apps.EntryDeterrenceParams, {"gamma": _unit_open, "co": _unit_open, "ci": float, "subsidy": _nonneg}),
    "fiscal": (apps.FiscalPolicyParams, {"tau": _unit_open, "c": _unit_open}),
}


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
    # Left unset unless given, so that a method refuses the options it does not read.
    p.add_argument("--epsilon", type=_nonneg, help="lp only (default 0)")
    p.add_argument("--equality", action="store_const", const=True, help="lp only")
    p.add_argument("--method", choices=list(_FSTAR_READS), default="lp")
    p.add_argument("--resolution", type=_int_at_least(1), help="grid only (default 50)")

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
    p.add_argument("--out", help="write per-action estimates as CSV to this path")

    p = sub.add_parser(
        "concentration", parents=[fmt, seed], help="tail bound for discounted sums, analytic and Monte Carlo"
    )
    p.add_argument("--dist", required=True, help="JSON file: array of {value, prob}")
    p.add_argument("--delta", type=_unit_open, required=True)
    p.add_argument("--c", type=_nonneg, required=True)
    p.add_argument("--reps", type=_int_at_least(concentration.MIN_REPS), required=True)

    p = sub.add_parser("app", help="closed-form applications versus the LP value")
    app_sub = p.add_subparsers(dest="variant", required=True)
    for variant, (params_cls, flags) in _APP_VARIANTS.items():
        q = app_sub.add_parser(variant, parents=[fmt, tol])
        for field, (flag, kind) in zip(dataclasses.fields(params_cls), flags.items(), strict=True):
            q.add_argument(f"--{flag}", type=kind, required=field.default is dataclasses.MISSING, default=field.default)
    return parser


def _mixed_to_dict(alpha: MixedAction) -> dict[str, float]:
    return {label: alpha.prob(label) for label in sorted(alpha.support())}


def _fields(record, names: str) -> dict:
    """The named fields of a result record, each mixed action as its sorted
    label-to-probability dict."""
    values = {name: getattr(record, name) for name in names.split()}
    return {name: _mixed_to_dict(v) if isinstance(v, MixedAction) else v for name, v in values.items()}


def _cmd_analyze(args) -> dict:
    game = load_game_file(args.game)
    report = stage.check_assumptions(game, args.tol)
    return {
        "assumptions": _fields(
            report, "a1_unique_stackelberg a1_unique_reply a2_not_best_reply a2_above_minmax satisfied"
        ),
        "stackelberg": _fields(stage.stackelberg(game, args.tol), "a_star b_star v_star"),
        "minmax": report.minmax,
        "vbar": stage.vbar_p1(game),
    }


def _cmd_fstar(args) -> dict:
    for opt in ("epsilon", "equality", "resolution"):
        if getattr(args, opt) is not None and opt not in _FSTAR_READS[args.method]:
            build_parser().error(f"fstar --method {args.method} does not take --{opt}")
    game = load_game_file(args.game)
    if args.method == "lp":
        result = bounds.min_stackelberg_freq(game, args.epsilon or 0.0, bool(args.equality), args.tol)
    elif args.method == "prop1":
        result = bounds.min_stackelberg_freq_finite(game, args.tol)
    else:
        resolution = args.resolution or 50
        return {"value": bounds.min_freq_grid(game, resolution, args.tol), "method": "grid", "resolution": resolution}
    return {
        **_fields(result, "value method epsilon equality"),
        "witness": _fields(result, "q alpha1 b1 alpha2 b2 placeholder2"),
    }


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
    params = simulate.derive_params(game, target, args.eps1, args.delta, tol=args.tol)
    outcome = simulate.estimate_frequencies(game, params, args.delta, args.reps, args.seed)
    incentives = simulate.check_incentives(game, params, args.delta)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["action", "freq_estimate", "ci_radius"])
            for action in game.actions1:
                writer.writerow([action, f"{outcome.freq[action]:.10f}", f"{outcome.ci_radius:.10f}"])
    return {
        **dataclasses.asdict(outcome),
        "params": {
            **_fields(
                params,
                "trivial a_star b_star v_star a_prime b_prime alpha_prime p eps1 c t1 t2_bar r1_star r2_star"
                " delta_bar delta_bar_theory",
            ),
            "in_theory_regime": args.delta >= params.delta_bar_theory,
        },
        "incentives": dataclasses.asdict(incentives),
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
    horizon = concentration.min_horizon(dist, args.delta, args.c)
    report = concentration.tail_probability_mc(dist, args.delta, args.c, horizon, args.reps, args.seed)
    return dataclasses.asdict(report)


def _cmd_app(args) -> dict:
    params_cls, flags = _APP_VARIANTS[args.variant]
    params = params_cls(*(getattr(args, flag) for flag in flags))
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows((k, str(v)) for k, v in _flatten(doc))
        return buf.getvalue().removesuffix("\n")
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
    except (ValueError, OSError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(rendered)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
