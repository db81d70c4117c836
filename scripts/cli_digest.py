#!/usr/bin/env python3
"""Print one line per CLI call on a fixed set of calls: the exit code, a hash of
stdout and stderr, and the argv with fixture names in place of their paths.

Two checkouts whose CLIs answer byte for byte alike print the same lines:

    PYTHONPATH=src python3 scripts/cli_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/cli_digest.py > old.txt
    diff old.txt new.txt

Every call runs in this one process. The targets of ``in-set-a`` and
``simulate`` are the marginals of the ``fstar --equality`` witnesses that the
same run has just printed, so the script needs nothing but the CLI.

After the fixtures come seeded random games of 2 to 6 actions a side, half
with uniform payoffs in [-1, 1] and half with integers in {-2, ..., 2}, written
to a temporary directory: ``analyze``, ``fstar``, ``fstar --equality`` and
``in-set-a`` run on each in JSON, so the digest covers the stage bounds'
vertex table beyond the fixtures. ``--games wide`` adds seeded random games of
8 and 9 actions a side, uniform and integer, that run the same calls: from 8
coordinates on, ``np.linalg.norm`` sums pairwise. They are not in the default
set.

Last before the random games, ``concentration`` runs in JSON on the two laws
of the acceptance suite's tail grid, ``tail_dist_quarter`` and the one-two law
((1, 0.2), (-2, 0.8)), written to the same directory, at every delta in
{0.9, 0.99, 0.999} and c in {0.5, 4}: at delta 0.999 most replications spend
most chunks too far below c to hit in them. Then ``fstar --equality`` and
``simulate`` at eps1 0.2 run in JSON on a product-choice game whose paths
often reach the absorbing subphase, written to the same directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import shlex
import tempfile
from pathlib import Path

import numpy as np

from repfreq.cli import dispatch

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GAMES = (
    "product_choice", "product_choice_three", "entry_deterrence", "fiscal_policy",
    "matching_pennies_tilted", "nash_overlap_3x2", "battle_of_sexes", "chicken",
)
# The --games choices for seeded random games: seed, count, fewest and most actions a side.
RANDOM, WIDE = "random", "wide"
RANDOM_SETS = {RANDOM: (31, 40, 2, 6), WIDE: (607, 8, 8, 9)}
FORMATS = ("json", "csv", "human")
GAME_CALLS = (
    ("analyze",),
    ("fstar",),
    ("fstar", "--equality"),
    ("fstar", "--epsilon", "0.05"),
    ("fstar", "--method", "prop1"),
    ("fstar", "--method", "grid", "--resolution", "20"),
)
SIMULATE = ("--delta", "0.999", "--reps", "100")
ONE_TWO = [{"value": 1.0, "prob": 0.2}, {"value": -2.0, "prob": 0.8}]
# The product-choice game at buyer threshold gamma 0.1 and costs 0.4 and 0.2
# (apps.ProductChoiceParams), as literal payoffs: its reviews pass often, so
# simulate at eps1 0.2 spends many periods in the absorbing subphase.
ABSORBING = {
    "name": "absorbing_product_choice",
    "actions1": ["H", "L"],
    "actions2": ["h", "l"],
    "u1": [[0.6, -0.2], [1.0, 0.0]],
    "u2": [[1.9, 1.0], [-0.1, 0.0]],
}
TAIL_DELTAS = ("0.9", "0.99", "0.999")
TAIL_CS = ("0.5", "4")
# One call per applied game: the four block LPs of the comparative statics.
APPS = (
    ("product-choice", "--gamma", "0.5", "--ch", "0.4", "--cl", "0.2"),
    ("product3", "--g1", "0.7", "--g2", "0.3", "--p", "0.5", "--c", "0.4"),
    ("entry", "--gamma", "0.6", "--co", "0.5", "--ci", "0.3", "--subsidy", "0.2"),
    ("fiscal", "--tau", "0.3", "--c", "0.2"),
)


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def run(argv: list[str]) -> tuple[int, str]:
    """Run one call, print its line and return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()[:16]
    shown = [Path(arg).stem if arg.endswith(".json") else arg for arg in argv]
    print(f"{code} {digest} {shlex.join(shown)}")
    return code, out.getvalue()


def witness_marginal(doc: str) -> str:
    """``label:prob`` text for the player-1 marginal of an ``fstar --equality`` witness."""
    witness = json.loads(doc)["witness"]
    mix: dict[str, float] = {}
    for weight, alpha in ((witness["q"], witness["alpha1"]), (1.0 - witness["q"], witness["alpha2"])):
        for label, prob in alpha.items():
            mix[label] = mix.get(label, 0.0) + weight * prob
    total = math.fsum(mix.values())
    return ",".join(f"{label}:{prob / total!r}" for label, prob in mix.items() if prob > 0.0)


def write_random_games(directory: Path, kind: str) -> list[str]:
    """Write the seeded random games of ``kind`` into ``directory`` and return their paths."""
    seed, count, low, high = RANDOM_SETS[kind]
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        n_a, n_b = (int(n) for n in rng.integers(low, high + 1, 2))
        payoffs = ("uniform", "integer")[i % 2]
        u1, u2 = (
            rng.uniform(-1.0, 1.0, (n_a, n_b)) if payoffs == "uniform" else rng.integers(-2, 3, (n_a, n_b)).astype(float)
            for _ in range(2)
        )
        name = f"{kind}_{i:02d}_{n_a}x{n_b}_{payoffs}"
        doc = {
            "name": name,
            "actions1": [f"a{k}" for k in range(n_a)],
            "actions2": [f"b{k}" for k in range(n_b)],
            "u1": u1.tolist(),
            "u2": u2.tolist(),
        }
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--games", nargs="+", choices=(*GAMES, *RANDOM_SETS), default=(*GAMES, RANDOM),
        help=f"game fixtures to run, '{RANDOM}' for the random games and '{WIDE}' for the wide ones"
        f" (default all but '{WIDE}')",
    )
    args = parser.parse_args()

    for name in args.games:
        if name in RANDOM_SETS:
            continue
        equality = None
        for call in GAME_CALLS:
            for fmt in FORMATS:
                code, out = run([call[0], fixture(name), *call[1:], "--format", fmt])
                if call == ("fstar", "--equality") and fmt == "json" and code == 0:
                    equality = out
        if equality is None:
            continue
        target = witness_marginal(equality)
        for fmt in FORMATS[:2]:
            run(["in-set-a", fixture(name), "--alpha", target, "--format", fmt])
        for eps1 in ("0.01", "0.2"):
            for fmt in FORMATS[:2]:
                run(["simulate", fixture(name), "--target", target, *SIMULATE, "--eps1", eps1, "--format", fmt])

    for fmt in FORMATS:
        run(["concentration", "--dist", fixture("tail_dist_quarter"), "--delta", "0.99", "--c", "2",
             "--reps", "1000", "--format", fmt])
        # At delta 0.999 a replication runs over many chunks, most of them too far below c to hit.
        run(["concentration", "--dist", fixture("tail_dist_quarter"), "--delta", "0.999", "--c", "1",
             "--reps", "1000", "--format", fmt])
        # At delta 0.5 and c 250000 the shortest horizon's residual lies on the guard's limit.
        run(["concentration", "--dist", fixture("tail_dist_quarter"), "--delta", "0.5", "--c", "250000",
             "--reps", "1000", "--format", fmt])
        for app in APPS:
            run(["app", *app, "--format", fmt])
        run(["simulate", fixture("product_choice"), "--target", "H:1", *SIMULATE, "--format", fmt])

    with tempfile.TemporaryDirectory() as directory:
        one_two = Path(directory) / "tail_dist_one_two.json"
        one_two.write_text(json.dumps(ONE_TWO), encoding="utf-8")
        for dist in (fixture("tail_dist_quarter"), str(one_two)):
            for delta in TAIL_DELTAS:
                for c in TAIL_CS:
                    run(["concentration", "--dist", dist, "--delta", delta, "--c", c, "--reps", "1000", "--format", "json"])
        absorbing = Path(directory) / f"{ABSORBING['name']}.json"
        absorbing.write_text(json.dumps(ABSORBING), encoding="utf-8")
        code, out = run(["fstar", str(absorbing), "--equality", "--format", "json"])
        if code == 0:
            run(["simulate", str(absorbing), "--target", witness_marginal(out), *SIMULATE, "--eps1", "0.2",
                 "--format", "json"])
        for kind in RANDOM_SETS:
            if kind not in args.games:
                continue
            for path in write_random_games(Path(directory), kind):
                run(["analyze", path, "--format", "json"])
                run(["fstar", path, "--format", "json"])
                code, out = run(["fstar", path, "--equality", "--format", "json"])
                if code == 0:
                    run(["in-set-a", path, "--alpha", witness_marginal(out), "--format", "json"])


if __name__ == "__main__":
    main()
