"""The four benchmark workloads, each mirroring a real entry point of repfreq.

A run is a whole number of *passes*. A pass is a fixed unit of work built from
(seed, pass index) alone, so every count and output of a run depends only on
the seed and the number of passes, never on timing. Each workload:

- ``setup`` builds its inputs from the seed; ``write_inputs`` then writes
  those the program reads from disk;
- ``run_pass`` performs one pass, timing each operation through a
  :class:`Recorder`;
- ``check`` compares the recorded outputs with independent references, outside
  the timed region, and returns the failed operations;
- ``counts`` returns exact counts that must repeat on the same seed.

Workload code reaches every repfreq function through its module attribute at
call time (``rf.bounds.min_stackelberg_freq``), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class OpRecord:
    attrs: dict  # grouping attributes the traced run reports by
    meta: tuple  # what the workload's checks need to find this operation
    items: int
    start: float  # perf_counter() when the operation began
    seconds: float
    output: object
    error: str | None  # traceback of an exception the operation raised


class Recorder:
    """Times each operation of a pass and keeps its output for the checks.

    With a ``clock`` (a ``hostspeed.HostClock``), a host-speed sample is taken
    between operations, outside their timed intervals.
    """

    def __init__(self, clock=None, tracer=None) -> None:
        self.ops: list[OpRecord] = []
        self.passes: list[tuple[float, float]] = []  # (wall s, CPU s) per timed pass
        self.clock = clock
        self.tracer = tracer

    def call(self, attrs: dict, meta: tuple, fn, *args, items: int = 1):
        index = len(self.ops)
        output, error = None, None
        t0 = perf_counter()
        try:
            if self.tracer is None:
                output = fn(*args)
            else:
                output = self.tracer.run_op(index, fn, *args)
        except Exception:  # a raising operation is a failed operation, not a crashed run
            error = traceback.format_exc()
        seconds = perf_counter() - t0
        self.ops.append(OpRecord(attrs, meta, items, t0, seconds, output, error))
        if self.clock is not None:
            self.clock.maybe_sample()
        return output

    def skip(self, attrs: dict, meta: tuple, reason: str) -> None:
        """Record an operation that could not be attempted as failed."""
        self.ops.append(OpRecord(attrs, meta, 1, perf_counter(), math.nan, None, reason))


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Workload:
    name = ""
    pass_seconds = 1.0  # nominal duration of one pass on the reference machine

    def setup(self, rf, seed: int, passes: int, workdir: Path) -> None:
        raise NotImplementedError

    def write_inputs(self) -> None:
        """Write the inputs the program reads from files; most workloads have none."""

    def warm_up(self, rec: Recorder) -> None:
        raise NotImplementedError

    def run_pass(self, k: int, rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, rec: Recorder) -> dict[int, str]:
        raise NotImplementedError

    def counts(self, rec: Recorder) -> dict[str, int]:
        raise NotImplementedError

    def digest_parts(self, rec: Recorder):
        """Text forms of every output, in order, for the run's output digest."""
        for op in rec.ops:
            yield repr(op.output) if op.error is None else "error"


# --- statics_sweep ---------------------------------------------------------

# The criterion-1 grids of tests/test_acceptance.py.
GRID9 = [round(0.1 * k, 1) for k in range(1, 10)]
GAMMA_PAIRS = [
    (0.1, 0.2), (0.1, 0.5), (0.2, 0.4), (0.3, 0.6), (0.3, 0.9),
    (0.4, 0.5), (0.5, 0.7), (0.6, 0.8), (0.7, 0.9),
]


def criterion_1_grid(apps) -> list:
    points = [apps.ProductChoiceParams(g, ch, cl) for g in GRID9 for ch in GRID9 for cl in GRID9]
    points += [apps.ThreeProductParams(hi, lo, p, c) for lo, hi in GAMMA_PAIRS for p in GRID9 for c in GRID9]
    points += [apps.EntryDeterrenceParams(g, co, ci) for g in GRID9 for co in GRID9 for ci in GRID9]
    points += [apps.FiscalPolicyParams(t, round(f * (1.0 - t), 6)) for t in GRID9 for f in GRID9]
    return points


class StaticsSweep(Workload):
    name = "statics_sweep"
    pass_seconds = 1.5
    sweeps_per_pass = 3  # a pass is a third of a shuffled sweep over the grid

    def setup(self, rf, seed, passes, workdir):
        self.rf = rf
        self.points = criterion_1_grid(rf.apps)
        sweeps = math.ceil(passes / self.sweeps_per_pass)
        stream = np.concatenate([np.random.default_rng([seed, k]).permutation(len(self.points)) for k in range(sweeps)])
        self.orders = np.array_split(stream, sweeps * self.sweeps_per_pass)

    def _point(self, params):
        game = self.rf.apps.build_stage_game(params)
        lp = self.rf.bounds.min_stackelberg_freq(game).value
        return lp, self.rf.apps.closed_form_min_freq(params)

    def warm_up(self, rec):
        for i in self.orders[0][:50]:
            rec.call({}, (i,), self._point, self.points[i])

    def run_pass(self, k, rec):
        for i in self.orders[k]:
            rec.call({}, (i,), self._point, self.points[i])

    def check(self, rec):
        failed = {}
        for n, op in enumerate(rec.ops):
            if op.error is not None:
                failed[n] = op.error
                continue
            lp, closed = op.output
            if not _close(lp, closed, 1e-8):
                failed[n] = f"point {self.points[op.meta[0]]}: LP {lp!r} vs closed form {closed!r}"
        return failed

    def counts(self, rec):
        return {"points": len(rec.ops)}


# --- game_files ------------------------------------------------------------

FIXTURE_GAMES = (
    "product_choice", "product_choice_three", "entry_deterrence", "fiscal_policy",
    "matching_pennies_tilted", "nash_overlap_3x2", "battle_of_sexes", "chicken",
)
# Fixtures that are monotone-supermodular under their orders, where prop1 applies.
PROP1_GAMES = ("product_choice", "product_choice_three", "entry_deterrence")
TWO_BY_TWO = (
    "product_choice", "entry_deterrence", "fiscal_policy",
    "matching_pennies_tilted", "battle_of_sexes", "chicken",
)
# Random games per pass, by number of actions per player.
RANDOM_GAMES = ((3, 40), (4, 3), (5, 1))


@dataclass(frozen=True)
class GameFile:
    key: str
    group: str  # "fixture" or "<n>x<n>"
    path: str
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    u1: np.ndarray
    u2: np.ndarray
    prop1: bool = False
    grid: bool = False


def pure_commitment_payoff(u1: np.ndarray, u2: np.ndarray, tol: float = 1e-9) -> float:
    """Best pure commitment payoff against the worst tied best reply."""
    best = -math.inf
    for i in range(u1.shape[0]):
        replies = u2[i] >= u2[i].max() - tol
        best = max(best, float(u1[i, replies].min()))
    return best


def _game_file(key: str, group: str, path: Path, doc: dict, **flags) -> GameFile:
    return GameFile(
        key, group, str(path), tuple(doc["actions1"]), tuple(doc["actions2"]),
        np.array(doc["u1"], float), np.array(doc["u2"], float), **flags,
    )


class GameFiles(Workload):
    name = "game_files"
    pass_seconds = 2.4

    def setup(self, rf, seed, passes, workdir):
        self.rf = rf
        self.workdir = workdir
        self.docs: dict[Path, str] = {}
        fixtures = []
        for name in FIXTURE_GAMES:
            path = FIXTURES / f"{name}.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            fixtures.append(_game_file(name, "fixture", path, doc, prop1=name in PROP1_GAMES, grid=name in TWO_BY_TWO))
        self.passes = []
        for k in range(passes):
            rng = np.random.default_rng([seed, k])
            games = list(fixtures)
            for n, count in RANDOM_GAMES:
                for i in range(count):
                    key = f"p{k}_{n}x{n}_{i}"
                    doc = {
                        "actions1": [f"a{j}" for j in range(n)],
                        "actions2": [f"b{j}" for j in range(n)],
                        "u1": rng.uniform(-1.0, 1.0, (n, n)).tolist(),
                        "u2": rng.uniform(-1.0, 1.0, (n, n)).tolist(),
                        "name": key,
                    }
                    path = workdir / f"{key}.json"
                    self.docs[path] = json.dumps(doc)
                    games.append(_game_file(key, f"{n}x{n}", path, doc))
            self.passes.append(games)

    def write_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, text in self.docs.items():
            path.write_text(text, encoding="utf-8")

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.rf.cli.dispatch(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _game(self, key: tuple[int, int], rec: Recorder) -> None:
        game = self._game_of(key)

        def call(role, command, *argv):
            return rec.call({"group": game.group, "command": command}, (key, role), self._cli, [command, game.path, *argv])

        call("analyze", "analyze")
        call("fstar", "fstar")
        eq = call("fstar_eq", "fstar", "--equality")
        alpha = _witness_arg(eq)
        if alpha is None:
            rec.skip({"group": game.group, "command": "in-set-a"}, (key, "in_set_a"), "no equality witness")
        else:
            call("in_set_a", "in-set-a", "--alpha", alpha)
        if game.prop1:
            call("prop1", "fstar", "--method", "prop1")
        if game.grid:
            call("grid", "fstar", "--method", "grid", "--resolution", "50")

    def warm_up(self, rec):
        for i in range(len(FIXTURE_GAMES)):
            self._game((0, i), rec)

    def run_pass(self, k, rec):
        for i in range(len(self.passes[k])):
            self._game((k, i), rec)

    def _game_of(self, key: tuple[int, int]) -> GameFile:
        return self.passes[key[0]][key[1]]

    def check(self, rec):
        by_game: dict[tuple[int, int], dict[str, int]] = {}
        for i, op in enumerate(rec.ops):
            by_game.setdefault(op.meta[0], {})[op.meta[1]] = i
        failed = {}
        for key, roles in by_game.items():
            failed.update(self._check_game(self._game_of(key), roles, rec.ops))
        return failed

    def _check_game(self, game: GameFile, roles: dict[str, int], ops: list[OpRecord]) -> dict[int, str]:
        failed: dict[int, str] = {}
        docs: dict[str, dict] = {}
        for role, i in roles.items():
            op = ops[i]
            if op.error is not None:
                failed[i] = f"{game.key} {role}: {op.error}"
            elif op.output[0] != 0:
                failed[i] = f"{game.key} {role}: exit {op.output[0]}: {op.output[2].strip()}"
            else:
                docs[role] = json.loads(op.output[1])

        def fail(role, message):
            failed.setdefault(roles[role], f"{game.key} {role}: {message}")

        v_ref = pure_commitment_payoff(game.u1, game.u2)
        if "analyze" in docs:
            doc = docs["analyze"]
            if not _close(doc["stackelberg"]["v_star"], v_ref, 1e-12):
                fail("analyze", f"v_star {doc['stackelberg']['v_star']!r}, reference {v_ref!r}")
            if not v_ref - 1e-9 <= doc["vbar"] <= game.u1.max() + 1e-9:
                fail("analyze", f"vbar {doc['vbar']!r} outside [v_star, max u1]")
        lp = docs.get("fstar", {}).get("value")
        if lp is not None and not 0.0 <= lp <= 1.0:
            fail("fstar", f"value {lp!r} outside [0, 1]")
        if "fstar_eq" in docs:
            eq = docs["fstar_eq"]
            if lp is not None and docs.get("analyze", {}).get("assumptions", {}).get("satisfied"):
                if not _close(eq["value"], lp, 1e-8):
                    fail("fstar_eq", f"equality value {eq['value']!r} vs {lp!r}")
            pay = _witness_payoff(game, eq["witness"])
            if not _close(pay, v_ref, 1e-9):
                fail("fstar_eq", f"equality witness payoff {pay!r} vs v_star {v_ref!r}")
        if "in_set_a" in docs and not docs["in_set_a"]["member"]:
            fail("in_set_a", "equality witness is not a member")
        for role, ok in (
            ("prop1", lambda v: _close(v, lp, 1e-8)),
            ("grid", lambda v: lp <= v <= lp + 0.03),
        ):
            if role in docs and (lp is None or not ok(docs[role]["value"])):
                fail(role, f"value {docs[role]['value']!r} vs LP {lp!r}")
        return failed

    def counts(self, rec):
        # in-set-a payoffs off v_star by more than 1e-9: a known LP feasibility defect
        # (solve_lp can return "optimal" points that break constraints by ~1e-8),
        # counted so that it shows, not checked, so that runs still complete.
        drift = 0
        for op in rec.ops:
            if op.meta[1] == "in_set_a" and op.error is None and op.output[0] == 0:
                doc = json.loads(op.output[1])
                game = self._game_of(op.meta[0])
                drift += doc["member"] and not _close(doc["payoff"], pure_commitment_payoff(game.u1, game.u2), 1e-9)
        return {"cli_calls": len(rec.ops), "games": len({op.meta[0] for op in rec.ops}), "in_set_a_payoff_drift": drift}


def _witness_payoff(game: GameFile, w: dict) -> float:
    """Player 1's payoff from a frequency-bound witness, recomputed from the game file."""
    total = 0.0
    for weight, alpha, b in ((w["q"], w["alpha1"], w["b1"]), (1.0 - w["q"], w["alpha2"], w["b2"])):
        j = game.actions2.index(b)
        total += weight * sum(prob * game.u1[game.actions1.index(a), j] for a, prob in alpha.items())
    return total


def _witness_arg(result) -> str | None:
    """``--alpha`` text for the marginal of an ``fstar --equality`` witness."""
    if result is None or result[0] != 0:
        return None
    w = json.loads(result[1])["witness"]
    mix: dict[str, float] = {}
    for weight, alpha in ((w["q"], w["alpha1"]), (1.0 - w["q"], w["alpha2"])):
        for label, prob in alpha.items():
            mix[label] = mix.get(label, 0.0) + weight * prob
    total = math.fsum(mix.values())
    return ",".join(f"{label}:{prob / total!r}" for label, prob in mix.items() if prob > 0.0)


# --- sim_paths -------------------------------------------------------------

DELTA = 0.999
APPLIED_GAMES = ("product_choice", "product_choice_three", "entry_deterrence", "fiscal_policy")


@dataclass(frozen=True)
class SimConfig:
    key: str
    kind: str  # "review": long reviews, never absorbs; "absorb": short blocks, absorbs often
    game: object
    target: object
    eps1: float
    reps: int
    bound: float | None = None  # LP bound the frequency must respect (criterion 8)


def witness_target(rf, game):
    fb = rf.bounds.min_stackelberg_freq(game, equality=True)
    vec = fb.q * fb.alpha1.as_vector(game.actions1) + (1 - fb.q) * fb.alpha2.as_vector(game.actions1)
    return rf.game.MixedAction.from_vector(game.actions1, vec, tol=1e-7)


class SimPaths(Workload):
    name = "sim_paths"
    pass_seconds = 2.8

    def setup(self, rf, seed, passes, workdir):
        self.rf = rf
        self.seed = seed
        self.configs = []
        for name in APPLIED_GAMES:
            game = rf.game.load_game_file(FIXTURES / f"{name}.json")
            bound = rf.bounds.min_stackelberg_freq(game).value
            self.configs.append(SimConfig(name, "review", game, witness_target(rf, game), 0.01, 100, bound))
        game = rf.game.load_game_file(FIXTURES / "product_choice.json")
        target = rf.game.MixedAction({"H": 0.375, "L": 0.625})
        self.configs.append(SimConfig("criterion7", "review", game, target, 0.01, 100))
        game = rf.apps.build_stage_game(rf.apps.ProductChoiceParams(gamma=0.1, cost_high=0.4, cost_low=0.2))
        self.configs.append(SimConfig("absorbing", "absorb", game, witness_target(rf, game), 0.2, 100))

    def _config(self, cfg: SimConfig, seed: int):
        sim = self.rf.simulate
        params = sim.derive_params(cfg.game, cfg.target, cfg.eps1, DELTA)
        out = sim.estimate_frequencies(cfg.game, params, DELTA, cfg.reps, seed)
        incentives = sim.check_incentives(cfg.game, params, DELTA)
        return params.a_star, out, incentives

    def warm_up(self, rec):
        i = len(self.configs) - 2  # criterion 7
        rec.call({"kind": "review"}, (i,), self._config, self.configs[i], _seed(self.seed, 2**31))

    def run_pass(self, k, rec):
        for i, cfg in enumerate(self.configs):
            rec.call({"kind": cfg.kind}, (i,), self._config, cfg, _seed(self.seed, k, i), items=cfg.reps)

    def check(self, rec):
        failed: dict[int, str] = {}
        pooled: dict[int, list[int]] = {}
        for n, op in enumerate(rec.ops):
            if op.error is not None:
                failed[n] = op.error
                continue
            _, out, _ = op.output
            cfg = self.configs[op.meta[0]]
            residual = out.phase_stats["max_block_residual"]
            if residual > 1e-6:
                failed[n] = f"{cfg.key}: max block residual {residual:.3e} > 1e-6"
            elif cfg.kind == "absorb" and out.phase_stats["absorb_entries"] <= 0:
                failed[n] = f"{cfg.key}: no absorbing entries"
            pooled.setdefault(op.meta[0], []).append(n)
        # Statistical checks pool every path of a configuration; a failure fails all its operations.
        for i, ops in pooled.items():
            message = self._check_pooled(self.configs[i], [rec.ops[n].output for n in ops])
            if message:
                for n in ops:
                    failed.setdefault(n, message)
        return failed

    def _check_pooled(self, cfg: SimConfig, outputs) -> str | None:
        a_star = outputs[0][0]
        reps = sum(out.reps for _, out, _ in outputs)
        freq = {a: sum(out.freq[a] * out.reps for _, out, _ in outputs) / reps for a in outputs[0][1].freq}
        payoff = sum(out.payoff * out.reps for _, out, _ in outputs) / reps
        if cfg.key == "criterion7" and not (_close(freq["H"], 0.375, 0.05) and _close(payoff, 0.6, 0.02)):
            return f"criterion 7: freq(H) {freq['H']:.4f} (target 0.375), payoff {payoff:.4f} (target 0.6)"
        if cfg.bound is not None and freq[a_star] < cfg.bound - 0.05:
            return f"{cfg.key}: freq {freq[a_star]:.4f} < bound {cfg.bound:.4f} - 0.05"
        if cfg.kind == "absorb":
            entries = sum(out.phase_stats["absorb_entries"] * out.reps for _, out, _ in outputs)
            breaches = sum(
                (out.phase_stats["breach_low"] + out.phase_stats["breach_high"]) * out.reps for _, out, _ in outputs
            )
            rate = breaches / entries
            se = math.sqrt(rate * (1 - rate) / entries) if 0 < rate < 1 else 0.0
            if rate > 2 * cfg.eps1 + 3 * se:
                return f"{cfg.key}: breach rate {rate:.4f} > 2*eps1 + 3*{se:.4f}"
        return None

    def counts(self, rec):
        totals: dict[str, int] = {}
        for op in rec.ops:
            if op.error is not None:
                continue
            _, out, _ = op.output
            kind = op.attrs["kind"]
            stats = {key: round(val * out.reps) for key, val in out.phase_stats.items() if key != "max_block_residual"}
            for key, value in (
                ("paths", out.reps),
                ("periods", sum(stats[p] for p in ("prep_periods", "review_periods", "absorb_periods", "comp_periods"))),
                ("blocks", stats["blocks"]),
                ("absorb_entries", stats["absorb_entries"]),
            ):
                totals[f"{key}.{kind}"] = totals.get(f"{key}.{kind}", 0) + value
        return totals


# --- tail_mc ---------------------------------------------------------------

TAIL_CS = (0.5, 1.0, 2.0, 4.0)
TAIL_DELTAS = (0.9, 0.99, 0.999)
TAIL_REPS = 1000  # the smallest count tail_probability_mc accepts


class TailMC(Workload):
    name = "tail_mc"
    pass_seconds = 1.6

    def setup(self, rf, seed, passes, workdir):
        conc = rf.concentration
        self.rf = rf
        self.seed = seed
        dists = (
            ("sym-quarter", conc.FiniteDist.from_pairs([(1.0, 0.25), (-1.0, 0.75)]), math.log(3.0)),
            ("one-two", conc.FiniteDist.from_pairs([(1.0, 0.2), (-2.0, 0.8)]), math.log(2.0 + 2.0 * math.sqrt(2.0))),
        )
        self.cells = [
            (label, dist, r_ref, c, delta, conc.min_horizon(dist, delta, c))
            for label, dist, r_ref in dists
            for c in TAIL_CS
            for delta in TAIL_DELTAS
        ]

    def _cell(self, i: int, seed: int):
        _, dist, _, c, delta, horizon = self.cells[i]
        return self.rf.concentration.tail_probability_mc(dist, delta, c, horizon, TAIL_REPS, seed)

    def warm_up(self, rec):
        rec.call({"delta": "d0.9"}, (0,), self._cell, 0, _seed(self.seed, 2**31))

    def run_pass(self, k, rec):
        for i, cell in enumerate(self.cells):
            rec.call({"delta": f"d{cell[4]}"}, (i,), self._cell, i, _seed(self.seed, k, i), items=TAIL_REPS)

    def check(self, rec):
        failed: dict[int, str] = {}
        pooled: dict[int, list[int]] = {}
        for n, op in enumerate(rec.ops):
            label, _, r_ref, c, delta, _ = self.cells[op.meta[0]]
            if op.error is not None:
                failed[n] = op.error
            elif not _close(op.output.r_star, r_ref, 1e-10):
                failed[n] = f"{label}: exponent {op.output.r_star!r} vs {r_ref!r}"
            else:
                pooled.setdefault(op.meta[0], []).append(n)
        # The 3-sigma check pools every replication of a cell; a failure fails all its operations.
        for i, ops in pooled.items():
            label, _, _, c, delta, _ = self.cells[i]
            reports = [rec.ops[n].output for n in ops]
            reps = sum(r.reps for r in reports)
            rate = sum(round(r.empirical * r.reps) for r in reports) / reps
            se = math.sqrt(rate * (1 - rate) / reps)
            bound = reports[0].analytic_bound
            if rate > bound + 3 * se:
                for n in ops:
                    failed[n] = f"{label} c={c} delta={delta}: {rate} > {bound} + 3*{se}"
        return failed

    def counts(self, rec):
        done = [op.output for op in rec.ops if op.error is None]
        return {
            "replications": sum(r.reps for r in done),
            "tail_hits": sum(round(r.empirical * r.reps) for r in done),
        }


WORKLOADS = {w.name: w for w in (StaticsSweep, GameFiles, SimPaths, TailMC)}
