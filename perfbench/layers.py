"""Per-layer metrics of the traced run.

Each metric names the workloads meant to exercise it. A metric whose boundary
records no calls on such a workload is reported as missing, and the traced run
fails; on any other workload a metric without samples reads 0 and is reported
as not applicable.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

SG, GF, SP, TM = "statics_sweep", "game_files", "sim_paths", "tail_mc"
GROUPS = ("3x3", "4x4", "5x5", "fixture")
KINDS = ("review", "absorb")
DELTAS = ("d0.9", "d0.99", "d0.999")
COMMANDS = ("analyze", "fstar", "in-set-a")

# The end-to-end metric each layer should move, printed with the traced report.
MOVES = {
    "linprog": "items_per_s and item_ms_p50 on statics_sweep; items_per_s on game_files; flat on tail_mc",
    "stage": "item_ms_p99 and items_per_s on game_files; flat on statics_sweep",
    "bounds": "items_per_s on statics_sweep (most of its time); game_files",
    "attain": "game_files (in-set-a); a small share of sim_paths through derive_params",
    "simulate": "items_per_s on sim_paths",
    "concentration": "items_per_s on tail_mc; negligible on sim_paths",
    "apps": "the floor on statics_sweep that no LP change can remove",
    "cli": "item_ms_p50 on game_files",
    "game": "item_ms_p50 on game_files",
    "trace": "n/a: checks the trace itself",
    "process": "n/a: catches hidden parallelism",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


@dataclass
class Context:
    table: object  # tracer.SpanTable of the traced passes
    ops: list  # workloads.OpRecord of the traced passes, indexed like span ops
    counts: dict[str, int]  # exact counts of the traced passes
    overhead_ratio: float
    cpu_util: float


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    expected: tuple[str, ...]
    compute: Callable[[Context], tuple[float, int]]  # (value, samples)


def _stat(span: str, q: float, scale: float, **attrs):
    def compute(ctx):
        d = ctx.table.durations(ctx.table.select(span, **attrs))
        return (percentile(d, q) * scale, len(d)) if d else (0.0, 0)

    return compute


def _calls(span: str):
    def compute(ctx):
        n = len(ctx.table.select(span))
        return float(n), n

    return compute


def _self_s(span: str):
    def compute(ctx):
        idx = ctx.table.select(span)
        return sum((ctx.table.self_time[i] for i in idx), 0.0), len(idx)

    return compute


def _extra_mean(span: str, field: int | None):
    def compute(ctx):
        extras = [ctx.table.spans[i][5] for i in ctx.table.select(span)]
        vals = [float(e if field is None else e[field]) for e in extras]
        return (statistics.fmean(vals), len(vals)) if vals else (0.0, 0)

    return compute


def _lps_per_call(span: str, **attrs):
    def compute(ctx):
        idx = ctx.table.select(span, **attrs)
        if not idx:
            return 0.0, 0
        return ctx.table.descendants_named(idx, "linprog.solve_lp") / len(idx), len(idx)

    return compute


def _stage_self(ctx):
    names = [n for n in ctx.table.by_name if n.startswith("stage.")]
    idx = [i for n in names for i in ctx.table.by_name[n]]
    return sum(ctx.table.self_time[i] for i in idx), len(idx)


def _dispatch_self_p50(ctx):
    self_ms = [ctx.table.self_time[i] * 1e3 for i in ctx.table.select("cli.dispatch")]
    return (statistics.median(self_ms), len(self_ms)) if self_ms else (0.0, 0)


def _us_per_rep(delta: str):
    def compute(ctx):
        idx = ctx.table.select("concentration.tail_probability_mc", delta=delta)
        reps = sum(ctx.ops[ctx.table.spans[i][4]].items for i in idx)
        return (sum(ctx.table.durations(idx)) / reps * 1e6, len(idx)) if idx else (0.0, 0)

    return compute


def _per_path(count: str, kind: str):
    def compute(ctx):
        paths = ctx.counts.get(f"paths.{kind}", 0)
        return (ctx.counts.get(f"{count}.{kind}", 0) / paths, paths) if paths else (0.0, 0)

    return compute


def _catalog() -> list[LayerMetric]:
    m = LayerMetric
    lp = "linprog.solve_lp"
    out = [
        m(f"{lp}.calls", "count", (SG, GF, SP), _calls(lp)),
        m(f"{lp}.us_p50", "us", (SG, GF, SP), _stat(lp, 50, 1e6)),
        m(f"{lp}.us_p99", "us", (SG, GF, SP), _stat(lp, 99, 1e6)),
        m(f"{lp}.self_s", "s", (SG, GF, SP), _self_s(lp)),
        m(f"{lp}.optimal_ratio", "ratio", (SG, GF, SP), _extra_mean(lp, 2)),
        m(f"{lp}.vars_mean", "count", (SG, GF, SP), _extra_mean(lp, 0)),
        m(f"{lp}.rows_mean", "count", (SG, GF, SP), _extra_mean(lp, 1)),
    ]
    for fn in ("check_assumptions", "minmax_p1", "vbar_p1"):
        out += [m(f"stage.{fn}.ms_p50.{g}", "ms", (GF,), _stat(f"stage.{fn}", 50, 1e3, group=g)) for g in GROUPS]
    out += [
        m(f"stage.lp_calls_per_game.{g}", "count", (GF,), _lps_per_call("stage.check_assumptions", group=g))
        for g in GROUPS
    ]
    out.append(m("stage.self_s", "s", (SG, GF, SP), _stage_self))
    msf = "bounds.min_stackelberg_freq"
    out += [
        m(f"{msf}.calls", "count", (SG, GF), _calls(msf)),
        m(f"{msf}.ms_p50", "ms", (SG, GF), _stat(msf, 50, 1e3)),
        m(f"{msf}.lps_per_call", "count", (SG, GF), _lps_per_call(msf)),
        m(f"{msf}.self_s", "s", (SG, GF), _self_s(msf)),
        m("bounds.min_stackelberg_freq_finite.ms_p50", "ms", (GF,), _stat("bounds.min_stackelberg_freq_finite", 50, 1e3)),
        m("bounds.min_freq_grid.ms_p50", "ms", (GF,), _stat("bounds.min_freq_grid", 50, 1e3)),
    ]
    dt = "attain.decompose_target"
    out += [
        m(f"{dt}.calls", "count", (GF, SP), _calls(dt)),
        m(f"{dt}.ms_p50", "ms", (GF, SP), _stat(dt, 50, 1e3)),
        m(f"{dt}.member_ratio", "ratio", (GF, SP), _extra_mean(dt, None)),
        m(f"{dt}.self_s", "s", (GF, SP), _self_s(dt)),
    ]
    sp = "simulate.simulate_path"
    for q in (50, 99):
        out += [m(f"{sp}.ms_p{q}.{k}", "ms", (SP,), _stat(sp, q, 1e3, kind=k)) for k in KINDS]
    out.append(m(f"{sp}.self_s", "s", (SP,), _self_s(sp)))
    for count in ("periods", "blocks", "absorb_entries"):
        out += [m(f"simulate.{count}_per_path.{k}", "count", (SP,), _per_path(count, k)) for k in KINDS]
    out += [
        m("simulate.derive_params.ms_p50", "ms", (SP,), _stat("simulate.derive_params", 50, 1e3)),
        m("simulate.check_incentives.ms_p50", "ms", (SP,), _stat("simulate.check_incentives", 50, 1e3)),
        m("simulate.estimate_frequencies.self_s", "s", (SP,), _self_s("simulate.estimate_frequencies")),
    ]
    out += [m(f"concentration.tail_probability_mc.us_per_rep.{d}", "us", (TM,), _us_per_rep(d)) for d in DELTAS]
    out += [
        m("concentration.tail_exponent.calls", "count", (TM, SP), _calls("concentration.tail_exponent")),
        m("concentration.tail_exponent.us_p50", "us", (TM, SP), _stat("concentration.tail_exponent", 50, 1e6)),
        m("apps.build_stage_game.us_p50", "us", (SG,), _stat("apps.build_stage_game", 50, 1e6)),
        m("apps.closed_form_min_freq.us_p50", "us", (SG,), _stat("apps.closed_form_min_freq", 50, 1e6)),
    ]
    out += [m(f"cli.dispatch.ms_p50.{c}", "ms", (GF,), _stat("cli.dispatch", 50, 1e3, command=c)) for c in COMMANDS]
    out += [
        m("cli.dispatch.self_ms_p50", "ms", (GF,), _dispatch_self_p50),
        m("game.load_game_file.us_p50", "us", (GF,), _stat("game.load_game_file", 50, 1e6)),
        m("trace.overhead_ratio", "ratio", (SG, GF, SP, TM), lambda ctx: (ctx.overhead_ratio, 1)),
        m("process.cpu_util", "ratio", (SG, GF, SP, TM), lambda ctx: (ctx.cpu_util, 1)),
    ]
    return out


CATALOG = _catalog()


def layer_metrics(workload: str, ctx: Context) -> tuple[dict[str, dict], dict[str, str]]:
    """Metric values for ``workload`` and each metric's coverage status."""
    values, status = {}, {}
    for metric in CATALOG:
        value, samples = metric.compute(ctx)
        values[metric.name] = {"value": value, "unit": metric.unit}
        if samples:
            status[metric.name] = f"ok (n={samples})"
        elif workload in metric.expected:
            status[metric.name] = "MISSING: boundary recorded zero calls on a workload meant to exercise it"
        else:
            status[metric.name] = "n/a: not exercised by this workload"
    return values, status
