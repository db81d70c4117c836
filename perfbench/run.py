#!/usr/bin/env python3
"""repfreq benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload game_files --seed 1 --seconds 25 --trace 0

The run imports repfreq from the checkout's ``src/`` and nothing else, sets up
the workload's inputs from ``--seed``, times a fixed number of passes sized to
take about ``--seconds`` on the reference machine, checks every output against
an independent reference outside the timed region, and prints a report
(README.md explains the workloads, the metrics and their normalization). The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run times
half the passes twice, untraced and traced in alternating order, and writes
its spans under ``.perfbench_out/``. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS must not add hidden parallelism (set before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import hostspeed
from hostspeed import HostClock
from layers import Context, MOVES, layer_metrics, percentile
from tracer import SpanTable, Tracer
from workloads import ROOT, WORKLOADS, Recorder

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 7  # set-ups per run; setup_s is their median
WHY = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}


def fresh_import():
    """Import repfreq from the checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "repfreq" or n.startswith("repfreq.")]:
        del sys.modules[name]
    rf = importlib.import_module("repfreq")
    importlib.import_module("repfreq.cli")
    if Path(rf.__file__).resolve().parent != SRC / "repfreq":
        raise ImportError(f"repfreq imported from {rf.__file__}, not from {SRC}")
    return rf


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timed_pass(workload, rec, k: int) -> None:
    """Run pass ``k`` into ``rec``, recording its wall time and CPU time."""
    tracer = rec.tracer
    rec.clock.sample()
    if tracer is not None:
        tracer.install()
    try:
        w0, c0 = perf_counter(), process_time()
        workload.run_pass(k, rec)
        wall, cpu = perf_counter() - w0, process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec.passes.append((wall, cpu))


def digest(workload, rec) -> str:
    h = hashlib.sha256()
    for part in workload.digest_parts(rec):
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def latency_samples(ops, seconds: list[float]) -> list[float]:
    """Per-item latencies, one sample per distinct input.

    Operations on the same input (a grid point swept again, a simulation
    configuration, a tail-grid cell) pool into one sample: their time over
    their items. The percentiles then describe how latency varies across
    inputs, not how the host's speed varied while one input was repeated.
    """
    pooled: dict[tuple, list] = {}
    for op, s in zip(ops, seconds):
        if op.error is None:
            acc = pooled.setdefault(op.meta, [0.0, 0])
            acc[0] += s
            acc[1] += op.items
    return [s / n for s, n in pooled.values()]


def op_seconds(rec, clock=None) -> tuple[list, list[float]]:
    """Operations that ran, and their times; host-speed normalized with a ``clock``."""
    ops = [op for op in rec.ops if not math.isnan(op.seconds)]
    return ops, [op.seconds * (clock.factor(op.start, op.start + op.seconds) if clock else 1.0) for op in ops]


def end_to_end(rec, setup_times: list[float], clock=None) -> dict[str, dict]:
    """End-to-end metrics; with a ``clock``, operation times are host-speed normalized."""
    timed_ops, seconds = op_seconds(rec, clock)
    per_item = latency_samples(timed_ops, seconds)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "items_per_s": {"value": sum(op.items for op in timed_ops) / sum(seconds), "unit": "1/s"},
        "item_ms_p50": {"value": percentile(per_item, 50) * 1e3, "unit": "ms"},
        "item_ms_p99": {"value": percentile(per_item, 99) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time, trace if asked, and check one workload; returns the full record."""
    workload = WORKLOADS[name]()
    passes = max(1, round(seconds / workload.pass_seconds))
    workdir = OUT / "games" / f"{name}-seed{seed}"
    clock = HostClock()
    try:
        setup_times, raw_setup_times = [], []
        for _ in range(SETUPS):
            clock.sample()
            t0 = perf_counter()
            workload.setup(fresh_import(), seed, passes, workdir)
            t1 = perf_counter()
            clock.sample()
            raw_setup_times.append(t1 - t0)
            setup_times.append((t1 - t0) * clock.factor(t0, t1))
        # Untimed: writing files is harness I/O whose time swings 2x with the host's
        # file system, and no change to repfreq can move it.
        workload.write_inputs()
        workload.warm_up(Recorder())

        # The traced run alternates untraced and traced passes over the same inputs,
        # so slow phases of the machine hit both sides alike.
        tracer = Tracer()
        rec, traced = Recorder(clock), Recorder(clock, tracer)
        timed_passes = range(max(1, passes // 2) if trace else passes)
        for k in timed_passes:
            if trace and k % 2:
                timed_pass(workload, traced, k)
            timed_pass(workload, rec, k)
            if trace and not k % 2:
                timed_pass(workload, traced, k)
        record = {
            "workload": name,
            "why": WHY[name],
            "seed": seed,
            "seconds": seconds,
            "passes": len(timed_passes),
            "machine": machine(),
            "end_to_end": end_to_end(rec, setup_times, clock),
            "end_to_end_raw": end_to_end(rec, raw_setup_times),
            "host_kernel_ms_p50": clock.kernel_ms_p50(),
            "latency_samples": len(latency_samples(*op_seconds(rec))),
        }
        failures = list(workload.check(rec).values())
        failed, attempted = len(failures), len(rec.ops)
        counts = workload.counts(rec)
        out_digest = digest(workload, rec)
        record["coverage"] = {}
        if trace:
            traced_failures = list(workload.check(traced).values())
            failures += traced_failures
            failed, attempted = failed + len(traced_failures), attempted + len(traced.ops)
            table = SpanTable(tracer.spans, [op.attrs for op in traced.ops])
            counts = workload.counts(traced)
            counts["lp_calls"] = len(table.select("linprog.solve_lp"))
            plain_s, traced_s = (sum(op_seconds(r, clock)[1]) for r in (rec, traced))
            wall = sum(p[0] for r in (rec, traced) for p in r.passes)
            cpu = sum(p[1] for r in (rec, traced) for p in r.passes)
            ctx = Context(table, traced.ops, counts, traced_s / plain_s - 1.0, cpu / wall)
            record["per_layer"], record["coverage"] = layer_metrics(name, ctx)
            OUT.mkdir(exist_ok=True)
            tracer.write_csv(OUT / f"spans-{name}-seed{seed}.csv")
            if digest(workload, traced) != out_digest:
                failures.append("tracing changed the outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m for m, s in record["coverage"].items() if s.startswith("MISSING")]
    failures += [f"{m}: {record['coverage'][m]}" for m in missing]
    record.update(
        counts=counts,
        digest=out_digest,
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        correct=not failures,
    )
    return record


def report(record: dict, trace: bool) -> None:
    m = record["machine"]
    print(f"perfbench workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={int(trace)} passes={record['passes']}")
    print(f"why: {record['why']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} commit={m['commit']}")
    ops, failed = record["attempted"], record["failed"]
    print("end-to-end" + (" (untraced passes)" if trace else "") + ": host-speed normalized [raw value]")
    for name, metric in record["end_to_end"].items():
        raw = record["end_to_end_raw"][name]["value"]
        print(f"  {name:<14} {metric['value']:.6g} {metric['unit']} [{raw:.6g}]")
    print(f"  {'fail_ratio':<14} {failed / ops:.6g} ({failed} of {ops} operations)")
    print(f"  latency: {record['latency_samples']} samples, one per distinct input")
    print(f"  host kernel: {record['host_kernel_ms_p50']:.4g} ms median, reference {hostspeed.REFERENCE_S * 1e3:.4g} ms")
    print("counts: " + " ".join(f"{k}={v}" for k, v in record["counts"].items()))
    print(f"digest: {record['digest']}")
    if trace:
        print("per-layer (traced passes):")
        for name, metric in record["per_layer"].items():
            print(f"  {name:<52} {metric['value']:.6g} {metric['unit']:<6} {record['coverage'][name]}")
        print("layer -> end-to-end metric it should move:")
        for layer, moves in MOVES.items():
            print(f"  {layer:<14} {moves}")
    for message in record["failures"]:
        print("FAILED: " + message.strip().splitlines()[-1])


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repfreq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonneg_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repfreq" / "__init__.py").is_file():
        print(f"error: no repfreq sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
