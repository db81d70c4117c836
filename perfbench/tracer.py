"""In-memory span tracer for the traced benchmark run.

The tracer wraps public repfreq functions from outside the package. Before a
workload starts, :meth:`Tracer.install` replaces each traced function wherever
a ``repfreq.*`` module attribute refers to it. It finds those attributes by an
identity scan, so ``from .linprog import solve_lp`` bindings are caught too.
:meth:`Tracer.uninstall` puts the originals back. The program's source is
never edited.

A span is ``(name, start, end, parent, op, extra)``: ``parent`` is the index of
the enclosing span (-1 for none), ``op`` the benchmark operation that caused
it, and ``extra`` a small per-function summary of the call (see ``EXTRA``).
Private helpers such as ``linprog._run_simplex`` are not traced.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# Public functions timed in the traced run, by repfreq module.
TRACED = {
    "linprog": ("solve_lp",),
    "stage": ("stackelberg", "check_assumptions", "minmax_p1", "vbar_p1"),
    "bounds": ("min_stackelberg_freq", "min_stackelberg_freq_finite", "min_freq_grid"),
    "attain": ("decompose_target",),
    "simulate": ("derive_params", "estimate_frequencies", "simulate_path", "check_incentives"),
    "concentration": ("tail_probability_mc", "tail_exponent"),
    "apps": ("build_stage_game", "closed_form_min_freq"),
    "cli": ("dispatch",),
    "game": ("load_game_file",),
}

OP_SPAN = "op"  # root span the benchmark opens around each operation


def _lp_extra(args, kwargs, result):
    """(variables, constraint rows, optimal) of one ``solve_lp`` call."""
    given = dict(zip(("c", "a_ub", "b_ub", "a_eq", "b_eq"), args))
    given.update(kwargs)
    rows = sum(np.atleast_2d(given[k]).shape[0] for k in ("a_ub", "a_eq") if given.get(k) is not None)
    return (len(given["c"]), rows, result.optimal)


EXTRA = {
    "linprog.solve_lp": _lp_extra,
    "attain.decompose_target": lambda args, kwargs, result: result is not None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    def install(self, package: str = "repfreq") -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for short, names in TRACED.items():
            home = sys.modules[f"{package}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def run_op(self, op: int, fn, *args, **kwargs):
        """Call ``fn`` inside a root span tagged with operation index ``op``."""
        self._op = op
        return self._record(OP_SPAN, fn, None, args, kwargs)

    def _wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, extra, args, kwargs)

        return traced

    def _record(self, name, fn, extra, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[index] = (name, t0, perf_counter(), parent, self._op, None)
            stack.pop()
            raise
        t1 = perf_counter()
        stack.pop()
        spans[index] = (name, t0, t1, parent, self._op, extra(args, kwargs, result) if extra else None)
        return result

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{op}\n")


class SpanTable:
    """Read-only view of finished spans: durations, self times, ancestry."""

    def __init__(self, spans: list[tuple], op_attrs: list[dict]) -> None:
        self.spans = spans
        self.op_attrs = op_attrs
        self.by_name: dict[str, list[int]] = {}
        child = [0.0] * len(spans)
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_time = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]

    def select(self, name: str, **attrs) -> list[int]:
        """Indices of spans called ``name`` whose operation has ``attrs``."""
        out = []
        for i in self.by_name.get(name, ()):
            op = self.spans[i][4]
            op_attrs = self.op_attrs[op] if op >= 0 else {}
            if all(op_attrs.get(k) == v for k, v in attrs.items()):
                out.append(i)
        return out

    def durations(self, indices: list[int]) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in indices]

    def descendants_named(self, ancestors: list[int], name: str) -> int:
        """Number of ``name`` spans nested anywhere below the given spans."""
        wanted = set(ancestors)
        count = 0
        for i in self.by_name.get(name, ()):
            parent = self.spans[i][3]
            while parent >= 0:
                if parent in wanted:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count
