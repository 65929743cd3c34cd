"""In-memory span recorder that times gravopt's layers from outside.

Tracing replaces module attributes with timing wrappers; nothing inside
src/gravopt changes.  `convexopt`, `ipsolve`, `cli` and `zonotope` bind
the names they call at import time, so each wrapper replaces the name in
the module that calls it (wrapping `gravopt.ipsolve.augment_to_optimum`
alone would miss every phase-II call, which goes through
`gravopt.convexopt`).

A span is [name, start, end, parent index, op id, info]; `info` holds
what the metrics need from the call's result.  Spans stay in memory and
are reduced to per-layer numbers after the run.  A span's self time is
its duration minus its children's durations (single thread, so children
never overlap).
"""

from __future__ import annotations

import importlib
import math
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, OP, INFO = range(6)


def _size(args, result):
    return len(result)


def _basis(args, result):
    stencil, n = args[0], args[1]
    return (len(result), stencil, n)


def _phase2(args, result):
    return result.x


def _hit(args, result):
    return result is not None


def _value(args, result):
    return result


# (module, attribute, span name, info extractor)
WRAPPED = (
    ("gravopt.convexopt", "nfold_graver", "nfold.basis", _basis),
    ("gravopt.convexopt", "project_directions", "convexopt.project", _size),
    ("gravopt.convexopt", "zonotope_vertices", "zonotope.enum", _size),
    ("gravopt.convexopt", "augment_to_optimum", "ipsolve.phase2", _phase2),
    ("gravopt.ipsolve", "solve_integer", "intlinalg.lattice", None),
    ("gravopt.ipsolve", "drive_nonnegative", "ipsolve.phase1", None),
    ("gravopt.nfold", "graver_basis", "graver.completion", None),
    ("gravopt.nfold", "graver_complexity", "nfold.complexity", _value),
    ("gravopt.zonotope", "find_interior_direction", "ratlp.probe", _hit),
    ("gravopt.cli", "nfold_graver", "nfold.basis", _basis),
    ("gravopt.cli", "format_matrix", "intlinalg.format", None),
)


def untraced(name):
    """The span factory used when tracing is off."""
    return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None  # current op id; None while warming up
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name):
        """Record the enclosed block as a span; yields the span record."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, info):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if info is not None:
                rec[INFO] = info(args, result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, name, info in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, info))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]


# per-op self time (s) of each layer: metric -> span names
_SELF_TIMES = {
    "ipsolve.phase2_s": ("ipsolve.phase2",),
    "ipsolve.phase1_s": ("ipsolve.phase1",),
    "intlinalg.lattice_s": ("intlinalg.lattice",),
    "intlinalg.format_s": ("intlinalg.format",),
    "zonotope.enum_s": ("zonotope.enum",),
    "ratlp.probe_s": ("ratlp.probe",),
    "nfold.basis_s": ("nfold.basis", "nfold.complexity"),
    "cli.self_s": ("cli",),
    "convexopt.project_s": ("convexopt.project",),
    "convexopt.self_s": ("convexopt",),
    "apps.build_s": ("apps.build",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, anchor_ops: int) -> dict:
    """Reduce the spans of a traced pass to per-layer numbers.

    Times are self times per op, averaged over all `n_ops` traced ops.
    Counts are per-op means over the first `anchor_ops` ops, which every
    run completes, so they repeat exactly for a seed.  Graver completion
    is summed over the warm-up and the anchor ops: the warm-up is where
    the caches fill.  Call after `uninstall`.
    """
    from gravopt.nfold import brick_type, nfold_graver  # after benchenv.prepare()

    spans = tracer.spans
    own = tracer.self_times()
    anchor = set(range(anchor_ops))
    lifted_g = {}
    for rec in spans:
        if rec[NAME] == "nfold.complexity" and rec[PARENT] >= 0:
            lifted_g[rec[PARENT]] = rec[INFO]

    placements_memo = {}

    def placements(stencil, n, g):
        key = (stencil, n, g)
        if key not in placements_memo:
            base = nfold_graver(stencil, g)
            placements_memo[key] = sum(
                math.comb(n, brick_type(e, g, stencil.t)) for e in base)
        return placements_memo[key]

    time_of = {}
    layer = {name: metric for metric, names in _SELF_TIMES.items()
             for name in names}
    op_total = 0.0
    phase2_time = phase2_calls_all = 0
    completion_s = completion_calls = 0
    counts = {"phase2": 0, "vertices": 0, "probes": 0, "hits": 0, "basis": 0,
              "lifted": 0, "placements": 0, "directions": 0, "distinct": 0}
    optima = {}
    for idx, (rec, self_s) in enumerate(zip(spans, own)):
        name, op, info = rec[NAME], rec[OP], rec[INFO]
        if name == "graver.completion" and (op is None or op in anchor):
            completion_s += self_s
            completion_calls += 1
        if op is None:
            continue
        if name == "op":
            op_total += rec[END] - rec[START]
        if name in layer:
            time_of[layer[name]] = time_of.get(layer[name], 0.0) + self_s
        if name == "ipsolve.phase2":
            phase2_time += self_s
            phase2_calls_all += 1
        if op not in anchor:
            continue
        if name == "ipsolve.phase2":
            counts["phase2"] += 1
            optima.setdefault(op, set()).add(info)
        elif name == "zonotope.enum":
            counts["vertices"] += info
        elif name == "convexopt.project":
            counts["directions"] += info
        elif name == "ratlp.probe":
            counts["probes"] += 1
            counts["hits"] += info
        elif name == "nfold.basis":
            size, stencil, n = info
            counts["basis"] += size
            g = lifted_g.get(idx)
            if g is not None and g < n:
                counts["lifted"] += size
                counts["placements"] += placements(stencil, n, g)
    counts["distinct"] = sum(len(xs) for xs in optima.values())

    out = {metric: time_of.get(metric, 0.0) / n_ops for metric in _SELF_TIMES}
    out.update({
        "ipsolve.phase2_s_per_call": _ratio(phase2_time, phase2_calls_all),
        "ipsolve.phase2_calls": counts["phase2"] / anchor_ops,
        "zonotope.vertices": counts["vertices"] / anchor_ops,
        "ratlp.probes": counts["probes"] / anchor_ops,
        "ratlp.probe_hit_ratio": _ratio(counts["hits"], counts["probes"]),
        "nfold.basis_size": counts["basis"] / anchor_ops,
        "nfold.lift_placements": counts["placements"] / anchor_ops,
        "nfold.lift_dedupe_ratio": _ratio(counts["lifted"],
                                          counts["placements"]),
        "graver.completion_s": completion_s,
        "graver.completion_calls": completion_calls,
        "convexopt.directions": counts["directions"] / anchor_ops,
        "convexopt.distinct_optima_ratio": _ratio(counts["distinct"],
                                                  counts["phase2"]),
        "trace.op_s": op_total / n_ops,
    })
    return out


LAYER_UNITS = {
    **{metric: "s/op" for metric in _SELF_TIMES},
    "ipsolve.phase2_s_per_call": "s/call",
    "ipsolve.phase2_calls": "count/op",
    "zonotope.vertices": "count/op",
    "ratlp.probes": "count/op",
    "ratlp.probe_hit_ratio": "ratio",
    "nfold.basis_size": "count/op",
    "nfold.lift_placements": "count/op",
    "nfold.lift_dedupe_ratio": "ratio",
    "graver.completion_s": "s",
    "graver.completion_calls": "count",
    "convexopt.directions": "count/op",
    "convexopt.distinct_optima_ratio": "ratio",
    "trace.op_s": "s/op",
    "trace.overhead_ratio": "ratio",
}
