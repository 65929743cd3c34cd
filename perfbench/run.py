#!/usr/bin/env python3
"""gravopt benchmark: one workload per process, closed loop, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   (every workload in turn)

Run from the root of a checkout; the program is imported from its `src/`.
The process is single-threaded and uses the default RunConfig: every
GRAVOPT_* variable is cleared first (the environment record lists the
ones seen).

--trace 0 prints the end-to-end metrics:
  ops_per_s     ops completed per second of timed op wall time
  setup_s       median over SETUP_PROBES fresh processes of the time from
                process start to the end of `import gravopt` plus one
                warm-up op on a small instance of the same stencil
  peak_rss_mib  peak resident set of this process
The report lines also give op_s_p50, the median op wall time with its
sample count and tail percentile, and fail_ratio (failed / attempted
ops; the final JSON line carries it as `failed` and `attempted`).
op_s_p50 is not in the JSON result: on a host whose speed switches
between states lasting seconds, a run's median lands in one state or the
other, while ops_per_s, a mean over the whole run, moves smoothly with
the share of the run spent in each.

Before timing, the run makes one untimed full-size op on an input
outside the timed sequence, so first-touch costs (memory growth, the
first solve at full size) do not land in the first timed op.  It is
checked and counted in `attempted` like any other op.

--trace 1 runs every op twice, untraced and traced with timing wrappers
around gravopt's module attributes (see spans.py), and prints the
per-layer metrics.  End-to-end numbers come only from --trace 0.

Every op is checked (see workloads.py).  The first `anchor_ops` ops of a
workload are always completed whatever --seconds says, so their combined
result digest and exact work counts repeat for a seed.  Where expected.json
records a digest for the workload (for DEFAULT_SEED, or for every seed when
the input does not depend on it), the run's digest must equal it, so any
change to a result fails the run.  The last line of stdout is the JSON result; the lines
before it are the environment record and a human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import benchenv
from spans import LAYER_UNITS, Tracer, layer_metrics, untraced

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_PROBES = 9


def run_op(workload, inp, span, times: list):
    """One op, timed and checked.  Appends its wall time to `times` and
    returns its digest, or None when it raised or failed its check."""
    try:
        t0 = perf_counter()
        with span("op"):
            result = workload.op(inp, span)
        times.append(perf_counter() - t0)
        return workload.check(inp, result)
    except Exception:  # a failed op is counted and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None


def warm_up_full(workload, seed: int) -> int:
    """One untimed, checked op at full size on input index -1, which the
    timed loop never uses.  Returns 1 when it failed, else 0."""
    return int(run_op(workload, workload.make_input(seed, -1), untraced, []) is None)


def closed_loop(workload, seed: int, seconds: float, body):
    """Call body(i, input) for ops 0, 1, .. until `seconds` of wall time
    have passed, and at least for the anchor ops.  Returns the op count
    and the anchor ops' digests (None for a failed op)."""
    start = perf_counter()
    digests = []
    i = 0
    while i < workload.anchor_ops or perf_counter() - start < seconds:
        digest = body(i, workload.make_input(seed, i))
        if i < workload.anchor_ops:
            digests.append(digest)
        i += 1
    return i, digests


def measure_setup(name: str) -> list:
    """Wall time from spawning a fresh interpreter to the end of its
    warm-up, once per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with code {proc.returncode}")
        out.append(elapsed)
    return out


def percentile_note(times: list) -> str:
    """Sample count, plus the highest of p99/p90 that has at least ten
    samples beyond it."""
    note = f"{len(times)} ops"
    for q in (99, 90):
        if len(times) * (100 - q) / 100 >= 10:
            note += f"; p{q} {statistics.quantiles(times, n=100)[q - 1]:.6f} s"
            break
    return note


def run_plain(workload, name: str, seed: int, seconds: float):
    setup = measure_setup(name)
    workload.warmup()
    failed = warm_up_full(workload, seed)
    times = []

    def body(i, inp):
        nonlocal failed
        digest = run_op(workload, inp, untraced, times)
        failed += digest is None
        return digest

    attempted, digests = closed_loop(workload, seed, seconds, body)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    notes = {"op_s_p50": f"{statistics.median(times):.6g} s  "
                         f"({percentile_note(times)})",
             "setup_s": "probes " + " ".join(f"{s:.4f}" for s in setup)}
    return metrics, notes, attempted + 1, failed, digests


def run_traced(workload, name: str, seed: int, seconds: float):
    """Each op runs twice on one input, untraced and traced, in alternating
    order.  The overhead ratio is the median over ops of traced/untraced
    time, so machine speed drifting during the run cancels out."""
    tracer = Tracer()
    tracer.install()
    workload.warmup()
    tracer.uninstall()
    failed = warm_up_full(workload, seed)
    ratios = []

    def traced_op(inp, times):
        tracer.install()
        try:
            return run_op(workload, inp, tracer.span, times)
        finally:
            tracer.uninstall()

    def body(i, inp):
        nonlocal failed
        tracer.op = i
        plain, traced = [], []
        if i % 2:
            digest = traced_op(inp, traced)
            again = run_op(workload, inp, untraced, plain)
        else:
            digest = run_op(workload, inp, untraced, plain)
            again = traced_op(inp, traced)
        if plain and traced:
            ratios.append(traced[0] / plain[0])
        failed += (digest is None) + (again is None)
        if digest != again and None not in (digest, again):
            failed += 1  # the same input gave two different results
            return None
        return digest

    ops, digests = closed_loop(workload, seed, seconds, body)
    values = layer_metrics(tracer, ops, workload.anchor_ops)
    values["trace.overhead_ratio"] = statistics.median(ratios)
    metrics = {k: (v, LAYER_UNITS[k]) for k, v in sorted(values.items())}
    notes = {"trace.overhead_ratio": f"median of {len(ratios)} op pairs"}
    return metrics, notes, 2 * ops + 1, failed, digests


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, each in its own process; report
    lines are prefixed with the workload name, and the last line maps
    each name to its result."""
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    results = {}
    for item in spec["workloads"]:
        name = item["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *report, last = proc.stdout.splitlines()
        for line in report:
            print(f"{name}: {line}")
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                        "in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    gravopt_seen = benchenv.prepare()

    from workloads import TOY_WORKLOADS, WORKLOADS, make
    if args.workload not in WORKLOADS and args.workload not in TOY_WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(sorted(WORKLOADS) + sorted(TOY_WORKLOADS)))
    print(json.dumps({"environment": benchenv.environment(gravopt_seen)}))

    run = run_traced if args.trace else run_plain
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=benchenv.ROOT) as workdir:
        metrics, notes, attempted, failed, digests = run(
            make(args.workload, workdir), args.workload, args.seed, args.seconds)

    anchor = hashlib.sha256(repr(digests).encode()).hexdigest()
    print(f"anchor digest {anchor} over the first {len(digests)} ops")
    correct = failed == 0 and None not in digests
    want = json.loads((HERE / "expected.json").read_text()).get(args.workload)
    if want is not None and (args.seed == DEFAULT_SEED or want["seed_free"]):
        match = want["digest"] == anchor
        correct = correct and match
        print(f"expected digest: {'match' if match else 'MISMATCH'}")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {value:.6g} {unit}{note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"{key} {note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
