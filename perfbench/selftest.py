#!/usr/bin/env python3
"""Quick self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks, on transport n = 8, clustering of 4 items and nfold-graver n = 8:
every metric named in BENCHMARK.json appears with its unit; layer self
times sum to no more than the traced op time; exact counts and digests
repeat between two runs of one seed; and a deliberately corrupted result
is counted as failed.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile

import benchenv

TOYS = ("transport-2x2-n8", "cluster-2x3-m4", "nfold-graver-n8")


def bench(workload: str, trace: int, seconds: float = 1.0) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(benchenv.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300)
    lines = proc.stdout.splitlines()
    digest = next(ln for ln in lines if ln.startswith("anchor digest"))
    return json.loads(lines[-1]), digest


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(result: dict, spec: list, where: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{where}: run not correct")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    check(got == want, f"{where}: metrics/units {got} != {want}")


def corrupted_runs_fail() -> None:
    """Corrupt every result of each toy workload and require the run's own
    accounting to count every op as failed."""
    benchenv.prepare()
    from run import run_plain
    from workloads import make

    def bad_convex(op):
        def corrupt(inp, span):
            *rest, out = op(inp, span)
            x = (out.x[0] + 1,) + out.x[1:]
            return (*rest, dataclasses.replace(out, x=x))
        return corrupt

    def bad_output(workload, op):
        def corrupt(inp, span):
            rc = op(inp, span)
            with open(workload.output_path, "a", encoding="utf-8") as fh:
                fh.write("0\n")
            return rc
        return corrupt

    for name in TOYS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                         dir=benchenv.ROOT) as workdir:
            workload = make(name, workdir)
            if name.startswith("nfold"):
                workload.op = bad_output(workload, workload.op)
            else:
                workload.op = bad_convex(workload.op)
            _, _, attempted, failed, _ = run_plain(workload, name, 3, 0.5)
        check(attempted >= 1 and failed == attempted,
              f"{name}: corrupted results counted {failed} of {attempted} failed")


def main() -> None:
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    for name in TOYS:
        plain, _ = bench(name, 0)
        check_metrics(plain, spec["end_to_end"], f"{name} --trace 0")
        check(all(v["value"] > 0 for v in plain["metrics"].values()),
              f"{name}: an end-to-end metric is not positive")

        first, digest1 = bench(name, 1)
        second, digest2 = bench(name, 1)
        check_metrics(first, spec["per_layer"], f"{name} --trace 1")
        layer = {k: v["value"] for k, v in first["metrics"].items()}
        self_sum = sum(v for k, v in layer.items()
                       if first["metrics"][k]["unit"] == "s/op" and k != "trace.op_s")
        check(self_sum <= layer["trace.op_s"],
              f"{name}: layer self times {self_sum} exceed op time {layer['trace.op_s']}")
        exact = {k for k, v in first["metrics"].items()
                 if v["unit"] in ("count", "count/op", "ratio")
                 and k != "trace.overhead_ratio"}
        check(all(first["metrics"][k] == second["metrics"][k] for k in exact),
              f"{name}: exact counts differ between two runs")
        check(digest1 == digest2, f"{name}: digests differ between two runs")
        print(f"{name}: ok")
    corrupted_runs_fail()
    print("corrupted results: ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
