"""Run every workload over several seeds and print each metric's spread.

    python3 perfbench/summary.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]

For each workload and metric it prints the median, the quartiles as Python's
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
With ``--out FILE`` the same figures, every value and the machine are also
written as JSON; ``BASELINE.json`` was made that way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = run.ROOT


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results: dict[str, list[dict]] = {}
    table: dict[str, dict] = {}
    ok = True
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = done.stdout.strip().splitlines()
            if not lines:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}, no result\n{done.stderr[-2000:]}")
            line = json.loads(lines[-1])
            ok &= done.returncode == 0 and line["correct"]
            results.setdefault(name, []).append(line)
            print(f"{name} seed {seed}: exit {done.returncode}, correct {line['correct']}, "
                  f"{line['attempted']} attempted, {line['failed']} failed, {took:.1f} s",
                  file=sys.stderr)
        print(f"\n{name} ({len(results[name])} runs)")
        print(f"  {'metric':40} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in results[name][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results[name]]
            unit = results[name][0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            table.setdefault(name, {})[metric] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
            print(f"  {metric:40} {unit:6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "machine": run._machine(), "run_seconds": bench["run_seconds"],
            "seeds": args.seeds, "trace": args.trace, "workloads": table}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
