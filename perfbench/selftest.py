"""Self-test of the benchmark at smoke size (word lengths of at most 8).

    python3 perfbench/selftest.py

Checks that every workload runs and reports exactly the metrics that
BENCHMARK.json names, that traced and untraced runs make the same calls
with the same arguments, that the gate flags a tampered record and a PASS
of the inversion-parity ceiling, that the seed alone fixes the inputs, and
that the benchmark refuses to run without the delsub sources.  Exits 0
when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def _run(cwd, workload: str, trace: int, seed: int = 5) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


def check_runs(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        logs = {}
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, out = _run(run.ROOT, workload, trace)
            line = json.loads(out.strip().splitlines()[-1])
            expect(code == 0 and line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{workload} trace {trace}: exit 0, correct, nothing failed")
            expect(sorted(line) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace {trace}: result keys")
            expect({k: v["unit"] for k, v in line["metrics"].items()}
                   == {m["name"]: m["unit"] for m in listed},
                   f"{workload} trace {trace}: metric names and units match BENCHMARK.json")
            record = json.loads((run.WORK / f"record-{workload}-seed5-trace{trace}.json").read_text())
            logs[trace] = record["call_log_sha256"]
        expect(logs[0] == logs[1], f"{workload}: traced and untraced runs make the same calls")


def check_gate() -> None:
    run._import_delsub()
    import gate
    import workloads

    records = gate.load()
    with tempfile.TemporaryDirectory(dir=run.HERE) as scratch:
        wl, _ = workloads.build("exhaustive-j1", 0, "smoke", scratch, records)
        inv = next(op for op in wl.ops if op.args[:1] == ("inv",))
        report = inv.call()
        expect(inv.check(report) == [], "gate passes the recorded inv FAIL")

        tampered = copy.deepcopy(records)
        tampered[inv.key]["extremal_observed"] += 1
        wl_t, _ = workloads.build("exhaustive-j1", 0, "smoke", scratch, tampered)
        op_t = next(op for op in wl_t.ops if op.key == inv.key)
        expect(op_t.check(report) != [], "gate flags a tampered extremal value")

        tampered = copy.deepcopy(records)
        tampered[inv.key]["counterexamples"].pop()
        wl_t, _ = workloads.build("exhaustive-j1", 0, "smoke", scratch, tampered)
        op_t = next(op for op in wl_t.ops if op.key == inv.key)
        expect(op_t.check(report) != [], "gate flags a changed counterexample count")

        passed = copy.deepcopy(report)
        passed.status = "PASS"
        passed.counterexamples = []
        expect(inv.check(passed) != [], "gate flags a PASS of the inv ceiling")

        report.detail["violations"] = 7
        expect(inv.check(report) == [], "gate ignores a field the record lacks")

        first, _ = workloads.build("codes-decode", 11, "smoke", scratch, records)
        again, _ = workloads.build("codes-decode", 11, "smoke", scratch, records)
        other, _ = workloads.build("codes-decode", 12, "smoke", scratch, records)
        calls = [[op.describe() for op in w.ops] for w in (first, again, other)]
        expect(calls[0] == calls[1] and calls[0] != calls[2], "the seed alone fixes the inputs")


def check_bare(bench: dict) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        code, out = _run(bare, bench["workloads"][0]["name"], 0)
        expect(code != 0 and '"correct"' not in out,
               "without delsub sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_runs(bench)
    check_gate()
    check_bare(bench)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
