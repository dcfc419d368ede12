"""delsub benchmark: run one workload and print its metrics as JSON.

Run from the root of a delsub checkout:

    python3 perfbench/run.py --workload exhaustive-j1 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
delsub is imported from the checkout's ``src`` directory, never from an
installed copy.  The full record of a run (machine, inputs, workload
properties, every metric) goes to ``perfbench/.work``.  See
``perfbench/README.md`` for the workloads and metrics.

The measuring is done in fresh worker interpreters, one after another, each
with its own fixed ``PYTHONHASHSEED``: the speed of delsub's set-heavy code
depends on the hash seed by up to a quarter, so a run averages over a fixed
set of seeds instead of drawing one at random.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# worker interpreters that measure, one after another, and the extra ones
# that only set up; setup_s is the median set-up time over all of them
MEASURE_WORKERS = 3
SETUP_ONLY_WORKERS = 2
# a run ends within this many seconds or fails without a result
RUN_TIMEOUT_S = 170

VERIFY_TARGETS = ("intersection_bounds", "bad_count", "code_theorem",
                  "claim_tables", "structured_bounds", "reconstruction")
CALL_COUNTED = ("words.vt_syndrome", "words.inversion_number",
                "words.max_le2_periodic_length", "codes.contains",
                "balls.preimage_ball", "balls.ds_ball",
                "reconstruct.decode", "reconstruct.collect_reads")
MODULES = ("verify", "codes", "words", "balls", "reconstruct", "cli")
WORKLOADS = ("exhaustive-j1", "exhaustive-j2", "structured", "codes-decode")


def _require_sources() -> None:
    if not (SRC / "delsub" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no delsub sources at {SRC}; run from a delsub checkout")


def _import_delsub() -> None:
    """Put the checkout's sources first on the path and check they are used."""
    _require_sources()
    sys.path.insert(0, str(SRC))
    import delsub

    if Path(delsub.__file__).resolve().parent != SRC / "delsub":
        raise SystemExit(f"perfbench: imported delsub from {delsub.__file__}, not {SRC}")


@contextlib.contextmanager
def _scratch_dir() -> Iterator[str]:
    """A directory for files the calls read, removed afterwards."""
    path = WORK / f"scratch-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _setup(name: str, seed: int, size: str, scratch: str) -> Any:
    """Import, make the inputs from the seed and warm the mask tables."""
    _import_delsub()
    import gate
    import workloads

    wl, warm = workloads.build(name, seed, size, scratch, gate.load())
    for fn, args in warm:
        fn(*args)
    return wl


# --------------------------------------------------------------- worker side

def _round(wl: Any, sampler: Any, tracer: Any) -> dict[str, Any]:
    """One pass over the workload's calls; checks run outside the timed calls.

    Each call's time is its wall time less the time the speed sampler's
    handler took inside it, rescaled to nominal speed with the speed samples
    of the whole round.
    """
    import workloads

    wall = checks = verify_s = 0.0
    failed = 0
    problems: list[str] = []
    latencies: dict[str, list[float]] = {}
    calls = []
    layers: dict[str, list] = {}  # layer -> [seconds, pairs checked, words scanned]
    start = sampler.mark()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    for op in wl.ops:
        # the scratch directory is named after the process; the call is not
        calls.append(op.describe().replace(wl.scratch, "<scratch>"))
        h0 = sampler.handler_s
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                result = tracer.call(op.layer, op.fn, op.args, op.kwargs)
            found = None
        except Exception:  # a call that raises is a failed operation
            result, found = None, [f"{op.describe()} raised:\n{traceback.format_exc()[-2000:]}"]
        dt = time.perf_counter() - t0 - (sampler.handler_s - h0)
        wall += dt
        found = found or op.check(result)
        if found:
            failed += 1
            problems.extend(found)
            continue
        workloads.record_properties(wl, result)
        pairs = getattr(result, "pairs_checked", 0)
        if op.layer.startswith("verify."):
            checks += pairs
            verify_s += dt
        if op.layer == "reconstruct.decode":
            latencies.setdefault(op.inputs["setting"], []).append(dt)
        entry = layers.setdefault(op.layer, [0.0, 0, 0])
        entry[0] += dt
        entry[1] += pairs
        entry[2] += op.inputs.get("words_scanned", 0)
    factor = sampler.factor(start)
    done = resource.getrusage(resource.RUSAGE_CHILDREN)
    # CPU time of the pool workers the verifiers forked and reaped in this round
    worker_cpu = (done.ru_utime + done.ru_stime) - (children.ru_utime + children.ru_stime)
    if tracer is not None:
        tracer.rescale(factor)
    for entry in layers.values():
        entry[0] *= factor
    return {"wall": wall * factor, "raw_wall": wall, "speed_factor": factor,
            "checks": checks, "verify_s": verify_s * factor, "raw_verify_s": verify_s,
            "worker_cpu_s": worker_cpu, "ops": len(wl.ops),
            "failed": failed, "problems": problems, "layers": layers,
            "call_log": hashlib.sha256("\n".join(calls).encode()).hexdigest(),
            "latencies": {k: [v * factor for v in vs] for k, vs in latencies.items()}}


def _loop(seconds: float, body: Any) -> list[Any]:
    """Repeat body while another pass is expected to end near the deadline."""
    out, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(body())
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + 0.5 * statistics.median(took) > seconds:
            return out


def _timed_setup(args: argparse.Namespace, sampler: Any, scratch: str) -> tuple[Any, dict[str, float]]:
    start = sampler.mark()
    h0 = sampler.handler_s
    t0 = time.perf_counter()
    wl = _setup(args.workload, args.seed, "smoke" if args.smoke else "full", scratch)
    raw = time.perf_counter() - t0 - (sampler.handler_s - h0)
    factor = sampler.factor(start)
    return wl, {"setup_s": raw * factor, "raw_setup_s": raw, "speed_factor": factor}


def worker(args: argparse.Namespace) -> dict[str, Any]:
    """Set up, then measure rounds for args.seconds; return everything measured."""
    import speed

    sampler = speed.Sampler()
    sampler.start()
    try:
        with _scratch_dir() as scratch:
            wl, setup = _timed_setup(args, sampler, scratch)
            if args.setup_only:
                return {"setup": setup}
            if not args.trace:
                rounds = _loop(args.seconds, lambda: _round(wl, sampler, None))
                return {"setup": setup, "rounds": rounds, "traced": [],
                        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "inputs": [op.inputs for op in wl.ops], "properties": wl.properties}

            import tracing

            # span times leave out the sampler's handler, as the call times do
            tracer = tracing.Tracer(clock=lambda: time.perf_counter() - sampler.handler_s)

            def pair() -> tuple[dict[str, Any], dict[str, Any]]:
                plain = _round(wl, sampler, None)
                tracer.install()
                try:
                    return plain, _round(wl, sampler, tracer)
                finally:
                    tracer.uninstall()

            pairs = _loop(args.seconds, pair)
            tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}-worker{args.worker}.json"))
            return {"setup": setup, "rounds": [p[0] for p in pairs], "traced": [p[1] for p in pairs],
                    "totals": tracer.totals,
                    "inputs": [op.inputs for op in wl.ops], "properties": wl.properties}
    finally:
        sampler.stop()


# --------------------------------------------------------------- parent side

def _spawn(args: argparse.Namespace, index: int, seconds: float, setup_only: bool,
           deadline: float) -> dict[str, Any]:
    """Run one worker interpreter with hash seed index + 1 and read its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--worker", str(index)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker {index} failed (exit {done.returncode}):\n"
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99, p90 and p50 that has at least ten samples beyond it."""
    ordered = sorted(values)
    q = next((q for q in (0.99, 0.9) if len(ordered) * (1 - q) >= 10), 0.5)
    return f"ms_p{round(100 * q)}", 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _end_to_end(parts: list[dict[str, Any]], setup: list[float]) -> dict[str, Any]:
    """Times are medians over the rounds of all measuring workers together."""
    rounds = [r for p in parts for r in p["rounds"]]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
        "checks_per_s": {"value": statistics.median(
            r["checks"] / r["verify_s"] if r["verify_s"] else 0.0 for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in parts), "unit": "MB"},
    }


def _sum_rows(tables: Any) -> dict[str, list]:
    """Add up {name: [numbers]} tables element by element."""
    out: dict[str, list] = {}
    for table in tables:
        for name, values in table.items():
            row = out.setdefault(name, [0] * len(values))
            for i, v in enumerate(values):
                row[i] += v
    return out


def _per_layer(parts: list[dict[str, Any]]) -> dict[str, Any]:
    traced = [r for p in parts for r in p["traced"]]
    plain = [r for p in parts for r in p["rounds"]]
    rounds = len(traced)
    traced_wall = sum(r["wall"] for r in traced)
    stats = _sum_rows(r["layers"] for r in traced)
    totals = _sum_rows(p["totals"] for p in parts)
    properties = parts[0]["properties"]
    m: dict[str, tuple[float, str]] = {}

    verify_rows = [v for k, v in stats.items() if k.startswith("verify.")]
    v_s = sum(v[0] for v in verify_rows)
    v_pairs = sum(v[1] for v in verify_rows)
    m["verify.s"] = (v_s / rounds, "s")
    m["verify.pairs_checked"] = (v_pairs // rounds, "count")
    m["verify.us_per_pair"] = (1e6 * v_s / v_pairs if v_pairs else 0.0, "us")
    m["verify.shared_pair_share"] = (properties.get("shared_pair_share", 0.0), "ratio")
    # CPU time of the forked pool as a share of what two cores give in the verifier calls
    worker_cpu = sum(r["worker_cpu_s"] for r in traced)
    raw_verify_s = sum(r["raw_verify_s"] for r in traced)
    m["verify.core_utilisation"] = (worker_cpu / (2 * raw_verify_s) if raw_verify_s else 0.0, "ratio")
    for target in VERIFY_TARGETS:
        seconds, pairs, _ = stats.get(f"verify.{target}", (0.0, 0, 0))
        m[f"verify.{target}.pairs_per_s"] = (pairs / seconds if seconds else 0.0, "1/s")
        m[f"verify.{target}.share"] = (seconds / traced_wall, "ratio")
    for op in ("best_coset", "size"):
        seconds, _, words = stats.get(f"codes.{op}", (0.0, 0, 0))
        m[f"codes.{op}.words_per_s"] = (words / seconds if seconds else 0.0, "1/s")
        m[f"codes.{op}.share"] = (seconds / traced_wall, "ratio")
    for name in CALL_COUNTED:
        calls, total, _ = totals.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls // rounds, "count")
        m[f"{name}.per_s"] = (calls / total if total else 0.0, "1/s")
    m["reconstruct.survivors_first_read"] = (properties.get("survivors_first_read", 0.0), "count")
    _, cli_total, cli_self = totals.get("cli.decode", (0, 0.0, 0.0))
    inner = cli_total - cli_self
    m["cli.decode.overhead_ratio"] = (cli_self / inner if inner else 0.0, "ratio")
    for module in MODULES:
        module_self = sum(v[2] for k, v in totals.items() if k.startswith(module + "."))
        m[f"{module}.share"] = (module_self / traced_wall, "ratio")
    # both in nominal seconds, so that load outside the process cancels
    m["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                             - statistics.median(r["wall"] for r in plain), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _machine() -> dict[str, Any]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "delsub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _latency_summary(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    merged: dict[str, list[float]] = {}
    for r in rounds:
        for setting, values in r["latencies"].items():
            merged.setdefault(setting, []).extend(values)
    return {setting: dict([("samples", len(v)), ("ms_p50", 1e3 * statistics.median(v)), _tail(v)])
            for setting, v in merged.items()}


def measure(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload in worker interpreters; return the result line and the full record."""
    _require_sources()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    share = args.seconds / MEASURE_WORKERS
    parts = [_spawn(args, i, share, False, deadline) for i in range(MEASURE_WORKERS)]
    setup = [p["setup"] for p in parts]
    if args.trace:
        metrics = _per_layer(parts)
    else:
        setup += [_spawn(args, i, share, True, deadline)["setup"]
                  for i in range(MEASURE_WORKERS, MEASURE_WORKERS + SETUP_ONLY_WORKERS)]
        metrics = _end_to_end(parts, [s["setup_s"] for s in setup])

    rounds = [r for p in parts for r in p["rounds"] + p["traced"]]
    failed = sum(r["failed"] for r in rounds)
    logs = {r["call_log"] for r in rounds}
    result = {
        "correct": failed == 0 and len(logs) == 1,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    plain = [r for p in parts for r in p["rounds"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "workers": MEASURE_WORKERS,
        "rounds": len(rounds),
        "round_wall_s": [[r["wall"] for r in p["rounds"]] for p in parts],
        "round_raw_wall_s": [[r["raw_wall"] for r in p["rounds"]] for p in parts],
        "round_speed_factor": [[r["speed_factor"] for r in p["rounds"]] for p in parts],
        "setup": setup,
        "worker_cpu_s_per_round": statistics.median(r["worker_cpu_s"] for r in plain),
        "ops_failed_ratio": failed / result["attempted"],
        "problems": [x for r in rounds for x in r["problems"]][:20],
        "calls": parts[0]["inputs"],
        "call_log_sha256": sorted(logs),
        "properties": parts[0]["properties"],
        "decode_latency": _latency_summary(plain),
        "result": result,
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="word lengths of at most 8, for the self-test")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker is not None:
        print(json.dumps(worker(args)))
        return 0

    result, record = measure(args)
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "properties",
                                             "decode_latency", "ops_failed_ratio", "problems")}),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
