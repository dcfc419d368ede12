"""Microseconds per pair of the claim-table and structured-family checkers.

Times ``verify._structured_chunk(kind, depth, n, params, lo, hi)`` for every
structured kind at both check depths ("full" runs the claim-table checker,
"ceiling" the size checks) at n = 11 and n = 14, and the claim tables'
identity sweep ``verify._identity_chunk(n, lo, hi)`` over every pair at
n = 10 (kind "identity", depth "all-pairs"; its mask tables are built before
timing).  It writes one row per measured source tree to
``BENCH_structured_kernel.json`` at the repository root.  A row is keyed by
the git revision of the tree, so running the script once against a parent
checkout (``--src``) and once against this one leaves a before/after pair.
Standard library only; run from anywhere:

    python3 benchmarks/kernels.py [--src PATH/TO/src]

Each (n, kind) walks up to four evenly spaced windows of 64 pairs for every
parameter tuple of the family, the same windows at both depths, five times;
a row keeps the median and every repeat.  The hash seed is fixed to 1
(structured timings move with it), so the script re-runs itself under
PYTHONHASHSEED=1 when started with another seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_structured_kernel.json"
LENGTHS = (11, 14)
IDENTITY_N = 10
DEPTHS = ("full", "ceiling")
WINDOWS = 4
WINDOW_PAIRS = 64
REPEATS = 5


def _git(src: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _windows(verify, kind: str, n: int) -> list[tuple[tuple[int, ...], int, int]]:
    out = []
    for params in verify._family_params(kind, n):
        total = 1 << (n - verify._window(kind, params)[2])
        starts = sorted({i * total // WINDOWS for i in range(WINDOWS)})
        out.extend((params, lo, min(lo + WINDOW_PAIRS, total)) for lo in starts)
    return out


def _row(n: int, kind: str, depth: str, pairs: int, runs: list[float]) -> dict:
    row = {
        "n": n,
        "kind": kind,
        "depth": depth,
        "pairs": pairs,
        "us_per_pair": round(statistics.median(runs), 2),
        "us_per_pair_runs": [round(r, 2) for r in runs],
    }
    print(f"n={n} {kind:8} {depth:9} {pairs:6} pairs {row['us_per_pair']:8.2f} us/pair",
          file=sys.stderr)
    return row


def _measure_identity(verify) -> dict:
    n = IDENTITY_N
    size = 1 << n
    pairs = size * (size - 1) // 2
    verify._WORK["tables"] = {n: verify._tables(n)}
    try:
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            verify._identity_chunk(n, 0, size)
            runs.append((time.perf_counter() - t0) / pairs * 1e6)
    finally:
        verify._WORK.clear()
    return _row(n, "identity", "all-pairs", pairs, runs)


def _measure(verify) -> list[dict]:
    rows = [_measure_identity(verify)]
    for n in LENGTHS:
        for kind in verify._FAMILY_KINDS:
            windows = _windows(verify, kind, n)
            pairs = sum(hi - lo for _, lo, hi in windows)
            for depth in DEPTHS:
                runs = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    for params, lo, hi in windows:
                        verify._structured_chunk(kind, depth, n, params, lo, hi)
                    runs.append((time.perf_counter() - t0) / pairs * 1e6)
                rows.append(_row(n, kind, depth, pairs, runs))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory of the checkout to measure")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "1":
        env = dict(os.environ, PYTHONHASHSEED="1")
        return subprocess.run([sys.executable, *sys.argv], env=env).returncode
    src = args.src.resolve()
    if not (src / "delsub" / "verify.py").is_file():
        ap.error(f"{src} holds no delsub package")
    sys.path.insert(0, str(src))
    from delsub import verify

    rev = _git(src, "rev-parse", "--short", "HEAD")
    if _git(src, "status", "--porcelain", "--", "."):
        rev += "+dirty"
    row = {
        "rev": rev,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.system()} {platform.machine()}",
        "hash_seed": 1,
        "repeats": REPEATS,
        "timings": _measure(verify),
    }
    rows = json.loads(OUT.read_text())["rows"] if OUT.exists() else []
    rows = [r for r in rows if r["rev"] != rev] + [row]
    OUT.write_text(json.dumps({"script": "benchmarks/kernels.py", "rows": rows}, indent=2) + "\n")
    print(f"wrote {rev} to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
