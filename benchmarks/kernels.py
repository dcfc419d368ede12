"""Microseconds per pair of the all-pairs sweeps, the claim-table and
structured-family checkers and the code checks, parent tree against this one.

The call cells (depth "call") time the public structured calls whole at
``jobs=1``: ``verify_claim_tables(10)`` (kind "claim-tables") and
``verify_intersection_bounds(n, structured=True)`` at n = 11 and 14 (kind
"structured-bounds"), each once untimed and then CALL_REPEATS times in a
row; their "pairs" is the report's pairs_checked and "s" the seconds per
call.  The all-pairs cells time the public calls, since the two trees'
sweep chunks need not share a signature: ``verify_intersection_bounds(n)``
(kind "bounds") and ``verify_bad_count(n)`` (kind "bad-count", convention
"pre") at n = 8..12, and the claim tables' identity sweep (kind
"identity") as ``verify_claim_tables(10)`` with the structured family tasks
left out (``verify._family_tasks`` returns none), which sweeps every pair
at n = 2..10.  Each is timed three times in a row: the first call at
``jobs=1`` (depth "jobs=1 first", which pays what a tree computes once per
length on its first sweep), then again at ``jobs=1`` and at ``jobs=2``.  The
worker fills the mask-table cache ``verify._tables(n)``, its column masks,
``verify._dels_by_position(n)`` and the witness summaries
``verify._witness_summaries(n)`` before timing, and hashes each canonical
report.  The bounds and identity cells at n = 10 also record, from one
untimed ``jobs=1`` call that wraps ``verify._walk_mask``, how many pairs
the row walk sent through the per-pair checks; a route that stands for
several pairs with one visit walks fewer.  Their "pairs" is every pair
of the sweep, as in the report, so that us per pair compares the trees'
wall times.  Each structured window cell (n, kind) walks up to four
evenly spaced windows of 64 pairs for every parameter tuple of the family,
at n = 11 and n = 14, through
``verify._structured_chunk(kind, depth, n, params, lo, hi)`` at both check
depths ("full" runs the claim-table checker, "ceiling" the size checks),
the same windows at both depths, REPEATS times over, so that one timing
of the fastest structured cell lasts about 0.1 s or more.  The code-check
cells (kind: the theorem id, depth "code-check") time one
``verify._code_chunk(theorem_id, n, cosets)`` call over every coset of the
check's family, listed before timing as ``verify_code_theorem`` lists them
(ascending members, sorted keys), at n = 12 for inv, c2n9, vt and cn21 and
at n = 13 for inv; their pairs are the pairs inside the cosets.  The two
source trees are measured in interleaved rounds (``rounds.py``), one
timing per cell per round; the output keeps, per tree, every round, the
median and the minimum, and per sweep and length the median over rounds of
the jobs=1 over jobs=2 time ratio.  It writes
``BENCH_structured_kernel.json`` at the repository root, or the file
``--out`` names.  Standard library only:

    python3 benchmarks/kernels.py --src PATH/TO/PARENT/src
    python3 benchmarks/kernels.py --src PATH/TO/PARENT/src --out BENCH_structured_orbit.json

The worker also hashes every result, with dict keys sorted as the reports
sort them; the script fails if the two trees disagree on one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import rounds

OUT = rounds.ROOT / "BENCH_structured_kernel.json"
LENGTHS = (11, 14)
# the all-pairs sweeps timed per length, and the length of the identity
# cell and of the walked-pair counts
SWEEP_LENGTHS = range(8, 13)
ALL_PAIRS_N = 10
CODE_CELLS = (("inv", 12), ("c2n9", 12), ("vt", 12), ("cn21", 12), ("inv", 13))
DEPTHS = ("full", "ceiling")
# (kind, n, verifier, keywords) of the public structured calls timed whole at
# jobs=1: the calls of the perfbench structured workload, and the structured
# bounds at a length where the walk dominates
CALLS = (
    ("claim-tables", 10, "verify_claim_tables", {}),
    ("structured-bounds", 11, "verify_intersection_bounds", {"structured": True}),
    ("structured-bounds", 14, "verify_intersection_bounds", {"structured": True}),
)
CALL_REPEATS = 3
WINDOWS = 4
WINDOW_PAIRS = 64
# one pass over a structured cell's windows takes 40-75 ms at ceiling depth
# on a 2-core x86_64 machine, short enough for load to move it by up to 21 %
# between rounds
REPEATS = 4
ROUNDS = 7


def _windows(verify, kind: str, n: int) -> list[tuple[tuple[int, ...], int, int]]:
    out = []
    for params in verify._family_params(kind, n):
        total = 1 << (n - verify._window(kind, params)[2])
        starts = sorted({i * total // WINDOWS for i in range(WINDOWS)})
        out.extend((params, lo, min(lo + WINDOW_PAIRS, total)) for lo in starts)
    return out


def _cosets(verify, theorem_id: str, n: int) -> list[list[int]]:
    family = verify.CODE_CHECKS[theorem_id].family
    cosets = getattr(verify.codes, "cosets", None)
    if cosets is not None:
        buckets = cosets(family, n)[0]
    else:  # a tree from before codes.cosets
        key_of, _ = verify.codes.coset_key(family, n)
        buckets = {}
        for x in range(1 << n):
            key = key_of(verify.to_word(x, n))
            if key is not None:
                buckets.setdefault(key, []).append(x)
    return [buckets[key] for key in sorted(buckets)]


def _walked_pairs(verify, call) -> int:
    """The pairs call(jobs=1) sends through the per-pair checks of its row
    walk."""
    walk_mask = verify._walk_mask
    walked = 0

    def counted(*args):
        nonlocal walked
        mask = walk_mask(*args)
        walked += mask.bit_count()
        return mask

    verify._walk_mask = counted
    try:
        call(jobs=1)
    finally:
        verify._walk_mask = walk_mask
    return walked


def _sweep_cells(verify, kind: str, n: int, pairs: int, call, digest) -> list[tuple]:
    """Three timed calls call(jobs=...) as (n, kind, depth, pairs, pairs
    walked or None, us per pair) cells, each canonical report hashed."""
    timed = []
    for depth, jobs in (("jobs=1 first", 1), ("jobs=1", 1), ("jobs=2", 2)):
        t0 = time.perf_counter()
        report = call(jobs=jobs)
        seconds = time.perf_counter() - t0
        digest.update(report.to_json().encode())
        timed.append((depth, seconds / pairs * 1e6))
    walked = _walked_pairs(verify, call) if n == ALL_PAIRS_N and kind != "bad-count" else None
    return [(n, kind, depth, pairs, walked, us) for depth, us in timed]


def _call_cells(verify, digest) -> list[tuple]:
    """The public structured calls of CALLS, each timed CALL_REPEATS times
    in a row after one untimed call, as (n, kind, "call", pairs checked,
    None, us per pair) cells; each canonical report hashed."""
    cells = []
    for kind, n, name, keywords in CALLS:
        call = getattr(verify, name)
        report = call(n, **keywords)
        digest.update(report.to_json().encode())
        t0 = time.perf_counter()
        for _ in range(CALL_REPEATS):
            call(n, **keywords)
        seconds = (time.perf_counter() - t0) / CALL_REPEATS
        pairs = report.pairs_checked
        cells.append((n, kind, "call", pairs, None, seconds / pairs * 1e6))
    return cells


def _worker(src: str) -> dict:
    """One timing per cell: (n, kind, depth, pairs timed, pairs walked one
    by one or None, us per pair)."""
    sys.path.insert(0, src)
    from delsub import verify

    digest = hashlib.sha256()
    cells = _call_cells(verify, digest)
    for n in SWEEP_LENGTHS:
        size = 1 << n
        pairs = size * (size - 1) // 2
        verify._tables(n).columns()
        verify._dels_by_position(n)
        verify._witness_summaries(n)
        cells += _sweep_cells(verify, "bounds", n, pairs,
                              lambda jobs: verify.verify_intersection_bounds(n, jobs=jobs), digest)
        cells += _sweep_cells(verify, "bad-count", n, pairs,
                              lambda jobs: verify.verify_bad_count(n, jobs=jobs), digest)
    n = ALL_PAIRS_N
    for k in range(2, n + 1):
        verify._tables(k).columns()
    family_tasks = verify._family_tasks
    verify._family_tasks = lambda kind, depth, n: []
    try:
        pairs = sum((1 << k) * ((1 << k) - 1) // 2 for k in range(2, n + 1))
        cells += _sweep_cells(verify, "identity", n, pairs,
                              lambda jobs: verify.verify_claim_tables(n, jobs=jobs), digest)
    finally:
        verify._family_tasks = family_tasks
    for theorem_id, n in CODE_CELLS:
        cosets = _cosets(verify, theorem_id, n)
        pairs = sum(len(m) * (len(m) - 1) // 2 for m in cosets)
        verify._tables(n)
        t0 = time.perf_counter()
        result = verify._code_chunk(theorem_id, n, cosets)
        seconds = time.perf_counter() - t0
        digest.update(json.dumps(result, sort_keys=True).encode())
        cells.append((n, theorem_id, "code-check", pairs, pairs, seconds / pairs * 1e6))
    for n in LENGTHS:
        for kind in verify._FAMILY_KINDS:
            windows = _windows(verify, kind, n) * REPEATS
            pairs = sum(hi - lo for _, lo, hi in windows)
            for depth in DEPTHS:
                t0 = time.perf_counter()
                results = [verify._structured_chunk(kind, depth, n, params, lo, hi)
                           for params, lo, hi in windows]
                seconds = time.perf_counter() - t0
                digest.update(json.dumps(results, sort_keys=True).encode())
                cells.append((n, kind, depth, pairs, pairs, seconds / pairs * 1e6))
    return {"cells": cells, "digest": digest.hexdigest()}


def _summary(runs: list[dict]) -> list[dict]:
    rows = []
    for i, (n, kind, depth, pairs, walked, _) in enumerate(runs[0]["cells"]):
        us = [run["cells"][i][5] for run in runs]
        row = {"n": n, "kind": kind, "depth": depth, "pairs": pairs}
        if walked is not None:
            row["walked_pairs"] = walked
            row["bulk_pairs"] = pairs - walked
        if depth.startswith("jobs") or depth == "call":
            row["s"] = round(statistics.median(us) * pairs / 1e6, 4)
        row["us_per_pair"] = round(statistics.median(us), 2)
        row["us_per_pair_min"] = round(min(us), 2)
        row["us_per_pair_runs"] = [round(u, 2) for u in us]
        rows.append(row)
    return rows


def _fork_ratios(runs: list[dict]) -> list[dict]:
    """Per all-pairs sweep and length, the median over rounds of its jobs=1
    time over its jobs=2 time: above 1 where the fork pays."""
    out = []
    cells = runs[0]["cells"]
    for i, (n, kind, depth, *_) in enumerate(cells):
        if depth != "jobs=1":
            continue
        j = next(k for k, c in enumerate(cells) if c[:3] == [n, kind, "jobs=2"])
        ratios = [run["cells"][i][5] / run["cells"][j][5] for run in runs]
        out.append({"n": n, "kind": kind, "jobs1_over_jobs2": round(statistics.median(ratios), 2),
                    "runs": [round(r, 2) for r in ratios]})
    return out


def _describe(run: dict) -> str:
    total = sum(pairs * us for _, _, _, pairs, _, us in run["cells"]) / 1e6
    return f"{len(run['cells'])} cells, {total:.2f} s timed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path,
                    help="the src/ directory of the parent checkout (required)")
    ap.add_argument("--out", type=Path, default=OUT,
                    help=f"the JSON file to write (default: {OUT.name} at the repository root)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0
    if args.src is None:
        ap.error("--src is required")
    trees = rounds.trees(args.src)
    for role, src in trees.items():
        if not (src / "delsub" / "verify.py").is_file():
            ap.error(f"{role} tree {src} holds no delsub package")
    runs = rounds.run_rounds(__file__, trees, ROUNDS, _describe)
    doc = {
        "script": "benchmarks/kernels.py",
        **rounds.machine(),
        "rounds": ROUNDS,
        "trees": {role: {"rev": rounds.rev(src), "timings": _summary(runs[role]),
                         "fork": _fork_ratios(runs[role])}
                  for role, src in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
