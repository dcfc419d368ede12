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
"pre") at n = 8..12, ``verify_bad_count(n, convention="post")`` (kind
"bad-count post"), whose report is a FAIL, at n = 10 and 11, and the claim
tables' identity sweep (kind "identity") as ``verify_claim_tables(10)`` with the structured family tasks
left out (``verify._family_tasks`` returns none), which sweeps every pair
at n = 2..10.  Each is timed three times in a row: the first call at
``jobs=1`` (depth "jobs=1 first", which pays what a tree computes once per
length on its first sweep), then again at ``jobs=1`` and at ``jobs=2``.  The
worker fills the mask-table cache ``verify._tables(n)`` before timing: its
mask tables and run counts, its bmask columns and, where the tree has them,
its strays (the words whose deletion or substitution row is not the
ball's), the deletions by position and the witness summaries (module
caches ``verify._dels_by_position`` and ``verify._witness_summaries`` on
older trees, tables of ``_Tables`` on newer ones), and hashes each
canonical report.  The bounds and identity
cells at n = 10 also record, from one untimed ``jobs=1`` call that wraps
``verify._row_walk``, how many pairs the row walk sent through the
per-pair checks: the walk masks of every item it yields, so the partners
a row always walks count too; a route that stands for several pairs with
one visit walks fewer.  Their "pairs" is every pair of the sweep, as in the report,
so that us per pair compares the trees' wall times.  Each structured window cell (n, kind) walks up to four
evenly spaced windows of 64 pairs for every parameter tuple of the family,
at n = 11 and n = 14, through
``verify._structured_chunk(kind, depth, n, params, lo, hi)`` at both check
depths ("full" runs the claim-table checker, "ceiling" the size checks),
the same windows at both depths, REPEATS times over, so that one timing
of the fastest structured cell lasts about 0.1 s or more.  Every timed call
or batch starts after a ``gc.collect()``, so that no generation-2
collection, which allocation counts trigger, lands in the same cell every
round.  The code-check cells (kind: the theorem id) time ``verify_code_theorem(theorem_id, n)``
whole, the way the sweep cells are timed, for every construction at n =
11..13: the first call at ``jobs=1``, after the mask-table cache
``verify._tables``, the deletion and witness caches beside it where a tree
has them, and any coset-walk cache ``codes._walked`` are emptied and
``verify._tables(n)`` alone is built again, so that it pays
what the check computes lazily per length (such as the coset walk, element
lists, equivariance verdicts and coset state), then again at ``jobs=1`` and
at ``jobs=2``.  On a tree whose ``_Tables`` builds each table on first
read, that object holds no table yet, so the first call also pays for the
bmask and prev_smask tables, and cl's for the deletions by position.
Their pairs are the pairs inside the cosets, as in the report.  The memory cells run each construction at n = 13 and 14 twice, a
first and a warm call, and so ``verify_intersection_bounds(n)`` (kind
"bounds") at n = 13 and 14 and ``verify_bad_count(n)`` (kind "bad-count")
at n = 12, in a fresh interpreter per tree and cell, and record the peak
resident set size of that interpreter after the import and after the
calls (``ru_maxrss``); a bounds cell also records what the row walk's
columns and strays keep, by ``sys.getsizeof``.  All memory is in MB of
2^20 bytes.  The two source trees are measured in interleaved rounds
(``rounds.py``), one timing per cell per round; the
output keeps, per tree, every round, the median and the minimum, and per
sweep or code check and length the median over rounds of the jobs=1 over
jobs=2 time ratio.  It writes
``BENCH_structured_kernel.json`` at the repository root, or the file
``--out`` names.  Standard library only:

    python3 benchmarks/kernels.py --src PATH/TO/PARENT/src
    python3 benchmarks/kernels.py --src PATH/TO/PARENT/src --out BENCH_structured_orbit.json

The worker also hashes every result, with dict keys sorted as the reports
sort them; the script fails if the two trees disagree on one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import rounds

OUT = rounds.ROOT / "BENCH_structured_kernel.json"
LENGTHS = (11, 14)
# the all-pairs sweeps timed per length, and the length of the identity
# cell and of the walked-pair counts
SWEEP_LENGTHS = range(8, 13)
# the lengths of the bad-count "post" cells, a FAIL from n = 8 on
FAIL_LENGTHS = (10, 11)
ALL_PAIRS_N = 10
CODE_IDS = ("vt", "inv", "c2n9", "cn21", "cl")
CODE_CELLS = tuple((theorem_id, n) for n in (11, 12, 13) for theorem_id in CODE_IDS)
RSS_CELLS = (*((kind, n) for n in (13, 14) for kind in ("bounds", *CODE_IDS)), ("bad-count", 12))
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


def _coset_pairs(verify, theorem_id: str, n: int) -> int:
    """The pairs inside the cosets of the check's family at length n."""
    buckets = verify.codes.cosets(verify.CODE_CHECKS[theorem_id].family, n)[0]
    return sum(len(m) * (len(m) - 1) // 2 for m in buckets.values())


def _walked_pairs(verify, call) -> int:
    """The pairs call(jobs=1) sends through the per-pair checks of its row
    walk: the walk masks of every item of verify._row_walk, the name the
    sweep chunks read, own-orbit partners included."""
    row_walk = verify._row_walk
    walked = 0

    def counted(*args):
        nonlocal walked
        for item in row_walk(*args):
            walked += item[2].bit_count()
            yield item

    verify._row_walk = counted
    try:
        call(jobs=1)
    finally:
        verify._row_walk = row_walk
    return walked


def _sweep_cells(verify, kind: str, n: int, pairs: int, call, digest) -> list[tuple]:
    """Three timed calls call(jobs=...) as (n, kind, depth, pairs, pairs
    walked or None, us per pair) cells, each canonical report hashed."""
    timed = []
    for depth, jobs in (("jobs=1 first", 1), ("jobs=1", 1), ("jobs=2", 2)):
        gc.collect()
        t0 = time.perf_counter()
        report = call(jobs=jobs)
        seconds = time.perf_counter() - t0
        digest.update(report.to_json().encode())
        timed.append((depth, seconds / pairs * 1e6))
    walked = None
    if kind in ("bounds", "identity") and n == ALL_PAIRS_N:
        walked = _walked_pairs(verify, call)
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
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(CALL_REPEATS):
            call(n, **keywords)
        seconds = (time.perf_counter() - t0) / CALL_REPEATS
        pairs = report.pairs_checked
        cells.append((n, kind, "call", pairs, None, seconds / pairs * 1e6))
    return cells


def _table(tab, name: str):
    """The table name of tab: a method on trees that build it on a call,
    an attribute on trees that build it on its first read."""
    value = getattr(tab, name)
    return value() if callable(value) else value


def _fill(verify, n: int) -> None:
    """Build what an all-pairs sweep at length n computes once per length."""
    tab = verify._tables(n)
    for name in ("runs", "dmask", "smask", "bmask", "prev_smask", "columns", "strays"):
        if hasattr(tab, name):
            _table(tab, name)


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
        _fill(verify, n)
        if hasattr(verify, "_witness_summaries"):
            verify._dels_by_position(n)
            verify._witness_summaries(n)
        else:
            verify._tables(n).summaries
        cells += _sweep_cells(verify, "bounds", n, pairs,
                              lambda jobs: verify.verify_intersection_bounds(n, jobs=jobs), digest)
        cells += _sweep_cells(verify, "bad-count", n, pairs,
                              lambda jobs: verify.verify_bad_count(n, jobs=jobs), digest)
    for n in FAIL_LENGTHS:
        size = 1 << n
        cells += _sweep_cells(
            verify, "bad-count post", n, size * (size - 1) // 2,
            lambda jobs: verify.verify_bad_count(n, jobs=jobs, convention="post"), digest,
        )
    n = ALL_PAIRS_N
    for k in range(2, n + 1):
        _fill(verify, k)
    family_tasks = verify._family_tasks
    verify._family_tasks = lambda kind, depth, n: []
    try:
        pairs = sum((1 << k) * ((1 << k) - 1) // 2 for k in range(2, n + 1))
        cells += _sweep_cells(verify, "identity", n, pairs,
                              lambda jobs: verify.verify_claim_tables(n, jobs=jobs), digest)
    finally:
        verify._family_tasks = family_tasks
    for theorem_id, n in CODE_CELLS:
        pairs = _coset_pairs(verify, theorem_id, n)
        verify._tables.cache_clear()
        for cache in ("_dels_by_position", "_witness_summaries"):
            if hasattr(verify, cache):
                getattr(verify, cache).cache_clear()
        if hasattr(verify.codes, "_walked"):
            verify.codes._walked.cache_clear()
        verify._tables(n)
        cells += _sweep_cells(verify, theorem_id, n, pairs,
                              lambda jobs: verify.verify_code_theorem(theorem_id, n, jobs=jobs),
                              digest)
    for n in LENGTHS:
        for kind in verify._FAMILY_KINDS:
            windows = _windows(verify, kind, n) * REPEATS
            pairs = sum(hi - lo for _, lo, hi in windows)
            for depth in DEPTHS:
                gc.collect()
                t0 = time.perf_counter()
                results = [verify._structured_chunk(kind, depth, n, params, lo, hi)
                           for params, lo, hi in windows]
                seconds = time.perf_counter() - t0
                # the fields that every tree's chunk returns
                shared = [[r[k] for k in ("pairs", "extremal", "eq", "ces")] for r in results]
                digest.update(json.dumps(shared, sort_keys=True).encode())
                cells.append((n, kind, depth, pairs, pairs, seconds / pairs * 1e6))
    return {"cells": cells, "digest": digest.hexdigest()}


def _rss_worker(src: str, kind: str, n: int) -> dict:
    """Peak RSS in MB of this interpreter after importing delsub from src,
    and after a first and a warm verify_intersection_bounds(n) (kind
    "bounds"), verify_bad_count(n) (kind "bad-count") or
    verify_code_theorem(kind, n)."""
    sys.path.insert(0, src)
    from delsub import verify

    def peak() -> float:
        return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)

    imported = peak()
    digest = hashlib.sha256()
    for _ in range(2):
        if kind == "bounds":
            report = verify.verify_intersection_bounds(n)
        elif kind == "bad-count":
            report = verify.verify_bad_count(n)
        else:
            report = verify.verify_code_theorem(kind, n)
        digest.update(report.to_json().encode())
    cell = {"import_mb": imported, "peak_rss_mb": peak(), "digest": digest.hexdigest()}
    if kind == "bounds":
        tab = verify._tables(n)
        cols = _table(tab, "columns")
        # a tree may keep a tuple of column sets, one per mask table
        sets = cols if isinstance(cols, tuple) else (cols,)
        kept = sum(sys.getsizeof(c) for col_set in sets for c in (col_set, *col_set))
        if hasattr(tab, "strays"):
            kept += sys.getsizeof(_table(tab, "strays"))
        cell["columns_mb"] = round(kept / 2**20, 2)
    return cell


def _rss_cells(trees: dict[str, Path]) -> dict[str, list[dict]]:
    """Per tree, one memory cell per RSS_CELLS entry, the trees alternating
    which goes first."""
    out: dict[str, list[dict]] = {role: [] for role in trees}
    env = dict(os.environ, PYTHONHASHSEED=rounds.HASH_SEED)
    for i, (kind, n) in enumerate(RSS_CELLS):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        digests = set()
        for role in order:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", str(trees[role]), "--rss",
                 f"{kind}:{n}"],
                env=env, capture_output=True, text=True, check=True,
            )
            cell = json.loads(done.stdout)
            digests.add(cell.pop("digest"))
            out[role].append({"kind": kind, "n": n, **cell})
            print(f"rss {kind} {n} {role:6} {cell}", file=sys.stderr)
        if len(digests) != 1:
            raise SystemExit("the two trees disagree on a computed result")
    return out


def _sig(us: float) -> float:
    """us to four significant digits: a code cell's pairs run to millions at
    a few hundredths of a microsecond each."""
    return float(f"{us:.4g}")


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
        row["us_per_pair"] = _sig(statistics.median(us))
        row["us_per_pair_min"] = _sig(min(us))
        row["us_per_pair_runs"] = [_sig(u) for u in us]
        rows.append(row)
    return rows


def _fork_ratios(runs: list[dict]) -> list[dict]:
    """Per all-pairs sweep or code check and length, the median over rounds
    of its jobs=1 time over its jobs=2 time: above 1 where the fork pays."""
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
    ap.add_argument("--rss", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker and args.rss:
        kind, n = args.rss.split(":")
        print(json.dumps(_rss_worker(args.worker, kind, int(n))))
        return 0
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
    rss = _rss_cells(trees)
    doc = {
        "script": "benchmarks/kernels.py",
        **rounds.machine(),
        "rounds": ROUNDS,
        "trees": {role: {"rev": rounds.rev(src), "timings": _summary(runs[role]),
                         "fork": _fork_ratios(runs[role]), "memory": rss[role]}
                  for role, src in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
