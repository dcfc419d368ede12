"""Microseconds per pair of the claim-table and structured-family checkers
and of the code checks, parent tree against this one.

Times ``verify._structured_chunk(kind, depth, n, params, lo, hi)`` for every
structured kind at both check depths ("full" runs the claim-table checker,
"ceiling" the size checks) at n = 11 and n = 14, and the two exhaustive
sweeps over every pair at n = 10: the claim tables' identity sweep
``verify._identity_chunk(n, lo, hi)`` (kind "identity") and the
intersection-bounds sweep ``verify._bounds_chunk(n, lo, hi)`` (kind
"bounds"), both at depth "all-pairs".  The worker fills the mask-table
cache ``verify._tables(n)``, and its column masks where the tree has them,
before timing, and the two chunks read it themselves, so both trees must
have chunks that read that cache (trees that handed the tables to their
chunks through a module global cannot be measured).  Each all-pairs cell
also records, from a separate untimed pass that wraps
``verify._walk_mask``, how many pairs the row walk sent through the
per-pair checks and how many it counted in bulk; a tree without a row walk
walks every pair.  Each structured (n, kind) walks up to four evenly
spaced windows of 64 pairs for every parameter tuple of the family, the
same windows at both depths, REPEATS times over, so that one timing of the
fastest structured cell lasts about 0.1 s or more (a single pass of the
all-pairs cells already takes longer).  The code-check cells (kind: the
theorem id, depth "code-check") time one
``verify._code_chunk(theorem_id, n, cosets)`` call over every coset of the
check's family, listed before timing as ``verify_code_theorem`` lists them
(ascending members, sorted keys), at n = 12 for inv, c2n9, vt and cn21 and
at n = 13 for inv; their pairs are the pairs inside the cosets.  The
bad-count cells (kind "bad-count", depth "all-pairs") time one
``verify._bad_chunk("pre", n, lo, hi)`` pass over every
``verify._spans(2^n)`` range at n = 8 and n = 10; the worker fills
``verify._dels_by_position(n)``, and the witness-summary cache
``verify._witness_summaries(n)`` where the tree has one, before timing.
Every pair counts as walked there: that chunk has no bulk count.  The two
source trees are measured in interleaved rounds (``rounds.py``), one
timing per cell per round; the output keeps, per tree, every round, the
median and the minimum.  It writes
``BENCH_structured_kernel.json`` at the repository root.
Standard library only:

    python3 benchmarks/kernels.py --src PATH/TO/PARENT/src

The worker also hashes every chunk result, with dict keys sorted as the
reports sort them; the script fails if the two trees disagree on one.
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
ALL_PAIRS_N = 10
CODE_CELLS = (("inv", 12), ("c2n9", 12), ("vt", 12), ("cn21", 12), ("inv", 13))
BAD_COUNT_LENGTHS = (8, 10)
DEPTHS = ("full", "ceiling")
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
    key_of, _ = verify.codes.coset_key(verify.CODE_CHECKS[theorem_id].family, n)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x in range(1 << n):
        key = key_of(verify.to_word(x, n))
        if key is not None:
            buckets.setdefault(key, []).append(x)
    return [buckets[key] for key in sorted(buckets)]


def _walked_pairs(verify, chunk, n: int, pairs: int) -> int:
    """The pairs chunk(n, 0, 2^n) sends through its per-pair checks."""
    walk_mask = getattr(verify, "_walk_mask", None)
    if walk_mask is None:
        return pairs
    walked = 0

    def counted(*args):
        nonlocal walked
        mask = walk_mask(*args)
        walked += mask.bit_count()
        return mask

    verify._walk_mask = counted
    try:
        chunk(n, 0, 1 << n)
    finally:
        verify._walk_mask = walk_mask
    return walked


def _worker(src: str) -> dict:
    """One timing per cell: (n, kind, depth, pairs timed, pairs walked one
    by one, us per pair)."""
    sys.path.insert(0, src)
    from delsub import verify

    digest = hashlib.sha256()
    cells = []
    n = ALL_PAIRS_N
    size = 1 << n
    pairs = size * (size - 1) // 2
    tab = verify._tables(n)
    if hasattr(tab, "columns"):
        tab.columns()
    for kind, chunk in (("identity", verify._identity_chunk), ("bounds", verify._bounds_chunk)):
        t0 = time.perf_counter()
        result = chunk(n, 0, size)
        seconds = time.perf_counter() - t0
        digest.update(json.dumps(result, sort_keys=True).encode())
        walked = _walked_pairs(verify, chunk, n, pairs)
        cells.append((n, kind, "all-pairs", pairs, walked, seconds / pairs * 1e6))
    for n in BAD_COUNT_LENGTHS:
        size = 1 << n
        pairs = size * (size - 1) // 2
        verify._tables(n)
        verify._dels_by_position(n)
        if hasattr(verify, "_witness_summaries"):
            verify._witness_summaries(n)
        t0 = time.perf_counter()
        results = [verify._bad_chunk("pre", n, lo, hi) for lo, hi in verify._spans(size)]
        seconds = time.perf_counter() - t0
        digest.update(json.dumps(results, sort_keys=True).encode())
        cells.append((n, "bad-count", "all-pairs", pairs, pairs, seconds / pairs * 1e6))
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
        if depth == "all-pairs":
            row["walked_pairs"] = walked
            row["bulk_pairs"] = pairs - walked
        row["us_per_pair"] = round(statistics.median(us), 2)
        row["us_per_pair_min"] = round(min(us), 2)
        row["us_per_pair_runs"] = [round(u, 2) for u in us]
        rows.append(row)
    return rows


def _describe(run: dict) -> str:
    total = sum(pairs * us for _, _, _, pairs, _, us in run["cells"]) / 1e6
    return f"{len(run['cells'])} cells, {total:.2f} s timed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path,
                    help="the src/ directory of the parent checkout (required)")
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
        "trees": {role: {"rev": rounds.rev(src), "timings": _summary(runs[role])}
                  for role, src in trees.items()},
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
