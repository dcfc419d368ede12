"""Milliseconds per multi-read decode and per coset count, parent tree
against this one.

Times ``reconstruct.decode`` on 100 seeded read bundles in each of three
settings (cl n = 12 with N = 7 reads and vt n = 14 with N = 31 reads, both
on the best coset, and the full code at n = 64 with N = 4n - 8 = 248 reads
from uniform random words, a length past every code check), the seconds of
one
``verify_reconstruction(best_coset("cl", 10), 7, trials=1000,
subset_words=20, subset_trials=100)`` call, the acceptance test's
reconstruction leg, and the milliseconds per call (mean of three) of the
three counting calls of the perfbench ``codes-decode`` workload:
``best_coset("cl", 16)``, ``best_coset("cn21", 15)`` and
``size(spec("run_bounded", 16))``.  The two source trees are measured in
interleaved rounds (``rounds.py``); the output keeps, per tree, every round
and the median.  It writes ``BENCH_decode.json`` at the repository root.
Standard library only:

    python3 benchmarks/decode.py --src PATH/TO/PARENT/src

The worker also hashes every decode result, the reconstruction report's
canonical JSON and the three counting results; the script fails if the two
trees disagree on any of them.
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

OUT = rounds.ROOT / "BENCH_decode.json"
SEED = 31
BUNDLES = 100
ROUNDS = 9
# (label, family, n, N); the full code's words are drawn uniformly, since
# its members cannot be listed at n = 64
SETTINGS = (
    ("cl_n12_N7", "cl", 12, 7),
    ("vt_n14_N31", "vt", 14, 31),
    ("full_n64_N248", "full", 64, 248),
)
RECON = {"family": "cl", "n": 10, "N": 7,
         "trials": 1000, "subset_words": 20, "subset_trials": 100}
# (label, call): the counting calls of the codes-decode workload
COUNTS = (
    ("best_coset_cl_16", lambda codes: codes.best_coset("cl", 16)),
    ("best_coset_cn21_15", lambda codes: codes.best_coset("cn21", 15)),
    ("size_run_bounded_16", lambda codes: codes.size(codes.spec("run_bounded", 16))),
)
COUNT_CALLS = 3


def _worker(src: str) -> dict:
    sys.path.insert(0, src)
    import random

    from delsub import balls, codes, reconstruct, verify

    out: dict = {"decode_ms": {}}
    digest = hashlib.sha256()
    rng = random.Random(SEED)
    for label, family, n, N in SETTINGS:
        if family == "full":
            cs, eligible = codes.spec(family, n), None
        else:
            cs = codes.best_coset(family, n)
            eligible = [w for w in codes.members(cs) if len(balls.ds_ball(w)) >= N]
        bundles = []
        while len(bundles) < BUNDLES:
            if eligible:
                word = eligible[rng.randrange(len(eligible))]
            else:
                word = format(rng.getrandbits(n), f"0{n}b")
                if len(balls.ds_ball(word)) < N:
                    continue
            bundles.append(reconstruct.collect_reads(word, N, rng.randrange(1 << 30)))
        t0 = time.perf_counter()
        results = [reconstruct.decode(cs, b) for b in bundles]
        out["decode_ms"][label] = (time.perf_counter() - t0) / len(bundles) * 1e3
        digest.update(repr(results).encode())
    cs = codes.best_coset(RECON["family"], RECON["n"])
    sizes = {k: RECON[k] for k in ("trials", "subset_words", "subset_trials")}
    t0 = time.perf_counter()
    report = verify.verify_reconstruction(cs, RECON["N"], **sizes)
    out["reconstruction_s"] = time.perf_counter() - t0
    digest.update(report.to_json().encode())
    out["status"] = report.status
    out["count_ms"] = {}
    for label, call in COUNTS:
        t0 = time.perf_counter()
        results = [call(codes) for _ in range(COUNT_CALLS)]
        out["count_ms"][label] = (time.perf_counter() - t0) / COUNT_CALLS * 1e3
        digest.update(repr(results).encode())
    out["digest"] = digest.hexdigest()
    return out


def _median(runs: list[dict], field: str, key: str | None = None) -> float:
    return round(statistics.median(r[field][key] if key else r[field] for r in runs), 3)


def _summary(runs: list[dict]) -> dict:
    decodes = [label for label, *_ in SETTINGS]
    counts = [label for label, _ in COUNTS]
    return {
        "decode_ms": {k: _median(runs, "decode_ms", k) for k in decodes},
        "reconstruction_s": _median(runs, "reconstruction_s"),
        "count_ms": {k: _median(runs, "count_ms", k) for k in counts},
        "runs": [{"decode_ms": {k: round(r["decode_ms"][k], 3) for k in decodes},
                  "reconstruction_s": round(r["reconstruction_s"], 3),
                  "count_ms": {k: round(r["count_ms"][k], 3) for k in counts}}
                 for r in runs],
    }


def _describe(run: dict) -> str:
    return " ".join(
        [f"{k} {v:.2f} ms" for k, v in run["decode_ms"].items()]
        + [f"reconstruction {run['reconstruction_s']:.2f} s"]
        + [f"{k} {v:.1f} ms" for k, v in run["count_ms"].items()]
    )


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
        if not (src / "delsub" / "reconstruct.py").is_file():
            ap.error(f"{role} tree {src} holds no delsub package")
    runs = rounds.run_rounds(__file__, trees, ROUNDS, _describe)
    doc = {
        "script": "benchmarks/decode.py",
        **rounds.machine(),
        "rounds": ROUNDS,
        "bundles_per_setting": BUNDLES,
        "reconstruction": RECON,
        "count_calls": COUNT_CALLS,
        "trees": {role: {"rev": rounds.rev(src), **_summary(runs[role])}
                  for role, src in trees.items()},
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
