"""Milliseconds per multi-read decode, parent tree against this one.

Times ``reconstruct.decode`` on 100 seeded read bundles in each of two
settings (cl n = 12 with N = 7 reads, vt n = 14 with N = 31 reads, both on
the best coset), and the seconds of one
``verify_reconstruction(best_coset("cl", 10), 7, trials=1000,
subset_words=20, subset_trials=100)`` call, the acceptance test's
reconstruction leg.  Each measurement runs in a fresh interpreter with
PYTHONHASHSEED=1.  The two source trees are measured in interleaved rounds
(the order alternates from round to round), so both see the same machine
load; the output keeps, per tree, every round and the median.  It writes
``BENCH_decode.json`` at the repository root.  Standard library only:

    python3 benchmarks/decode.py --src PATH/TO/PARENT/src

The worker also hashes every decode result and the reconstruction report's
canonical JSON; the script fails if the two trees disagree on either.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_decode.json"
SEED = 31
BUNDLES = 100
ROUNDS = 9
# (label, family, n, N)
SETTINGS = (("cl_n12_N7", "cl", 12, 7), ("vt_n14_N31", "vt", 14, 31))
RECON = {"family": "cl", "n": 10, "N": 7,
         "trials": 1000, "subset_words": 20, "subset_trials": 100}


def _worker(src: str) -> dict:
    sys.path.insert(0, src)
    import random

    from delsub import balls, codes, reconstruct, verify

    out: dict = {"decode_ms": {}}
    digest = hashlib.sha256()
    rng = random.Random(SEED)
    for label, family, n, N in SETTINGS:
        cs = codes.best_coset(family, n)
        eligible = [w for w in codes.members(cs) if len(balls.ds_ball(w)) >= N]
        bundles = []
        for _ in range(BUNDLES):
            word = eligible[rng.randrange(len(eligible))]
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
    out["digest"] = digest.hexdigest()
    return out


def _run(src: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="1")
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def _rev(src: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        rev = git("rev-parse", "--short", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if git("status", "--porcelain", "--", "."):
        rev += "+dirty"
    return rev


def _summary(runs: list[dict]) -> dict:
    keys = [label for label, *_ in SETTINGS]
    return {
        "decode_ms": {k: round(statistics.median(r["decode_ms"][k] for r in runs), 3)
                      for k in keys},
        "reconstruction_s": round(statistics.median(r["reconstruction_s"] for r in runs), 3),
        "runs": [{"decode_ms": {k: round(r["decode_ms"][k], 3) for k in keys},
                  "reconstruction_s": round(r["reconstruction_s"], 3)} for r in runs],
    }


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
    trees = {"parent": args.src.resolve(), "change": (ROOT / "src").resolve()}
    for role, src in trees.items():
        if not (src / "delsub" / "reconstruct.py").is_file():
            ap.error(f"{role} tree {src} holds no delsub package")
    runs: dict[str, list[dict]] = {role: [] for role in trees}
    for r in range(ROUNDS):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for role in order:
            runs[role].append(_run(trees[role]))
            last = runs[role][-1]
            print(f"round {r + 1} {role:6} " + " ".join(
                f"{k} {v:.2f} ms" for k, v in last["decode_ms"].items())
                + f" reconstruction {last['reconstruction_s']:.2f} s", file=sys.stderr)
    digests = {r["digest"] for rs in runs.values() for r in rs}
    if len(digests) != 1:
        print("the two trees disagree on a decode result or report", file=sys.stderr)
        return 1
    doc = {
        "script": "benchmarks/decode.py",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.system()} {platform.machine()}",
        "hash_seed": 1,
        "rounds": ROUNDS,
        "bundles_per_setting": BUNDLES,
        "reconstruction": RECON,
        "trees": {role: {"rev": _rev(src), **_summary(runs[role])}
                  for role, src in trees.items()},
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
