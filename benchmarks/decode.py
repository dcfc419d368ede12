"""Milliseconds per multi-read decode, per read draw, per CLI decode and per
coset count, parent tree against this one.

Times ``reconstruct.decode`` on 100 seeded read bundles in each of three
settings (cl n = 12 with N = 7 reads and vt n = 14 with N = 31 reads, both
on the best coset, and the full code at n = 64 with N = 4n - 8 = 248 reads
from uniform random words, a length past every code check), and the
``reconstruct.collect_reads`` calls that draw those bundles; the seconds of
one ``verify_reconstruction(best_coset("cl", 10), 7, trials=1000,
subset_words=20, subset_trials=100)`` call, the acceptance test's
reconstruction leg; the milliseconds per call of ten
``cli.main(["decode", ...])`` calls in one process on the first ten cl
n = 12 bundles, saved to files, as the perfbench ``codes-decode`` workload
makes them (the first call included, so a tree that builds its parser once
per process pays that build once in ten); and the milliseconds per call
(mean of three) of the three counting calls of that workload:
``best_coset("cl", 16)``, ``best_coset("cn21", 15)`` and
``size(spec("run_bounded", 16))``.  Every cell records its wall time and,
under "cpu", its ``time.process_time()``, which a busy machine disturbs
less.  The two source trees are measured in interleaved rounds
(``rounds.py``); the output keeps, per tree, every round and the median,
to four significant digits.  It writes ``BENCH_decode.json`` at the
repository root, or the file ``--out`` names.  Standard library only:

    python3 benchmarks/decode.py --src PATH/TO/PARENT/src
    python3 benchmarks/decode.py --src PATH/TO/PARENT/src --out BENCH_decode_rundels.json

The worker also hashes every decode result, every bundle drawn, the CLI
decodes' exit codes and output, the reconstruction report's canonical JSON
and the three counting results; the script fails if the two trees disagree
on any of them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

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
CLI_DECODES = 10


class _Clock:
    """Wall and process time per call of the calls timed through it, by
    cell: a field, whose name ends in its unit (_ms or _s), and a label
    within it or None."""

    def __init__(self) -> None:
        self.totals: dict[tuple[str, str | None], list] = {}  # [wall, cpu, calls]

    def __call__(self, field: str, label: str | None, calls: int, fn: Callable[[], Any]) -> Any:
        """fn(), which makes calls calls of the cell."""
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        total = self.totals.setdefault((field, label), [0.0, 0.0, 0])
        total[0] += wall
        total[1] += cpu
        total[2] += calls
        return result

    def cells(self) -> dict:
        """The wall time of each cell, and under "cpu" its process time."""
        wall: dict = {}
        cpu: dict = {}
        for (field, label), (*seconds, calls) in self.totals.items():
            scale = (1e3 if field.endswith("_ms") else 1.0) / calls
            for into, value in zip((wall, cpu), seconds):
                if label is None:
                    into[field] = value * scale
                else:
                    into.setdefault(field, {})[label] = value * scale
        return {**wall, "cpu": cpu}


def _worker(src: str) -> dict:
    sys.path.insert(0, src)
    import random

    from delsub import balls, cli, codes, reconstruct, verify

    clock = _Clock()
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
            seed = rng.randrange(1 << 30)
            bundles.append(clock("collect_reads_ms", label, 1,
                                 lambda: reconstruct.collect_reads(word, N, seed)))
        digest.update(repr(bundles).encode())
        results = clock("decode_ms", label, len(bundles),
                        lambda: [reconstruct.decode(cs, b) for b in bundles])
        digest.update(repr(results).encode())
        if label == "cl_n12_N7":
            cli_code, cli_bundles = cs, bundles[:CLI_DECODES]
    cs = codes.best_coset(RECON["family"], RECON["n"])
    sizes = {k: RECON[k] for k in ("trials", "subset_words", "subset_trials")}
    report = clock("reconstruction_s", None, 1,
                   lambda: verify.verify_reconstruction(cs, RECON["N"], **sizes))
    digest.update(report.to_json().encode())
    params = [a for k, v in cli_code.params for a in (f"--{k}", str(v))]
    with tempfile.TemporaryDirectory() as scratch:
        for i, bundle in enumerate(cli_bundles):
            path = os.path.join(scratch, f"bundle-{i}.txt")
            with open(path, "w") as fh:
                reconstruct.save_bundle(bundle, fh)
            argv = ["decode", "--family", cli_code.family, "--n", str(cli_code.n), *params,
                    "--bundle", path]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = clock("cli_decode_ms", None, 1, lambda: cli.main(argv))
            digest.update(repr((code, buf.getvalue())).encode())
    for label, call in COUNTS:
        results = clock("count_ms", label, COUNT_CALLS,
                        lambda: [call(codes) for _ in range(COUNT_CALLS)])
        digest.update(repr(results).encode())
    return {**clock.cells(), "status": report.status, "digest": digest.hexdigest()}


def _sig(value: float) -> float:
    """value to four significant digits."""
    return float(f"{value:.4g}")


def _median(values: list) -> Any:
    """The median of each cell over runs of the same shape."""
    if isinstance(values[0], dict):
        return {k: _median([v[k] for v in values]) for k in values[0]}
    return _sig(statistics.median(values))


def _summary(runs: list[dict]) -> dict:
    cells = [{k: v for k, v in r.items() if k not in ("status", "digest")} for r in runs]
    return {**_median(cells), "runs": [_median([c]) for c in cells]}


def _describe(run: dict) -> str:
    return " ".join(
        [f"{k} {v:.3f} ms" for k, v in run["decode_ms"].items()]
        + [f"reconstruction {run['reconstruction_s']:.3f} s",
           f"cli decode {run['cli_decode_ms']:.2f} ms"]
        + [f"{k} {v:.1f} ms" for k, v in run["count_ms"].items()]
    )


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
        if not (src / "delsub" / "reconstruct.py").is_file():
            ap.error(f"{role} tree {src} holds no delsub package")
    runs = rounds.run_rounds(__file__, trees, ROUNDS, _describe)
    doc = {
        "script": "benchmarks/decode.py",
        **rounds.machine(),
        "rounds": ROUNDS,
        "bundles_per_setting": BUNDLES,
        "reconstruction": RECON,
        "cli_decodes": CLI_DECODES,
        "count_calls": COUNT_CALLS,
        "trees": {role: {"rev": rounds.rev(src), **_summary(runs[role])}
                  for role, src in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
