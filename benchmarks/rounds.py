"""Interleaved rounds over a parent tree and this one, shared by the bench
scripts in this directory.

A bench script has a worker mode (``--worker SRC``) that imports delsub from
SRC, measures once and prints one JSON object with a ``digest`` of the
results it computed.  :func:`run_rounds` starts that worker in a fresh
interpreter with PYTHONHASHSEED=1 for each tree in each round, alternating
which tree goes first, so both trees see the same machine load.  The script
then stores every round and the median per tree.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "1"


def trees(parent_src: Path) -> dict[str, Path]:
    """The two trees measured: the parent's src/ and this checkout's."""
    return {"parent": parent_src.resolve(), "change": (ROOT / "src").resolve()}


def machine() -> dict:
    """What a stored measurement ran on."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.system()} {platform.machine()}",
        "hash_seed": int(HASH_SEED),
    }


def rev(src: Path) -> str:
    """Short git revision of the checkout holding src, '+dirty' if src has
    uncommitted changes, 'unknown' outside a git checkout."""

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        out = git("rev-parse", "--short", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if git("status", "--porcelain", "--", "."):
        out += "+dirty"
    return out


def _worker(script: str, src: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    done = subprocess.run(
        [sys.executable, script, "--worker", str(src)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def run_rounds(
    script: str, roles: dict[str, Path], rounds: int, describe: Callable[[dict], str]
) -> dict[str, list[dict]]:
    """Every worker run per tree, in round order; raises SystemExit when the
    trees disagree on a result digest."""
    runs: dict[str, list[dict]] = {role: [] for role in roles}
    for r in range(rounds):
        order = list(roles) if r % 2 == 0 else list(reversed(roles))
        for role in order:
            runs[role].append(_worker(script, roles[role]))
            print(f"round {r + 1} {role:6} {describe(runs[role][-1])}", file=sys.stderr)
    if len({run["digest"] for rs in runs.values() for run in rs}) != 1:
        raise SystemExit("the two trees disagree on a computed result")
    return runs
