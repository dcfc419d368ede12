"""Parser tokens and glibc heap after compile() of each delsub module.

perfbench's ``peak_rss_mb`` includes compiling delsub when no bytecode is
cached, and the heap that compiling one module leaves behind steps up by
about 1.7 MB once the module is large enough (CHANGES.md names the steps).
The token count tracks that step only loosely, so this script measures it:
for each module of ``src/delsub`` it counts the parser tokens (every token
but COMMENT and NL), then compiles the file in a fresh ``python -B``
interpreter, which writes no bytecode, and reads glibc's ``malloc_stats``:
the main arena's system bytes (the heap) and the system bytes with mmap.
The heap moves by a 4 KB page with the path a file is compiled from and
from one run to the next, so every module, of either tree, is first copied
to one fixed path under the temporary directory and compiled from there,
and each figure is the median of several fresh interpreters.  Standard
library only, Linux with glibc:

    python3 benchmarks/compile_heap.py
    python3 benchmarks/compile_heap.py --src PATH/TO/OTHER/src
"""

from __future__ import annotations

import argparse
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every module is compiled from this one path
SCRATCH = Path(tempfile.gettempdir()) / "delsub-compile-heap" / "module.py"
RUNS = 5

# compiles the file named by argv[1], then prints glibc's malloc_stats to
# the C-level stderr
_PROBE = """
import ctypes, sys
source = open(sys.argv[1], encoding="utf-8").read()
compile(source, sys.argv[1], "exec")
ctypes.CDLL(None).malloc_stats()
"""


def tokens(path: Path) -> int:
    """The parser tokens of a module: every token but COMMENT and NL."""
    with path.open("rb") as f:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.tokenize(f.readline))


def _probe() -> tuple[int, int]:
    """(main-arena system bytes, system bytes with mmap) after compiling
    SCRATCH in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-B", "-c", _PROBE, str(SCRATCH)],
                          capture_output=True, text=True, check=True)
    system = [int(v) for v in re.findall(r"system bytes\s*=\s*(\d+)", done.stderr)]
    # malloc_stats prints one block per arena, then the total with mmap
    return system[0], system[-1]


def compile_heap(path: Path) -> tuple[int, int]:
    """The median of RUNS probes of path's source, compiled from SCRATCH."""
    shutil.copyfile(path, SCRATCH)
    runs = [_probe() for _ in range(RUNS)]
    return statistics.median(h for h, _ in runs), statistics.median(t for _, t in runs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory to measure (default: this checkout's)")
    args = ap.parse_args()
    modules = sorted((args.src / "delsub").glob("*.py"))
    if not modules:
        ap.error(f"{args.src} holds no delsub package")
    print(f"{'module':16} {'tokens':>7} {'heap MB':>8} {'with mmap MB':>13}")
    SCRATCH.parent.mkdir(exist_ok=True)
    try:
        for path in modules:
            heap, total = compile_heap(path)
            print(f"{path.name:16} {tokens(path):7d} {heap / 1e6:8.2f} {total / 1e6:13.2f}")
    finally:
        shutil.rmtree(SCRATCH.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
