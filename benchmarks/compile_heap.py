"""Parser tokens and glibc heap after compile() of each delsub module.

perfbench's ``peak_rss_mb`` includes compiling delsub when no bytecode is
cached, and the heap that compiling one module leaves behind steps up by
about 1.7 MB once the module is large enough (CHANGES.md names the steps).
The token count tracks that step only loosely, so this script measures it:
for each module of ``src/delsub`` it counts the parser tokens (every token
but COMMENT and NL), then compiles the file in a fresh ``python -B``
interpreter, which writes no bytecode, and reads glibc's ``malloc_stats``:
the main arena's system bytes (the heap) and the system bytes with mmap.
Standard library only, Linux with glibc:

    python3 benchmarks/compile_heap.py
    python3 benchmarks/compile_heap.py --src PATH/TO/OTHER/src
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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


def compile_heap(path: Path) -> tuple[int, int]:
    """(main-arena system bytes, system bytes with mmap) after compiling
    path in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-B", "-c", _PROBE, str(path)],
                          capture_output=True, text=True, check=True)
    system = [int(v) for v in re.findall(r"system bytes\s*=\s*(\d+)", done.stderr)]
    # malloc_stats prints one block per arena, then the total with mmap
    return system[0], system[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory to measure (default: this checkout's)")
    args = ap.parse_args()
    modules = sorted((args.src / "delsub").glob("*.py"))
    if not modules:
        ap.error(f"{args.src} holds no delsub package")
    print(f"{'module':16} {'tokens':>7} {'heap MB':>8} {'with mmap MB':>13}")
    for path in modules:
        heap, total = compile_heap(path)
        print(f"{path.name:16} {tokens(path):7d} {heap / 1e6:8.2f} {total / 1e6:13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
