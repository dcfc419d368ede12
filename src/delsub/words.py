"""Elementary combinatorics on binary words.

Words are plain Python strings over {'0','1'}, 1-indexed in all position
arguments to match the usual coding-theory convention.  Since every set we
build holds words of a single common length, sorting the strings
lexicographically is the same as sorting by the big-endian integer value
(bit 1 is the most significant), so canonical order is just ``sorted()``.

The fast paths in ``reconstruct`` and ``verify`` carry a word as that
big-endian integer instead; the private helpers at the end of this module
are the deletion and substitution sets on integers that both of them use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

__all__ = [
    "AffixDecomposition",
    "parse_word",
    "read_word_file",
    "decode",
    "hamming",
    "run_count",
    "weight",
    "vt_syndrome",
    "inversion_number",
    "psi",
    "common_affixes",
    "max_le2_periodic_length",
]


def parse_word(text: str) -> str:
    """Validate a 0/1 string (the canonical text form) and return it."""
    if text.strip("01"):
        raise ValueError(f"not a binary word: {text!r}")
    return text


def read_word_file(src: TextIO) -> tuple[dict[str, str], list[str]]:
    """Read a read bundle's "# key=value ..." header line, then one word per
    non-blank line.

    Returns the header fields and the words in file order.  A missing
    header or "n"/"N" field, a field given twice, a non-binary line and a
    repeated word raise ValueError.
    """
    header = src.readline().strip()
    if not header.startswith("# "):
        raise ValueError("missing read bundle header")
    fields: dict[str, str] = {}
    for item in header[2:].split(" "):
        if "=" in item:
            key, value = item.split("=", 1)
            if key in fields:
                raise ValueError(f"header field {key!r} is given twice")
            fields[key] = value
    for key in ("n", "N"):
        if key not in fields:
            raise ValueError(f"header lacks {key!r} field")
    out: dict[str, None] = {}
    for line in src:
        word = parse_word(line.strip())
        if not word:
            continue
        if word in out:
            raise ValueError(f"word {word} is listed twice")
        out[word] = None
    return fields, list(out)


def decode(value: int, n: int) -> str:
    """The length-n word whose big-endian integer value is value."""
    if n == 0:
        return ""
    return format(value, f"0{n}b")


def hamming(x: str, y: str) -> int:
    if len(x) != len(y):
        raise ValueError("hamming distance needs equal lengths")
    return sum(a != b for a, b in zip(x, y))


def run_count(x: str) -> int:
    """r(x), the number of maximal constant substrings of x."""
    if not x:
        return 0
    return 1 + sum(x[i] != x[i + 1] for i in range(len(x) - 1))


def weight(x: str) -> int:
    return x.count("1")


def vt_syndrome(x: str, k: int) -> int:
    """Order-k VT syndrome, no modulus applied.

    The weight of position i is i for k=1 and i(i+1)/2 for k=2 (the column
    sums of the triangular weighting).  Code membership applies its own
    modulus on top of this raw integer.
    """
    if k == 1:
        return sum(i for i, c in enumerate(x, 1) if c == "1")
    if k == 2:
        return sum(i * (i + 1) // 2 for i, c in enumerate(x, 1) if c == "1")
    raise ValueError(f"unsupported syndrome order k={k}")


def inversion_number(x: str) -> int:
    """Number of pairs i < j with x_i = 1 and x_j = 0."""
    inv = 0
    ones = 0
    for c in x:
        if c == "1":
            ones += 1
        else:
            inv += ones
    return inv


def psi(x: str) -> str:
    """Difference map: psi(x)_i = x_i - x_{i-1} mod 2, with x_0 = 0."""
    prev = "0"
    out = []
    for c in x:
        out.append("1" if c != prev else "0")
        prev = c
    return "".join(out)


@dataclass(frozen=True, slots=True)
class AffixDecomposition:
    """Longest common prefix/suffix split of a distinct equal-length pair.

    For x != y with first and last differing positions j_1 and j_2
    (1-indexed), prefix = x[1..j_1-1] and suffix = x[j_2+1..n] are shared
    by both words, and hamming counts the differing positions inside the
    middle window.
    """

    prefix: str
    suffix: str
    hamming: int
    first_diff: int
    last_diff: int


def common_affixes(x: str, y: str) -> AffixDecomposition:
    if len(x) != len(y):
        raise ValueError("common_affixes needs equal lengths")
    if x == y:
        raise ValueError("common_affixes needs distinct words")
    n = len(x)
    j1 = next(i for i in range(n) if x[i] != y[i])
    j2 = next(i for i in range(n - 1, -1, -1) if x[i] != y[i])
    d_h = sum(x[i] != y[i] for i in range(j1, j2 + 1))
    return AffixDecomposition(x[:j1], x[j2 + 1 :], d_h, j1 + 1, j2 + 1)


def max_le2_periodic_length(x: str) -> int:
    """Length of the longest window with period at most 2.

    A window [l, r] qualifies when x_k = x_{k+2} for every k in [l, r-2];
    that is, the window is constant or alternating.  Windows of length <= 2
    qualify vacuously, so the result is min(n, 2) at least.
    """
    n = len(x)
    if n <= 2:
        return n
    best = 2
    start = 0  # left edge of the current maximal period-<=2 window
    for k in range(n - 2):
        if x[k] != x[k + 2]:
            best = max(best, k + 2 - start)
            start = k + 1
    return max(best, n - start)


# ---------------------------------------------------------------------------
# integer words: position i of a length-n word is bit n - i


def _del_bit(x: int, k: int) -> int:
    """x with bit k deleted: the bits above k move down one place."""
    return ((x >> (k + 1)) << k) | (x & ((1 << k) - 1))


def _del_set(x: int, n: int) -> set[int]:
    """D(x) for a length-n word x."""
    return {_del_bit(x, k) for k in range(n)}


def _sub_set(x: int, n: int) -> set[int]:
    """S(x) for a length-n word x: x and its n single flips."""
    out = {x}
    for k in range(n):
        out.add(x ^ (1 << k))
    return out
