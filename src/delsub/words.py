"""Elementary combinatorics on binary words.

Words are plain Python strings over {'0','1'}, 1-indexed in all position
arguments to match the usual coding-theory convention.  Since every set we
build holds words of a single common length, sorting the strings
lexicographically is the same as sorting by the big-endian integer value
(bit 1 is the most significant), so canonical order is just ``sorted()``.

The fast paths in ``reconstruct`` and ``verify`` carry a word as that
big-endian integer instead; the private helpers at the end of this module
are the deletion and substitution sets on integers that both of them use,
and the symmetry layer with which ``verify`` walks one representative per
orbit: reversal and complement of integer words, of word sets held as masks
and of per-word tables, the groups they generate and their orbits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TextIO

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


def _run_dels(x: int, n: int) -> list[int]:
    """D(x) as one deletion per run of x: its r(x) distinct values, last
    run first.

    Moving the deletion up across a run boundary keeps the bit of x below
    the boundary in place of the differing bit above it, so each value is
    the previous one with that boundary bit flipped.
    """
    v = x >> 1
    out = [v]
    starts = (x ^ v) & ((1 << (n - 1)) - 1)
    while starts:
        low = starts & -starts
        v ^= low
        out.append(v)
        starts ^= low
    return out


def _sub_set(x: int, n: int) -> set[int]:
    """S(x) for a length-n word x: x and its n single flips."""
    out = {x}
    for k in range(n):
        out.add(x ^ (1 << k))
    return out


def _reverse(x: int, n: int) -> int:
    """The length-n word x read backwards."""
    return int(format(x, f"0{n}b")[::-1], 2)


@functools.cache
def _reversal_swaps(m: int) -> tuple[tuple[int, int], ...]:
    """Per pair of index bits j < k = m - 1 - j, the delta swap (selector,
    shift) that trades them in every index of a 2^m-bit mask: the selector
    holds the indices with bit j set and bit k clear, and each moves up by
    the shift to its partner."""
    out = []
    for j in range(m // 2):
        k = m - 1 - j
        bits = ("1" if p >> j & 1 and not p >> k & 1 else "0" for p in range((1 << m) - 1, -1, -1))
        out.append((int("".join(bits), 2), (1 << k) - (1 << j)))
    return tuple(out)


def _reverse_elements(mask: int, m: int) -> int:
    """The set of length-m words mask with each word reversed."""
    for sel, shift in _reversal_swaps(m):
        t = ((mask >> shift) ^ mask) & sel
        mask ^= t | (t << shift)
    return mask


def _complement_elements(mask: int, m: int) -> int:
    """The set of length-m words mask with each word complemented: its 2^m
    bits in reverse order."""
    return int(format(mask, f"0{1 << m}b")[::-1], 2)


def _maps_rows(rows: Sequence[Any], n: int, shape: tuple, reversal: bool) -> bool:
    """Whether row g(x) of rows, one per word x of length n + dn, is row x
    with g applied to each element, for g the reversal (else the
    complement) and (dn, dm) = shape: a row is a plain value when dm is
    None, else a set of words of length n + dm, as a mask or the keys of a
    dict whose values g keeps.  g is an involution, so each pair {x, g(x)}
    is compared once."""
    dn, dm = shape
    m = None if dm is None else n + dm
    n += dn
    top = (1 << n) - 1
    for x, row in enumerate(rows):
        gx = _reverse(x, n) if reversal else x ^ top
        if gx < x:
            continue
        if m is None:
            want = row
        elif isinstance(row, dict):
            flip = (1 << m) - 1
            want = {(_reverse(z, m) if reversal else z ^ flip): v for z, v in row.items()}
        else:
            want = _reverse_elements(row, m) if reversal else _complement_elements(row, m)
        if rows[gx] != want:
            return False
    return True


@functools.cache
def _word_maps(n: int, group: str) -> tuple[Callable[[int], int], ...]:
    """The maps but the identity of a group on length-n words: "c" complement,
    "g" the reversed complement, "rc" those two and reversal, "" none."""
    top = (1 << n) - 1
    flip, rev, both = (lambda x: x ^ top), (lambda x: _reverse(x, n)), (lambda x: rev(x) ^ top)
    return {"": (), "c": (flip,), "g": (both,), "rc": (flip, rev, both)}[group]


class _Orbits:
    """A group, by its maps but the identity, on a sequence of points: in
    rows the position of the least point of each orbit, in weights its
    size, in closed whether the points are closed under the group (else
    those are no orbits); close spreads pairs of points over the group.
    """

    __slots__ = ("maps", "rows", "weights", "closed")

    def __init__(self, maps: Sequence[Callable] = (), points: Sequence = ()) -> None:
        self.maps = (lambda p: p, *maps)
        images = [list(map(g, points)) for g in maps]
        self.closed = set().union(*images) <= set(points)
        orbits = list(zip(points, *images))
        self.rows = [i for i, orbit in enumerate(orbits) if min(orbit) == orbit[0]]
        self.weights = [len(set(orbits[i])) for i in self.rows]

    def close(self, pairs: Iterable[tuple], cap: int | None = None) -> list[tuple]:
        """The cap smallest images (min, max) of pairs under the group, ascending."""
        return sorted({tuple(sorted((g(x), g(y)))) for x, y in pairs for g in self.maps})[:cap]


@functools.cache
def _word_orbits(n: int, group: str) -> _Orbits:
    """The orbits of _word_maps(n, group) on the length-n words, each its own position."""
    return _Orbits(_word_maps(n, group), range(1 << n))
