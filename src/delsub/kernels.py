"""Bit-sliced kernels over masks of words, bit z of an int standing for word z."""

from typing import Any, Iterable, Sequence


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _columns(rows: Iterable[Iterable[int]], height: int, width: int) -> list[int]:
    """Column z < width of the bit matrix whose row y < height holds the
    elements rows[y]: the mask of the y whose row holds z."""
    size = (height + 7) >> 3
    cols: list[Any] = [bytearray(size) for _ in range(width)]
    for y, row in enumerate(rows):
        byte = y >> 3
        bit = 1 << (y & 7)
        for z in row:
            cols[z][byte] |= bit
    # in place, so that each buffer is freed as its column is made
    for z, buf in enumerate(cols):
        cols[z] = int.from_bytes(buf, "little")
    return cols


def _count_planes(columns: list[int], row: Sequence[int]) -> list[int]:
    """The sum over the elements z of row of columns[z], bit-sliced: plane k
    holds bit k of every word's count, and there are len(row).bit_length()
    planes.

    Carry-save addition: plane k is the sum of the terms of weight 2^k,
    folded in full adders two terms at a time; the adders' carries are the
    terms of weight 2^(k + 1).  Each level has at most half the terms of
    the one before.
    """
    terms = [columns[z] for z in row]
    planes = []
    while terms:
        acc = terms[0]
        carries = []
        for i in range(1, len(terms) - 1, 2):
            b = terms[i]
            c = terms[i + 1]
            t = acc ^ b
            carries.append((acc & b) | (t & c))
            acc = t ^ c
        if not len(terms) & 1:
            b = terms[-1]
            carries.append(acc & b)
            acc ^= b
        planes.append(acc)
        terms = carries
    return planes


def _count_above(planes: list[int], limit: int) -> int:
    """The mask of the words whose bit-sliced count exceeds limit >= 0."""
    if limit >> len(planes):
        return 0
    above = 0
    tie = -1
    for k in range(len(planes) - 1, -1, -1):
        if limit >> k & 1:
            tie &= planes[k]
        else:
            above |= tie & planes[k]
            tie &= ~planes[k]
    return above


def _count_max(planes: list[int], words: int) -> int:
    """The largest bit-sliced count over the mask words, -1 when it is
    empty."""
    best = 0 if words else -1
    for k in range(len(planes) - 1, -1, -1):
        hit = words & planes[k]
        if hit:
            words = hit
            best |= 1 << k
    return best
