"""Per-length mask tables, the bit-sliced kernels over them and the row walk
of the all-pairs sweeps.

Words travel through the hot loops as big-endian integers, bit z of a mask
standing for word z; the per-length mask tables below make a ball
intersection one AND plus a popcount.  The all-pairs sweeps of intersection
bounds and claim tables go row by row with one rule (see _walk_mask): the
pairs of a word x that share a deletion or substitution by definition,
share more than the generic or the global ceiling, or hold a stray, a word
whose deletion or substitution row is not its ball, go through the per-pair
checks one by one.  Each other pair is generic with a size the checks
accept, so they would record nothing for it; it is counted in bulk, and its
size folded into the maxima, from bit-sliced counts over the bmask columns.
So a faulty table cannot hide a pair on which a check would fire.
"""

from __future__ import annotations

import functools
from array import array
from typing import Any, Callable, Iterable, Iterator, Sequence

from .balls import ADJACENT_TRANSPOSITION, CASE_CEILINGS, GENERIC
from .words import _del_bit, _del_set, _maps_rows, _Orbits, _reverse, _reverse_elements, _word_maps


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


# ---------------------------------------------------------------------------
# per-length mask tables, shared copy-on-write with forked workers


def _runs_int(x: int, n: int) -> int:
    if n == 0:
        return 0
    return 1 + ((x ^ (x >> 1)) & ((1 << (n - 1)) - 1)).bit_count()


def _sub_mask(x: int, n: int) -> int:
    """S(x) as a mask over the length-n words."""
    m = 1 << x
    for k in range(n):
        m |= 1 << (x ^ (1 << k))
    return m


class _Tables:
    """The tables of the length-n words x, each built on its first read and
    kept (functools.cached_property), so a call keeps only what it reads:
    run counts (runs); D(x), S(x) and B(x) as masks over words (dmask,
    smask, bmask) and S(z) of the length-(n - 1) words z (prev_smask); the
    row walk's bmask columns and strays (see _walk_mask); the deletions by
    position (dels) and bad-count's witness summaries (summaries).  Kept
    per key on first ask: element lists, equivariance verdicts and coset
    state.

    dmask and bmask come from words._del_set and prev_smask, never from
    each other's rows.  A test that corrupts a row does so before it reads
    what is built from that table: bmask from prev_smask; columns,
    elements and coset from bmask; strays from dmask and smask.
    """

    # per table: the length of the words indexing its rows, less n, and of
    # the words in each row's set (None: a row is a plain value)
    _SHAPES = {
        "runs": (0, None),
        "dmask": (0, -1),
        "smask": (0, 0),
        "bmask": (0, -1),
        "prev_smask": (-1, -1),
        "summaries": (0, -1),
    }

    def __init__(self, n: int) -> None:
        self.n = n
        self._elems: list[array | None] = [None] * (1 << n)
        self._sym: dict[tuple[str, bool], bool] = {}
        self._cosets: dict[tuple[int, ...], tuple[_Orbits, list[array], list[int]]] = {}

    @functools.cached_property
    def runs(self) -> list[int]:
        return [_runs_int(x, self.n) for x in range(1 << self.n)]

    @functools.cached_property
    def prev_smask(self) -> list[int]:
        return [_sub_mask(z, self.n - 1) for z in range(1 << (self.n - 1))]

    @functools.cached_property
    def smask(self) -> list[int]:
        return [_sub_mask(x, self.n) for x in range(1 << self.n)]

    def _over_dels(self, row: Callable[[int], int]) -> list[int]:
        """Per word x, the union of the masks row(z) over z in D(x)."""
        n = self.n
        out = []
        for x in range(1 << n):
            acc = 0
            for z in _del_set(x, n):
                acc |= row(z)
            out.append(acc)
        return out

    @functools.cached_property
    def dmask(self) -> list[int]:
        return self._over_dels(lambda z: 1 << z)

    @functools.cached_property
    def bmask(self) -> list[int]:
        return self._over_dels(self.prev_smask.__getitem__)

    @functools.cached_property
    def columns(self) -> list[int]:
        """Per element z, the mask of the words whose bmask row holds z."""
        words = 1 << self.n
        return _columns(self.elements(range(words)), words, words >> 1)

    @functools.cached_property
    def strays(self) -> int:
        """The mask of the words x whose dmask row is not D(x) or whose
        smask row is not S(x): 0 on sound tables."""
        n = self.n
        return sum(
            1 << x
            for x in range(1 << n)
            if self.dmask[x] != sum(1 << z for z in _del_set(x, n))
            or self.smask[x] != _sub_mask(x, n)
        )

    def elements(self, words: Iterable[int]) -> list[array]:
        """The elements of the bmask row of each of words, ascending.  A
        row's list is extracted on its first ask and kept; its elements are
        below 2^(n - 1) <= 2^13, so two bytes each, not an int object."""
        elems = self._elems
        out = []
        for x in words:
            if elems[x] is None:
                elems[x] = array("H", _bits(self.bmask[x]))
            out.append(elems[x])
        return out

    @functools.cached_property
    def dels(self) -> list[tuple[int, ...]]:
        """Per word, its deletion value per position 1..n, duplicates kept,
        for witness scans."""
        n = self.n
        return [tuple(_del_bit(x, n - i) for i in range(1, n + 1)) for x in range(1 << n)]

    @functools.cached_property
    def summaries(self) -> list[dict[int, tuple[int, ...]]]:
        """Per word x of length n, per z in B(x): the summary
        (min i, max i, lo, pre hi, post hi) of the witnesses
        verify._witness_list(dels[x], z, n).

        i runs over the deletion positions that reach z; lo is the least
        flip index p < i over those witnesses and hi the greatest p > i, n
        and 0 when there is none.  A flip below the deletion has the same
        index in pre- and post-deletion coordinates, so one lo serves both
        conventions.  The positions s..e of one run of x all delete to one
        word w, which reaches w itself and w with post-deletion position q
        flipped: p = q < i for the i > q, and p = q + 1 ("pre") or q
        ("post") is above i for the i <= q ("pre") or i < q ("post").
        """
        n = self.n
        flips = [(1 << b, n - 1 - b) for b in range(n - 1)]
        # the tables share one key object per element and one tuple per
        # distinct summary, which keeps them about four times smaller
        keys = list(range(1 << (n - 1)))
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        out = []
        for dels in self.dels:
            acc: dict[int, list[int]] = {}
            s = 1
            for e, w in enumerate(dels, 1):
                if e < n and dels[e] == w:
                    continue
                items = [(w ^ f, q if e > q else n, q + 1 if s <= q else 0, q if s < q else 0)
                         for f, q in flips]
                items.append((w, n, 0, 0))
                for z, lo, pre_hi, post_hi in items:
                    cur = acc.get(z)
                    if cur is None:
                        acc[z] = [s, e, lo, pre_hi, post_hi]
                        continue
                    cur[1] = e
                    if lo < cur[2]:
                        cur[2] = lo
                    if pre_hi > cur[3]:
                        cur[3] = pre_hi
                    if post_hi > cur[4]:
                        cur[4] = post_hi
                s = e + 1
            table = {}
            for z, v in acc.items():
                t = tuple(v)
                table[keys[z]] = shared.setdefault(t, t)
            out.append(table)
        return out

    def coset(self, members: list[int]) -> tuple[_Orbits, list[array], list[int]]:
        """Kept per ascending members: the orbits verify._coset_rows walks
        on them, their bmask element lists and the member-rank columns of
        those."""
        key = tuple(members)
        if key not in self._cosets:
            orbits = _Orbits(_word_maps(self.n, "g"), members)
            if not (orbits.closed and self.equivariant(("bmask",), "rc")):
                orbits = _Orbits((), members)
            rows = self.elements(members)
            self._cosets[key] = orbits, rows, _columns(rows, len(members), 1 << (self.n - 1))
        return self._cosets[key]

    def equivariant(self, tables: Iterable[str], group: str) -> str:
        """The group, "c" or "rc" as in _word_maps, when every named table
        maps row by row under complement and, for "rc", reversal too
        (_maps_rows), else "": the group whose orbit route the tables allow.

        Every named table is built before any is judged, so a verifier that
        asks before it forks has built them all for its tasks, whatever the
        verdict.  Each table's verdict per map is computed on its first
        call and kept.
        """
        rows = {name: getattr(self, name) for name in tables}
        for name, table in rows.items():
            for rev in (False, "r" in group):
                ok = self._sym.get((name, rev))
                if ok is None:
                    ok = self._sym[name, rev] = _maps_rows(table, self.n, self._SHAPES[name], rev)
                if not ok:
                    return ""
        return group


@functools.cache
def _tables(n: int) -> _Tables:
    return _Tables(n)


# ---------------------------------------------------------------------------
# row walk of the all-pairs sweeps: the close pairs of a row x go through the
# per-pair body one by one, its generic pairs are counted in bulk


def _global_ceiling(n: int) -> int | None:
    """The transposition ceiling, which bounds every pair from n = 6 on."""
    return CASE_CEILINGS[ADJACENT_TRANSPOSITION].ceiling(n) if n >= 6 else None


@functools.cache
def _near_flips(n: int) -> tuple[int, ...]:
    """The masks of one or two bits of a length-n word."""
    return tuple((1 << i) | (1 << j) for j in range(n) for i in range(j + 1))


def _shift_partners(x: int, n: int) -> Iterator[int]:
    """The y whose window differing from x, of two bits or more, is x's
    window shifted one step, either way: shift_a or shift_b in
    verify._bounds_chunk.  An alternating window's complement (alt_comp) is
    both shifts.  Some y come twice.

    With shift_a on the window lo..hi, bit i of x ^ y above lo is bit i of x
    against bit i - 1, bit lo is set, and bit hi must be set too; shift_b
    mirrors that.
    """
    up = x ^ (x << 1)
    down = x ^ (x >> 1)
    for hi in range(1, n):
        if up >> hi & 1:
            for lo in range(hi):
                yield x ^ (up & ((2 << hi) - (2 << lo))) ^ (1 << lo)
    for lo in range(n - 1):
        if down >> lo & 1:
            for hi in range(lo + 1, n):
                yield x ^ (down & ((1 << hi) - (1 << lo))) ^ (1 << hi)


def _walk_mask(tab: _Tables, x: int, planes: list[int], limit: int, scope: int) -> int:
    """The y in the mask scope that the row walk of x sends through the
    per-pair body.

    All of scope if x is a stray (_Tables.strays); else the y that share a
    deletion or substitution with x by definition, which are within
    Hamming distance two or shift partners (_shift_partners), the y whose
    shared ball, counted in planes, holds more than limit elements, and the
    strays.  A pair whose dmask or smask rows share an element is one of
    these, or holds a stray.
    """
    strays = tab.strays
    if strays >> x & 1:
        return scope
    n = tab.n
    near = bytearray(((1 << n) + 7) >> 3)
    for y in [*_shift_partners(x, n), *(x ^ f for f in _near_flips(n))]:
        near[y >> 3] |= 1 << (y & 7)
    return (int.from_bytes(near, "little") | _count_above(planes, limit) | strays) & scope


def _row_walk(
    tab: _Tables, rows: Sequence[int], weights: Sequence[int], group: str
) -> Iterator[tuple[int, int, int, int, int]]:
    """Per row x of rows, per set of partners y of x: x, the weight of each
    pair, the mask of the partners to walk, the number of the other
    partners, and the largest shared-ball size among those (-1 when there
    are none).

    On the full route (group "") the partners of x are the y > x, walked as
    _walk_mask says.  On the orbit route of "rc" x stands for its orbit,
    whose size weights gives, and each pair orbit is seen from one row:
    first the y whose orbit's least word is above x, at that weight, walked as
    _walk_mask says, then the other words of x's orbit, all walked, at half
    of it, as a pair inside the orbit is seen from both its words.  Each
    other partner shares no deletion and no substitution with x, by
    definition and in the tables, and no more elements than the generic and
    the global ceiling allow.  Both sweeps walk with this one rule and limit.
    """
    col_b = tab.columns
    full = (1 << len(tab.bmask)) - 1
    top = len(tab.bmask) - 1
    generic = CASE_CEILINGS[GENERIC].ceiling(tab.n)
    limit = min(generic, _global_ceiling(tab.n) or generic)
    for x, w, row in zip(rows, weights, tab.elements(rows)):
        scope = full & -(2 << x)
        if group:
            # y and its complement above x, then their reversals too
            scope &= (1 << (top - x)) - 1
            scope &= _reverse_elements(scope, tab.n)
        planes = _count_planes(col_b, row)
        walk = _walk_mask(tab, x, planes, limit, scope)
        rest = scope & ~walk
        yield x, w, walk, rest.bit_count(), _count_max(planes, rest)
        if group:
            r = _reverse(x, tab.n)
            yield x, w >> 1, (1 << (x ^ top) | 1 << r | 1 << (r ^ top)) & ~(1 << x), 0, -1
