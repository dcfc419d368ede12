"""Code families: membership, enumeration, sizing, and best-coset search.

Every family is one record in :data:`_FAMILIES`: its parameters in canonical
order, which of them are fixed (a modulus m or a period P) rather than
residues, and its one definition, a counting automaton built once per (n,
fixed parameters).  The automaton reads a word one bit at a time: filters
(run bound, periodic-window bound) may reject it, and weighted bit sums give
its residues, each ranging over [0, modulus - 1].  A code is one coset: its
members are the words every filter accepts whose residues equal the spec's
residue parameters.

Membership steps a word's bits through the filters' control states and
the sums, from tables built once per spec.  Listing meets in the middle:
the high halves of the words come from a depth-first walk, 0 before 1, and
each is joined with the low halves that complete it into the coset, looked
up by their sums in a table built once per control state at the split, so
the words come out in ascending integer order without walking all 2^n.
Sizes and best cosets come from one transfer DP over positions that counts
every coset of a family at once, exactly, in time polynomial in n rather
than 2^n, its counts packed into the lanes of a few big ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from array import array
from dataclasses import dataclass
from operator import add
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .words import decode, parse_word

# unused here, but perfbench/tracing.py wraps these names in this module to
# count calls
from .words import inversion_number, max_le2_periodic_length, run_count  # noqa: F401
from .words import vt_syndrome, weight  # noqa: F401

__all__ = [
    "FULL",
    "VT",
    "INV",
    "VT_MOD",
    "EVEN_POS",
    "RUN_BOUNDED",
    "RLL",
    "CP",
    "C2N9",
    "CN21",
    "CL",
    "FAMILIES",
    "ENUMERATION_LIMIT",
    "CodeSpec",
    "spec",
    "default_period",
    "contains",
    "members",
    "size",
    "redundancy",
    "best_coset",
    "cosets",
]

FULL = "full"
VT = "vt"
INV = "inv"
VT_MOD = "vt_mod"
EVEN_POS = "even_pos"
RUN_BOUNDED = "run_bounded"
RLL = "rll"
CP = "cp"
C2N9 = "c2n9"
CN21 = "cn21"
CL = "cl"

# a structural test read one bit at a time: its start state and the step
# (state, bit) -> next state, None once the word is rejected
_Filter = tuple[Any, Callable[[Any, int], Any]]
# a weighted bit sum: its modulus and the weight of (1-indexed) position i
_Sum = tuple[int, Callable[[int], int]]
# the filters' product read one bit at a time (see _control)
_Control = tuple[tuple[int, ...], tuple[int, ...]]


class _Counter(NamedTuple):
    """The definition of a family at one (n, fixed parameters): a counting
    automaton.

    A word belongs to the family when every filter accepts it.  Its residues
    are the weighted bit sums, each reduced by its modulus, in this order;
    or, when ``key`` is given, ``key`` holds the residue moduli and the map
    from the reduced sums to the residues.  Inversions enter as sums:
    inv(x) = sum of (n - i) over the ones of x, minus C(w, 2) for weight w,
    so a 0 bit leaves every sum unchanged and a 1 bit shifts them by
    constants, whatever the family.
    """

    filters: tuple[_Filter, ...]
    sums: tuple[_Sum, ...]
    key: "tuple[tuple[int, ...], Callable[[tuple[int, ...]], tuple[int, ...]]] | None" = None

    @property
    def moduli(self) -> tuple[int, ...]:
        """The modulus of each residue, in canonical order."""
        return self.key[0] if self.key else tuple(mod for mod, _ in self.sums)

    def residues(self, sums: Iterable[int]) -> tuple[int, ...]:
        """The residues of a word from its unreduced weighted bit sums."""
        reduced = tuple([s % mod for s, (mod, _) in zip(sums, self.sums)])
        return self.key[1](reduced) if self.key else reduced


@dataclass(frozen=True, slots=True)
class _Family:
    """One code family.

    ``params`` is the canonical parameter order (CodeSpec.params, the
    lexicographic tie-break of best_coset); ``fixed`` names the parameters
    that are not residues (a modulus m or a period P).  ``counter(n,
    params)`` reads only the fixed parameters and returns the family's one
    definition, the counting automaton behind membership, listing, sizes
    and best cosets.
    """

    params: tuple[str, ...]
    fixed: tuple[str, ...]
    counter: Callable[[int, dict[str, int]], _Counter]

    @property
    def residues(self) -> tuple[str, ...]:
        return tuple(name for name in self.params if name not in self.fixed)


def _runs_filter(cap: int) -> _Filter:
    """At most cap runs; the state is (last bit, runs so far)."""

    def step(state: tuple[int | None, int], bit: int) -> tuple[int, int] | None:
        last, runs = state
        runs += bit != last
        return (bit, runs) if runs <= cap else None

    return (None, 0), step


def _window_filter(period: int) -> _Filter:
    """No window of period at most 2 longer than period; the state is (bit
    before the last, last bit, length of the period-<=2 window ending here)."""

    def step(state: tuple[Any, Any, int], bit: int) -> tuple[Any, int, int] | None:
        before, last, length = state
        length = length + 1 if before is None or bit == before else 2
        return (last, bit, length) if length <= period else None

    return (None, None, 0), step


def _inversions(n: int, m: int) -> tuple[_Sum, _Sum]:
    """(weight mod 2m, sum of n - i over the ones mod m): inversions mod m
    and the weight mod 2 both follow from them."""
    return (2 * m, lambda i: 1), (m, lambda i: n - i)


def _inversion_residue(m: int, w: int, reverse_sum: int) -> int:
    return (reverse_sum - w * (w - 1) // 2) % m


def _inversions_mod(n: int, m: int, filters: tuple[_Filter, ...]) -> _Counter:
    """Inversions mod m under the given filters."""
    return _Counter(filters, _inversions(n, m), ((m,), lambda s: (_inversion_residue(m, *s),)))


def _parity_inversions(n: int, period: int, filters: tuple[_Filter, ...]) -> _Counter:
    """(weight mod 2, inversions mod 1 + P/2) under the given filters."""
    mod = 1 + period // 2
    return _Counter(
        filters, _inversions(n, mod),
        ((2, mod), lambda s: (s[0] % 2, _inversion_residue(mod, *s))),
    )


def _half_runs(n: int) -> _Filter:
    return _runs_filter((n + 1) // 2)


_FAMILIES: dict[str, _Family] = {
    FULL: _Family((), (), lambda n, p: _Counter((), ())),
    # the VT syndrome sum of i x_i mod 2n
    VT: _Family(("a",), (), lambda n, p: _Counter((), ((2 * n, lambda i: i),))),
    INV: _Family(("a", "m"), ("m",), lambda n, p: _inversions_mod(n, p["m"], ())),
    VT_MOD: _Family(("a", "m"), ("m",), lambda n, p: _Counter((), ((p["m"], lambda i: i),))),
    # the ones at even positions, mod m
    EVEN_POS: _Family(
        ("a", "m"), ("m",), lambda n, p: _Counter((), ((p["m"], lambda i: 1 - i % 2),))
    ),
    RUN_BOUNDED: _Family((), (), lambda n, p: _Counter((_half_runs(n),), ())),
    RLL: _Family(("P",), ("P",), lambda n, p: _Counter((_window_filter(p["P"]),), ())),
    CP: _Family(
        ("P", "a1", "a2"), ("P",),
        lambda n, p: _parity_inversions(n, p["P"], (_window_filter(p["P"]),)),
    ),
    C2N9: _Family(("a", "m"), ("m",), lambda n, p: _inversions_mod(n, p["m"], (_half_runs(n),))),
    CN21: _Family(
        ("P", "a1", "a2"), ("P",),
        lambda n, p: _parity_inversions(n, p["P"], (_window_filter(p["P"]), _half_runs(n))),
    ),
    # weight mod 4, the VT syndrome mod 2n and the order-2 VT syndrome, the
    # sum of i(i+1)/2 x_i, mod 2n^2
    CL: _Family(
        ("a0", "a1", "a2"), (),
        lambda n, p: _Counter(
            (), ((4, lambda i: 1), (2 * n, lambda i: i), (2 * n * n, lambda i: i * (i + 1) // 2))
        ),
    ),
}

FAMILIES = tuple(_FAMILIES)

ENUMERATION_LIMIT = 24


def default_period(n: int) -> int:
    """Smallest even integer P with P >= log2(n) + 3."""
    if n < 1:
        raise ValueError("period needs n >= 1")
    p = math.ceil(math.log2(n) + 3)
    return p if p % 2 == 0 else p + 1


def _check_params(family: str, n: int, params: dict[str, int]) -> None:
    fam = _FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    if set(params) != set(fam.params):
        raise ValueError(
            f"family {family} takes parameters {fam.params}, got {tuple(params)}"
        )
    if "m" in params and params["m"] < 2:
        raise ValueError("modulus m must be at least 2")
    if "P" in params:
        # the inversion modulus 1 + P/2 needs an even period; the bare
        # run-length family is well defined for any positive period
        if fam.residues and (params["P"] < 2 or params["P"] % 2):
            raise ValueError("period P must be even and at least 2")
        if params["P"] < 1:
            raise ValueError("period P must be positive")
    counter = _automaton(family, n, tuple(params[name] for name in fam.fixed))[0]
    for name, mod in zip(fam.residues, counter.moduli):
        if not 0 <= params[name] <= mod - 1:
            raise ValueError(f"parameter {name}={params[name]} outside [0,{mod - 1}]")


@dataclass(frozen=True, slots=True)
class CodeSpec:
    """A code family instance: family id, length, and named parameters.

    params is stored as (name, value) pairs in the family's canonical
    order; build instances through :func:`spec` for keyword convenience.
    """

    family: str
    n: int
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("code length must be positive")
        given = dict(self.params)
        if len(given) != len(self.params):
            raise ValueError("duplicate parameter names")
        _check_params(self.family, self.n, given)
        canonical = tuple((k, given[k]) for k in _FAMILIES[self.family].params)
        object.__setattr__(self, "params", canonical)

    def param_dict(self) -> dict[str, int]:
        return dict(self.params)


def spec(family: str, n: int, **params: int) -> CodeSpec:
    return CodeSpec(family, n, tuple(params.items()))


@functools.lru_cache(maxsize=256)
def _automaton(family: str, n: int, fixed: tuple[int, ...]) -> tuple[_Counter, _Control]:
    """The definition of a family at length n and its fixed parameters (in
    the family's order), and its filters' control table (:func:`_control`),
    built once and shared by membership, listing and counting."""
    fam = _FAMILIES[family]
    counter = fam.counter(n, dict(zip(fam.fixed, fixed)))
    return counter, _control(counter.filters)


def _coset(cs: CodeSpec) -> tuple[_Counter, _Control, tuple[int, ...]]:
    """cs's :func:`_automaton` and the residue tuple of cs's members."""
    fam = _FAMILIES[cs.family]
    params = cs.param_dict()
    counter, control = _automaton(cs.family, cs.n, tuple(params[name] for name in fam.fixed))
    return counter, control, tuple(params[name] for name in fam.residues)


@functools.lru_cache(maxsize=256)
def _membership(cs: CodeSpec) -> tuple[
    _Control | None, tuple[tuple[int, ...], ...], _Counter, tuple[int, ...]
]:
    """What :func:`contains` reads of cs, built once per spec: the filters'
    control table (None without filters), each sum's :func:`_byte_totals`,
    the counter and the wanted residues."""
    counter, control, wanted = _coset(cs)
    totals = tuple(_byte_totals(cs.n, w) for _, w in counter.sums)
    return control if counter.filters else None, totals, counter, wanted


def _byte_totals(n: int, w: Callable[[int], int]) -> tuple[int, ...]:
    """Entry 32o + b: w(n - k) summed over the one bits k of byte b << o."""
    rows: list[list[int]] = [[0] for _ in range(0, n, 8)]
    for k in range(n):  # bit k of a length-n word is its position n - k
        rows[k >> 3] += [x + w(n - k) for x in rows[k >> 3]]
    return tuple(itertools.chain.from_iterable(rows))


def contains(cs: CodeSpec, x: str) -> bool:
    if len(x) != cs.n:
        raise ValueError(f"word length {len(x)} does not match spec n={cs.n}")
    return _contains_int(cs, int(parse_word(x), 2))


def _contains_int(cs: CodeSpec, value: int) -> bool:
    """:func:`contains` on a length-cs.n word's integer value, unchecked."""
    control, totals, counter, wanted = _membership(cs)
    if control is not None:
        state = 0
        for bit in format(value, f"0{cs.n}b"):
            state = control[bit == "1"][state]
            if state < 0:
                return False
    keys = [o << 5 | (value >> o & 255) for o in range(0, cs.n, 8)]
    return counter.residues([sum(map(t.__getitem__, keys)) for t in totals]) == wanted


def _control(filters: tuple[_Filter, ...]) -> _Control:
    """The product of the filters, explored from its start into numbered
    states (the start is 0): the next state after a 0 bit and after a 1
    bit, -1 once some filter rejects."""
    start = tuple(state for state, _ in filters)
    number = {start: 0}
    states = [start]
    nxt: tuple[list[int], list[int]] = ([], [])
    for state in states:  # grows while it is walked
        for bit in (0, 1):
            new = tuple(step(s, bit) for (_, step), s in zip(filters, state))
            if None in new:
                nxt[bit].append(-1)
                continue
            if new not in number:
                number[new] = len(states)
                states.append(new)
            nxt[bit].append(number[new])
    return tuple(nxt[0]), tuple(nxt[1])


def _walk(
    control: _Control, weights: list[tuple[int, ...]], lo: int, hi: int, state: int
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(value, control state, sums) of every path over positions lo + 1 to
    hi from the given control state that the filters accept, in ascending
    order of value.

    A depth-first walk: a prefix some filter rejects is dropped with every
    path below it.  A 0 bit is visited before a 1 bit and the stack holds at
    most one waiting sibling per position, so memory stays O(hi - lo).  The
    value holds the path's bits alone and the sums start at zero, unreduced;
    a 1 bit at position i adds weights[i - 1].
    """
    nxt0, nxt1 = control
    stack = [(lo, 0, state, (0,) * len(weights[0]))]
    while stack:
        i, value, state, sums = stack.pop()
        if i == hi:
            yield value, state, sums
            continue
        if nxt1[state] >= 0:
            stack.append((i + 1, value << 1 | 1, nxt1[state], tuple(map(add, sums, weights[i]))))
        if nxt0[state] >= 0:
            stack.append((i + 1, value << 1, nxt0[state], sums))


def _weights(counter: _Counter, n: int) -> list[tuple[int, ...]]:
    """Each sum's weight at positions 1 to n, a tuple per position."""
    return [tuple(w(i) for _, w in counter.sums) for i in range(1, n + 1)]


def members(cs: CodeSpec) -> Iterator[str]:
    """Stream the code in ascending order; capped at the enumeration limit.

    Meets in the middle at h = n // 2.  The high halves (positions 1 to h)
    come from :func:`_walk`, each with its control state and sums.  Per
    control state that a high half reaches, the low halves accepted from it
    (positions h + 1 to n) are walked once per call into lists keyed by
    their sums reduced by the moduli.  A high half with sums S then reads,
    for each reduced sum tuple t whose residues are the spec's, the key
    t - S; the hits are merged, so every word comes out in ascending order.
    Memory is the tables of about 2^(n/2) low halves each.
    """
    if cs.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    counter, control, wanted = _coset(cs)
    n, h = cs.n, cs.n // 2
    weights = _weights(counter, n)
    mods = [mod for mod, _ in counter.sums]
    # the weights are nonnegative, so a sum never passes their total
    reach = [range(min(mod, top + 1)) for mod, top in zip(mods, map(sum, zip(*weights)))]
    targets = [wanted] if counter.key is None else [
        t for t in itertools.product(*reach) if counter.residues(t) == wanted]
    tables: dict[int, dict[tuple[int, ...], list[int]]] = {}
    for high, state, sums in _walk(control, weights, 0, h, 0):
        lows = tables.get(state)
        if lows is None:
            lows = tables[state] = {}
            for low, _, low_sums in _walk(control, weights, h, n, state):
                lows.setdefault(tuple(map(int.__mod__, low_sums, mods)), []).append(low)
        keys = (tuple([(t - s) % m for t, s, m in zip(ts, sums, mods)]) for ts in targets)
        hits = [lows[k] for k in keys if k in lows]
        high <<= n - h
        for low in hits[0] if len(hits) == 1 else sorted(itertools.chain(*hits)):
            yield decode(high | low, n)


def _key_index(key: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    """Position of a residue tuple in mixed radix over the residue moduli."""
    index = 0
    for value, mod in zip(key, moduli):
        index = index * mod + value
    return index


def _coset_counts(cs: CodeSpec) -> list[int]:
    """Number of words in every coset of cs's family at cs's n and fixed
    parameters, indexed by :func:`_key_index` of the residues.

    One transfer DP over positions.  A layer holds, per live control state
    (:func:`_control`; None while no prefix reaches it), one int per cell,
    a cell being one value of every sum but the last, in mixed radix.  The
    int packs that cell's counts over every value of the last sum (its
    rows) into lanes of a fixed width, row k in lane k; a lane holds 2^n,
    so none overflows, as a prefix of length i has at most 2^i words.  A 0
    bit only moves the control state.  A 1 bit at position i adds each
    sum's weight at i: the states that a 1 bit takes to one next state are
    summed first, then that sum's cells move by one index list, which takes
    each cell from the cell its inner sums come from, and every moved int
    rotates its lanes by the last sum's weight (two shifts, a mask and an
    or).  Both bits merge into their next state with one int add per cell,
    so a layer costs a few big-int operations per cell and live state.  The
    lanes are unpacked once, after the last position, cell by cell, which
    gives the counts cell-major, the last sum varying fastest.
    """
    (_, sums, key), (nxt0, nxt1), _ = _coset(cs)
    *inner, (rows, last) = sums or ((1, lambda i: 0),)
    mods = [mod for mod, _ in inner]
    # a lane is the fewest of 1, 2, 4 or 8 bytes that holds 2^n, unpacked by
    # struct's "<" formats, whose width and byte order are the same on every
    # platform; past n = 63 it has n // 8 + 1 bytes, unpacked one at a time
    width = next((w for w in (1, 2, 4, 8) if 8 * w > cs.n), cs.n // 8 + 1)
    span = 8 * width * rows
    mask = (1 << span) - 1
    layer: list[list[int] | None] = [None] * len(nxt0)
    layer[0] = [1] + [0] * (math.prod(mods) - 1)
    for i in range(1, cs.n + 1):
        sources = [0]
        for mod, w in inner:
            d = w(i)
            sources = [s * mod + (e - d) % mod for s in sources for e in range(mod)]
        up = last(i) % rows * 8 * width
        down = span - up
        out: list[list[int] | None] = [None] * len(nxt0)
        ones: list[list[int] | None] = [None] * len(nxt0)
        for c, cells in enumerate(layer):
            if cells is None:
                continue
            for to, into in ((nxt0[c], out), (nxt1[c], ones)):
                if to >= 0:
                    into[to] = cells if into[to] is None else list(map(add, into[to], cells))
        for to, cells in enumerate(ones):
            if cells is not None:
                moved = [v << up & mask | v >> down for v in map(cells.__getitem__, sources)]
                out[to] = moved if out[to] is None else list(map(add, out[to], moved))
        layer = out
    live = [cells for cells in layer if cells is not None] or [[0] * math.prod(mods)]
    packed = (v.to_bytes(width * rows, "little") for v in map(sum, zip(*live)))
    if width <= 8:
        lanes = struct.Struct(f"<{rows}" + {1: "B", 2: "H", 4: "I", 8: "Q"}[width]).unpack
        total = list(itertools.chain.from_iterable(map(lanes, packed)))
    else:
        total = [int.from_bytes(b[j : j + width], "little")
                 for b in packed for j in range(0, len(b), width)]
    if key is None:
        return total
    moduli, residues_of = key
    counts = [0] * math.prod(moduli)
    for point, count in zip(itertools.product(*map(range, [*mods, rows])), total):
        counts[_key_index(residues_of(point), moduli)] += count
    return counts


def size(cs: CodeSpec) -> int:
    if cs.family != FULL and cs.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    counter, _, wanted = _coset(cs)
    return _coset_counts(cs)[_key_index(wanted, counter.moduli)]


def redundancy(cs: CodeSpec) -> float:
    count = size(cs)
    if count == 0:
        raise ValueError("redundancy of an empty code is undefined")
    return cs.n - math.log2(count)


def _coset_search(
    family: str, n: int, m: int | None, P: int | None
) -> tuple[CodeSpec, Callable[[tuple[int, ...]], CodeSpec]]:
    """The all-zero coset of a coset search and the map from residues to
    their coset.

    m fixes the modulus (default 2) and P the period (default the smallest
    even value >= log2(n) + 3); either is rejected for a family that does
    not take it.  Structural families, which have no residue parameters,
    are rejected.
    """
    fam = _FAMILIES.get(family)
    if fam is None or not fam.residues:
        raise ValueError(f"family {family} has no residue parameters")
    for name, value in (("m", m), ("P", P)):
        if value is not None and name not in fam.fixed:
            raise ValueError(f"family {family} takes no parameter {name}")
    fixed = {}
    if "m" in fam.fixed:
        fixed["m"] = 2 if m is None else m
    if "P" in fam.fixed:  # only a family with a period computes the default
        fixed["P"] = default_period(n) if P is None else P

    def coset(residues: tuple[int, ...]) -> CodeSpec:
        return spec(family, n, **fixed, **dict(zip(fam.residues, residues)))

    # building the zero coset rejects a bad n, m or P before any count
    return coset((0,) * len(fam.residues)), coset


def cosets(
    family: str, n: int, *, m: int | None = None, P: int | None = None
) -> tuple[dict[tuple[int, ...], list[int]], Callable[[tuple[int, ...]], CodeSpec]]:
    """Every nonempty coset of a residue family, as its ascending member
    values keyed by its residues, and the map from residues to the coset.

    m and P are as for :func:`best_coset`; capped at the enumeration limit.
    The walk is kept (_walked), and each call returns fresh lists.
    """
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    zero, coset = _coset_search(family, n, m, P)
    values, residues = _walked(zero)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for value, key in zip(values, zip(*[iter(residues)] * len(_FAMILIES[family].residues))):
        buckets.setdefault(key, []).append(value)
    return buckets, coset


@functools.lru_cache(maxsize=16)
def _walked(zero: CodeSpec) -> tuple[array, array]:
    """The value and residues of every length-n word the filters of zero's
    family accept at zero's fixed parameters, ascending, packed."""
    counter, control, _ = _coset(zero)
    values, residues = array("L"), array("L")
    for value, _, sums in _walk(control, _weights(counter, zero.n), 0, zero.n, 0):
        values.append(value)
        residues.extend(counter.residues(sums))
    return values, residues


def best_coset(
    family: str, n: int, *, m: int | None = None, P: int | None = None
) -> CodeSpec:
    """The largest coset of a residue family, counted by a transfer DP.

    Ties break toward the lexicographically smallest parameter tuple; when
    no word passes the family's filters, the all-zero tuple.  m fixes the
    modulus (default 2) and P the period (default the smallest even value
    >= log2(n) + 3); either is rejected for a family that does not take it.
    """
    return _best(family, n, m, P)[0]


def _best(family: str, n: int, m: int | None, P: int | None) -> tuple[CodeSpec, int]:
    """best_coset and its size, from one count."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"coset search capped at n <= {ENUMERATION_LIMIT}")
    zero, coset = _coset_search(family, n, m, P)
    counts = _coset_counts(zero)
    largest = max(counts)
    index = counts.index(largest)
    residues = []
    for mod in reversed(_coset(zero)[0].moduli):
        index, value = divmod(index, mod)
        residues.append(value)
    return coset(tuple(reversed(residues))), largest
