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
the sums, from tables built once per spec.  Enumeration walks the prefixes
depth first, 0 before 1, so it yields the words in ascending integer order
in O(n) memory and drops a prefix as soon as a filter rejects it.  Sizes and best cosets come from one transfer DP
over positions that counts every coset of a family at once, exactly, in time
polynomial in n rather than 2^n.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    "subcode_check",
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
    for name, mod in zip(fam.residues, fam.counter(n, params).moduli):
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

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def param_dict(self) -> dict[str, int]:
        return dict(self.params)


def spec(family: str, n: int, **params: int) -> CodeSpec:
    return CodeSpec(family, n, tuple(params.items()))


def _coset(cs: CodeSpec) -> tuple[_Counter, tuple[int, ...]]:
    """The definition of cs's family at cs's n and fixed parameters, and
    the residue tuple of cs's members."""
    fam = _FAMILIES[cs.family]
    params = cs.param_dict()
    return fam.counter(cs.n, params), tuple(params[name] for name in fam.residues)


@functools.lru_cache(maxsize=256)
def _membership(cs: CodeSpec) -> tuple[
    tuple[tuple[int, ...], ...] | None, tuple[tuple[int, ...], ...], _Counter, tuple[int, ...]
]:
    """What :func:`contains` reads of cs, built once per spec: the filters'
    control table (:func:`_control`, None without filters), each sum's
    weight at every position, the counter and the wanted residues."""
    counter, wanted = _coset(cs)
    control = tuple(map(tuple, _control(counter.filters))) if counter.filters else None
    columns = tuple(tuple(w(i) for i in range(1, cs.n + 1)) for _, w in counter.sums)
    return control, columns, counter, wanted


def contains(cs: CodeSpec, x: str) -> bool:
    if len(x) != cs.n:
        raise ValueError(f"word length {len(x)} does not match spec n={cs.n}")
    control, columns, counter, wanted = _membership(cs)
    bits = [c == "1" for c in parse_word(x)]
    if control is not None:
        state = 0
        for bit in bits:
            state = control[bit][state]
            if state < 0:
                return False
    return counter.residues([sum(itertools.compress(col, bits)) for col in columns]) == wanted


def _control(filters: tuple[_Filter, ...]) -> tuple[list[int], list[int]]:
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
    return nxt


def _walk(counter: _Counter, n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(value, residues) of every length-n word the filters accept, in
    ascending order of value.

    A depth-first walk over prefixes in the filters' control states
    (:func:`_control`): a prefix some filter rejects is dropped with every
    word below it.  A 0 bit is visited before a 1 bit and the stack holds at
    most one waiting sibling per position, so memory stays O(n).  A prefix
    carries its unreduced sums; a 1 bit at position i adds each sum's
    weight at i.
    """
    nxt0, nxt1 = _control(counter.filters)
    weights = [tuple(w(i) for _, w in counter.sums) for i in range(1, n + 1)]
    stack = [(0, 0, 0, (0,) * len(counter.sums))]  # (position, value, state, sums)
    while stack:
        i, value, state, sums = stack.pop()
        if i == n:
            yield value, counter.residues(sums)
            continue
        if nxt1[state] >= 0:
            stack.append((i + 1, value << 1 | 1, nxt1[state], tuple(map(add, sums, weights[i]))))
        if nxt0[state] >= 0:
            stack.append((i + 1, value << 1, nxt0[state], sums))


def members(cs: CodeSpec) -> Iterator[str]:
    """Stream the code in ascending order; capped at the enumeration limit."""
    if cs.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    counter, wanted = _coset(cs)
    for value, residues in _walk(counter, cs.n):
        if residues == wanted:
            yield decode(value, cs.n)


def _key_index(key: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    """Position of a residue tuple in mixed radix over the residue moduli."""
    index = 0
    for value, mod in zip(key, moduli):
        index = index * mod + value
    return index


def _plus(a: list[int], b: list[int]) -> list[int]:
    return list(map(add, a, b))


def _shifted(vec: list[int], sources: list[int], width: int, r: int) -> list[int]:
    """Block k of the result is the block of vec at offset sources[k],
    rotated right by r."""
    cut = width - r
    out: list[int] = []
    for start in sources:
        out += vec[start + cut : start + width]
        out += vec[start : start + cut]
    return out


def _coset_counts(cs: CodeSpec) -> list[int]:
    """Number of words in every coset of cs's family at cs's n and fixed
    parameters, indexed by :func:`_key_index` of the residues.

    One transfer DP over positions.  A layer holds, per live control state
    (:func:`_control`), one row per value of the last weighted sum, None
    until some prefix reaches that value; a row is a flat list of counts
    over the other sums, row-major.  A 0 bit only moves the control state.
    A 1 bit at position i also adds each sum's weight at i: the last sum
    moves whole rows, and inside a row the sum before it rotates every
    block of its width by slicing while the sums before that move blocks.
    A layer thus costs a few list operations per reached row; cl's last
    sum, the order-2 VT sum mod 2n^2, reaches its rows only as its raw
    range i(i+1)(i+2)/6 grows.
    """
    filters, sums, key = _coset(cs)[0]
    nxt0, nxt1 = _control(filters)
    *inner, (rows, last) = sums or ((1, lambda i: 0),)
    mods = [mod for mod, _ in inner]
    width = mods[-1] if mods else 1
    cells = math.prod(mods)
    layer: list[list[list[int] | None] | None] = [None] * len(nxt0)
    layer[0] = [[1] + [0] * (cells - 1)] + [None] * (rows - 1)
    for i in range(1, cs.n + 1):
        sources = [0]
        for mod, w in inner[:-1]:
            d = w(i)
            sources = [s * mod + (e - d) % mod for s in sources for e in range(mod)]
        sources = [s * width for s in sources]
        r = inner[-1][1](i) % width if inner else 0
        d = last(i) % rows
        out: list[list[list[int] | None] | None] = [None] * len(nxt0)
        for c, table in enumerate(layer):
            if table is None:
                continue
            for to, bit in ((nxt0[c], 0), (nxt1[c], 1)):
                if to < 0:
                    continue
                into = out[to]
                if into is None:
                    into = out[to] = [None] * rows
                for k, vec in enumerate(table):
                    if vec is None:
                        continue
                    if bit:
                        k = (k + d) % rows
                        vec = _shifted(vec, sources, width, r) if inner else vec
                    into[k] = vec if into[k] is None else _plus(into[k], vec)
        layer = out
    by_last: list[list[int]] = []
    for k in range(rows):
        reached = [t[k] for t in layer if t is not None and t[k] is not None]
        by_last.append(functools.reduce(_plus, reached) if reached else [0] * cells)
    total = list(itertools.chain.from_iterable(zip(*by_last)))
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
    counter, wanted = _coset(cs)
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
    """
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    zero, coset = _coset_search(family, n, m, P)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for value, residues in _walk(_coset(zero)[0], n):
        buckets.setdefault(residues, []).append(value)
    return buckets, coset


def best_coset(
    family: str, n: int, *, m: int | None = None, P: int | None = None
) -> CodeSpec:
    """The largest coset of a residue family, counted by a transfer DP.

    Ties break toward the lexicographically smallest parameter tuple; when
    no word passes the family's filters, the all-zero tuple.  m fixes the
    modulus (default 2) and P the period (default the smallest even value
    >= log2(n) + 3); either is rejected for a family that does not take it.
    """
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"coset search capped at n <= {ENUMERATION_LIMIT}")
    zero, coset = _coset_search(family, n, m, P)
    counts = _coset_counts(zero)
    index = max(range(len(counts)), key=counts.__getitem__)
    residues = []
    for mod in reversed(_coset(zero)[0].moduli):
        index, value = divmod(index, mod)
        residues.append(value)
    return coset(tuple(reversed(residues)))


def subcode_check(inner: CodeSpec, outer: CodeSpec) -> bool:
    """True when every member of inner also satisfies outer."""
    if inner.n != outer.n:
        raise ValueError("subcode check needs matching lengths")
    return all(contains(outer, x) for x in members(inner))
