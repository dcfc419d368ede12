"""Code families: membership, enumeration, sizing, and best-coset search.

Every family is one record in :data:`_FAMILIES`: its parameters in canonical
order, which of them are fixed (a modulus m or a period P) rather than
residues, and two descriptions of the code built once per (n, fixed
parameters).  The layout gives the modulus of each residue parameter (each
ranges over [0, modulus - 1]) and a key: the word -> residue tuple map, None
for a word the family's structural filter rejects (run bound, periodic-window
bound).  A code is one coset: its members are the words whose key equals the
spec's residue parameters, so a membership check is an O(n) string test
and enumeration filters the ascending integer order of Sigma^n.

The counter gives the same code as a counting automaton: filters read one
bit at a time, and the residues follow from weighted bit sums.  Sizes and
best cosets come from one transfer DP over positions that counts every coset
of a family at once, exactly, in time polynomial in n rather than 2^n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add
from typing import Any, Callable, Iterator, NamedTuple

from .words import (
    decode,
    inversion_number,
    max_le2_periodic_length,
    run_count,
    vt_syndrome,
    weight,
)

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
    "coset_key",
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

_Key = Callable[[str], "tuple[int, ...] | None"]
_Layout = tuple[tuple[int, ...], _Key]
# a structural test read one bit at a time: its start state and the step
# (state, bit) -> next state, None once the word is rejected
_Filter = tuple[Any, Callable[[Any, int], Any]]
# a weighted bit sum: its modulus and the weight of (1-indexed) position i
_Sum = tuple[int, Callable[[int], int]]


class _Counter(NamedTuple):
    """The counting automaton of a family at one (n, fixed parameters).

    A word is counted when every filter accepts it; its residues follow from
    the weighted bit sums (in this order) through ``key``, or are the sums
    themselves when ``key`` is None.  Inversions enter as sums too:
    inv(x) = sum of (n - i) over the ones of x, minus C(w, 2) for weight w,
    so a 0 bit leaves every sum unchanged and a 1 bit shifts them by
    constants, whatever the family.
    """

    filters: tuple[_Filter, ...]
    sums: tuple[_Sum, ...]
    key: "Callable[[tuple[int, ...]], tuple[int, ...]] | None" = None


@dataclass(frozen=True, slots=True)
class _Family:
    """One code family.

    ``params`` is the canonical parameter order (CodeSpec.params, the
    lexicographic tie-break of best_coset); ``fixed`` names the parameters
    that are not residues (a modulus m or a period P).  ``layout(n, params)``
    reads only the fixed parameters and returns the modulus of each residue,
    in canonical order, together with the key: the word -> residue tuple
    map, None for a word the structural filter rejects.  ``counter(n,
    params)`` is the same code as a counting automaton (sizes, best cosets).
    """

    params: tuple[str, ...]
    fixed: tuple[str, ...]
    layout: Callable[[int, dict[str, int]], _Layout]
    counter: Callable[[int, dict[str, int]], _Counter]

    @property
    def residues(self) -> tuple[str, ...]:
        return tuple(name for name in self.params if name not in self.fixed)


def _runs_filter(cap: int) -> _Filter:
    """r(x) <= cap; the state is (last bit, runs so far)."""

    def step(state: tuple[int | None, int], bit: int) -> tuple[int, int] | None:
        last, runs = state
        runs += bit != last
        return (bit, runs) if runs <= cap else None

    return (None, 0), step


def _window_filter(period: int) -> _Filter:
    """max_le2_periodic_length(x) <= period; the state is (bit before the
    last, last bit, length of the period-<=2 window ending here)."""

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


def _run_bounded(n: int, p: dict[str, int]) -> _Layout:
    cap = (n + 1) // 2
    return (), lambda x: () if run_count(x) <= cap else None


def _run_bounded_counter(n: int, p: dict[str, int]) -> _Counter:
    return _Counter((_runs_filter((n + 1) // 2),), ())


def _rll(n: int, p: dict[str, int]) -> _Layout:
    period = p["P"]
    return (), lambda x: () if max_le2_periodic_length(x) <= period else None


def _rll_counter(n: int, p: dict[str, int]) -> _Counter:
    return _Counter((_window_filter(p["P"]),), ())


def _vt(n: int, p: dict[str, int]) -> _Layout:
    mod = 2 * n
    return (mod,), lambda x: (vt_syndrome(x, 1) % mod,)


def _vt_counter(n: int, p: dict[str, int]) -> _Counter:
    return _Counter((), ((2 * n, lambda i: i),))


def _inv(n: int, p: dict[str, int]) -> _Layout:
    m = p["m"]
    return (m,), lambda x: (inversion_number(x) % m,)


def _inv_counter(n: int, p: dict[str, int]) -> _Counter:
    m = p["m"]
    return _Counter((), _inversions(n, m), lambda s: (_inversion_residue(m, *s),))


def _vt_mod(n: int, p: dict[str, int]) -> _Layout:
    m = p["m"]
    return (m,), lambda x: (vt_syndrome(x, 1) % m,)


def _vt_mod_counter(n: int, p: dict[str, int]) -> _Counter:
    return _Counter((), ((p["m"], lambda i: i),))


def _even_pos(n: int, p: dict[str, int]) -> _Layout:
    m = p["m"]
    return (m,), lambda x: (sum(x[i] == "1" for i in range(1, n, 2)) % m,)


def _even_pos_counter(n: int, p: dict[str, int]) -> _Counter:
    return _Counter((), ((p["m"], lambda i: 1 - i % 2),))


def _c2n9(n: int, p: dict[str, int]) -> _Layout:
    m, cap = p["m"], (n + 1) // 2
    return (m,), lambda x: (inversion_number(x) % m,) if run_count(x) <= cap else None


def _c2n9_counter(n: int, p: dict[str, int]) -> _Counter:
    m = p["m"]
    return _Counter(
        (_runs_filter((n + 1) // 2),), _inversions(n, m),
        lambda s: (_inversion_residue(m, *s),),
    )


def _cp(n: int, p: dict[str, int]) -> _Layout:
    period = p["P"]
    mod = 1 + period // 2
    return (2, mod), lambda x: (
        (weight(x) % 2, inversion_number(x) % mod)
        if max_le2_periodic_length(x) <= period
        else None
    )


def _parity_inversions(n: int, period: int, filters: tuple[_Filter, ...]) -> _Counter:
    """(weight mod 2, inversions mod 1 + P/2) under the given filters."""
    mod = 1 + period // 2
    return _Counter(
        filters, _inversions(n, mod), lambda s: (s[0] % 2, _inversion_residue(mod, *s))
    )


def _cp_counter(n: int, p: dict[str, int]) -> _Counter:
    return _parity_inversions(n, p["P"], (_window_filter(p["P"]),))


def _cn21(n: int, p: dict[str, int]) -> _Layout:
    period, cap = p["P"], (n + 1) // 2
    mod = 1 + period // 2
    return (2, mod), lambda x: (
        (weight(x) % 2, inversion_number(x) % mod)
        if max_le2_periodic_length(x) <= period and run_count(x) <= cap
        else None
    )


def _cn21_counter(n: int, p: dict[str, int]) -> _Counter:
    return _parity_inversions(
        n, p["P"], (_window_filter(p["P"]), _runs_filter((n + 1) // 2))
    )


def _cl(n: int, p: dict[str, int]) -> _Layout:
    m1, m2 = 2 * n, 2 * n * n
    return (4, m1, m2), lambda x: (weight(x) % 4, vt_syndrome(x, 1) % m1, vt_syndrome(x, 2) % m2)


def _cl_counter(n: int, p: dict[str, int]) -> _Counter:
    return _Counter(
        (), ((4, lambda i: 1), (2 * n, lambda i: i), (2 * n * n, lambda i: i * (i + 1) // 2))
    )


_FAMILIES: dict[str, _Family] = {
    FULL: _Family((), (), lambda n, p: ((), lambda x: ()), lambda n, p: _Counter((), ())),
    VT: _Family(("a",), (), _vt, _vt_counter),
    INV: _Family(("a", "m"), ("m",), _inv, _inv_counter),
    VT_MOD: _Family(("a", "m"), ("m",), _vt_mod, _vt_mod_counter),
    EVEN_POS: _Family(("a", "m"), ("m",), _even_pos, _even_pos_counter),
    RUN_BOUNDED: _Family((), (), _run_bounded, _run_bounded_counter),
    RLL: _Family(("P",), ("P",), _rll, _rll_counter),
    CP: _Family(("P", "a1", "a2"), ("P",), _cp, _cp_counter),
    C2N9: _Family(("a", "m"), ("m",), _c2n9, _c2n9_counter),
    CN21: _Family(("P", "a1", "a2"), ("P",), _cn21, _cn21_counter),
    CL: _Family(("a0", "a1", "a2"), (), _cl, _cl_counter),
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
    for name, mod in zip(fam.residues, fam.layout(n, params)[0]):
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


def _coset(cs: CodeSpec) -> tuple[_Key, tuple[int, ...]]:
    """The key of cs's family and the residue tuple cs's members map to."""
    fam = _FAMILIES[cs.family]
    params = cs.param_dict()
    return fam.layout(cs.n, params)[1], tuple(params[name] for name in fam.residues)


def contains(cs: CodeSpec, x: str) -> bool:
    if len(x) != cs.n:
        raise ValueError(f"word length {len(x)} does not match spec n={cs.n}")
    key, wanted = _coset(cs)
    return key(x) == wanted


def members(cs: CodeSpec) -> Iterator[str]:
    """Stream the code in ascending order; capped at the enumeration limit."""
    if cs.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    key, wanted = _coset(cs)
    for value in range(1 << cs.n):
        x = decode(value, cs.n)
        if key(x) == wanted:
            yield x


def _key_index(key: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    """Position of a residue tuple in mixed radix over the residue moduli."""
    index = 0
    for value, mod in zip(key, moduli):
        index = index * mod + value
    return index


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
    fam = _FAMILIES[cs.family]
    params = cs.param_dict()
    filters, sums, key = fam.counter(cs.n, params)
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
    moduli = fam.layout(cs.n, params)[0]
    counts = [0] * math.prod(moduli)
    for point, count in zip(itertools.product(*map(range, [*mods, rows])), total):
        counts[_key_index(key(point), moduli)] += count
    return counts


def size(cs: CodeSpec) -> int:
    if cs.family != FULL and cs.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    fam = _FAMILIES[cs.family]
    params = cs.param_dict()
    residues = tuple(params[name] for name in fam.residues)
    return _coset_counts(cs)[_key_index(residues, fam.layout(cs.n, params)[0])]


def redundancy(cs: CodeSpec) -> float:
    count = size(cs)
    if count == 0:
        raise ValueError("redundancy of an empty code is undefined")
    return cs.n - math.log2(count)


def coset_key(
    family: str, n: int, *, m: int | None = None, P: int | None = None
) -> tuple[_Key, Callable[[tuple[int, ...]], CodeSpec]]:
    """Residue key of a coset search and the map from a key to its coset.

    m fixes the modulus (default 2) and P the period (default the smallest
    even value >= log2(n) + 3); either is rejected for a family that does
    not take it.  Structural families, which have no residue parameters,
    are rejected.
    """
    values = {"m": 2 if m is None else m, "P": default_period(n) if P is None else P}
    fam = _FAMILIES.get(family)
    if fam is None or not fam.residues:
        raise ValueError(f"family {family} has no residue parameters")
    for name, value in (("m", m), ("P", P)):
        if value is not None and name not in fam.fixed:
            raise ValueError(f"family {family} takes no parameter {name}")
    fixed = {name: values[name] for name in fam.fixed}

    def coset(key: tuple[int, ...]) -> CodeSpec:
        return spec(family, n, **fixed, **dict(zip(fam.residues, key)))

    coset(tuple(0 for _ in fam.residues))  # rejects a bad m or P before any count
    return fam.layout(n, fixed)[1], coset


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
    _, coset = coset_key(family, n, m=m, P=P)
    zero = coset(tuple(0 for _ in _FAMILIES[family].residues))
    counts = _coset_counts(zero)
    index = max(range(len(counts)), key=counts.__getitem__)
    key = []
    for mod in reversed(_FAMILIES[family].layout(n, zero.param_dict())[0]):
        index, value = divmod(index, mod)
        key.append(value)
    return coset(tuple(reversed(key)))


def subcode_check(inner: CodeSpec, outer: CodeSpec) -> bool:
    """True when every member of inner also satisfies outer."""
    if inner.n != outer.n:
        raise ValueError("subcode check needs matching lengths")
    key, wanted = _coset(outer)
    return all(key(x) == wanted for x in members(inner))

