"""Code families: membership, enumeration, sizing, and best-coset search.

Every family is one record in :data:`_FAMILIES`: its parameters in canonical
order, which of them are fixed (a modulus m or a period P) rather than
residues, the modulus of each residue parameter, and a key function built once per
(n, parameters).  The key maps a word to its residue tuple, or to None when
the word fails the family's structural filter (run bound, periodic-window
bound).  A code is one coset: its members are the words whose key equals the
spec's residue parameters, so membership is O(n) and enumeration just
filters the ascending integer order of Sigma^n.  Each residue parameter
ranges over [0, modulus - 1], and best-coset search counts every key.  Sizes
and best cosets are computed by exact counting rather than pigeonhole floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

from .words import (
    decode,
    inversion_number,
    max_le2_periodic_length,
    parse_word,
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
    "save_code",
    "load_code",
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


@dataclass(frozen=True, slots=True)
class _Family:
    """One code family.

    ``params`` is the canonical parameter order (file headers, the
    lexicographic tie-break of best_coset); ``fixed`` names the parameters
    that are not residues (a modulus m or a period P).  ``layout(n, params)``
    reads only the fixed parameters and returns the modulus of each residue,
    in canonical order, together with the key: the word -> residue tuple
    map, None for a word the structural filter rejects.
    """

    params: tuple[str, ...]
    fixed: tuple[str, ...]
    layout: Callable[[int, dict[str, int]], _Layout]

    @property
    def residues(self) -> tuple[str, ...]:
        return tuple(name for name in self.params if name not in self.fixed)


def _run_bounded(n: int, p: dict[str, int]) -> _Layout:
    cap = (n + 1) // 2
    return (), lambda x: () if run_count(x) <= cap else None


def _rll(n: int, p: dict[str, int]) -> _Layout:
    period = p["P"]
    return (), lambda x: () if max_le2_periodic_length(x) <= period else None


def _vt(n: int, p: dict[str, int]) -> _Layout:
    mod = 2 * n
    return (mod,), lambda x: (vt_syndrome(x, 1) % mod,)


def _inv(n: int, p: dict[str, int]) -> _Layout:
    m = p["m"]
    return (m,), lambda x: (inversion_number(x) % m,)


def _vt_mod(n: int, p: dict[str, int]) -> _Layout:
    m = p["m"]
    return (m,), lambda x: (vt_syndrome(x, 1) % m,)


def _even_pos(n: int, p: dict[str, int]) -> _Layout:
    m = p["m"]
    return (m,), lambda x: (sum(x[i] == "1" for i in range(1, n, 2)) % m,)


def _c2n9(n: int, p: dict[str, int]) -> _Layout:
    m, cap = p["m"], (n + 1) // 2
    return (m,), lambda x: (inversion_number(x) % m,) if run_count(x) <= cap else None


def _cp(n: int, p: dict[str, int]) -> _Layout:
    period = p["P"]
    mod = 1 + period // 2
    return (2, mod), lambda x: (
        (weight(x) % 2, inversion_number(x) % mod)
        if max_le2_periodic_length(x) <= period
        else None
    )


def _cn21(n: int, p: dict[str, int]) -> _Layout:
    period, cap = p["P"], (n + 1) // 2
    mod = 1 + period // 2
    return (2, mod), lambda x: (
        (weight(x) % 2, inversion_number(x) % mod)
        if max_le2_periodic_length(x) <= period and run_count(x) <= cap
        else None
    )


def _cl(n: int, p: dict[str, int]) -> _Layout:
    m1, m2 = 2 * n, 2 * n * n
    return (4, m1, m2), lambda x: (weight(x) % 4, vt_syndrome(x, 1) % m1, vt_syndrome(x, 2) % m2)


_FAMILIES: dict[str, _Family] = {
    FULL: _Family((), (), lambda n, p: ((), lambda x: ())),
    VT: _Family(("a",), (), _vt),
    INV: _Family(("a", "m"), ("m",), _inv),
    VT_MOD: _Family(("a", "m"), ("m",), _vt_mod),
    EVEN_POS: _Family(("a", "m"), ("m",), _even_pos),
    RUN_BOUNDED: _Family((), (), _run_bounded),
    RLL: _Family(("P",), ("P",), _rll),
    CP: _Family(("P", "a1", "a2"), ("P",), _cp),
    C2N9: _Family(("a", "m"), ("m",), _c2n9),
    CN21: _Family(("P", "a1", "a2"), ("P",), _cn21),
    CL: _Family(("a0", "a1", "a2"), (), _cl),
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


def size(cs: CodeSpec) -> int:
    if cs.family == FULL:
        return 1 << cs.n
    return sum(1 for _ in members(cs))


def redundancy(cs: CodeSpec) -> float:
    count = size(cs)
    if count == 0:
        raise ValueError("redundancy of an empty code is undefined")
    return cs.n - math.log2(count)


def coset_key(
    family: str, n: int, *, m: int = 2, P: int | None = None
) -> tuple[_Key, Callable[[tuple[int, ...]], CodeSpec]]:
    """Residue key of a coset search and the map from a key to its coset.

    m fixes the modulus where the family has one; P fixes the period
    (default the smallest even value >= log2(n) + 3).  Structural families,
    which have no residue parameters, are rejected.
    """
    given = {"m": m, "P": default_period(n) if P is None else P}
    fam = _FAMILIES.get(family)
    if fam is None or not fam.residues:
        raise ValueError(f"family {family} has no residue parameters")
    fixed = {name: given[name] for name in fam.fixed}

    def coset(key: tuple[int, ...]) -> CodeSpec:
        return spec(family, n, **fixed, **dict(zip(fam.residues, key)))

    coset(tuple(0 for _ in fam.residues))  # rejects a bad m or P before any scan
    return fam.layout(n, fixed)[1], coset


def best_coset(family: str, n: int, *, m: int = 2, P: int | None = None) -> CodeSpec:
    """Exhaustively find the largest coset of a residue family.

    Ties break toward the lexicographically smallest parameter tuple.  m
    fixes the modulus where the family has one; P fixes the period (default
    the smallest even value >= log2(n) + 3).
    """
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"coset search capped at n <= {ENUMERATION_LIMIT}")
    key_of, coset = coset_key(family, n, m=m, P=P)
    counts: dict[tuple[int, ...], int] = {}
    for value in range(1 << n):
        key = key_of(decode(value, n))
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    best_key = min(
        (key for key in counts),
        key=lambda k: (-counts[k], k),
        default=tuple(0 for _ in _FAMILIES[family].residues),
    )
    return coset(best_key)


def subcode_check(inner: CodeSpec, outer: CodeSpec) -> bool:
    """True when every member of inner also satisfies outer."""
    if inner.n != outer.n:
        raise ValueError("subcode check needs matching lengths")
    key, wanted = _coset(outer)
    return all(key(x) == wanted for x in members(inner))


def _format_header(cs: CodeSpec) -> str:
    kv = ",".join(f"{k}={v}" for k, v in cs.params)
    return f"# family={cs.family} n={cs.n} params={kv}"


def save_code(cs: CodeSpec, out: TextIO, words: Iterable[str] | None = None) -> int:
    """Write the header plus one word per line; returns the word count."""
    print(_format_header(cs), file=out)
    count = 0
    for x in members(cs) if words is None else words:
        print(x, file=out)
        count += 1
    return count


def load_code(src: TextIO) -> tuple[CodeSpec, list[str]]:
    """Parse a code file back into its spec and word list.

    Every word must have the header's length and belong to its code.
    """
    header = src.readline().strip()
    if not header.startswith("# "):
        raise ValueError("missing code file header")
    fields = dict(
        item.split("=", 1) for item in header[2:].split(" ") if "=" in item
    )
    try:
        family = fields["family"]
        n = int(fields["n"])
        raw = fields.get("params", "")
    except KeyError as missing:
        raise ValueError(f"header lacks {missing} field") from None
    params = {}
    if raw:
        for item in raw.split(","):
            key, value = item.split("=", 1)
            params[key] = int(value)
    cs = spec(family, n, **params)
    key, wanted = _coset(cs)
    out = []
    for line in src:
        word = line.strip()
        if word:
            if len(parse_word(word)) != n:
                raise ValueError(f"word {word} has length {len(word)}, header says n={n}")
            if key(word) != wanted:
                raise ValueError(f"word {word} is not a member of {_format_header(cs)[2:]}")
            out.append(word)
    return cs, out
