"""Exhaustive desk-scale verification of the ball algebra and code bounds.

Every verifier returns a :class:`VerificationReport` whose JSON form is
byte-identical for a fixed input regardless of ``jobs``: pair ranges are
partitioned the same way no matter how many workers run, partial results
merge in partition order, and timing is kept out of the canonical output.
Words travel through the hot loops as big-endian integers; the per-length
mask tables below make a ball intersection one AND plus a popcount.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

from . import codes
from .balls import (
    ADJACENT_TRANSPOSITION,
    ALTERNATING_BLOCK,
    CASE_TAGS,
    DEFAULT_WITNESS_CONVENTION,
    RUN_SHIFT,
    SHIFTED_PAIR,
    SINGLE_FLIP,
    TWO_FLIPS,
    WITNESS_CONVENTIONS,
    ds_ball,
)
from .codes import CodeSpec
from .reconstruct import ReadBundle, UNIQUE, collect_reads
from .reconstruct import decode as decode_reads
from .words import decode as to_word
from .words import max_le2_periodic_length, psi

# unused here, but perfbench/tracing.py wraps these names in this module to
# count calls
from .words import inversion_number, run_count, vt_syndrome, weight  # noqa: F401

__all__ = [
    "DEFAULT_SEED",
    "EXHAUSTIVE_LIMIT",
    "STRUCTURED_LIMIT",
    "CODE_CHECKS",
    "VerificationReport",
    "verify_ball_sizes",
    "verify_del_positions",
    "verify_constrained_deletion",
    "verify_intersection_bounds",
    "verify_claim_tables",
    "verify_bad_count",
    "verify_code_theorem",
    "verify_rll",
    "verify_reconstruction",
]

DEFAULT_SEED = 2024

# all-pairs sweeps keep masks for every word, so they stop at desk scale;
# structured sweeps only walk the three parametrised families and go further
EXHAUSTIVE_LIMIT = 14
STRUCTURED_LIMIT = 20

_CE_CAP = 32


# ---------------------------------------------------------------------------
# integer word helpers (position i of a length-n word is bit n - i)


def _del_bit(x: int, k: int) -> int:
    return ((x >> (k + 1)) << k) | (x & ((1 << k) - 1))


def _runs_int(x: int, n: int) -> int:
    if n == 0:
        return 0
    return 1 + ((x ^ (x >> 1)) & ((1 << (n - 1)) - 1)).bit_count()


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _del_set(x: int, n: int) -> set[int]:
    return {_del_bit(x, k) for k in range(n)}


def _sub_set(x: int, n: int) -> set[int]:
    out = {x}
    for k in range(n):
        out.add(x ^ (1 << k))
    return out


def _ds_set(x: int, n: int) -> set[int]:
    out: set[int] = set()
    seen: set[int] = set()
    for k in range(n):
        z = _del_bit(x, k)
        if z in seen:
            continue
        seen.add(z)
        out.add(z)
        for t in range(n - 1):
            out.add(z ^ (1 << t))
    return out


def _cat(*parts: tuple[int, int]) -> int:
    """Concatenate (value, length) pieces most-significant first."""
    v = 0
    for val, ln in parts:
        v = (v << ln) | val
    return v


def _rep(symbol: int, length: int) -> int:
    return ((1 << length) - 1) if symbol else 0


def _has_symbol(v: int, length: int, symbol: int) -> bool:
    if length == 0:
        return False
    return v != 0 if symbol else v != (1 << length) - 1


# ---------------------------------------------------------------------------
# per-length mask tables, shared copy-on-write with forked workers


def _sub_masks(n: int) -> list[int]:
    """Substitution-ball mask of every word of length n."""
    out = []
    for x in range(1 << n):
        m = 1 << x
        for k in range(n):
            m |= 1 << (x ^ (1 << k))
        out.append(m)
    return out


class _Tables:
    __slots__ = ("n", "runs", "dmask", "smask", "prev_smask", "bmask")

    def __init__(self, n: int) -> None:
        self.n = n
        self.runs = [_runs_int(x, n) for x in range(1 << n)]
        prev = self.prev_smask = _sub_masks(n - 1)
        self.smask = _sub_masks(n)
        dmask = self.dmask = []
        bmask = self.bmask = []
        for x in range(1 << n):
            dm = bm = 0
            for z in _del_set(x, n):
                dm |= 1 << z
                bm |= prev[z]
            dmask.append(dm)
            bmask.append(bm)


@functools.cache
def _tables(n: int) -> _Tables:
    return _Tables(n)


@functools.cache
def _dels_by_position(n: int) -> list[tuple[int, ...]]:
    """Deletion value per position 1..n, duplicates kept, for witness scans."""
    return [tuple(_del_bit(x, n - i) for i in range(1, n + 1)) for x in range(1 << n)]


# ---------------------------------------------------------------------------
# reports


@dataclass(slots=True)
class VerificationReport:
    """Outcome of one verifier run.

    ``counterexamples`` is empty exactly when the run passed; SKIPPED marks
    a precondition that left nothing to check.  ``elapsed`` is informative
    only and excluded from the canonical JSON unless explicitly requested.
    """

    target: str
    n_range: tuple[int, int]
    pairs_checked: int
    bound: int | None
    extremal_observed: int | None
    equality_cases: int
    counterexamples: list[dict[str, Any]]
    status: str
    elapsed: float
    detail: dict[str, Any] | None = None

    def to_dict(self, include_timing: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "target": self.target,
            "status": self.status,
            "n_range": list(self.n_range),
            "pairs_checked": self.pairs_checked,
            "bound": self.bound,
            "extremal_observed": self.extremal_observed,
            "equality_cases": self.equality_cases,
            "detail": self.detail,
            "counterexamples": self.counterexamples,
        }
        if include_timing:
            out["elapsed"] = round(self.elapsed, 3)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


def _finish(
    target: str,
    n_range: tuple[int, int],
    pairs: int,
    bound: int | None,
    extremal: int | None,
    eq: int,
    ces: list[dict[str, Any]],
    t0: float,
    detail: dict[str, Any] | None = None,
    skipped: bool = False,
) -> VerificationReport:
    status = "SKIPPED" if skipped else ("FAIL" if ces else "PASS")
    return VerificationReport(
        target=target,
        n_range=n_range,
        pairs_checked=pairs,
        bound=bound,
        extremal_observed=extremal,
        equality_cases=eq,
        counterexamples=ces[:_CE_CAP],
        status=status,
        elapsed=time.monotonic() - t0,
        detail=detail,
    )


def _ce(
    n: int,
    x: int | None,
    y: int | None,
    check: str,
    expected: Any,
    observed: Any,
    **extra: Any,
) -> dict[str, Any]:
    out: dict[str, Any] = {"n": n}
    if x is not None:
        out["x"] = to_word(x, n)
    if y is not None:
        out["y"] = to_word(y, n)
    out["check"] = check
    out["expected"] = expected
    out["observed"] = observed
    out.update(extra)
    return out


_Fail = Callable[[str, Any, Any], None]


def _recorder(ces: list[dict[str, Any]], n: int, x: int, y: int) -> _Fail:
    """fail(check, expected, observed) records a counterexample for the pair x, y."""

    def fail(check: str, expected: Any, observed: Any) -> None:
        if len(ces) < _CE_CAP:
            ces.append(_ce(n, x, y, check, expected, observed))

    return fail


# ---------------------------------------------------------------------------
# task fan-out; partitions depend only on the input, never on jobs


_WORK: dict[str, Any] = {}


def _task_entry(task: tuple) -> dict[str, Any]:
    return _TASK_FNS[task[0]](*task[1:])


def _map_tasks(tasks: list[tuple], jobs: int) -> list[dict[str, Any]]:
    if jobs <= 1 or len(tasks) <= 1:
        return [_task_entry(t) for t in tasks]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [_task_entry(t) for t in tasks]
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(_task_entry, tasks, chunksize=1)


def _row_chunks(n: int, pieces: int = 64) -> list[tuple[int, int]]:
    size = 1 << n
    step = max(1, size // pieces)
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


# ---------------------------------------------------------------------------
# simple per-word verifiers


def verify_ball_sizes(n: int) -> VerificationReport:
    """Check |D(x)| = r(x) and |S(x)| = n + 1 for every word of length n."""
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("ball sizes need n >= 1")
    ces: list[dict[str, Any]] = []
    for x in range(1 << n):
        r = _runs_int(x, n)
        dels = _del_set(x, n)
        if len(dels) != r and len(ces) < _CE_CAP:
            ces.append(_ce(n, x, None, "deletion ball size", r, len(dels)))
        subs = _sub_set(x, n)
        if len(subs) != n + 1 and len(ces) < _CE_CAP:
            ces.append(_ce(n, x, None, "substitution ball size", n + 1, len(subs)))
    return _finish("ball-sizes", (n, n), 1 << n, None, None, 0, ces, t0)


def verify_del_positions(n: int) -> VerificationReport:
    """Deletion balls are run deletions and x(i), x(j) sit j - i apart."""
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("deletion positions need n >= 1")
    ces: list[dict[str, Any]] = []
    checked = 0
    for x in range(1 << n):
        reps = []
        prev = -1
        for i in range(1, n + 1):
            bit = (x >> (n - i)) & 1
            if bit != prev:
                reps.append(_del_bit(x, n - i))
                prev = bit
        if set(reps) != _del_set(x, n) and len(ces) < _CE_CAP:
            ces.append(_ce(n, x, None, "run deletions span the ball", None, None))
        r = len(reps)
        for i in range(r):
            for j in range(i + 1, r):
                checked += 1
                got = (reps[i] ^ reps[j]).bit_count()
                if got != j - i and len(ces) < _CE_CAP:
                    ces.append(
                        _ce(n, x, None, "run deletion distance", j - i, got, i=i + 1, j=j + 1)
                    )
    return _finish("del-positions", (n, n), checked, None, None, 0, ces, t0)


def verify_constrained_deletion(n: int) -> VerificationReport:
    """At most three deletions of v come within distance one of u.

    u goes over all words of length n, v over length n + 1; when exactly
    three deletions qualify, u itself must be one of them.
    """
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("constrained deletion needs n >= 1")
    ces: list[dict[str, Any]] = []
    for v in range(1 << (n + 1)):
        reps = sorted(_del_set(v, n + 1))
        for u in range(1 << n):
            cnt = 0
            has_u = False
            for z in reps:
                if (z ^ u).bit_count() <= 1:
                    cnt += 1
                    if z == u:
                        has_u = True
            if cnt > 3 and len(ces) < _CE_CAP:
                ces.append(_ce(n, u, None, "matching deletions", "<= 3", cnt, v=to_word(v, n + 1)))
            elif cnt == 3 and not has_u and len(ces) < _CE_CAP:
                ces.append(
                    _ce(n, u, None, "three matches include u", True, False, v=to_word(v, n + 1))
                )
    return _finish(
        "constrained-deletion", (n, n), 1 << (2 * n + 1), None, None, 0, ces, t0
    )


# ---------------------------------------------------------------------------
# exhaustive pair sweep: ceilings, equality families, and the structural
# characterizations of shared substitutions / shared deletions


def _bounds_chunk(n: int, lo: int, hi: int) -> dict[str, Any]:
    tab: _Tables = _WORK["tables"][n]
    runs = tab.runs
    dm = tab.dmask
    sm = tab.smask
    bm = tab.bmask
    size = 1 << n
    bound_global = 4 * n - 9 if n >= 6 else None
    pairs = 0
    extremal = -1
    eq = 0
    ces: list[dict[str, Any]] = []
    case_pairs: dict[str, int] = {}
    case_max: dict[str, int] = {}
    # rows padded with their d = 0 tag up to d = n, the most shared
    # deletions a dmask built from n deletions can show
    tags = [row + (row[0],) * (n - 2) for row in (CASE_TAGS[min(h, 3)] for h in range(n + 1))]
    for x in range(lo, hi):
        bx = bm[x]
        sx = sm[x]
        dx = dm[x]
        for y in range(x + 1, size):
            pairs += 1
            diff = x ^ y
            dh = diff.bit_count()
            hi_b = diff.bit_length() - 1
            lo_b = (diff & -diff).bit_length() - 1
            span = hi_b - lo_b + 1
            s_mask = sx & sm[y]
            d_mask = dx & dm[y]
            d = d_mask.bit_count()
            b = (bx & bm[y]).bit_count()

            # shared substitutions: two below Hamming distance three, none above
            if dh == 1:
                if s_mask != (1 << x) | (1 << y) and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "shared substitutions", "{x, y}", s_mask.bit_count()))
            elif dh == 2:
                want = (1 << (x ^ (1 << hi_b))) | (1 << (x ^ (1 << lo_b)))
                if s_mask != want and len(ces) < _CE_CAP:
                    ces.append(
                        _ce(n, x, y, "shared substitutions", "one flip each way", s_mask.bit_count())
                    )
            elif s_mask and len(ces) < _CE_CAP:
                ces.append(_ce(n, x, y, "shared substitutions", 0, s_mask.bit_count()))

            # shared deletions: read off the differing window
            mask_l = (1 << span) - 1
            wx = (x >> lo_b) & mask_l
            wy = (y >> lo_b) & mask_l
            if span >= 2:
                low = (1 << (span - 1)) - 1
                shift_a = (wx & low) == (wy >> 1)
                shift_b = (wy & low) == (wx >> 1)
                alt_comp = wy == wx ^ mask_l and ((wx ^ (wx >> 1)) & low) == low
                if (shift_a and shift_b) != alt_comp and len(ces) < _CE_CAP:
                    ces.append(
                        _ce(n, x, y, "double shift is alternating complement", alt_comp, (shift_a, shift_b))
                    )
            else:
                shift_a = shift_b = alt_comp = False
            want_d = 1 if span == 1 else (2 if alt_comp else (1 if shift_a or shift_b else 0))
            if d != want_d and len(ces) < _CE_CAP:
                ces.append(_ce(n, x, y, "shared deletion count", want_d, d))
            if d == 1:
                z = _del_bit(x, hi_b) if (span == 1 or shift_a) else _del_bit(x, lo_b)
                if d_mask != 1 << z and len(ces) < _CE_CAP:
                    ces.append(
                        _ce(n, x, y, "shared deletion witness", to_word(z, n - 1), _bits(d_mask))
                    )

            case = tags[dh][d]
            case_pairs[case] = case_pairs.get(case, 0) + 1
            if b > case_max.get(case, -1):
                case_max[case] = b

            ceiling = None
            if case is SINGLE_FLIP:
                if n >= 4:
                    ceiling = 3 * n - 5
                    if b > runs[x] + runs[y] + n - 1 and len(ces) < _CE_CAP:
                        ces.append(
                            _ce(n, x, y, "flip run-sum ceiling", runs[x] + runs[y] + n - 1, b)
                        )
                    ra = _runs_int(x >> (hi_b + 1), n - hi_b - 1)
                    rb = _runs_int(x & ((1 << lo_b) - 1), lo_b)
                    in_family = (ra == 0 and rb == n - 1) or (ra == n - 1 and rb == 0)
                    if (b == ceiling) != in_family and len(ces) < _CE_CAP:
                        ces.append(_ce(n, x, y, "flip equality family", in_family, b))
            elif case is ADJACENT_TRANSPOSITION:
                if n >= 5:
                    ceiling = 4 * n - 9
                    ra = _runs_int(x >> (hi_b + 1), n - hi_b - 1)
                    rb = _runs_int(x & ((1 << lo_b) - 1), lo_b)
                    in_family = (ra == 0 and rb == n - 2) or (ra == n - 2 and rb == 0)
                    if (b == ceiling) != in_family and len(ces) < _CE_CAP:
                        ces.append(_ce(n, x, y, "transposition equality family", in_family, b))
            elif case is RUN_SHIFT:
                if n >= 6:
                    ceiling = 3 * n - 7
                    if b > runs[x] + runs[y] + n - 2 and len(ces) < _CE_CAP:
                        ces.append(
                            _ce(n, x, y, "shift run-sum ceiling", runs[x] + runs[y] + n - 2, b)
                        )
            elif case is TWO_FLIPS:
                ceiling = 2 * n + 4
                if b > runs[x] + runs[y] + 8 and len(ces) < _CE_CAP:
                    ces.append(
                        _ce(n, x, y, "two-flip run-sum ceiling", runs[x] + runs[y] + 8, b)
                    )
            elif case is ALTERNATING_BLOCK:
                ceiling = 2 * n + 8
            elif case is SHIFTED_PAIR:
                ceiling = n + 20
            else:
                ceiling = 30
            if ceiling is not None and b > ceiling and len(ces) < _CE_CAP:
                ces.append(_ce(n, x, y, f"{case} ceiling", ceiling, b))
            if bound_global is not None:
                if b > bound_global and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "global ceiling", bound_global, b))
                if b == bound_global and case is ADJACENT_TRANSPOSITION:
                    eq += 1
            if b > extremal:
                extremal = b
    return {
        "pairs": pairs,
        "extremal": extremal,
        "eq": eq,
        "ces": ces,
        "case_pairs": case_pairs,
        "case_max": case_max,
    }


# ---------------------------------------------------------------------------
# structured families: enumeration is canonical, one tuple per unordered pair.
# Each kind is named by its (shared deletions, shared substitutions) class:
# fam22 adjacent transpositions, fam12f single flips, fam12s run shifts and
# fam20 alternating windows.  A pair is x = a.wx.b, y = a.wy.b with an m-bit
# prefix a, where m = params[-1], and a q-bit suffix b.

_FAMILY_KINDS = ("fam22", "fam12f", "fam12s", "fam20")


def _family_params(kind: str, n: int) -> list[tuple[int, ...]]:
    if kind == "fam22" and n >= 3:
        return [(m,) for m in range(n - 1)]
    if kind == "fam12f" and n >= 2:
        return [(m,) for m in range(n)]
    if kind == "fam12s" and n >= 3:
        return [(alpha, ell, m) for alpha in (0, 1) for ell in range(2, n) for m in range(n - ell)]
    if kind == "fam20" and n >= 3:
        return [(ell, m) for ell in range(3, n + 1) for m in range(n - ell + 1)]
    return []


def _window(kind: str, params: tuple[int, ...]) -> tuple[int, int, int]:
    """The differing windows wx, wy and their length."""
    if kind == "fam22":
        return 0b01, 0b10, 2
    if kind == "fam12f":
        return 0, 1, 1
    if kind == "fam12s":
        alpha, ell, _ = params
        run = _rep(alpha, ell)
        return (run << 1) | (1 - alpha), ((1 - alpha) << ell) | run, ell + 1
    ell = params[0]
    c = 0
    for i in range(ell):
        c = (c << 1) | (i & 1)
    return c, c ^ ((1 << ell) - 1), ell


def _structured_pairs(
    kind: str, n: int, params: tuple[int, ...], lo: int, hi: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """Pairs lo..hi of one family window as (a, b, q, x, y)."""
    wx, wy, width = _window(kind, params)
    q = n - width - params[-1]
    for index in range(lo, hi):
        a, b = index >> q, index & ((1 << q) - 1)
        yield a, b, q, (((a << width) | wx) << q) | b, (((a << width) | wy) << q) | b


def _family_tasks(kind: str, depth: str, n: int, piece: int = 1 << 15) -> list[tuple]:
    tasks: list[tuple] = []
    for params in _family_params(kind, n):
        total = 1 << (n - _window(kind, params)[2])
        for lo in range(0, total, piece):
            tasks.append(("structured", kind, depth, n, params, lo, min(lo + piece, total)))
    return tasks


# ceilings of the structured families, per kind, for both check depths:
# check name, smallest n checked, ceiling (c1, c0) = c1 * n + c0, the gap k of the
# equality family (one affix empty, the other n - k runs), and the gap k of
# the run-sum ceiling r(x) + r(y) + n - k; None where a kind has no such check
_CEILINGS: dict[str, tuple[str, int, tuple[int, int], int | None, int | None]] = {
    "fam22": ("transposition", 5, (4, -9), 2, None),
    "fam12f": ("flip", 4, (3, -5), 1, 1),
    "fam12s": ("shift", 6, (3, -7), None, 2),
    "fam20": ("alternating", 0, (2, 8), None, None),
}


# Table of shared-substitution deletion-ball sizes for the transposition and
# flip families, keyed by the last run of the prefix and the first run of the
# suffix relative to the window symbol (see _affix_meta).
def _table2(key: tuple[str | None, str | None], r_sum: int) -> tuple[int, int] | None:
    table = {
        (None, "a"): (r_sum, r_sum + 1),
        (None, "c"): (r_sum + 1, r_sum),
        ("a", "a"): (r_sum - 1, r_sum + 1),
        ("a", "c"): (r_sum, r_sum),
        ("a", None): (r_sum, r_sum + 1),
        ("c", "a"): (r_sum, r_sum),
        ("c", "c"): (r_sum + 1, r_sum - 1),
        ("c", None): (r_sum + 1, r_sum),
    }
    return table.get(key)


# Overlap columns |D(.) ∩ S(.)| per run-count regime; the regime rows with a
# single-run affix split on whether that run matches the window symbol.
def _table3(
    ra: int, rb: int, ca: int | None, cb: int | None, alpha: int
) -> tuple[int, int] | None:
    if ra == 0 and rb == 0:
        return None
    if ra == 0:
        if rb == 1:
            return (1, 2) if cb == alpha else (2, 1)
        return (2, 2)
    if rb == 0:
        if ra == 1:
            return (1, 2) if ca == alpha else (2, 1)
        return (2, 2)
    if ra == 1 and rb == 1:
        if ca == alpha and cb == alpha:
            return (1, 3)
        if ca != alpha and cb != alpha:
            return (3, 1)
        return (2, 2)
    if ra == 1:
        return (2, 3) if ca == alpha else (3, 2)
    if rb == 1:
        return (2, 3) if cb == alpha else (3, 2)
    return (3, 3)


def _table4(key: tuple[str | None, str | None], r_sum: int) -> tuple[int, int]:
    table = {
        (None, None): (1, 3),
        (None, "a"): (r_sum, r_sum + 3),
        (None, "c"): (r_sum + 1, r_sum + 2),
        ("a", "a"): (r_sum - 1, r_sum + 3),
        ("a", "c"): (r_sum, r_sum + 2),
        ("a", None): (r_sum, r_sum + 3),
        ("c", "a"): (r_sum, r_sum + 2),
        ("c", "c"): (r_sum + 1, r_sum + 1),
        ("c", None): (r_sum + 1, r_sum + 2),
    }
    return table[key]


def _affix_meta(
    a: int, m: int, b: int, q: int, alpha: int
) -> tuple[int, int, int | None, int | None, tuple[str | None, str | None]]:
    """Run counts of prefix a and suffix b, the symbol of each single-run
    affix, and the edge key of the claim tables: the last prefix bit and the
    first suffix bit as "a" when equal to alpha, else "c", None when empty."""
    ra = _runs_int(a, m)
    rb = _runs_int(b, q)
    ca = (a & 1) if ra == 1 else None  # any bit of a single run
    cb = ((b >> (q - 1)) & 1) if rb == 1 else None
    la = None if not m else ("a" if a & 1 == alpha else "c")
    fb = None if not q else ("a" if (b >> (q - 1)) & 1 == alpha else "c")
    return ra, rb, ca, cb, (la, fb)


# shared elements outside both terms, by the affix run counts; with both
# affixes a single run there is one exactly when single_runs_extra holds
def _extra_count(ra: int, rb: int, single_runs_extra: bool) -> int:
    if ra == 0 or rb == 0:
        return 0
    if ra == 1 and rb == 1:
        return int(single_runs_extra)
    return 2 if ra >= 2 and rb >= 2 else 1


def _check_regimes(
    kind: str, n: int, ra: int, rb: int, small: int, total: int, fail: _Fail
) -> None:
    """Affixes of at most one run: small; one affix empty: the kind's ceiling,
    reached exactly when the other has n - eq_gap runs; else one less."""
    name, min_n, (c1, c0), eq_gap, _ = _CEILINGS[kind]
    ceiling = c1 * n + c0
    if ra <= 1 and rb <= 1:
        if total > small:
            fail("small-profile ceiling", small, total)
    elif ra == 0 or rb == 0:
        if n >= min_n:
            if total > ceiling:
                fail(f"{name} ceiling", ceiling, total)
            if (total == ceiling) != (ra + rb == n - eq_gap):
                fail(f"{name} equality", ra + rb == n - eq_gap, total)
    elif n >= min_n and total > ceiling - 1:
        fail("mixed-profile ceiling", ceiling - 1, total)


def _check_transposition_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int, fail: _Fail
) -> int:
    (m,) = params
    alpha = 0
    ra, rb, ca, cb, edges = _affix_meta(a, m, b, q, alpha)
    r_sum = ra + rb

    s1 = _cat((a, m), (0b00, 2), (b, q))
    s2 = _cat((a, m), (0b11, 2), (b, q))
    shared_subs = {z for z in _sub_set(x, n) if (z ^ y).bit_count() <= 1}
    if shared_subs != {s1, s2}:
        fail("shared substitution set", 2, len(shared_subs))
    d1 = _cat((a, m), (0, 1), (b, q))
    d2 = _cat((a, m), (1, 1), (b, q))
    if _del_set(x, n) & _del_set(y, n) != {d1, d2}:
        fail("shared deletion set", 2, None)

    s_term = _sub_set(d1, n - 1) | _sub_set(d2, n - 1)
    if len(s_term) != 2 * n - 2:
        fail("substitution term size", 2 * n - 2, len(s_term))
    dd1 = _del_set(s1, n)
    dd2 = _del_set(s2, n)
    if dd1 & dd2:
        fail("deletion term disjoint", 0, len(dd1 & dd2))
    row = _table2(edges, r_sum)
    if row is not None and (len(dd1), len(dd2)) != row:
        fail("deletion term split", row, (len(dd1), len(dd2)))
    d_term = dd1 | dd2
    want_d = 2 * r_sum + 1 if (ra == 0 or rb == 0) else 2 * r_sum
    if row is not None and len(d_term) != want_d:
        fail("deletion term size", want_d, len(d_term))

    col3 = len(dd1 & _sub_set(d1, n - 1))
    col4 = len(dd2 & _sub_set(d2, n - 1))
    cols = _table3(ra, rb, ca, cb, alpha)
    if cols is not None and (col3, col4) != cols:
        fail("overlap columns", cols, (col3, col4))
    overlap = d_term & s_term
    if cols is not None and len(overlap) != col3 + col4:
        fail("overlap size", col3 + col4, len(overlap))

    inter = _ds_set(x, n) & _ds_set(y, n)
    union = s_term | d_term
    if not union <= inter:
        fail("term containment", True, False)
    extra = len(inter) - len(union)
    want_b = _extra_count(ra, rb, ca == cb)
    if extra != want_b:
        fail("extra elements", want_b, extra)

    total = len(inter)
    _check_regimes("fam22", n, ra, rb, 2 * n + 1, total, fail)
    return total


def _check_flip_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int, fail: _Fail
) -> int:
    (m,) = params
    alpha = 0
    ra, rb, ca, cb, edges = _affix_meta(a, m, b, q, alpha)
    r_sum = ra + rb
    rx = _runs_int(x, n)
    ry = _runs_int(y, n)

    ab = _cat((a, m), (b, q))
    if {z for z in _sub_set(x, n) if (z ^ y).bit_count() <= 1} != {x, y}:
        fail("shared substitution set", "{x, y}", None)
    d1 = _del_set(x, n)
    d2 = _del_set(y, n)
    if d1 & d2 != {ab}:
        fail("shared deletion set", 1, len(d1 & d2))

    s_term = _sub_set(ab, n - 1)
    row = _table2(edges, r_sum)
    if row is not None and (len(d1), len(d2)) != row:
        fail("deletion ball split", row, (len(d1), len(d2)))
    d_term = d1 | d2
    if len(d_term) != rx + ry - 1:
        fail("deletion term size", rx + ry - 1, len(d_term))
    if row is not None:
        want_d = 2 * r_sum if (ra == 0 or rb == 0) else 2 * r_sum - 1
        if len(d_term) != want_d:
            fail("deletion term regime", want_d, len(d_term))

    col3 = len(d1 & s_term)
    col4 = len(d2 & s_term)
    cols = _table3(ra, rb, ca, cb, alpha)
    if cols is not None and (col3, col4) != cols:
        fail("overlap columns", cols, (col3, col4))
    overlap = d_term & s_term
    if (d1 & s_term) & (d2 & s_term) != {ab}:
        fail("overlap pivot", "{ab}", None)
    if len(overlap) != col3 + col4 - 1:
        fail("overlap size", col3 + col4 - 1, len(overlap))

    inter = _ds_set(x, n) & _ds_set(y, n)
    union = s_term | d_term
    if not union <= inter:
        fail("term containment", True, False)
    extra = len(inter) - len(union)
    want_b = _extra_count(ra, rb, ca != cb)
    if extra != want_b:
        fail("extra elements", want_b, extra)

    total = len(inter)
    _check_regimes("fam12f", n, ra, rb, n + 3, total, fail)
    if n >= 4 and total > rx + ry + n - 1:
        fail("run-sum ceiling", rx + ry + n - 1, total)
    return total


def _check_shift_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int, fail: _Fail
) -> int:
    alpha, ell, m = params
    beta = 1 - alpha
    ra, rb, _, _, edges = _affix_meta(a, m, b, q, alpha)
    r_sum = ra + rb
    rx = _runs_int(x, n)
    ry = _runs_int(y, n)

    s1 = _cat((a, m), (_rep(alpha, ell + 1), ell + 1), (b, q))
    s2 = _cat((a, m), (beta, 1), (_rep(alpha, ell - 1), ell - 1), (beta, 1), (b, q))
    if {z for z in _sub_set(x, n) if (z ^ y).bit_count() <= 1} != {s1, s2}:
        fail("shared substitution set", 2, None)
    mid = _cat((a, m), (_rep(alpha, ell), ell), (b, q))
    if _del_set(x, n) & _del_set(y, n) != {mid}:
        fail("shared deletion set", 1, None)

    s_term = _sub_set(mid, n - 1)
    dd1 = _del_set(s1, n)
    dd2 = _del_set(s2, n)
    if dd1 & dd2:
        fail("deletion term disjoint", 0, len(dd1 & dd2))
    row = _table4(edges, r_sum)
    if (len(dd1), len(dd2)) != row:
        fail("deletion term split", row, (len(dd1), len(dd2)))
    d_term = dd1 | dd2
    if len(d_term) != rx + ry:
        fail("deletion term size", rx + ry, len(d_term))
    if m == 0 and q == 0:
        want_d = 4
    elif ra == 0 or rb == 0:
        want_d = 2 * r_sum + 3
        if want_d > 2 * n - 2 * ell + 1:
            fail("deletion term cap", 2 * n - 2 * ell + 1, want_d)
    else:
        want_d = 2 * r_sum + 2
        if want_d > 2 * n - 2 * ell:
            fail("deletion term cap", 2 * n - 2 * ell, want_d)
    if len(d_term) != want_d:
        fail("deletion term regime", want_d, len(d_term))

    e1 = _cat((a, m), (beta, 1), (_rep(alpha, ell - 1), ell - 1), (b, q))
    e2 = _cat((a, m), (_rep(alpha, ell - 1), ell - 1), (beta, 1), (b, q))
    if dd2 & s_term != {e1, e2}:
        fail("second overlap component", 2, len(dd2 & s_term))
    comp1 = len(dd1 & s_term)
    want1 = 1 + _has_symbol(a, m, beta) + _has_symbol(b, q, beta)
    if comp1 != want1:
        fail("first overlap component", want1, comp1)
    overlap = d_term & s_term
    if len(overlap) != want1 + 2 or not 3 <= len(overlap) <= 5:
        fail("overlap size", want1 + 2, len(overlap))

    inter = _ds_set(x, n) & _ds_set(y, n)
    union = s_term | d_term
    if not union <= inter:
        fail("term containment", True, False)
    extra = len(inter) - len(union)
    want_b = 1 if (_has_symbol(a, m, alpha) and _has_symbol(b, q, alpha)) else 0
    if extra != want_b:
        fail("extra elements", want_b, extra)

    total = len(inter)
    if n >= 6:
        if total > 3 * n - 7:
            fail("shift ceiling", 3 * n - 7, total)
        if total > rx + ry + n - 2:
            fail("run-sum ceiling", rx + ry + n - 2, total)
    return total


def _check_alternating_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int, fail: _Fail
) -> int:
    ell, m = params
    c = _window("fam20", params)[0]

    if any((z ^ y).bit_count() <= 1 for z in _sub_set(x, n)):
        fail("shared substitution set", 0, None)
    z1 = _cat((a, m), (c & ((1 << (ell - 1)) - 1), ell - 1), (b, q))
    z2 = _cat((a, m), (c >> 1, ell - 1), (b, q))
    if _del_set(x, n) & _del_set(y, n) != {z1, z2}:
        fail("shared deletion set", 2, None)

    s_term = _sub_set(z1, n - 1) | _sub_set(z2, n - 1)
    want_s = 2 * n if ell >= 4 else 2 * n - 2
    if len(s_term) != want_s:
        fail("substitution term size", want_s, len(s_term))

    inter = _ds_set(x, n) & _ds_set(y, n)
    if not s_term <= inter:
        fail("term containment", True, False)
    extra = len(inter) - len(s_term)
    if extra > 8:
        fail("extra elements", "<= 8", extra)
    total = len(inter)
    if total > 2 * n + 8:
        fail("alternating ceiling", 2 * n + 8, total)
    return total


def _check_ceilings(
    kind: str, n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int,
    fail: _Fail,
) -> int:
    name, min_n, (c1, c0), eq_gap, run_gap = _CEILINGS[kind]
    total = len(_ds_set(x, n) & _ds_set(y, n))
    if n < min_n:
        return total
    ceiling = c1 * n + c0
    if total > ceiling:
        fail(f"{name} ceiling", ceiling, total)
    if eq_gap is not None:
        ra, rb, *_ = _affix_meta(a, params[-1], b, q, 0)
        in_family = (ra == 0 and rb == n - eq_gap) or (ra == n - eq_gap and rb == 0)
        if (total == ceiling) != in_family:
            fail(f"{name} equality family", in_family, total)
    if run_gap is not None and total > _runs_int(x, n) + _runs_int(y, n) + n - run_gap:
        fail("run-sum ceiling", None, total)
    return total


_FAMILY_CHECKERS: dict[str, Callable[..., int]] = {
    "fam22": _check_transposition_pair,
    "fam12f": _check_flip_pair,
    "fam12s": _check_shift_pair,
    "fam20": _check_alternating_pair,
}


def _structured_chunk(
    kind: str, depth: str, n: int, params: tuple[int, ...], lo: int, hi: int
) -> dict[str, Any]:
    """Walk pairs lo..hi of one family window.

    depth "full" runs the claim-table checker of the kind; "ceiling" checks
    only the pair's shared-ball size, counting transposition pairs at the
    global ceiling 4n - 9 as equality cases.
    """
    ces: list[dict[str, Any]] = []
    extremal = -1
    eq = 0
    count_eq = depth == "ceiling" and kind == "fam22" and n >= 6
    checker = _FAMILY_CHECKERS[kind]
    for a, b, q, x, y in _structured_pairs(kind, n, params, lo, hi):
        fail = _recorder(ces, n, x, y)
        if depth == "full":
            total = checker(n, params, a, b, q, x, y, fail)
        else:
            total = _check_ceilings(kind, n, params, a, b, q, x, y, fail)
        if count_eq and total == 4 * n - 9:
            eq += 1
        if total > extremal:
            extremal = total
    return {"pairs": hi - lo, "extremal": extremal, "eq": eq, "ces": ces}


def verify_intersection_bounds(
    n: int, *, jobs: int = 1, structured: bool = False
) -> VerificationReport:
    """Ball-intersection ceilings, equality families, and pair structure.

    The exhaustive mode sweeps every unordered pair of length-n words:
    shared substitution and deletion sets must match their window
    characterizations, each of the seven (deletions, substitutions)
    classes must respect its ceiling, the global ceiling 4n - 9 must hold
    with equality exactly on the extremal transposition family (n >= 6),
    and the flip family must peak at 3n - 5 exactly on alternating
    profiles.  Structured mode walks only the transposition, flip, shift,
    and alternating-window families, which reaches longer words.
    """
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("intersection bounds need n >= 1")
    mode = "structured" if structured else "exhaustive"
    limit = STRUCTURED_LIMIT if structured else EXHAUSTIVE_LIMIT
    if n > limit:
        raise ValueError(f"{mode} intersection sweep capped at n <= {limit}")
    bound = 4 * n - 9 if n >= 6 else None
    detail: dict[str, Any] = {"mode": mode}
    if structured:
        tasks = [t for kind in _FAMILY_KINDS for t in _family_tasks(kind, "ceiling", n)]
        if not tasks:
            return _finish(
                "intersection-bounds", (n, n), 0, bound, None, 0, [], t0, detail, skipped=True
            )
        parts = _map_tasks(tasks, jobs)
    else:
        try:
            _WORK["tables"] = {n: _tables(n)}
            parts = _map_tasks([("bounds", n, lo, hi) for lo, hi in _row_chunks(n)], jobs)
        finally:
            _WORK.clear()
        case_pairs: dict[str, int] = {}
        case_max: dict[str, int] = {}
        for part in parts:
            for key, cnt in part["case_pairs"].items():
                case_pairs[key] = case_pairs.get(key, 0) + cnt
            for key, val in part["case_max"].items():
                if val > case_max.get(key, -1):
                    case_max[key] = val
        detail["case_pairs"] = dict(sorted(case_pairs.items()))
        detail["case_extremal"] = dict(sorted(case_max.items()))
    pairs = sum(p["pairs"] for p in parts)
    extremal = max((p["extremal"] for p in parts), default=-1)
    eq = sum(p["eq"] for p in parts)
    ces = [c for p in parts for c in p["ces"]]
    return _finish(
        "intersection-bounds",
        (n, n),
        pairs,
        bound,
        extremal if extremal >= 0 else None,
        eq,
        ces,
        t0,
        detail,
    )


# ---------------------------------------------------------------------------
# exact size accounting: the identity over all pairs, plus the per-family
# tables and regime values on the structured enumerations


def _identity_chunk(n: int, lo: int, hi: int) -> dict[str, Any]:
    tab: _Tables = _WORK["tables"][n]
    runs = tab.runs
    dm = tab.dmask
    sm = tab.smask
    bm = tab.bmask
    prev = tab.prev_smask
    size = 1 << n
    pairs = 0
    extremal = -1
    ces: list[dict[str, Any]] = []
    for x in range(lo, hi):
        bx = bm[x]
        sx = sm[x]
        dx = dm[x]
        for y in range(x + 1, size):
            pairs += 1
            inter = bx & bm[y]
            b = inter.bit_count()
            if b > extremal:
                extremal = b
            s_term = 0
            for z in _bits(dx & dm[y]):
                s_term |= prev[z]
            d_term = 0
            for z in _bits(sx & sm[y]):
                d_term |= dm[z]
            union = s_term | d_term
            if union & ~inter:
                if len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "term containment", True, False))
                continue
            s_sz = s_term.bit_count()
            d_sz = d_term.bit_count()
            extra = b - (s_term | d_term).bit_count()

            diff = x ^ y
            dh = diff.bit_count()
            d = (dx & dm[y]).bit_count()
            if dh == 2 and d == 0:
                # two separated flips: deletion side only
                if d_sz > 2 * n and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "deletion term cap", 2 * n, d_sz))
                if d_sz > runs[x] + runs[y] + 4 and len(ces) < _CE_CAP:
                    ces.append(
                        _ce(n, x, y, "deletion term run cap", runs[x] + runs[y] + 4, d_sz)
                    )
                if extra > 4 and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "extra elements", "<= 4", extra))
                if b > min(2 * n + 4, runs[x] + runs[y] + 8) and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "two-flip ceiling", 2 * n + 4, b))
            elif dh >= 3 and d == 2:
                want_s = 2 * n if dh >= 4 else 2 * n - 2
                if s_sz != want_s and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "substitution term size", want_s, s_sz))
                if extra > 8 and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "extra elements", "<= 8", extra))
            elif dh >= 3 and d == 1:
                if s_sz != n and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "substitution term size", n, s_sz))
                if extra > 20 and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "extra elements", "<= 20", extra))
            elif dh >= 3:
                if b != extra and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "bare intersection", b, extra))
                if b > 30 and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "generic ceiling", 30, b))
    return {"pairs": pairs, "extremal": extremal, "eq": 0, "ces": ces}


_IDENTITY_MAX_N = 10


def verify_claim_tables(n_max: int, *, jobs: int = 1) -> VerificationReport:
    """Exact size accounting for shared ds-balls.

    All pairs up to length ten are decomposed into substitution term,
    deletion term, overlap, and extra elements, checking containment and
    the per-class term sizes and caps.  On top of that the four
    structured families are enumerated up to ``n_max`` and every tabulated
    quantity (term splits, overlap columns, extra-element counts, regime
    ceilings, equality conditions) is recomputed from scratch per pair.
    """
    t0 = time.monotonic()
    if n_max < 2:
        return _finish("claim-tables", (2, n_max), 0, None, None, 0, [], t0, skipped=True)
    if n_max > STRUCTURED_LIMIT:
        raise ValueError(f"claim tables capped at n <= {STRUCTURED_LIMIT}")
    id_top = min(n_max, _IDENTITY_MAX_N)
    tasks: list[tuple] = []
    for n in range(2, id_top + 1):
        tasks.extend(("idpairs", n, lo, hi) for lo, hi in _row_chunks(n))
    family_counts: dict[str, int] = {}
    for n in range(2, n_max + 1):
        for kind in _FAMILY_KINDS:
            fam_tasks = _family_tasks(kind, "full", n)
            tasks.extend(fam_tasks)
            family_counts[kind] = family_counts.get(kind, 0) + sum(
                t[-1] - t[-2] for t in fam_tasks
            )
    try:
        _WORK["tables"] = {n: _tables(n) for n in range(2, id_top + 1)}
        parts = _map_tasks(tasks, jobs)
    finally:
        _WORK.clear()
    pairs = sum(p["pairs"] for p in parts)
    extremal = max((p["extremal"] for p in parts), default=-1)
    ces = [c for p in parts for c in p["ces"]]
    detail = {
        "identity_max_n": id_top,
        "family_pairs": dict(sorted(family_counts.items())),
    }
    return _finish(
        "claim-tables",
        (2, n_max),
        pairs,
        None,
        extremal if extremal >= 0 else None,
        0,
        ces,
        t0,
        detail,
    )


# ---------------------------------------------------------------------------
# bad shared elements of generic pairs, under both index conventions


def _witness_list(
    dels: tuple[int, ...], z: int, n: int
) -> list[tuple[int, int | None, int | None]]:
    """(deletion position, flip pre-index, flip post-index) triples."""
    out = []
    for i, w in enumerate(dels, 1):
        d = w ^ z
        if d == 0:
            out.append((i, None, None))
        elif d & (d - 1) == 0:
            post = (n - 1) - (d.bit_length() - 1)
            out.append((i, post if post < i else post + 1, post))
    return out


def _outside(i: int, j: int, pos: int | None) -> bool:
    if pos is None:
        return False
    return (pos < i and pos < j) or (pos > i and pos > j)


def _bad_chunk(n: int, lo: int, hi: int) -> dict[str, Any]:
    tab: _Tables = _WORK["tables"][n]
    dels = _WORK["dels"]
    convention = _WORK["convention"]
    dm = tab.dmask
    bm = tab.bmask
    size = 1 << n
    pairs = 0
    seen = 0
    max_pre = 0
    max_post = 0
    eq = 0
    ces: list[dict[str, Any]] = []
    for x in range(lo, hi):
        dx = dm[x]
        bx = bm[x]
        wx = dels[x]
        for y in range(x + 1, size):
            if (x ^ y).bit_count() < 3 or dx & dm[y]:
                continue
            pairs += 1
            inter = bx & bm[y]
            if not inter:
                continue
            seen += 1
            wy = dels[y]
            bad_pre = 0
            bad_post = 0
            elements = _bits(inter)
            if len(elements) > 30 and len(ces) < _CE_CAP:
                ces.append(_ce(n, x, y, "generic ceiling", 30, len(elements)))
            for z in elements:
                lx = _witness_list(wx, z, n)
                ly = _witness_list(wy, z, n)
                good_pre = good_post = False
                for i, pre_i, post_i in lx:
                    for j, pre_j, post_j in ly:
                        if not good_pre and (
                            _outside(i, j, pre_i) or _outside(i, j, pre_j)
                        ):
                            good_pre = True
                        if not good_post and (
                            _outside(i, j, post_i) or _outside(i, j, post_j)
                        ):
                            good_post = True
                    if good_pre and good_post:
                        break
                bad_pre += not good_pre
                bad_post += not good_post
            if bad_pre > max_pre:
                max_pre = bad_pre
            if bad_post > max_post:
                max_post = bad_post
            declared = bad_pre if convention == "pre" else bad_post
            if declared == 6:
                eq += 1
            elif declared > 6 and len(ces) < _CE_CAP:
                ces.append(_ce(n, x, y, "bad element count", 6, declared))
    return {
        "pairs": pairs,
        "seen": seen,
        "max_pre": max_pre,
        "max_post": max_post,
        "eq": eq,
        "ces": ces,
    }


def verify_bad_count(
    n: int, *, jobs: int = 1, convention: str = DEFAULT_WITNESS_CONVENTION
) -> VerificationReport:
    """Generic pairs keep at most six bad shared elements.

    A shared element is bad when no witness pair places its flip strictly
    outside the deletion interval; flips are read in pre-deletion
    coordinates under "pre" and post-deletion coordinates under "post".
    Both maxima are reported, the declared convention decides pass/fail.
    """
    t0 = time.monotonic()
    if convention not in WITNESS_CONVENTIONS:
        raise ValueError(f"unknown witness convention {convention!r}")
    if n < 1:
        raise ValueError("bad count needs n >= 1")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"bad count capped at n <= {EXHAUSTIVE_LIMIT}")
    if n < 3:
        return _finish(
            "bad-count", (n, n), 0, 6, None, 0, [], t0,
            {"convention": convention}, skipped=True,
        )
    try:
        _WORK["tables"] = {n: _tables(n)}
        _WORK["dels"] = _dels_by_position(n)
        _WORK["convention"] = convention
        parts = _map_tasks([("bad", n, lo, hi) for lo, hi in _row_chunks(n)], jobs)
    finally:
        _WORK.clear()
    max_pre = max(p["max_pre"] for p in parts)
    max_post = max(p["max_post"] for p in parts)
    detail = {
        "convention": convention,
        "max_bad": {"pre": max_pre, "post": max_post},
        "pairs_with_shared_elements": sum(p["seen"] for p in parts),
    }
    return _finish(
        "bad-count",
        (n, n),
        sum(p["pairs"] for p in parts),
        6,
        max_pre if convention == "pre" else max_post,
        sum(p["eq"] for p in parts),
        [c for p in parts for c in p["ces"]],
        t0,
        detail,
    )


# ---------------------------------------------------------------------------
# code constructions: pairwise ceilings, triple intersections, redundancy


class _CodeCheck(NamedTuple):
    family: str
    ceiling: Callable[[int], int]  # pairwise ball-intersection ceiling at length n
    redundancy_bound: Callable[[int], float]
    # "n - log2(best) <= redundancy_bound(n)" for the largest coset size
    # best, compared in integers where possible so that rounding cannot flip it
    redundancy_ok: Callable[[int, int], bool]


# one row per construction; its cosets are those of codes.coset_key at the
# defaults, modulus two and period codes.default_period(n)
CODE_CHECKS: dict[str, _CodeCheck] = {
    "vt": _CodeCheck(
        codes.VT, lambda n: 30, lambda n: math.log2(n) + 1,
        lambda n, best: best * 2 * n >= 1 << n,
    ),
    "inv": _CodeCheck(
        codes.INV, lambda n: 3 * n - 5, lambda n: 1.0, lambda n, best: best * 2 >= 1 << n,
    ),
    "c2n9": _CodeCheck(
        codes.C2N9, lambda n: 2 * n + 8, lambda n: 2.0, lambda n, best: best * 4 >= 1 << n,
    ),
    "cn21": _CodeCheck(
        codes.CN21, lambda n: n + 20, lambda n: math.log2(math.log2(n)) + 3,
        lambda n, best: best * 8 * math.log2(n) >= 1 << n,
    ),
    "cl": _CodeCheck(
        codes.CL, lambda n: 6, lambda n: 3 * math.log2(n) + 4,
        lambda n, best: best * 16 * n ** 3 >= 1 << n,
    ),
}


def verify_code_theorem(theorem_id: str, n: int, *, jobs: int = 1) -> VerificationReport:
    """Pairwise ball-intersection ceiling and size of one construction.

    Every residue class is checked (modulus fixed to two for the inversion
    based families, matching their redundancy targets).  The parity+VT
    construction additionally requires empty triple intersections and that
    every shared pair element is bad, and reports the weaker reading of
    its redundancy target alongside the exact one.  ``jobs`` is accepted
    but not honoured yet: the sweep always runs in this process.
    """
    t0 = time.monotonic()
    if theorem_id not in CODE_CHECKS:
        raise ValueError(f"unknown construction {theorem_id!r}; pick one of {tuple(CODE_CHECKS)}")
    if n < 2:
        raise ValueError("code checks need n >= 2")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"code checks capped at n <= {EXHAUSTIVE_LIMIT}")
    check = CODE_CHECKS[theorem_id]
    key_of, coset_of = codes.coset_key(check.family, n)
    bound = check.ceiling(n)
    bm = _tables(n).bmask
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x in range(1 << n):
        key = key_of(to_word(x, n))
        if key is not None:
            buckets.setdefault(key, []).append(x)
    ces: list[dict[str, Any]] = []
    pairs = 0
    triples = 0
    extremal = -1
    eq = 0
    dels = _dels_by_position(n) if theorem_id == "cl" else None
    for key in sorted(buckets):
        members = buckets[key]
        k = len(members)
        for i in range(k):
            x = members[i]
            bx = bm[x]
            for j in range(i + 1, k):
                y = members[j]
                pairs += 1
                inter = bx & bm[y]
                b = inter.bit_count()
                if b > extremal:
                    extremal = b
                if b == bound:
                    eq += 1
                elif b > bound and len(ces) < _CE_CAP:
                    ces.append(_ce(n, x, y, "pairwise ceiling", bound, b))
                if dels is not None and inter:
                    for z in _bits(inter):
                        lx = _witness_list(dels[x], z, n)
                        ly = _witness_list(dels[y], z, n)
                        if any(
                            _outside(i2, j2, p1) or _outside(i2, j2, p2)
                            for i2, p1, _ in lx
                            for j2, p2, _ in ly
                        ) and len(ces) < _CE_CAP:
                            ces.append(
                                _ce(n, x, y, "shared element must be bad", True, to_word(z, n - 1))
                            )
        if theorem_id == "cl" and k >= 3:
            for i in range(k):
                for j in range(i + 1, k):
                    common = bm[members[i]] & bm[members[j]]
                    if not common:
                        continue
                    for t in range(j + 1, k):
                        triples += 1
                        if common & bm[members[t]] and len(ces) < _CE_CAP:
                            ces.append(
                                _ce(n, members[i], members[j], "triple intersection", 0, 1,
                                    z=to_word(members[t], n))
                            )
    best_key = min(buckets, key=lambda k2: (-len(buckets[k2]), k2))
    best = len(buckets[best_key])
    coset = coset_of(best_key)
    if {to_word(v, n) for v in buckets[best_key]} != set(codes.members(coset)):
        ces.append(_ce(n, None, None, "coset membership", str(coset), best_key))
    red = n - math.log2(best)
    red_bound = check.redundancy_bound(n)
    if not check.redundancy_ok(n, best):
        ces.append(
            _ce(n, None, None, "redundancy", round(red_bound, 6), round(red, 6))
        )
    detail: dict[str, Any] = {
        "construction": theorem_id,
        "cosets": len(buckets),
        "largest_coset": best,
        "redundancy": round(red, 6),
        "redundancy_bound": round(red_bound, 6),
    }
    if theorem_id == "cn21":
        detail["period"] = codes.default_period(n)
    if theorem_id == "cl":
        detail["triples_checked"] = triples
        detail["alt_redundancy_bound"] = round(math.log2(3 * n) + 4, 6)
        detail["alt_bound_satisfied"] = best * 48 * n >= 1 << n
    return _finish(
        f"code-{theorem_id}", (n, n), pairs, bound, extremal if extremal >= 0 else None,
        eq, ces, t0, detail,
    )


# ---------------------------------------------------------------------------
# window-constrained words


def _psi_rule(w: str) -> int:
    p = psi(w)
    best = 0
    i = 0
    first = True
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        length = j - i
        best = max(best, length if first else length + 1)
        first = False
        i = j
    return best


def _period_scan(w: str) -> int:
    n = len(w)
    best = min(n, 2)
    for i in range(n):
        j = i + 2
        while j < n and w[j] == w[j - 2]:
            j += 1
        if min(j, n) - i > best:
            best = min(j, n) - i
    return best


def verify_rll(n: int, P: int) -> VerificationReport:
    """Three routes to the longest short-period window must agree.

    The implementation scan, a quadratic two-back extension scan, and the
    difference-word run rule are compared on every word of length n, and
    membership at period P is cross-checked against the code family.  When
    P is at least ceil(log2 n) + 3 the member count must reach 3 * 2^(n-2).
    """
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("window check needs n >= 1")
    if P < 1:
        raise ValueError("window check needs P >= 1")
    if n > 16:
        raise ValueError("window check capped at n <= 16")
    cs = codes.spec(codes.RLL, n, P=P)
    ces: list[dict[str, Any]] = []
    count = 0
    for x in range(1 << n):
        w = to_word(x, n)
        impl = max_le2_periodic_length(w)
        scan = _period_scan(w)
        rule = _psi_rule(w)
        if not impl == scan == rule and len(ces) < _CE_CAP:
            ces.append(
                _ce(n, x, None, "window length routes", scan, (impl, rule))
            )
        member = impl <= P
        if member != codes.contains(cs, w) and len(ces) < _CE_CAP:
            ces.append(_ce(n, x, None, "membership", member, not member))
        count += member
    threshold = math.ceil(math.log2(n)) + 3 if n >= 2 else 3
    size_checked = n >= 2 and P >= threshold
    bound = 3 * (1 << (n - 2)) if size_checked else None
    if size_checked and count < bound and len(ces) < _CE_CAP:
        ces.append(_ce(n, None, None, "member count", f">= {bound}", count))
    detail = {
        "period": P,
        "members": count,
        "size_bound_checked": size_checked,
        "threshold": threshold,
    }
    return _finish("rll", (n, n), 1 << n, bound, count, 0, ces, t0, detail)


# ---------------------------------------------------------------------------
# end-to-end reconstruction


def verify_reconstruction(
    code: CodeSpec,
    N: int,
    *,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
    subset_words: int = 20,
    subset_trials: int = 100,
) -> VerificationReport:
    """Decoding distinct reads always returns the transmitted codeword.

    Channel trials draw N distinct reads through the deletion+substitution
    channel from a seeded random eligible codeword; subset trials sample N
    element subsets of the first eligible codewords' balls directly.
    Codewords whose ball holds fewer than N elements cannot produce a
    valid bundle and are skipped.
    """
    t0 = time.monotonic()
    if N < 1:
        raise ValueError("reconstruction needs N >= 1")
    n = code.n
    words = list(codes.members(code))
    eligible = [w for w in words if len(ds_ball(w)) >= N]
    detail: dict[str, Any] = {
        "code": {"family": code.family, "n": n, "params": dict(code.params)},
        "read_count": N,
        "seed": seed,
        "channel_trials": trials,
        "subset_words": min(subset_words, len(eligible)),
        "subset_trials": subset_trials,
        "ineligible_members": len(words) - len(eligible),
    }
    if not eligible:
        return _finish(
            "reconstruction", (n, n), 0, None, None, 0, [], t0, detail, skipped=True
        )
    rng = random.Random(seed)
    ces: list[dict[str, Any]] = []

    def check(w: str, bundle: ReadBundle, label: str) -> None:
        res = decode_reads(code, bundle)
        if (res.status != UNIQUE or res.candidates != (w,)) and len(ces) < _CE_CAP:
            ces.append({"n": n, "x": w, "check": label, "expected": UNIQUE,
                        "observed": res.status, "candidates": list(res.candidates)})

    checked = 0
    for _ in range(trials):
        w = eligible[rng.randrange(len(eligible))]
        check(w, collect_reads(w, N, seed=rng.randrange(1 << 30)), "channel decode")
        checked += 1
    for w in eligible[: subset_words]:
        ball = ds_ball(w)
        for _ in range(subset_trials):
            check(w, ReadBundle(n, tuple(sorted(rng.sample(ball, N)))), "subset decode")
            checked += 1
    return _finish("reconstruction", (n, n), checked, None, None, 0, ces, t0, detail)


_TASK_FNS: dict[str, Callable[..., dict[str, Any]]] = {
    "bounds": _bounds_chunk,
    "idpairs": _identity_chunk,
    "bad": _bad_chunk,
    "structured": _structured_chunk,
}
