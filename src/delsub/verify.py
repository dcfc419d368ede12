"""Exhaustive desk-scale verification of the ball algebra and code bounds.

Reversal and complement map ds-balls onto ds-balls, so each route they keep
walks one representative per orbit of its group (words._Orbits), weighted
with the orbit's size: the all-pairs sweeps on tables that map row by row
(_Tables.equivariant), the structured walks and the closed cosets of the
code checks.  Whether a pair fails a check is the same for its images, so
each route derives its FAIL report: its failing pairs, closed under the
group, name the first _CE_CAP of the full route's, and only those go
through the full route's body (report._sweep, _coset_rows).  The full route
stays for tables that do not map and as the tests' reference.
"""

from __future__ import annotations

import functools
import math
import random
import time
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from . import codes, report
from .balls import (
    ADJACENT_TRANSPOSITION,
    ALTERNATING_BLOCK,
    CASE_CEILINGS,
    CASE_TAGS,
    DEFAULT_WITNESS_CONVENTION,
    GENERIC,
    RUN_SHIFT,
    SHIFTED_PAIR,
    SINGLE_FLIP,
    TWO_FLIPS,
    WITNESS_CONVENTIONS,
    ds_ball,
)
from .codes import CodeSpec
from .reconstruct import DecodeResult, ReadBundle, UNIQUE, _draw_reads, _Memo
from .reconstruct import decode as decode_reads

# unused here, but perfbench/tracing.py wraps this name in this module to
# count calls
from .reconstruct import collect_reads  # noqa: F401
from .report import VerificationReport, _check_jobs, _finish, _map_tasks, _merge, _Sink, _spans
from .report import _sweep, _sweep_tasks
from .tables import _bits, _count_above, _count_max, _count_planes, _global_ceiling, _row_walk
from .tables import _runs_int, _Tables, _tables
from .words import _del_bit, _del_set, _Orbits, _run_dels, _sub_set
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

# pairs per structured task
_FAMILY_PIECE = 1 << 15


# ---------------------------------------------------------------------------
# integer word helpers (position i of a length-n word is bit n - i); the
# deletion and substitution sets _del_bit, _del_set, _run_dels and _sub_set
# are in words, the run count _runs_int in tables


@functools.cache
def _flips(n: int) -> tuple[int, ...]:
    """The n one-bit masks of a length-n word."""
    return tuple(1 << t for t in range(n))


def _ds_inter(dx: list[int], dy: list[int], n: int) -> set[int]:
    """B(x) & B(y) from the run deletions dx = _run_dels(x, n) and
    dy = _run_dels(y, n), as the union of S(u) & S(w) over u in dx, w in dy.

    Only deletion pairs within Hamming distance two contribute: all of S(u)
    when u = w, {u, w} at distance one, and the two mixed words at two.
    """
    out: set[int] = set()
    flips = _flips(n - 1)
    for u in dx:
        for w in dy:
            diff = u ^ w
            dist = diff.bit_count()
            if dist > 2:
                continue
            if dist == 0:
                out.add(u)
                out.update([u ^ f for f in flips])
            elif dist == 1:
                out.add(u)
                out.add(w)
            else:
                low = diff & -diff
                out.add(u ^ low)
                out.add(w ^ low)
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
# simple per-word verifiers


def verify_ball_sizes(n: int) -> VerificationReport:
    """Check |D(x)| = r(x) and |S(x)| = n + 1 for every word of length n."""
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("ball sizes need n >= 1")
    sink = _Sink(n)
    for x in range(1 << n):
        r = _runs_int(x, n)
        dels = _del_set(x, n)
        if len(dels) != r:
            sink.add(x, None, "deletion ball size", r, len(dels))
        subs = _sub_set(x, n)
        if len(subs) != n + 1:
            sink.add(x, None, "substitution ball size", n + 1, len(subs))
    return _finish("ball-sizes", (n, n), 1 << n, None, None, 0, sink.ces, t0)


def verify_del_positions(n: int) -> VerificationReport:
    """Deletion balls are run deletions and x(i), x(j) sit j - i apart."""
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("deletion positions need n >= 1")
    sink = _Sink(n)
    checked = 0
    for x in range(1 << n):
        reps = []
        prev = -1
        for i in range(1, n + 1):
            bit = (x >> (n - i)) & 1
            if bit != prev:
                reps.append(_del_bit(x, n - i))
                prev = bit
        if set(reps) != _del_set(x, n):
            sink.add(x, None, "run deletions span the ball", None, None)
        r = len(reps)
        for i in range(r):
            for j in range(i + 1, r):
                checked += 1
                got = (reps[i] ^ reps[j]).bit_count()
                if got != j - i:
                    sink.add(x, None, "run deletion distance", j - i, got, i=i + 1, j=j + 1)
    return _finish("del-positions", (n, n), checked, None, None, 0, sink.ces, t0)


def verify_constrained_deletion(n: int) -> VerificationReport:
    """At most three deletions of v come within distance one of u.

    u goes over all words of length n, v over length n + 1; when exactly
    three deletions qualify, u itself must be one of them.
    """
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("constrained deletion needs n >= 1")
    sink = _Sink(n)
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
            if cnt > 3:
                sink.add(u, None, "matching deletions", "<= 3", cnt, v=to_word(v, n + 1))
            elif cnt == 3 and not has_u:
                sink.add(u, None, "three matches include u", True, False, v=to_word(v, n + 1))
    return _finish(
        "constrained-deletion", (n, n), 1 << (2 * n + 1), None, None, 0, sink.ces, t0
    )


# ---------------------------------------------------------------------------
# exhaustive pair sweep: ceilings, equality families, and the structural
# characterizations of shared substitutions / shared deletions


def _case_rows(n: int) -> list[list[Any]]:
    """(case, name, ceiling, equality-family runs, run-sum extra, extra-element
    cap) at length n of the structural case in each CASE_TAGS cell, indexed
    by Hamming distance 0..n and shared deletions d.  Each tag row is padded
    with its d = 0 tag up to d = n, the most shared deletions a dmask built
    from n deletions can show, so that a faulty deletion kernel is reported
    instead of raising."""
    cells = {
        case: (case, row.name, *row.limits(n), row.c0 if row.c1 > 0 and row.c0 > 0 else None)
        for case, row in CASE_CEILINGS.items()
    }
    return [
        [cells.get(case) for case in row + (row[0],) * (n - 2)]
        for row in (CASE_TAGS[min(h, 3)] for h in range(n + 1))
    ]


def _in_family(ra: int, rb: int, runs: int) -> bool:
    """Equality family: one affix empty, the other of the given run count."""
    return (ra == 0 and rb == runs) or (ra == runs and rb == 0)


# ---------------------------------------------------------------------------
# the all-pairs sweeps walk rows (tables._row_walk).  Reversal and complement
# keep every quantity the bounds and identity checks read, so those sweeps
# walk the orbits of the group "rc"; bad-count, whose "post" bad sets
# reversal does not keep, pairs up complement orbits of pairs instead
# (_bad_chunk).

# the tables each sweep reads, whose equivariance lets it take the orbit route
_BOUNDS_TABLES = ("runs", "dmask", "smask", "bmask")
_IDENTITY_TABLES = _BOUNDS_TABLES + ("prev_smask",)
_BAD_TABLES = ("dmask", "bmask", "summaries")


def _bounds_chunk(
    n: int, rows: Sequence[int], weights: Sequence[int], group: str
) -> dict[str, Any]:
    """The exhaustive intersection-bounds checks on the pairs of the given
    rows, each pair's counts weighted as its row walk says (_row_walk).

    A pair the row walk leaves out is generic with d = 0 = want_d, and the
    generic case has neither a run-sum ceiling nor an equality family; its
    size is at most the generic ceiling and the global one.  The per-pair
    body records nothing for it, so those pairs only add to the pair counts
    and the maxima.
    """
    tab = _tables(n)
    runs = tab.runs
    dm = tab.dmask
    sm = tab.smask
    bm = tab.bmask
    bound_global = _global_ceiling(n)
    pairs = 0
    extremal = -1
    eq = 0
    sink = _Sink(n, group)
    case_pairs: dict[str, int] = {}
    case_max: dict[str, int] = {}
    cases = _case_rows(n)
    for x, w, walk, bulk, bulk_max in _row_walk(tab, rows, weights, group):
        if bulk:
            pairs += w * bulk
            case_pairs[GENERIC] = case_pairs.get(GENERIC, 0) + w * bulk
            if bulk_max > case_max.get(GENERIC, -1):
                case_max[GENERIC] = bulk_max
            if bulk_max > extremal:
                extremal = bulk_max
        bx = bm[x]
        sx = sm[x]
        dx = dm[x]
        for y in _bits(walk):
            pairs += w
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
                if s_mask != (1 << x) | (1 << y):
                    sink.add(x, y, "shared substitutions", "{x, y}", s_mask.bit_count())
            elif dh == 2:
                want = (1 << (x ^ (1 << hi_b))) | (1 << (x ^ (1 << lo_b)))
                if s_mask != want:
                    sink.add(x, y, "shared substitutions", "one flip each way", s_mask.bit_count())
            elif s_mask:
                sink.add(x, y, "shared substitutions", 0, s_mask.bit_count())

            # shared deletions: read off the differing window
            mask_l = (1 << span) - 1
            wx = (x >> lo_b) & mask_l
            wy = (y >> lo_b) & mask_l
            if span >= 2:
                low = (1 << (span - 1)) - 1
                shift_a = (wx & low) == (wy >> 1)
                shift_b = (wy & low) == (wx >> 1)
                alt_comp = wy == wx ^ mask_l and ((wx ^ (wx >> 1)) & low) == low
                if (shift_a and shift_b) != alt_comp:
                    sink.add(
                        x, y, "double shift is alternating complement", alt_comp, (shift_a, shift_b)
                    )
            else:
                shift_a = shift_b = alt_comp = False
            want_d = 1 if span == 1 else (2 if alt_comp else (1 if shift_a or shift_b else 0))
            if d != want_d:
                sink.add(x, y, "shared deletion count", want_d, d)
            if d == 1:
                z = _del_bit(x, hi_b) if (span == 1 or shift_a) else _del_bit(x, lo_b)
                if d_mask != 1 << z:
                    sink.add(x, y, "shared deletion witness", to_word(z, n - 1), _bits(d_mask))

            case, name, ceiling, eq_runs, run_extra, _ = cases[dh][d]
            case_pairs[case] = case_pairs.get(case, 0) + w
            if b > case_max.get(case, -1):
                case_max[case] = b
            if run_extra is not None and b > runs[x] + runs[y] + run_extra:
                sink.add(x, y, f"{name} run-sum ceiling", runs[x] + runs[y] + run_extra, b)
            if eq_runs is not None:
                ra = _runs_int(x >> (hi_b + 1), n - hi_b - 1)
                rb = _runs_int(x & ((1 << lo_b) - 1), lo_b)
                in_family = _in_family(ra, rb, eq_runs)
                if (b == ceiling) != in_family:
                    sink.add(x, y, f"{name} equality family", in_family, b)
            if ceiling is not None and b > ceiling:
                sink.add(x, y, f"{case} ceiling", ceiling, b)
            if bound_global is not None:
                if b > bound_global:
                    sink.add(x, y, "global ceiling", bound_global, b)
                if b == bound_global and case is ADJACENT_TRANSPOSITION:
                    eq += w
            if b > extremal:
                extremal = b
    return {
        "pairs": pairs,
        "extremal": extremal,
        "eq": eq,
        "ces": sink.ces,
        "fails": sink.fails,
        "case_pairs": case_pairs,
        "case_max": case_max,
    }


# ---------------------------------------------------------------------------
# structured families: enumeration is canonical, one tuple per unordered pair.
# Each kind is named by its (shared deletions, shared substitutions) class:
# fam22 adjacent transpositions, fam12f single flips, fam12s run shifts and
# fam20 alternating windows.  A pair is x = a.wx.b, y = a.wy.b with an m-bit
# prefix a, where m = params[-1], and a q-bit suffix b; pair index i is the
# affixes a.b read as one (m + q)-bit word.
#
# The group {1, reversal, complement, both} maps each family onto itself.
# Reversal takes pair (a, b) of the window with prefix length m to pair
# (b reversed, a reversed) of the window with prefix length q.  Complement
# takes it to the complemented affixes: pair total - 1 - i of the same
# window, x and y swapped, for fam22, fam12f and fam20, and of the window
# with alpha flipped for fam12s.  The checks read the affixes only through
# what the group keeps (run counts, whether single-run symbols agree) or
# permutes along with the checks' own keys (the edge keys and the columns
# of _SPLIT_OFFSETS and _table3), so a pair fails a check exactly when its
# images do.  The orbit route of _family_tasks therefore walks the windows
# with m <= q, weighted 2 when m < q for the reversed window, and the first
# half of each window of two pairs or more, weighted twice for the other.


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


def _family_tasks(kind: str, depth: str, n: int, group: str = "rc") -> list[tuple]:
    """The tasks (_structured_chunk, kind, depth, n, params, lo, hi, weight,
    group) of the kind's walk at the depth over length n, up to
    _FAMILY_PIECE pairs each, on the orbit route of "rc" as above, or on
    the full route (group "").

    The orbit route walks no window with m > q and only the first half of
    the others, so it is sound only while _run_dels, _ds_inter and _sub_set
    commute with reversal and complement: a fault confined to the pairs it
    skips would pass here where the full route fails.  Nothing checks that
    at run time but a FAIL report's derivation (_sweep); the tests check
    the primitives under the group on sampled family pairs up to n = 16.
    """
    params = _family_params(kind, n)
    # reversal swaps a window's prefix and suffix lengths
    windows = _Orbits(
        [lambda p: (*p[:-1], n - _window(kind, p)[2] - p[-1])] if group else (), params
    )
    tasks: list[tuple] = []
    for i, weight in zip(windows.rows, windows.weights):
        total = 1 << (n - _window(kind, params[i])[2])
        if group and total > 1:
            total >>= 1
            weight *= 2
        for lo in range(0, total, _FAMILY_PIECE):
            hi = min(lo + _FAMILY_PIECE, total)
            tasks.append((_structured_chunk, kind, depth, n, params[i], lo, hi, weight, group))
    return tasks


def _family_task(kind: str, depth: str, n: int, pair: tuple[int, int]) -> tuple:
    """The full-route task of the kind's walk at the depth that walks the
    family pair (x, y), in either order, alone: at its window and index."""
    x, y = pair
    q = ((x ^ y) & -(x ^ y)).bit_length() - 1
    width = (x ^ y).bit_length() - q
    # the run inside a fam12s window is of alpha
    params = {"fam12s": (x >> q + 1 & 1, width - 1), "fam20": (width,)}.get(kind, ())
    i = x >> q + width << q | x & (1 << q) - 1
    return _structured_chunk, kind, depth, n, (*params, n - width - q), i, i + 1


# Claim table 2: the deletion-term sizes of the transposition and flip
# families less r(a) + r(b), keyed by the last run of the prefix and the first
# run of the suffix relative to the window symbol (see _affix_meta).  Table 4
# is table 2 with the second size two larger, plus the row (1, 3) for two
# empty affixes, which no transposition or flip pair has.
_SPLIT_OFFSETS: dict[tuple[str | None, str | None], tuple[int, int]] = {
    (None, None): (1, 1),
    (None, "a"): (0, 1),
    (None, "c"): (1, 0),
    ("a", "a"): (-1, 1),
    ("a", "c"): (0, 0),
    ("a", None): (0, 1),
    ("c", "a"): (0, 0),
    ("c", "c"): (1, -1),
    ("c", None): (1, 0),
}


def _table3(
    ra: int, rb: int, ca: int | None, cb: int | None, alpha: int
) -> tuple[int, int] | None:
    """Overlap columns |D(.) ∩ S(.)|: one each, plus one each per nonempty
    affix, save that a single-run affix adds only to the second column when
    its symbol is the window symbol alpha and only to the first otherwise;
    None when both affixes are empty."""
    if ra == 0 and rb == 0:
        return None
    col3 = col4 = 1
    for r, c in ((ra, ca), (rb, cb)):
        if r:
            col3 += r != 1 or c != alpha
            col4 += r != 1 or c == alpha
    return col3, col4


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


@functools.cache
def _family_limits(kind: str, n: int) -> tuple[str, int | None, int | None, int | None]:
    """(name, ceiling, equality-family runs, run-sum extra) at length n of the
    CASE_CEILINGS row of the kind's structural case."""
    row = CASE_CEILINGS[_PAIR_FAMILIES[kind][0]]
    return (row.name, *row.limits(n))


def _check_equality(
    kind: str, n: int, x: int, y: int, ra: int, rb: int, total: int, label: str, sink: _Sink
) -> None:
    """The kind's ceiling, reached exactly on its equality family; label
    names the equality check."""
    name, ceiling, eq_runs, _ = _family_limits(kind, n)
    if total > ceiling:
        sink.add(x, y, f"{name} ceiling", ceiling, total)
    in_family = _in_family(ra, rb, eq_runs)
    if (total == ceiling) != in_family:
        sink.add(x, y, f"{name} {label}", in_family, total)


def _check_regimes(
    kind: str, n: int, x: int, y: int, ra: int, rb: int, small: int, total: int, sink: _Sink
) -> None:
    """Affixes of at most one run: small; one affix empty: _check_equality;
    else one less than the kind's ceiling."""
    ceiling = _family_limits(kind, n)[1]
    if ra <= 1 and rb <= 1:
        if total > small:
            sink.add(x, y, "small-profile ceiling", small, total)
    elif ceiling is None:
        return
    elif ra == 0 or rb == 0:
        _check_equality(kind, n, x, y, ra, rb, total, "equality", sink)
    elif total > ceiling - 1:
        sink.add(x, y, "mixed-profile ceiling", ceiling - 1, total)


def _check_tail(kind: str, n: int, x: int, y: int, total: int, sink: _Sink) -> None:
    """From the kind's smallest n on: its ceiling when it has no equality
    family (the checkers test the others), then its run-sum ceiling."""
    name, ceiling, eq_runs, run_extra = _family_limits(kind, n)
    if ceiling is None:
        return
    if eq_runs is None and total > ceiling:
        sink.add(x, y, f"{name} ceiling", ceiling, total)
    if run_extra is not None:
        run_sum = _runs_int(x, n) + _runs_int(y, n) + run_extra
        if total > run_sum:
            sink.add(x, y, "run-sum ceiling", run_sum, total)


def _check_terms(
    x: int, y: int, union: set[int], inter: set[int], want_b: int, sink: _Sink
) -> None:
    """The union of the terms lies in the shared ball, which holds want_b
    elements more."""
    if not union <= inter:
        sink.add(x, y, "term containment", True, False)
    extra = len(inter) - len(union)
    if extra != want_b:
        sink.add(x, y, "extra elements", want_b, extra)


def _check_transposition_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int,
    rdx: list[int], rdy: list[int], inter: set[int], sink: _Sink,
) -> None:
    (m,) = params
    alpha = 0
    ra, rb, ca, cb, edges = _affix_meta(a, m, b, q, alpha)
    r_sum = ra + rb

    s1 = _cat((a, m), (0b00, 2), (b, q))
    s2 = _cat((a, m), (0b11, 2), (b, q))
    shared_subs = {z for z in _sub_set(x, n) if (z ^ y).bit_count() <= 1}
    if shared_subs != {s1, s2}:
        sink.add(x, y, "shared substitution set", 2, len(shared_subs))
    d1 = _cat((a, m), (0, 1), (b, q))
    d2 = _cat((a, m), (1, 1), (b, q))
    if set(rdx).intersection(rdy) != {d1, d2}:
        sink.add(x, y, "shared deletion set", 2, None)

    sub1 = _sub_set(d1, n - 1)
    sub2 = _sub_set(d2, n - 1)
    s_term = sub1 | sub2
    if len(s_term) != 2 * n - 2:
        sink.add(x, y, "substitution term size", 2 * n - 2, len(s_term))
    dd1 = set(_run_dels(s1, n))
    dd2 = set(_run_dels(s2, n))
    if dd1 & dd2:
        sink.add(x, y, "deletion term disjoint", 0, len(dd1 & dd2))
    row = tuple(r_sum + o for o in _SPLIT_OFFSETS[edges])
    if (len(dd1), len(dd2)) != row:
        sink.add(x, y, "deletion term split", row, (len(dd1), len(dd2)))
    d_term = dd1 | dd2
    want_d = 2 * r_sum + 1 if (ra == 0 or rb == 0) else 2 * r_sum
    if len(d_term) != want_d:
        sink.add(x, y, "deletion term size", want_d, len(d_term))

    col3 = len(dd1 & sub1)
    col4 = len(dd2 & sub2)
    cols = _table3(ra, rb, ca, cb, alpha)
    if cols is not None and (col3, col4) != cols:
        sink.add(x, y, "overlap columns", cols, (col3, col4))
    overlap = d_term & s_term
    if cols is not None and len(overlap) != col3 + col4:
        sink.add(x, y, "overlap size", col3 + col4, len(overlap))

    _check_terms(x, y, s_term | d_term, inter, _extra_count(ra, rb, ca == cb), sink)

    _check_regimes("fam22", n, x, y, ra, rb, 2 * n + 1, len(inter), sink)


def _check_flip_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int,
    rdx: list[int], rdy: list[int], inter: set[int], sink: _Sink,
) -> None:
    (m,) = params
    alpha = 0
    ra, rb, ca, cb, edges = _affix_meta(a, m, b, q, alpha)
    r_sum = ra + rb
    rx = _runs_int(x, n)
    ry = _runs_int(y, n)

    ab = _cat((a, m), (b, q))
    if {z for z in _sub_set(x, n) if (z ^ y).bit_count() <= 1} != {x, y}:
        sink.add(x, y, "shared substitution set", "{x, y}", None)
    d1 = set(rdx)
    d2 = set(rdy)
    if d1 & d2 != {ab}:
        sink.add(x, y, "shared deletion set", 1, len(d1 & d2))

    s_term = _sub_set(ab, n - 1)
    row = tuple(r_sum + o for o in _SPLIT_OFFSETS[edges])
    if (len(d1), len(d2)) != row:
        sink.add(x, y, "deletion ball split", row, (len(d1), len(d2)))
    d_term = d1 | d2
    if len(d_term) != rx + ry - 1:
        sink.add(x, y, "deletion term size", rx + ry - 1, len(d_term))
    want_d = 2 * r_sum if (ra == 0 or rb == 0) else 2 * r_sum - 1
    if len(d_term) != want_d:
        sink.add(x, y, "deletion term regime", want_d, len(d_term))

    col3 = len(d1 & s_term)
    col4 = len(d2 & s_term)
    cols = _table3(ra, rb, ca, cb, alpha)
    if cols is not None and (col3, col4) != cols:
        sink.add(x, y, "overlap columns", cols, (col3, col4))
    overlap = d_term & s_term
    if (d1 & s_term) & (d2 & s_term) != {ab}:
        sink.add(x, y, "overlap pivot", "{ab}", None)
    if len(overlap) != col3 + col4 - 1:
        sink.add(x, y, "overlap size", col3 + col4 - 1, len(overlap))

    _check_terms(x, y, s_term | d_term, inter, _extra_count(ra, rb, ca != cb), sink)

    _check_regimes("fam12f", n, x, y, ra, rb, n + 3, len(inter), sink)


def _check_shift_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int,
    rdx: list[int], rdy: list[int], inter: set[int], sink: _Sink,
) -> None:
    alpha, ell, m = params
    beta = 1 - alpha
    ra, rb, _, _, edges = _affix_meta(a, m, b, q, alpha)
    r_sum = ra + rb
    rx = _runs_int(x, n)
    ry = _runs_int(y, n)

    s1 = _cat((a, m), (_rep(alpha, ell + 1), ell + 1), (b, q))
    s2 = _cat((a, m), (beta, 1), (_rep(alpha, ell - 1), ell - 1), (beta, 1), (b, q))
    if {z for z in _sub_set(x, n) if (z ^ y).bit_count() <= 1} != {s1, s2}:
        sink.add(x, y, "shared substitution set", 2, None)
    mid = _cat((a, m), (_rep(alpha, ell), ell), (b, q))
    if set(rdx).intersection(rdy) != {mid}:
        sink.add(x, y, "shared deletion set", 1, None)

    s_term = _sub_set(mid, n - 1)
    dd1 = set(_run_dels(s1, n))
    dd2 = set(_run_dels(s2, n))
    if dd1 & dd2:
        sink.add(x, y, "deletion term disjoint", 0, len(dd1 & dd2))
    o1, o2 = _SPLIT_OFFSETS[edges]
    row = (r_sum + o1, r_sum + o2 + 2)
    if (len(dd1), len(dd2)) != row:
        sink.add(x, y, "deletion term split", row, (len(dd1), len(dd2)))
    d_term = dd1 | dd2
    if len(d_term) != rx + ry:
        sink.add(x, y, "deletion term size", rx + ry, len(d_term))
    if m == 0 and q == 0:
        want_d = 4
    elif ra == 0 or rb == 0:
        want_d = 2 * r_sum + 3
        if want_d > 2 * n - 2 * ell + 1:
            sink.add(x, y, "deletion term cap", 2 * n - 2 * ell + 1, want_d)
    else:
        want_d = 2 * r_sum + 2
        if want_d > 2 * n - 2 * ell:
            sink.add(x, y, "deletion term cap", 2 * n - 2 * ell, want_d)
    if len(d_term) != want_d:
        sink.add(x, y, "deletion term regime", want_d, len(d_term))

    e1 = _cat((a, m), (beta, 1), (_rep(alpha, ell - 1), ell - 1), (b, q))
    e2 = _cat((a, m), (_rep(alpha, ell - 1), ell - 1), (beta, 1), (b, q))
    if dd2 & s_term != {e1, e2}:
        sink.add(x, y, "second overlap component", 2, len(dd2 & s_term))
    comp1 = len(dd1 & s_term)
    want1 = 1 + _has_symbol(a, m, beta) + _has_symbol(b, q, beta)
    if comp1 != want1:
        sink.add(x, y, "first overlap component", want1, comp1)
    overlap = d_term & s_term
    if len(overlap) != want1 + 2 or not 3 <= len(overlap) <= 5:
        sink.add(x, y, "overlap size", want1 + 2, len(overlap))

    want_b = 1 if (_has_symbol(a, m, alpha) and _has_symbol(b, q, alpha)) else 0
    _check_terms(x, y, s_term | d_term, inter, want_b, sink)


def _check_alternating_pair(
    n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int,
    rdx: list[int], rdy: list[int], inter: set[int], sink: _Sink,
) -> None:
    ell, m = params
    c = _window("fam20", params)[0]

    if any((z ^ y).bit_count() <= 1 for z in _sub_set(x, n)):
        sink.add(x, y, "shared substitution set", 0, None)
    z1 = _cat((a, m), (c & ((1 << (ell - 1)) - 1), ell - 1), (b, q))
    z2 = _cat((a, m), (c >> 1, ell - 1), (b, q))
    if set(rdx).intersection(rdy) != {z1, z2}:
        sink.add(x, y, "shared deletion set", 2, None)

    s_term = _sub_set(z1, n - 1) | _sub_set(z2, n - 1)
    want_s = 2 * n if ell >= 4 else 2 * n - 2
    if len(s_term) != want_s:
        sink.add(x, y, "substitution term size", want_s, len(s_term))

    if not s_term <= inter:
        sink.add(x, y, "term containment", True, False)
    extra = len(inter) - len(s_term)
    cap = CASE_CEILINGS[ALTERNATING_BLOCK].c0
    if extra > cap:
        sink.add(x, y, "extra elements", f"<= {cap}", extra)


def _check_ceilings(
    kind: str, n: int, params: tuple[int, ...], a: int, b: int, q: int, x: int, y: int,
    rdx: list[int], rdy: list[int], inter: set[int], sink: _Sink,
) -> None:
    """_check_equality where the kind has an equality family."""
    if _family_limits(kind, n)[2] is not None:
        ra, rb = _runs_int(a, params[-1]), _runs_int(b, q)
        _check_equality(kind, n, x, y, ra, rb, len(inter), "equality family", sink)


# per kind: the structural case whose CASE_CEILINGS row it is checked against,
# and its claim-table checker, which _structured_chunk calls with the pair
_PAIR_FAMILIES: dict[str, tuple[str, Callable[..., None]]] = {
    "fam22": (ADJACENT_TRANSPOSITION, _check_transposition_pair),
    "fam12f": (SINGLE_FLIP, _check_flip_pair),
    "fam12s": (RUN_SHIFT, _check_shift_pair),
    "fam20": (ALTERNATING_BLOCK, _check_alternating_pair),
}
_FAMILY_KINDS = tuple(_PAIR_FAMILIES)


def _structured_chunk(
    kind: str, depth: str, n: int, params: tuple[int, ...], lo: int, hi: int,
    weight: int = 1, group: str = "",
) -> dict[str, Any]:
    """Walk pairs lo..hi of one family window, counting each pair and each
    equality case weight times (the orbit route of _family_tasks, which
    names its group and gives the weight).

    Each pair's run deletions rdx = _run_dels(x, n), rdy = _run_dels(y, n)
    and shared ball _ds_inter(rdx, rdy, n) are built here and nowhere else,
    and handed with the pair to the check of the depth: the kind's
    claim-table checker at "full", _check_ceilings at "ceiling".  Both
    depths end each pair with _check_tail; at "ceiling", transposition pairs
    at the global ceiling count as equality cases.
    """
    sink = _Sink(n, group, functools.partial(_family_task, kind, depth, n))
    extremal = -1
    eq = 0
    eq_at = _global_ceiling(n) if depth == "ceiling" and kind == "fam22" else None
    check = _PAIR_FAMILIES[kind][1] if depth == "full" else functools.partial(_check_ceilings, kind)
    for a, b, q, x, y in _structured_pairs(kind, n, params, lo, hi):
        rdx = _run_dels(x, n)
        rdy = _run_dels(y, n)
        inter = _ds_inter(rdx, rdy, n)
        check(n, params, a, b, q, x, y, rdx, rdy, inter, sink)
        total = len(inter)
        _check_tail(kind, n, x, y, total, sink)
        if total == eq_at:
            eq += 1
        if total > extremal:
            extremal = total
    return {"pairs": (hi - lo) * weight, "extremal": extremal, "eq": eq * weight, "ces": sink.ces,
            "fails": sink.fails}


def verify_intersection_bounds(
    n: int, *, jobs: int = 1, structured: bool = False
) -> VerificationReport:
    """Ball-intersection ceilings, equality families, and pair structure.

    The exhaustive mode sweeps every unordered pair of length-n words:
    shared substitution and deletion sets must match their window
    characterizations, and each of the seven structural cases must respect
    its row of balls.CASE_CEILINGS: its ceiling, its run-sum ceiling, and
    for transpositions and flips the equality family on which the ceiling
    is reached.  The global ceiling, the transposition row from n = 6 on,
    must hold with equality exactly on the extremal transposition family.
    Only the close pairs of each word go through these checks one by one
    (_walk_mask); every other pair is generic, shares no deletion or
    substitution by definition or in the tables, and stays within the
    generic and global ceilings, so none of the checks can fire on it, and
    it is counted into the generic case in bulk.  Structured mode walks
    only the transposition, flip, shift, and alternating-window families,
    which reaches longer words; each pair's shared ball is built from its
    close deletion pairs (u, w), one deletion per run of x and of y within
    Hamming distance two, as the union of S(u) & S(w) (see _ds_inter),
    never from both full balls.
    """
    t0 = time.monotonic()
    _check_jobs(jobs)
    if n < 1:
        raise ValueError("intersection bounds need n >= 1")
    mode = "structured" if structured else "exhaustive"
    limit = STRUCTURED_LIMIT if structured else EXHAUSTIVE_LIMIT
    if n > limit:
        raise ValueError(f"{mode} intersection sweep capped at n <= {limit}")
    bound = _global_ceiling(n)
    detail: dict[str, Any] = {"mode": mode}
    if structured:
        # no family has a pair below n = 2
        if n < 2:
            return _finish(
                "intersection-bounds", (n, n), 0, bound, None, 0, [], t0, detail, skipped=True
            )
        parts = _sweep([(_family_tasks, kind, "ceiling", n) for kind in _FAMILY_KINDS], jobs)
    else:
        tab = _tables(n)
        tab.columns, tab.strays  # with equivariant's tables, what the tasks read, before the fork
        group = tab.equivariant(_BOUNDS_TABLES, "rc")
        parts = _sweep([(_sweep_tasks, _bounds_chunk, (n,), n, group)], jobs)
        # a part counts a case's pairs exactly where it has its maximum
        cases = sorted({case for part in parts for case in part["case_pairs"]})
        detail["case_pairs"] = {c: sum(p["case_pairs"].get(c, 0) for p in parts) for c in cases}
        detail["case_extremal"] = {c: max(p["case_max"].get(c, -1) for p in parts) for c in cases}
    sink, pairs, extremal, eq = _merge(parts, n)
    return _finish(
        "intersection-bounds", (n, n), pairs, bound, extremal, eq, sink.ces, t0, detail
    )


# ---------------------------------------------------------------------------
# exact size accounting: the identity over all pairs, plus the per-family
# tables and regime values on the structured enumerations


def _identity_chunk(
    n: int, rows: Sequence[int], weights: Sequence[int], group: str
) -> dict[str, Any]:
    """The size accounting of the pairs of the given rows, each pair
    counted with the weight its row walk gives it (_row_walk).

    A pair the row walk leaves out is generic and within the generic and
    global ceilings: both terms are empty, so containment holds and every
    shared element is extra, and the per-pair body would only fold its size
    into the extremal.  A walked generic pair gets the full body like any
    other.
    """
    tab = _tables(n)
    runs = tab.runs
    dm = tab.dmask
    sm = tab.smask
    bm = tab.bmask
    prev = tab.prev_smask
    pairs = 0
    extremal = -1
    sink = _Sink(n, group)
    cases = _case_rows(n)
    for x, w, walk, bulk, bulk_max in _row_walk(tab, rows, weights, group):
        pairs += w * (bulk + walk.bit_count())
        if bulk_max > extremal:
            extremal = bulk_max
        bx = bm[x]
        sx = sm[x]
        dx = dm[x]
        for y in _bits(walk):
            inter = bx & bm[y]
            b = inter.bit_count()
            if b > extremal:
                extremal = b
            d_mask = dx & dm[y]
            s_mask = sx & sm[y]
            dh = (x ^ y).bit_count()
            case, name, ceiling, _, run_extra, extra_cap = cases[dh][d_mask.bit_count()]
            # on sound tables each mask holds at most two words
            s_term = 0
            while d_mask:
                low = d_mask & -d_mask
                s_term |= prev[low.bit_length() - 1]
                d_mask ^= low
            d_term = 0
            while s_mask:
                low = s_mask & -s_mask
                d_term |= dm[low.bit_length() - 1]
                s_mask ^= low
            union = s_term | d_term
            if union & ~inter:
                sink.add(x, y, "term containment", True, False)
                continue
            s_sz = s_term.bit_count()
            d_sz = d_term.bit_count()
            extra = b - union.bit_count()

            if case is TWO_FLIPS:
                # deletion side only
                if d_sz > 2 * n:
                    sink.add(x, y, "deletion term cap", 2 * n, d_sz)
                if d_sz > runs[x] + runs[y] + 4:
                    sink.add(x, y, "deletion term run cap", runs[x] + runs[y] + 4, d_sz)
            elif case is ALTERNATING_BLOCK:
                want_s = 2 * n if dh >= 4 else 2 * n - 2
                if s_sz != want_s:
                    sink.add(x, y, "substitution term size", want_s, s_sz)
            elif case is SHIFTED_PAIR:
                if s_sz != n:
                    sink.add(x, y, "substitution term size", n, s_sz)
            elif case is GENERIC and b != extra:
                sink.add(x, y, "bare intersection", b, extra)
            if extra_cap is not None and extra > extra_cap:
                sink.add(x, y, "extra elements", f"<= {extra_cap}", extra)
            # the ceilings of the cases without a shared deletion, whose ball
            # has no substitution term
            if (case is TWO_FLIPS or case is GENERIC) and b > (
                ceiling if run_extra is None else min(ceiling, runs[x] + runs[y] + run_extra)
            ):
                sink.add(x, y, f"{name} ceiling", ceiling, b)
    return {"pairs": pairs, "extremal": extremal, "eq": 0, "ces": sink.ces, "fails": sink.fails}


_IDENTITY_MAX_N = 10


def verify_claim_tables(n_max: int, *, jobs: int = 1) -> VerificationReport:
    """Exact size accounting for shared ds-balls.

    All pairs up to length ten are decomposed into substitution term,
    deletion term, overlap, and extra elements, checking containment and
    the per-class term sizes and caps.  A generic pair (Hamming distance
    at least three, no shared deletion, no shared substitution) within the
    generic and global ceilings is not visited: the row walk of
    intersection bounds (_walk_mask) folds its size into the extremal in
    bulk.  Every other pair gets the full decomposition, as does every pair
    that holds a stray, whose deletion or substitution row is not its ball.
    On top of that the four structured families are enumerated up to
    ``n_max`` and every tabulated quantity (term splits, overlap columns,
    extra-element counts, regime ceilings, equality conditions) is
    recomputed from scratch per pair, against the run deletions of both
    words and the shared ball that the structured walk builds once per pair
    (see _structured_chunk).  Both walk orbit representatives as the module
    docstring says; ``family_pairs`` sums the walked pairs' weights, which
    is every family pair.
    """
    t0 = time.monotonic()
    _check_jobs(jobs)
    if n_max < 2:
        return _finish("claim-tables", (2, n_max), 0, None, None, 0, [], t0, skipped=True)
    if n_max > STRUCTURED_LIMIT:
        raise ValueError(f"claim tables capped at n <= {STRUCTURED_LIMIT}")
    id_top = min(n_max, _IDENTITY_MAX_N)
    legs = []
    for n in range(2, id_top + 1):
        tab = _tables(n)
        tab.columns, tab.strays  # with equivariant's tables, what the tasks read, before the fork
        group = tab.equivariant(_IDENTITY_TABLES, "rc")
        legs.append((_sweep_tasks, _identity_chunk, (n,), n, group))
    family_counts = dict.fromkeys(sorted(_FAMILY_KINDS), 0)
    for n in range(2, n_max + 1):
        for kind in _FAMILY_KINDS:
            legs.append((_family_tasks, kind, "full", n))
            family_counts[kind] += sum(
                (hi - lo) * weight for *_, lo, hi, weight, _ in _family_tasks(kind, "full", n)
            )
    parts = _sweep(legs, jobs)
    sink, pairs, extremal, eq = _merge(parts, n_max)
    detail = {
        "identity_max_n": id_top,
        "family_pairs": family_counts,
    }
    return _finish("claim-tables", (2, n_max), pairs, None, extremal, eq, sink.ces, t0, detail)


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


def _good(wx: tuple[int, ...], wy: tuple[int, ...], z: int, n: int) -> tuple[bool, bool]:
    """Whether shared element z of x and y, whose deletions by position are
    wx and wy (_Tables.dels), is good under "pre" and under "post":
    some witness pair places a flip strictly outside its deletion interval."""
    ly = _witness_list(wy, z, n)
    good_pre = good_post = False
    for i, pre_i, post_i in _witness_list(wx, z, n):
        for j, pre_j, post_j in ly:
            if not good_pre and (_outside(i, j, pre_i) or _outside(i, j, pre_j)):
                good_pre = True
            if not good_post and (_outside(i, j, post_i) or _outside(i, j, post_j)):
                good_post = True
        if good_pre and good_post:
            break
    return good_pre, good_post


def _bad_chunk(
    convention: str, n: int, rows: Sequence[int], weights: Sequence[int], group: str
) -> dict[str, Any]:
    """Bad shared elements of the generic pairs x < y with x in rows, each
    counted with its row's weight.

    On the full route y runs over every word above x.  On the orbit route
    of complement ("c") the rows are the words below 2^(n-1), and y runs up
    to the complement k(x): each pair of the orbit {x, y}, {k(x), k(y)} then
    comes once, as its pair with x + y <= 2^n - 1, with the weight of its
    orbit: the row's 2, but 1 for y = k(x), whose orbit is itself.

    A shared element z is good under a convention when some witness (i, p)
    of x and j of y, or i of x and (j, p) of y, puts the flip p below both
    i and j or above both (_outside).  Some j of y is above a p < i of x
    exactly when x's lo is below y's max j, and some j is below a p > i
    exactly when x's hi is above y's min j; y's flips are symmetric.  So z
    is good when lo(x) < max j(y), lo(y) < max i(x), hi(x) > min j(y) or
    hi(y) > min i(x), with the hi of the convention: four comparisons of the
    two words' witness summaries (_Tables.summaries), which is what _good
    finds by trying every witness pair.  An element of the tables' shared
    ball that no deletion of a word reaches has no witnesses there, so it is
    bad under both conventions.
    """
    tab = _tables(n)
    summaries = tab.summaries
    # the summary of no witnesses: every comparison with it fails
    absent = (n + 1, 0, n, 0, 0)
    dm = tab.dmask
    bm = tab.bmask
    top = (1 << n) - 1
    pairs = 0
    seen = 0
    max_pre = 0
    max_post = 0
    eq = 0
    sink = _Sink(n, group)
    generic = CASE_CEILINGS[GENERIC].ceiling(n)
    for x, w in zip(rows, weights):
        dx = dm[x]
        bx = bm[x]
        sx = summaries[x]
        kx = x ^ top
        for y in range(x + 1, (kx if group else top) + 1):
            if (x ^ y).bit_count() < 3 or dx & dm[y]:
                continue
            wy = 1 if y == kx else w
            pairs += wy
            inter = bx & bm[y]
            if not inter:
                continue
            seen += wy
            sy = summaries[y]
            bad_pre = 0
            bad_post = 0
            shared = inter.bit_count()
            if shared > generic:
                sink.add(x, y, "generic ceiling", generic, shared)
            # highest element first; the counts do not depend on the order
            while inter:
                z = inter.bit_length() - 1
                inter ^= 1 << z
                ix, jx, lx, px, qx = sx.get(z, absent)
                iy, jy, ly, py, qy = sy.get(z, absent)
                if lx < jy or ly < jx:
                    continue
                if px <= iy and py <= ix:
                    bad_pre += 1
                if qx <= iy and qy <= ix:
                    bad_post += 1
            if bad_pre > max_pre:
                max_pre = bad_pre
            if bad_post > max_post:
                max_post = bad_post
            declared = bad_pre if convention == "pre" else bad_post
            if declared == 6:
                eq += wy
            elif declared > 6:
                sink.add(x, y, "bad element count", 6, declared)
    max_bad = {"pre": max_pre, "post": max_post}
    return {
        "pairs": pairs,
        "seen": seen,
        "max_bad": max_bad,
        "extremal": max_bad[convention],
        "eq": eq,
        "ces": sink.ces,
        "fails": sink.fails,
    }


def verify_bad_count(
    n: int, *, jobs: int = 1, convention: str = DEFAULT_WITNESS_CONVENTION
) -> VerificationReport:
    """Generic pairs keep at most six bad shared elements.

    A shared element is bad when no witness pair places its flip strictly
    outside the deletion interval; flips are read in pre-deletion
    coordinates under "pre" and post-deletion coordinates under "post".
    Both maxima are reported, the declared convention decides pass/fail.
    Each shared element costs four comparisons per convention of per-word
    witness summaries, built before the fork (see _bad_chunk): a word's
    flips make the element good exactly when its least flip below a
    deletion lies below the other word's last deletion position, or its
    greatest flip above one lies above the other's first, which is
    _outside taken over every witness pair.  Complement keeps the bad sets
    under both conventions, reversal keeps "post" ones only on some pairs,
    so the orbit route pairs up complement orbits of pairs (_bad_chunk).
    """
    t0 = time.monotonic()
    _check_jobs(jobs)
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
    # equivariant builds every table the tasks read before the fork
    group = _tables(n).equivariant(_BAD_TABLES, "c")
    parts = _sweep([(_sweep_tasks, _bad_chunk, (convention, n), n, group)], jobs)
    sink, pairs, extremal, eq = _merge(parts, n)
    detail = {
        "convention": convention,
        "max_bad": {c: max(p["max_bad"][c] for p in parts) for c in WITNESS_CONVENTIONS},
        "pairs_with_shared_elements": sum(p["seen"] for p in parts),
    }
    return _finish("bad-count", (n, n), pairs, 6, extremal, eq, sink.ces, t0, detail)


# ---------------------------------------------------------------------------
# code constructions: pairwise ceilings, triple intersections, redundancy


class _CodeCheck(NamedTuple):
    family: str
    ceiling: Callable[[int], int]  # pairwise ball-intersection ceiling at length n
    # 2^r(n) for the redundancy target r(n): the largest coset size best
    # meets it when n - log2(best) <= r(n), checked as best * 2^r(n) >= 2^n,
    # in integers where 2^r(n) is one, so that rounding cannot flip it
    target: Callable[[int], float]


# one row per construction; its cosets are those of codes.cosets at the
# defaults, modulus two and period codes.default_period(n).  Each ceiling but
# cl's is the CASE_CEILINGS ceiling of the structural case named in it.
CODE_CHECKS: dict[str, _CodeCheck] = {
    "vt": _CodeCheck(codes.VT, CASE_CEILINGS[GENERIC].ceiling, lambda n: 2 * n),
    "inv": _CodeCheck(codes.INV, CASE_CEILINGS[SINGLE_FLIP].ceiling, lambda n: 2),
    "c2n9": _CodeCheck(codes.C2N9, CASE_CEILINGS[ALTERNATING_BLOCK].ceiling, lambda n: 4),
    "cn21": _CodeCheck(codes.CN21, CASE_CEILINGS[SHIFTED_PAIR].ceiling, lambda n: 8 * math.log2(n)),
    "cl": _CodeCheck(codes.CL, lambda n: 6, lambda n: 16 * n ** 3),
}


def _redundancy_reading(target: float, n: int, best: int) -> tuple[float, bool]:
    """The bound log2(target) as reports round it, and whether best meets it."""
    return round(math.log2(target), 6), best * target >= 1 << n


# below this many pairs inside the cosets forking two workers loses or gains
# little.  jobs=1 over jobs=2 time with the fork forced, medians of 9
# on 2 cores: 0.21-0.88 up to 66k pairs, and 0.42-0.98 for cl at n = 9..13;
# 0.93-1.67 from 79k to 408k (vt 12 1.67, cn21 12 1.26, c2n9 11 1.10); at
# 1.05M, 1.34 for inv 11 (two cosets, on the row route) and 0.98 for c2n9 12;
# 1.20-1.66 from 1.2M up.  Every cl check up to n = 14 stays in one process.
_CODE_FORK_MIN_PAIRS = 1 << 19

# cosets of at least this many members are counted a row at a time (see
# _code_chunk).  Pair loop over row route time per coset with the element
# lists built, medians of 7 (2 cores): 0.46 at vt 12's 170-172 members, 0.9
# at cn21 12's 202-204 (one row per orbit), 0.93-0.96 at vt 13's 315-316,
# 1.42 at inv 9's 272 and 1.46 at c2n9 10's 287 (one row per orbit),
# 1.55-1.66 at cn21 13's 494-495 and 2.2-5.5 from 528 up.  A lower value
# would send n = 13's vt and cn21 checks through the element lists of every
# word, which their first call builds: 0.69 and 0.77 s at 256 against 0.32
# and 0.35 s at 512 (warm: 0.30 and 0.23 against 0.32 and 0.43; medians of 5)
_CODE_ROW_MIN_MEMBERS = 512


def _coset_rows(tab: _Tables, members: list[int], bound: int, sink: _Sink) -> tuple[int, int]:
    """The extremal (-1 without a pair) and equality cases of the pairs of
    one coset, ascending members, counted a row at a time; its pairwise
    ceiling counterexamples go to sink, ascending as (x, y) with x < y.

    Row x sums the member-rank columns of its elements (tab.coset) into the
    bit-sliced shared-ball sizes with the other members.  The reversed
    complement g ("g" of _word_maps) keeps every shared-ball size when bmask
    maps row by row under reversal and complement; when it does and g maps
    the coset onto itself, one row per orbit of g is walked, else every
    row, each against every other member weighted with its orbit's size, so
    every pair counts twice: a row costs its full-width planes whatever it
    reads, so seeing each pair orbit once, as tables._row_walk does, would
    save nothing.  The above-ceiling pairs found, closed under the group,
    are every such pair; the _CE_CAP smallest are kept.
    """
    orbits, rows, cols = tab.coset(members)
    full = (1 << len(members)) - 1
    found = []
    extremal = -1
    eq2 = 0
    for i, w in zip(orbits.rows, orbits.weights):
        scope = full ^ (1 << i)
        planes = _count_planes(cols, rows[i])
        extremal = max(extremal, _count_max(planes, scope))
        above = _count_above(planes, bound) & scope
        eq2 += w * (_count_above(planes, bound - 1) & scope & ~above).bit_count()
        for j in _bits(above):
            found.append((members[i], members[j]))
        if len(found) > 2 * report._CE_CAP:
            found = orbits.close(found, report._CE_CAP)
    for x, y in orbits.close(found, report._CE_CAP):
        sink.add(x, y, "pairwise ceiling", bound, (tab.bmask[x] & tab.bmask[y]).bit_count())
    return extremal, eq2 >> 1


def _code_chunk(theorem_id: str, n: int, cosets: list[list[int]]) -> dict[str, Any]:
    """Pairwise ceiling of a run of cosets, each given as its ascending
    members; for cl also bad elements and triples.

    A coset of cl, or of fewer than _CODE_ROW_MIN_MEMBERS members, goes pair
    by pair.  A larger one goes a row at a time (_coset_rows), at orbit
    representatives of the reversed complement where that is sound.  Both
    routes give the same counts and counterexamples in the same order.
    """
    tab = _tables(n)
    bm = tab.bmask
    dels = tab.dels if theorem_id == "cl" else None
    side = WITNESS_CONVENTIONS.index(DEFAULT_WITNESS_CONVENTION)
    bound = CODE_CHECKS[theorem_id].ceiling(n)
    sink = _Sink(n)
    pairs = 0
    triples = 0
    extremal = -1
    eq = 0
    for members in cosets:
        k = len(members)
        pairs += k * (k - 1) // 2
        if dels is None and k >= _CODE_ROW_MIN_MEMBERS:
            b, e = _coset_rows(tab, members, bound, sink)
            extremal = max(extremal, b)
            eq += e
            continue
        for i, x in enumerate(members):
            bx = bm[x]
            for y in members[i + 1:]:
                inter = bx & bm[y]
                b = inter.bit_count()
                if b > extremal:
                    extremal = b
                if b == bound:
                    eq += 1
                elif b > bound:
                    sink.add(x, y, "pairwise ceiling", bound, b)
                if dels is not None and inter:
                    for z in _bits(inter):
                        if _good(dels[x], dels[y], z, n)[side]:
                            sink.add(x, y, "shared element must be bad", True, to_word(z, n - 1))
        if dels is not None and k >= 3:
            for i, x in enumerate(members):
                for j in range(i + 1, k):
                    y = members[j]
                    common = bm[x] & bm[y]
                    if not common:
                        continue
                    for t in members[j + 1:]:
                        triples += 1
                        if common & bm[t]:
                            sink.add(x, y, "triple intersection", 0, 1, z=to_word(t, n))
    return {"pairs": pairs, "triples": triples, "extremal": extremal, "eq": eq, "ces": sink.ces}


def verify_code_theorem(theorem_id: str, n: int, *, jobs: int = 1) -> VerificationReport:
    """Pairwise ball-intersection ceiling and size of one construction.

    Every residue class is checked (modulus fixed to two for the inversion
    based families, matching their redundancy targets); the sorted coset
    keys are split into at most 64 runs, one task each, forked over ``jobs``
    workers only when the cosets hold at least _CODE_FORK_MIN_PAIRS pairs.
    A task checks a coset pair by pair, or, from _CODE_ROW_MIN_MEMBERS
    members on and for every family but cl, a row at a time from bit-sliced
    column sums (_code_chunk).  Reversal and complement each send the
    inversion number inv(x) to w(n - w) - inv(x) and keep the run count and
    the periodic windows, so their composite keeps every inv and c2n9 coset,
    and every cn21 coset at even n: such a coset walks one row per orbit of
    the composite (_coset_rows).  The coset walk, the ball masks (and cl's
    deletions by position) and each row-route coset's state (_Tables.coset)
    are kept per length, filled before any fork.  The largest bucket must have the size the code's counting DP gives its
    coset.  The parity+VT construction additionally requires empty triple
    intersections and that every shared pair element is bad, and reports
    the weaker reading of its redundancy target, 2^r(n) = 48n, alongside
    the exact one.
    """
    t0 = time.monotonic()
    _check_jobs(jobs)
    if theorem_id not in CODE_CHECKS:
        raise ValueError(f"unknown construction {theorem_id!r}; pick one of {tuple(CODE_CHECKS)}")
    if n < 2:
        raise ValueError("code checks need n >= 2")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"code checks capped at n <= {EXHAUSTIVE_LIMIT}")
    check = CODE_CHECKS[theorem_id]
    buckets, coset_of = codes.cosets(check.family, n)
    keys = sorted(buckets)
    pairs_in_cosets = sum(len(m) * (len(m) - 1) // 2 for m in buckets.values())
    best_key = min(buckets, key=lambda k2: (-len(buckets[k2]), k2))
    best = len(buckets[best_key])
    tab = _tables(n)
    tab.bmask  # built before the fork, like dels or the coset state below
    if theorem_id == "cl":
        tab.dels
    else:
        for m in buckets.values():
            if len(m) >= _CODE_ROW_MIN_MEMBERS:
                tab.coset(m)
    parts = _map_tasks(
        [(_code_chunk, theorem_id, n, [buckets[k] for k in keys[lo:hi]])
         for lo, hi in _spans(len(keys))],
        jobs if pairs_in_cosets >= _CODE_FORK_MIN_PAIRS else 1,
    )
    sink, pairs, extremal, eq = _merge(parts, n)
    coset = coset_of(best_key)
    # with the DP's count below, this pins the bucket to the coset
    if not all(codes._contains_int(coset, v) for v in buckets[best_key]):
        sink.add(None, None, "coset membership", str(coset), best_key)
    counted = codes.size(coset)
    if counted != best:
        sink.add(None, None, "coset size routes", best, counted)
    red = round(n - math.log2(best), 6)
    red_bound, red_ok = _redundancy_reading(check.target(n), n, best)
    if not red_ok:
        sink.add(None, None, "redundancy", red_bound, red)
    detail: dict[str, Any] = {
        "construction": theorem_id,
        "cosets": len(buckets),
        "largest_coset": best,
        "redundancy": red,
        "redundancy_bound": red_bound,
    }
    if theorem_id == "cn21":
        detail["period"] = codes.default_period(n)
    if theorem_id == "cl":
        detail["triples_checked"] = sum(p["triples"] for p in parts)
        detail["alt_redundancy_bound"], detail["alt_bound_satisfied"] = _redundancy_reading(
            48 * n, n, best)
    return _finish(
        f"code-{theorem_id}", (n, n), pairs, check.ceiling(n), extremal, eq, sink.ces, t0, detail
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
    membership at period P is cross-checked against the code family, and
    the member count against the family's counting DP.  When P is at least
    ceil(log2 n) + 3 the member count must reach 3 * 2^(n-2).
    """
    t0 = time.monotonic()
    if n < 1:
        raise ValueError("window check needs n >= 1")
    if P < 1:
        raise ValueError("window check needs P >= 1")
    if n > 16:
        raise ValueError("window check capped at n <= 16")
    cs = codes.spec(codes.RLL, n, P=P)
    sink = _Sink(n)
    count = 0
    for x in range(1 << n):
        w = to_word(x, n)
        impl = max_le2_periodic_length(w)
        scan = _period_scan(w)
        rule = _psi_rule(w)
        if not impl == scan == rule:
            sink.add(x, None, "window length routes", scan, (impl, rule))
        member = impl <= P
        if member != codes.contains(cs, w):
            sink.add(x, None, "membership", member, not member)
        count += member
    counted = codes.size(cs)
    if counted != count:
        sink.add(None, None, "member count routes", count, counted)
    threshold = math.ceil(math.log2(n)) + 3 if n >= 2 else 3
    size_checked = n >= 2 and P >= threshold
    bound = 3 * (1 << (n - 2)) if size_checked else None
    if size_checked and count < bound:
        sink.add(None, None, "member count", f">= {bound}", count)
    detail = {
        "period": P,
        "members": count,
        "size_bound_checked": size_checked,
        "threshold": threshold,
    }
    return _finish("rll", (n, n), 1 << n, bound, count, 0, sink.ces, t0, detail)


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
    valid bundle and are skipped.  That test sizes every ball, so the
    channel leg draws its bundles with ``reconstruct._draw_reads``, which
    gives ``collect_reads``' bundle for the same seed without sizing the
    ball again.

    The decodes of one codeword's bundles share one ``reconstruct._Memo``
    (``reconstruct.decode``'s ``_memo``): the preimage balls of their
    first two reads, the run deletions of those balls' common words and
    the S(z) of their later reads.  The memo goes when the leg moves on to
    the next codeword.  Every read of those bundles lies in that
    codeword's ds-ball, so the memo holds at most one ball's worth of
    reads, preimage balls and sets S(z), whatever the trial counts.  The
    channel leg therefore makes every trial's draws first, the codeword
    and then the seed, decodes the trials codeword by codeword, and
    reports their failures in trial order, as one decode per trial in turn
    would.
    """
    t0 = time.monotonic()
    if N < 1:
        raise ValueError("reconstruction needs N >= 1")
    if min(trials, subset_words, subset_trials) < 0:
        raise ValueError("reconstruction needs nonnegative trials, subset_words and subset_trials")
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
    sink = _Sink(n)

    def failed(w: str, bundle: ReadBundle, memo: _Memo) -> DecodeResult | None:
        res = decode_reads(code, bundle, _memo=memo)
        return None if res.status == UNIQUE and res.candidates == (w,) else res

    def fail(w: str, res: DecodeResult, label: str) -> None:
        sink.add(int(w, 2), None, label, UNIQUE, res.status, candidates=list(res.candidates))

    # trial t's seed, grouped by codeword in trial order
    groups: dict[int, list[tuple[int, int]]] = {}
    for t in range(trials):
        i = rng.randrange(len(eligible))
        groups.setdefault(i, []).append((t, rng.randrange(1 << 30)))
    fails = []  # (trial, codeword, result)
    for i, group in groups.items():
        w, memo = eligible[i], _Memo()
        for t, s in group:
            res = failed(w, _draw_reads(w, N, s), memo)
            if res is not None:
                fails.append((t, w, res))
    for _, w, res in sorted(fails, key=lambda f: f[0]):
        fail(w, res, "channel decode")
    for w in eligible[: subset_words]:
        ball, memo = ds_ball(w), _Memo()
        for _ in range(subset_trials):
            res = failed(w, ReadBundle(n, tuple(sorted(rng.sample(ball, N)))), memo)
            if res is not None:
                fail(w, res, "subset decode")
    checked = trials + detail["subset_words"] * subset_trials
    return _finish("reconstruction", (n, n), checked, None, None, 0, sink.ces, t0, detail)

