"""Deletion, substitution, and deletion+substitution balls and their algebra.

A ds-ball member arises from one deletion followed by at most one bit flip,
and flip positions always index the post-deletion word of length n-1.  The
good/bad classification of shared ball elements depends on an index
convention the source material leaves implicit; both are implemented and
the default was fixed by exhaustive arbitration against the "at most six
bad sequences" bound (see verify.verify_bad_count and the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import common_affixes, hamming

__all__ = [
    "ADJACENT_TRANSPOSITION",
    "SINGLE_FLIP",
    "RUN_SHIFT",
    "ALTERNATING_BLOCK",
    "TWO_FLIPS",
    "SHIFTED_PAIR",
    "GENERIC",
    "CASE_TAGS",
    "WITNESS_CONVENTIONS",
    "DEFAULT_WITNESS_CONVENTION",
    "PairClassification",
    "IntersectionDecomposition",
    "deletion_ball",
    "substitution_ball",
    "ds_ball",
    "apply_del_sub",
    "ball_intersection",
    "classify_pair",
    "decompose_intersection",
    "witnesses",
    "is_bad",
    "preimage_ball",
    "constrained_deletion_matches",
]

ADJACENT_TRANSPOSITION = "ADJACENT_TRANSPOSITION"
SINGLE_FLIP = "SINGLE_FLIP"
RUN_SHIFT = "RUN_SHIFT"
ALTERNATING_BLOCK = "ALTERNATING_BLOCK"
TWO_FLIPS = "TWO_FLIPS"
SHIFTED_PAIR = "SHIFTED_PAIR"
GENERIC = "GENERIC"

# structural case of a distinct pair, indexed by (min(d_H, 3), d) with d the
# number of shared deletions: a single flip always shares one deletion, and
# no two distinct words share more than two (a count above two, which only a
# faulty deletion kernel produces, is tagged like d = 0)
CASE_TAGS: tuple[tuple[str | None, ...], ...] = (
    (None,) * 3,
    (SINGLE_FLIP,) * 3,
    (TWO_FLIPS, RUN_SHIFT, ADJACENT_TRANSPOSITION),
    (GENERIC, SHIFTED_PAIR, ALTERNATING_BLOCK),
)

WITNESS_CONVENTIONS = ("pre", "post")

# Flip positions are reported post-deletion by apply_del_sub/witnesses, but
# the interval test of the good/bad definition reads them in pre-deletion
# coordinates: that is the convention under which the bad count stays <= 6
# on every (0,0) pair (exhaustive for n <= 10, worst pair has four; reading
# them post-deletion overshoots, reaching seven bad elements at n = 8).
DEFAULT_WITNESS_CONVENTION = "pre"


def deletion_ball(x: str) -> list[str]:
    """All words obtained from x by one deletion, sorted and deduplicated."""
    if not x:
        raise ValueError("deletion ball of the empty word is undefined")
    return sorted({x[:i] + x[i + 1 :] for i in range(len(x))})


def substitution_ball(x: str) -> list[str]:
    """All words within Hamming distance one of x, including x itself."""
    flip = {"0": "1", "1": "0"}
    out = {x}
    for i, c in enumerate(x):
        out.add(x[:i] + flip[c] + x[i + 1 :])
    return sorted(out)


def ds_ball(x: str) -> list[str]:
    """One deletion, then at most one flip: the union of S(w) over w in D(x)."""
    if not x:
        raise ValueError("ds ball of the empty word is undefined")
    out: set[str] = set()
    for w in {x[:i] + x[i + 1 :] for i in range(len(x))}:
        out.update(substitution_ball(w))
    return sorted(out)


def apply_del_sub(x: str, i: int, sub: int | None) -> str:
    """Delete position i of x, then flip position sub of the shorter word.

    Positions are 1-indexed; sub refers to the post-deletion word and None
    flips nothing.
    """
    n = len(x)
    if not 1 <= i <= n:
        raise ValueError(f"deletion position {i} out of range [1,{n}]")
    w = x[: i - 1] + x[i:]
    if sub is None:
        return w
    if not 1 <= sub <= n - 1:
        raise ValueError(f"flip position {sub} out of range [1,{n - 1}]")
    flipped = "1" if w[sub - 1] == "0" else "0"
    return w[: sub - 1] + flipped + w[sub:]


def _merge_join(a: list[str], b: list[str]) -> list[str]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return out


def ball_intersection(x: str, y: str, kind: str) -> list[str]:
    """Intersection of the kind-balls of two distinct equal-length words."""
    if len(x) != len(y):
        raise ValueError("ball_intersection needs equal lengths")
    if x == y:
        raise ValueError("ball_intersection needs distinct words")
    builder = {"del": deletion_ball, "sub": substitution_ball, "ds": ds_ball}.get(kind)
    if builder is None:
        raise ValueError(f"unknown ball kind {kind!r}")
    return _merge_join(builder(x), builder(y))


@dataclass(frozen=True, slots=True)
class PairClassification:
    """Structural class of a distinct pair.

    d = |D(x,y)| and s = |S(x,y)|; prefix/suffix are the longest common
    affixes, and x = prefix + x_window + suffix always reconstructs the
    input (same for y).  alpha, beta, and shift_len carry the case-specific
    parameters where the shape has them.
    """

    d: int
    s: int
    hamming: int
    case: str
    prefix: str
    suffix: str
    x_window: str
    y_window: str
    alpha: str | None = None
    beta: str | None = None
    shift_len: int | None = None


def classify_pair(x: str, y: str) -> PairClassification:
    """Compute (d, s) directly and name the matching structural case.

    The case tag is CASE_TAGS[min(d_H, 3)][d]: distance one is always a
    single flip; at distance two the pair is an adjacent transposition
    (d=2), a run shift (d=1), or two isolated flips (d=0); at distance three
    or more it is an alternating block (d=2), a shifted pair (d=1), or
    generic.
    """
    aff = common_affixes(x, y)
    d_h = aff.hamming
    s = 2 if d_h <= 2 else 0
    d = len(set(deletion_ball(x)) & set(deletion_ball(y)))
    j1, j2 = aff.first_diff, aff.last_diff
    xw = x[j1 - 1 : j2]
    yw = y[j1 - 1 : j2]
    case = CASE_TAGS[min(d_h, 3)][d if d <= 2 else 0]
    alpha = beta = None
    shift_len = None
    if case is SINGLE_FLIP:
        alpha = xw
    elif case is ADJACENT_TRANSPOSITION:
        alpha = xw[0]
    elif case is RUN_SHIFT:
        shift_len = len(xw) - 1
        alpha = xw[0] if xw[0] == xw[1] else xw[-1]
    elif case is TWO_FLIPS:
        alpha, beta = xw[0], xw[-1]
    return PairClassification(
        d=d,
        s=s,
        hamming=d_h,
        case=case,
        prefix=aff.prefix,
        suffix=aff.suffix,
        x_window=xw,
        y_window=yw,
        alpha=alpha,
        beta=beta,
        shift_len=shift_len,
    )


@dataclass(frozen=True, slots=True)
class IntersectionDecomposition:
    """Inclusion-exclusion split of a shared ds-ball.

    size_s counts the substitution balls around common deletions, size_d
    the deletion balls around common substitutions, size_overlap their
    intersection, and size_b_extra whatever remains of the shared ball, so
    total = size_b_extra + size_d + size_s - size_overlap exactly.
    """

    size_s: int
    size_d: int
    size_overlap: int
    size_b_extra: int
    total: int


def decompose_intersection(x: str, y: str) -> IntersectionDecomposition:
    if len(x) != len(y):
        raise ValueError("decompose_intersection needs equal lengths")
    if x == y:
        raise ValueError("decompose_intersection needs distinct words")
    d_xy = set(deletion_ball(x)) & set(deletion_ball(y))
    s_xy = set(substitution_ball(x)) & set(substitution_ball(y))
    s_union: set[str] = set()
    for z in d_xy:
        s_union.update(substitution_ball(z))
    d_union: set[str] = set()
    for z in s_xy:
        d_union.update(deletion_ball(z))
    b_xy = set(ds_ball(x)) & set(ds_ball(y))
    extra = b_xy - (s_union | d_union)
    dec = IntersectionDecomposition(
        size_s=len(s_union),
        size_d=len(d_union),
        size_overlap=len(s_union & d_union),
        size_b_extra=len(extra),
        total=len(b_xy),
    )
    assert dec.total == dec.size_b_extra + dec.size_d + dec.size_s - dec.size_overlap
    return dec


def witnesses(x: str, z: str) -> list[tuple[int, int | None]]:
    """All (deletion, flip) pairs mapping x to z, flip post-deletion or None."""
    if len(z) != len(x) - 1:
        raise ValueError("witness target must be one shorter than the source")
    found: list[tuple[int, int | None]] = []
    for i in range(1, len(x) + 1):
        w = x[: i - 1] + x[i:]
        diffs = [p for p in range(len(w)) if w[p] != z[p]]
        if not diffs:
            found.append((i, None))
        elif len(diffs) == 1:
            found.append((i, diffs[0] + 1))
    found.sort(key=lambda t: (t[0], -1 if t[1] is None else t[1]))
    return found


def _flip_outside(i: int, j: int, sub: int | None, convention: str) -> bool:
    if sub is None:
        return False
    pos = sub if convention == "post" else (sub if sub < i else sub + 1)
    return pos < min(i, j) or pos > max(i, j)


def is_bad(
    x: str, y: str, z: str, convention: str = DEFAULT_WITNESS_CONVENTION
) -> bool:
    """True when no witness pair places a flip outside the deletion interval.

    z must lie in both ds-balls.  A NONE substitution never counts as
    outside, so deletion-only witnesses cannot certify goodness.
    """
    if convention not in WITNESS_CONVENTIONS:
        raise ValueError(f"unknown witness convention {convention!r}")
    wx = witnesses(x, z)
    wy = witnesses(y, z)
    if not wx or not wy:
        raise ValueError("z is not in the shared ds ball")
    for i, si in wx:
        for j, sj in wy:
            if _flip_outside(i, j, si, convention) or _flip_outside(
                j, i, sj, convention
            ):
                return False
    return True


def preimage_ball(z: str, n: int) -> list[str]:
    """All length-n words whose ds-ball contains z.

    Built as every single-symbol insertion into every member of S(z): x has
    z in its ball exactly when some deletion of x lands within Hamming
    distance one of z.
    """
    if n != len(z) + 1:
        raise ValueError(f"preimage length {n} does not extend {len(z)}")
    out: set[str] = set()
    for w in substitution_ball(z):
        for p in range(n):
            out.add(w[:p] + "0" + w[p:])
            out.add(w[:p] + "1" + w[p:])
    return sorted(out)


def constrained_deletion_matches(u: str, v: str) -> list[str]:
    """F = deletions of v within Hamming distance one of u (|v| = |u|+1)."""
    if len(v) != len(u) + 1:
        raise ValueError("v must be one symbol longer than u")
    return sorted(z for z in deletion_ball(v) if hamming(z, u) <= 1)
