"""Channel simulation and multi-read decoding.

The channel picks a deletion position and a flip-or-nothing uniformly at
random from [n] x ([n-1] u {none}), so its support is exactly the ds-ball.
Decoding never scans the code, and it works on integer words (the
big-endian value of a 0/1 string): each read is converted once.  It
intersects the preimage balls of the first two reads only, each built as a
set of ints by inserting into every word w of S(z) the bit opposite to w's
bit at every position below the top and both bits at the top, the n + 1
distinct insertions of w: after one read at most n(n + 1) candidates
survive, after two a few dozen (41 at most over all read pairs at n = 9).
Every later read z then filters the survivors, keeping x exactly when one
of its r(x) run deletions (``words._run_dels``: D(x) without repeats, one
deletion per run of x) lies in S(z), that is within Hamming distance one
of z: against S(z), built once per read, while more than two survivors are
left, else deletion by deletion, which skips building S(z) for most of a
long bundle.  Only the words left are formatted as strings, sorted, and
put to the code's membership test.  ``balls.preimage_ball``,
``balls.ds_ball`` and :func:`decode_by_scan` stay the string oracle of this
route.  The generator is the stdlib Mersenne Twister, which is
deterministic and portable across platforms for a fixed seed.

A decode keeps what it builds in a ``_Memo``: three maps, each filled on
first use and never changed after, from a read (as an int) to its
preimage ball, from a survivor of the first two reads to its run
deletions, and from a later read to S(read).  A plain call gets a fresh
memo.  ``verify.verify_reconstruction`` passes one memo to every decode of
one codeword's bundles and drops it when it moves on to the next
codeword.  The read maps are keyed by the reads decoded, all in that
codeword's ds-ball, and the survivor map by words of the preimage balls
kept, so a memo holds at most one ball's worth of reads and of preimage
balls, whatever the trial counts, and nothing is kept across calls.  The
check draws its bundles with ``_draw_reads``, ``collect_reads`` without
the word check and the ball sizing, since it has sized every eligible
codeword's ball with ``ds_ball`` already.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import TextIO

from .balls import apply_del_sub, ds_ball
from .codes import CodeSpec, contains, members
from .words import _run_dels, _sub_set, parse_word, read_word_file
from .words import decode as to_word

# unused here, but perfbench/tracing.py wraps this name in this module to
# count calls
from .balls import preimage_ball  # noqa: F401

__all__ = [
    "UNIQUE",
    "AMBIGUOUS",
    "INCONSISTENT",
    "BallTooSmallError",
    "ReadBundle",
    "DecodeResult",
    "collect_reads",
    "decode",
    "decode_by_scan",
    "save_bundle",
    "load_bundle",
]

UNIQUE = "UNIQUE"
AMBIGUOUS = "AMBIGUOUS"
INCONSISTENT = "INCONSISTENT"


class BallTooSmallError(ValueError):
    """Raised when a word's ds-ball cannot supply the requested read count."""

    def __init__(self, word: str, requested: int, ball_size: int):
        super().__init__(
            f"ds ball of {word} has {ball_size} elements, cannot draw {requested}"
        )
        self.word = word
        self.requested = requested
        self.ball_size = ball_size


@dataclass(frozen=True, slots=True)
class ReadBundle:
    """Distinct channel outputs for one transmitted word of length n."""

    n: int
    reads: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"bundle length n={self.n} must be at least 1")
        if any(len(z) != self.n - 1 for z in self.reads):
            raise ValueError("every read must have length n-1")
        for z in self.reads:
            parse_word(z)
        if len(set(self.reads)) != len(self.reads):
            raise ValueError("reads must be distinct")


@dataclass(frozen=True, slots=True)
class DecodeResult:
    status: str
    candidates: tuple[str, ...]


def _draw(rng: random.Random, n: int) -> tuple[int, int | None]:
    i = rng.randrange(1, n + 1)
    t = rng.randrange(n)
    return i, (None if t == 0 else t)


def _int(word: str) -> int:
    """The integer value of a 0/1 word; 0 for the empty word."""
    return int(word or "0", 2)


def _ball_size(x: int, n: int) -> int:
    """|B(x)| for a length-n word x: the union of S(d) over the r(x) run
    deletions d of x, which are D(x) without repeats."""
    return len(set().union(*[_sub_set(d, n - 1) for d in _run_dels(x, n)]))


def collect_reads(x: str, count: int, seed: int) -> ReadBundle:
    """Draw channel outputs until count distinct reads have been seen.

    x is checked to be a nonempty 0/1 word and its ball is sized, on
    integers, before any draw; a ball of fewer than count elements raises
    BallTooSmallError.  The reads are drawn as strings by ``_draw_reads``.
    """
    if count < 0:
        raise ValueError("read count must be nonnegative")
    if not x:
        raise ValueError("cannot transmit the empty word")
    ball = _ball_size(_int(parse_word(x)), len(x))
    if ball < count:
        raise BallTooSmallError(x, count, ball)
    return _draw_reads(x, count, seed)


def _draw_reads(x: str, count: int, seed: int) -> ReadBundle:
    """collect_reads without its checks: the caller has made sure that x is
    a nonempty 0/1 word whose ds-ball holds at least count elements, or
    this never returns.  Same seed, same draws, same bundle."""
    rng = random.Random(seed)
    seen: dict[str, None] = {}
    while len(seen) < count:
        i, sub = _draw(rng, len(x))
        seen.setdefault(apply_del_sub(x, i, sub), None)
    return ReadBundle(n=len(x), reads=tuple(seen))


@dataclass(slots=True)
class _Memo:
    """What the decodes of one word's bundles share.  Each entry is built
    on first use and never changed, so a decode's result does not depend
    on the memo it is given."""

    # read -> its preimage ball, for the first two reads of a bundle
    balls: dict[int, set[int]] = field(default_factory=dict)
    # survivor of the first two reads -> its run deletions
    dels: dict[int, list[int]] = field(default_factory=dict)
    # later read -> S(read), the words within one flip of it
    near: dict[int, set[int]] = field(default_factory=dict)


def decode(cs: CodeSpec, bundle: ReadBundle, *, _memo: _Memo | None = None) -> DecodeResult:
    """Find the codewords whose ds-balls hold every read.

    The candidates are the intersection of the first two reads' preimage
    balls; each later read z keeps a candidate x only when z is in B(x),
    that is when one of the r(x) run deletions of x, one per run, is within
    Hamming distance one of z; the code test runs on what is left.  Reads,
    balls and deletions are integers throughout; only the words that pass
    every read are formatted as strings, for the sort and the code test.
    With N distinct reads from a codeword of an (n,N)-reconstruction code
    the survivor is unique; fewer reads may leave several candidates
    (AMBIGUOUS) and inconsistent reads leave none (INCONSISTENT).

    _memo keeps the preimage balls, survivors' run deletions and later
    reads' S(z) this call builds, and hands back those an earlier call
    built.  A caller that decodes several bundles of one word passes one
    memo to all of them and drops it with the word: its read maps then
    hold only reads of the bundles decoded, and its survivor map only
    words of the preimage balls it holds.  By default each call gets a
    fresh one.
    """
    n = cs.n
    if bundle.n != n:
        raise ValueError(f"bundle length {bundle.n} does not match spec n={n}")
    reads = bundle.reads
    if not reads:
        return _result(tuple(members(cs)))
    zs = [_int(z) for z in reads]
    memo = _Memo() if _memo is None else _memo
    balls = memo.balls
    for z in zs[:2]:
        if z not in balls:
            balls[z] = _preimage(z, n)
    survivors = balls[zs[0]]
    if len(zs) > 1:
        survivors = survivors & balls[zs[1]]
    if len(zs) > 2 and survivors:
        known, nears = memo.dels, memo.near
        for x in survivors:
            if x not in known:
                known[x] = _run_dels(x, n)
        dels = [(x, known[x]) for x in survivors]
        for z in zs[2:]:
            # S(z) costs n set insertions per read, which pays only while
            # several survivors share it; one or two test their deletions'
            # distances to z instead (benchmarks/decode.py)
            if len(dels) > 2:
                if z not in nears:
                    nears[z] = _sub_set(z, n - 1)
                near = nears[z]
                dels = [(x, d) for x, d in dels if not near.isdisjoint(d)]
            else:
                dels = [(x, d) for x, d in dels if any((u ^ z).bit_count() <= 1 for u in d)]
            if not dels:
                break
        survivors = {x for x, _ in dels}
    words = sorted(to_word(x, n) for x in survivors)
    return _result(tuple(x for x in words if contains(cs, x)))


def _preimage(z: int, n: int) -> set[int]:
    """``balls.preimage_ball`` on integers: the length-n words x whose ball
    holds the length-(n - 1) word z, by every distinct insertion into every
    word w of S(z).  A bit inserted next to an equal bit gives the same word
    on either side of it, so the distinct insertions are the bit opposite to
    w's bit p at each p < n - 1, and both bits at the top."""
    out: set[int] = set()
    add = out.add
    near = _sub_set(z, n - 1)
    for p in range(n - 1):
        bit = 1 << p
        high = -bit  # the bits from p up
        for w in near:
            # w's bits from p up move up one, and bit p is the opposite of
            # w's old bit p
            add((w + (w & high)) | (bit & ~w))
    top = 1 << (n - 1)
    for w in near:
        add(w)
        add(w | top)
    return out


def _result(candidates: tuple[str, ...]) -> DecodeResult:
    if not candidates:
        return DecodeResult(INCONSISTENT, ())
    if len(candidates) == 1:
        return DecodeResult(UNIQUE, candidates)
    return DecodeResult(AMBIGUOUS, candidates)


def decode_by_scan(cs: CodeSpec, bundle: ReadBundle) -> DecodeResult:
    """Cross-check oracle: test every codeword's ball against the reads."""
    if bundle.n != cs.n:
        raise ValueError(f"bundle length {bundle.n} does not match spec n={cs.n}")
    need = set(bundle.reads)
    return _result(tuple(x for x in members(cs) if need <= set(ds_ball(x))))


def save_bundle(bundle: ReadBundle, out: TextIO) -> None:
    print(f"# n={bundle.n} N={len(bundle.reads)}", file=out)
    for z in bundle.reads:
        print(z, file=out)


def load_bundle(src: TextIO) -> ReadBundle:
    """Parse the save_bundle format back into a bundle.

    At n = 1 the only read is the empty word, a blank line that the word
    reader skips, so the header's N alone fixes the bundle.
    """
    fields, reads = read_word_file(src)
    n, count = (_int_field(fields, key) for key in ("n", "N"))
    if n == 1 and count == 1 and not reads:
        reads = [""]
    if len(reads) != count:
        raise ValueError(f"header promises {count} reads, file has {len(reads)}")
    return ReadBundle(n=n, reads=tuple(reads))


def _int_field(fields: dict[str, str], key: str) -> int:
    # int() would also take '+1', '0_4', ' 4' and non-ASCII digits such as '٤'
    value = fields[key]
    if re.fullmatch("-?[0-9]+", value) is None:
        raise ValueError(f"header field {key!r} is not an integer: {value!r}")
    return int(value)
