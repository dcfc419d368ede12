"""Channel simulation and multi-read decoding.

The channel picks a deletion position and a flip-or-nothing uniformly at
random from [n] x ([n-1] u {none}), so its support is exactly the ds-ball.
Decoding never scans the code, and it works on integer words (the
big-endian value of a 0/1 string): each read is converted once.  It
intersects the preimage balls of the first two reads only, each built as a
set of ints by inserting a 0 and a 1 at every position of every word of
S(z): after one read at most 2n(n+1) candidates survive, after two a few
dozen (41 at most over all read pairs at n = 9).  Every later read z then
filters the survivors, keeping x exactly when some deletion of x lies in
S(z), that is within Hamming distance one of z: against S(z), built once
per read, while more than two survivors are left, else deletion by
deletion, which skips building S(z) for most of a long bundle.  Only the
words left are formatted as strings, sorted, and put to the code's
membership test.  ``balls.preimage_ball``,
``balls.ds_ball`` and :func:`decode_by_scan` stay the string oracle of this
route.  The generator is the stdlib Mersenne Twister, which is
deterministic and portable across platforms for a fixed seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TextIO

from .balls import apply_del_sub, ds_ball
from .codes import CodeSpec, contains, members
from .words import _del_set, _sub_set, parse_word, read_word_file
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
    "channel_sample",
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


def channel_sample(x: str, seed: int) -> str:
    """One channel use: delete a uniform position, then maybe flip one bit."""
    if not x:
        raise ValueError("cannot transmit the empty word")
    i, sub = _draw(random.Random(seed), len(x))
    return apply_del_sub(x, i, sub)


def _int(word: str) -> int:
    """The integer value of a 0/1 word; 0 for the empty word."""
    return int(word or "0", 2)


def _ball_size(x: int, n: int) -> int:
    """|B(x)| for a length-n word x: the union of S(d) over d in D(x)."""
    return len(set().union(*[_sub_set(d, n - 1) for d in _del_set(x, n)]))


def collect_reads(x: str, count: int, seed: int) -> ReadBundle:
    """Draw channel outputs until count distinct reads have been seen.

    The ball is sized on integers; the reads are drawn as strings.
    """
    if count < 0:
        raise ValueError("read count must be nonnegative")
    if not x:
        raise ValueError("cannot transmit the empty word")
    ball = _ball_size(_int(parse_word(x)), len(x))
    if ball < count:
        raise BallTooSmallError(x, count, ball)
    rng = random.Random(seed)
    seen: dict[str, None] = {}
    while len(seen) < count:
        i, sub = _draw(rng, len(x))
        seen.setdefault(apply_del_sub(x, i, sub), None)
    return ReadBundle(n=len(x), reads=tuple(seen))


def decode(cs: CodeSpec, bundle: ReadBundle) -> DecodeResult:
    """Find the codewords whose ds-balls hold every read.

    The candidates are the intersection of the first two reads' preimage
    balls; each later read z keeps a candidate x only when z is in B(x),
    that is when some deletion of x is within Hamming distance one of z;
    the code test runs on what is left.  Reads, balls and deletions are
    integers throughout; only the words that pass every read are formatted
    as strings, for the sort and the code test.  With N distinct reads from
    a codeword of an (n,N)-reconstruction code the survivor is unique;
    fewer reads may leave several candidates (AMBIGUOUS) and inconsistent
    reads leave none (INCONSISTENT).
    """
    n = cs.n
    if bundle.n != n:
        raise ValueError(f"bundle length {bundle.n} does not match spec n={n}")
    reads = bundle.reads
    if not reads:
        return _result(tuple(members(cs)))
    zs = [_int(z) for z in reads]
    survivors = _preimage(zs[0], n)
    if len(zs) > 1:
        survivors &= _preimage(zs[1], n)
    if len(zs) > 2 and survivors:
        dels = [(x, _del_set(x, n)) for x in survivors]
        for z in zs[2:]:
            # S(z) costs n set insertions per read, which pays only while
            # several survivors share it; one or two test their deletions'
            # distances to z instead (benchmarks/decode.py)
            if len(dels) > 2:
                near = _sub_set(z, n - 1)
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
    holds the length-(n - 1) word z, by inserting a 0 and a 1 at every
    position of every word of S(z)."""
    out: set[int] = set()
    add = out.add
    near = _sub_set(z, n - 1)
    for p in range(n):
        bit = 1 << p
        high = -bit  # the bits from p up
        for w in near:
            x = w + (w & high)  # w with a 0 inserted at bit p
            add(x)
            add(x | bit)
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
