"""Channel simulation and multi-read decoding.

The channel picks a deletion position and a flip-or-nothing uniformly at
random from [n] x ([n-1] u {none}), so its support is exactly the ds-ball.
Decoding never scans the code.  It intersects the preimage balls of the
first two reads only: after one read at most 2n(n+1) candidates survive,
after two a few dozen (41 at most over all read pairs at n = 9).  Every
later read z then filters the survivors, keeping x exactly when some
deletion of x lies in S(z), and the code's membership test runs last, on
the few words left.  The generator is the stdlib Mersenne Twister, which is
deterministic and portable across platforms for a fixed seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TextIO

from .balls import (
    apply_del_sub,
    deletion_ball,
    ds_ball,
    preimage_ball,
    substitution_ball,
)
from .codes import CodeSpec, contains, members
from .words import read_word_file

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


def collect_reads(x: str, count: int, seed: int) -> ReadBundle:
    """Draw channel outputs until count distinct reads have been seen."""
    if count < 0:
        raise ValueError("read count must be nonnegative")
    if not x:
        raise ValueError("cannot transmit the empty word")
    ball = len(ds_ball(x))
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
    that is when some deletion of x lies in S(z); the code test runs on
    what is left.  With N distinct reads from a codeword of an
    (n,N)-reconstruction code the survivor is unique; fewer reads may leave
    several candidates (AMBIGUOUS) and inconsistent reads leave none
    (INCONSISTENT).
    """
    n = cs.n
    if bundle.n != n:
        raise ValueError(f"bundle length {bundle.n} does not match spec n={n}")
    reads = bundle.reads
    if not reads:
        return _result(tuple(members(cs)))
    survivors = set(preimage_ball(reads[0], n))
    if len(reads) > 1:
        survivors.intersection_update(preimage_ball(reads[1], n))
    if len(reads) > 2 and survivors:
        dels = [(x, deletion_ball(x)) for x in survivors]
        for z in reads[2:]:
            near = set(substitution_ball(z))
            dels = [(x, d) for x, d in dels if not near.isdisjoint(d)]
            if not dels:
                break
        survivors = {x for x, _ in dels}
    return _result(tuple(sorted(x for x in survivors if contains(cs, x))))


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
