"""Channel simulation and multi-read decoding.

The channel picks a deletion position and a flip-or-nothing uniformly at
random from [n] x ([n-1] u {none}), so its support is exactly the ds-ball.
Decoding intersects per-read preimage balls instead of scanning the code:
after the first read at most 2n(n+1) candidates survive, and each further
read only filters.  The generator is the stdlib Mersenne Twister, which is
deterministic and portable across platforms for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TextIO

from .balls import apply_del_sub, ds_ball, preimage_ball
from .codes import CodeSpec, contains, members
from .words import parse_word

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
    """Intersect the reads' preimage balls with the code.

    With N distinct reads from a codeword of an (n,N)-reconstruction code
    the survivor is unique; fewer reads may leave several candidates
    (AMBIGUOUS) and inconsistent reads leave none (INCONSISTENT).
    """
    if bundle.n != cs.n:
        raise ValueError(f"bundle length {bundle.n} does not match spec n={cs.n}")
    survivors: set[str] | None = None
    for z in bundle.reads:
        pre = set(preimage_ball(z, cs.n))
        survivors = pre if survivors is None else survivors & pre
        if not survivors:
            return DecodeResult(INCONSISTENT, ())
    if survivors is None:
        return _result(tuple(members(cs)))
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
    header = src.readline().strip()
    if not header.startswith("# "):
        raise ValueError("missing read bundle header")
    fields = dict(
        item.split("=", 1) for item in header[2:].split(" ") if "=" in item
    )
    try:
        n = int(fields["n"])
        count = int(fields["N"])
    except KeyError as missing:
        raise ValueError(f"header lacks {missing} field") from None
    reads = []
    for line in src:
        word = line.strip()
        if word:
            reads.append(parse_word(word))
    if len(reads) != count:
        raise ValueError(f"header promises {count} reads, file has {len(reads)}")
    return ReadBundle(n=n, reads=tuple(reads))
