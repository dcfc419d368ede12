import io
import random
import re
from itertools import combinations, product

import pytest

from delsub import reconstruct
from delsub.balls import ADJACENT_TRANSPOSITION, CASE_CEILINGS, ds_ball, preimage_ball
from delsub.codes import (
    C2N9,
    CL,
    CN21,
    CP,
    EVEN_POS,
    FULL,
    INV,
    VT,
    VT_MOD,
    best_coset,
    members,
    spec,
)
from delsub.reconstruct import (
    AMBIGUOUS,
    INCONSISTENT,
    UNIQUE,
    BallTooSmallError,
    DecodeResult,
    ReadBundle,
    channel_sample,
    collect_reads,
    decode,
    decode_by_scan,
    load_bundle,
    save_bundle,
)
from delsub.verify import CODE_CHECKS


def test_channel_sample_lands_in_ball():
    for seed in range(50):
        assert channel_sample("00", seed) in {"0", "1"}
        assert channel_sample("010101", seed) in set(ds_ball("010101"))


def test_channel_sample_deterministic():
    assert channel_sample("010101", 7) == channel_sample("010101", 7)


def test_channel_support_covers_ball():
    x = "0110"
    support = {channel_sample(x, seed) for seed in range(10_000)}
    assert support == set(ds_ball(x))


def test_collect_reads_whole_ball():
    bundle = collect_reads("0000", 4, seed=1)
    assert sorted(bundle.reads) == ds_ball("0000") == ["000", "001", "010", "100"]


def test_collect_reads_too_many():
    with pytest.raises(BallTooSmallError) as err:
        collect_reads("0000", 5, seed=1)
    assert err.value.ball_size == 4


def test_collect_reads_empty_and_deterministic():
    assert collect_reads("0110", 0, seed=9).reads == ()
    a = collect_reads("011010", 5, seed=3)
    b = collect_reads("011010", 5, seed=3)
    assert a == b
    c = collect_reads("011010", 5, seed=4)
    assert len(set(c.reads)) == 5


def test_read_bundle_validation():
    with pytest.raises(ValueError):
        ReadBundle(n=4, reads=("010", "10"))
    with pytest.raises(ValueError):
        ReadBundle(n=4, reads=("010", "010"))


@pytest.mark.parametrize("read", ["1_0", " 10", "+1", "0a"])
def test_read_bundle_rejects_a_non_binary_read(read):
    # int(read, 2) takes the first three, so a decode on integers would
    # silently read them as other words
    with pytest.raises(ValueError, match=re.escape(f"not a binary word: {read!r}")):
        ReadBundle(n=len(read) + 1, reads=("0" * len(read), read))


def test_collect_reads_sizes_the_ball_like_the_string_api():
    for n in range(1, 11):
        for bits in product("01", repeat=n):
            x = "".join(bits)
            ball = len(ds_ball(x))
            assert reconstruct._ball_size(int(x, 2), n) == ball, x
            with pytest.raises(BallTooSmallError) as err:
                collect_reads(x, ball + 1, seed=0)
            assert err.value.ball_size == ball
            assert len(collect_reads(x, ball, seed=0).reads) == ball


def test_decode_unique_roundtrip():
    cs = best_coset(INV, 7, m=2)
    x = next(w for w in members(cs) if len(ds_ball(w)) >= 17)
    bundle = collect_reads(x, 17, seed=11)
    result = decode(cs, bundle)
    assert result.status == UNIQUE
    assert result.candidates == (x,)


def test_decode_completeness_with_few_reads():
    cs = best_coset(INV, 7, m=2)
    for seed, x in enumerate(list(members(cs))[:10]):
        bundle = collect_reads(x, 2, seed=seed)
        result = decode(cs, bundle)
        assert x in result.candidates


def test_decode_single_shared_read_is_ambiguous():
    x, y = "010110", "011010"
    shared = sorted(set(ds_ball(x)) & set(ds_ball(y)))
    assert shared
    result = decode(spec(FULL, 6), ReadBundle(n=6, reads=(shared[0],)))
    assert result.status == AMBIGUOUS
    assert x in result.candidates and y in result.candidates


def test_decode_inconsistent_reads():
    result = decode(spec(FULL, 6), ReadBundle(n=6, reads=("00000", "11111")))
    assert result.status == INCONSISTENT
    assert result.candidates == ()


def test_decode_rejects_length_mismatch():
    with pytest.raises(ValueError, match=re.escape("bundle length 6 does not match spec n=5")):
        decode(spec(FULL, 5), ReadBundle(n=6, reads=("00000",)))


def test_integer_preimage_matches_the_string_ball():
    for n in range(1, 11):
        for bits in product("01", repeat=n - 1):
            z = "".join(bits)
            want = {int(x, 2) for x in preimage_ball(z, n)}
            assert reconstruct._preimage(int(z or "0", 2), n) == want, (z, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decode_matches_scan_on_every_small_bundle(n):
    # every set of 0..3 distinct reads, so every bundle of reads of every
    # word and every inconsistent one
    specs = [spec(FULL, n)] + [
        best_coset(family, n) for family in (VT, INV, VT_MOD, EVEN_POS, CP, C2N9, CN21, CL)
    ]
    words = ["".join(bits) for bits in product("01", repeat=n - 1)]
    for count in range(4):
        for reads in combinations(words, count):
            bundle = ReadBundle(n, reads)
            for cs in specs:
                assert decode(cs, bundle) == decode_by_scan(cs, bundle), (cs, bundle)


def test_decode_empty_bundle_lists_whole_code():
    cs = spec(VT, 4, a=0)
    result = decode(cs, ReadBundle(n=4, reads=()))
    assert result.candidates == tuple(members(cs))


def test_decode_agrees_with_whole_code_scan():
    cs = best_coset(VT, 8)
    code = list(members(cs))
    for seed, x in enumerate(code[:15]):
        bundle = collect_reads(x, 3, seed=100 + seed)
        fast = decode(cs, bundle)
        slow = decode_by_scan(cs, bundle)
        assert fast == slow


# reads per bundle at which each family's code is claimed to reconstruct:
# its pairwise ceiling in verify.CODE_CHECKS plus one, and the transposition
# ceiling plus one for the full code (false for inv at n = 8..12, so those
# bundles may decode AMBIGUOUS)
_THRESHOLD = {
    family: (lambda n, ceiling=CODE_CHECKS[family].ceiling: ceiling(n) + 1)
    for family in (CL, VT, INV, CN21)
}
_THRESHOLD[FULL] = lambda n: CASE_CEILINGS[ADJACENT_TRANSPOSITION].ceiling(n) + 1


@pytest.mark.parametrize("family", tuple(_THRESHOLD))
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_decode_matches_scan_on_every_bundle_size(family, n):
    cs = spec(FULL, n) if family == FULL else best_coset(family, n)
    code = list(members(cs))
    rng = random.Random(f"{family}-{n}")
    for x in rng.sample(code, min(3, len(code))):
        ball = len(ds_ball(x))
        for count in (0, 1, 2, 3, min(_THRESHOLD[family](n), ball)):
            bundle = collect_reads(x, count, seed=rng.randrange(1 << 30))
            result = decode(cs, bundle)
            assert result == decode_by_scan(cs, bundle), (x, bundle)
            assert x in result.candidates


@pytest.mark.parametrize("family", tuple(_THRESHOLD))
@pytest.mark.parametrize("n", [8, 10])
def test_decode_filters_a_foreign_read_after_the_first_two(family, n):
    cs = spec(FULL, n) if family == FULL else best_coset(family, n)
    rng = random.Random(f"foreign-{family}-{n}")
    words = ["".join(bits) for bits in product("01", repeat=n - 1)]
    code = list(members(cs))
    for x in rng.sample(code, min(3, len(code))):
        reads = collect_reads(x, 5, seed=rng.randrange(1 << 30)).reads
        first_two = set(preimage_ball(reads[0], n)) & set(preimage_ball(reads[1], n))
        assert x in first_two
        own = set(ds_ball(x))
        covered = set().union(*(ds_ball(y) for y in first_two))
        # outside every ball the first two reads leave: no survivor is left
        far = rng.choice([z for z in words if z not in covered])
        # in another survivor's ball only: that survivor may stay, x may not
        near = rng.choice(sorted(covered - own))
        for z, empties in ((far, True), (near, False)):
            for at in (2, 3, 5):
                bundle = ReadBundle(n, reads[:at] + (z,) + reads[at:])
                result = decode(cs, bundle)
                assert result == decode_by_scan(cs, bundle), (x, bundle)
                assert x not in result.candidates
                if empties:
                    assert result == DecodeResult(INCONSISTENT, ())


def test_bundle_roundtrip():
    bundle = collect_reads("011010", 4, seed=5)
    buf = io.StringIO()
    save_bundle(bundle, buf)
    assert buf.getvalue().startswith("# n=6 N=4\n")
    buf.seek(0)
    assert load_bundle(buf) == bundle


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bundle_roundtrip_at_every_read_count(n):
    # at n = 1 the only read is the empty word, saved as a blank line
    for bits in product("01", repeat=n):
        x = "".join(bits)
        for count in range(len(ds_ball(x)) + 1):
            bundle = collect_reads(x, count, seed=count)
            buf = io.StringIO()
            save_bundle(bundle, buf)
            buf.seek(0)
            assert load_bundle(buf) == bundle


def test_load_bundle_rejects_bad_files():
    with pytest.raises(ValueError):
        load_bundle(io.StringIO("0101\n"))
    with pytest.raises(ValueError):
        load_bundle(io.StringIO("# n=4 N=2\n010\n"))
    with pytest.raises(ValueError, match="header lacks 'N' field"):
        load_bundle(io.StringIO("# n=4\n"))


def test_load_bundle_rejects_a_length_below_one():
    with pytest.raises(ValueError, match="n=-5"):
        load_bundle(io.StringIO("# n=-5 N=0\n"))


def test_load_bundle_rejects_a_repeated_read():
    with pytest.raises(ValueError, match="word 010 is listed twice"):
        load_bundle(io.StringIO("# n=4 N=2\n010\n010\n"))


@pytest.mark.parametrize(
    "header, key, value",
    [
        ("# n=abc N=1", "n", "abc"),
        ("# n=4 N=x2", "N", "x2"),
        ("# n=0_4 N=1", "n", "0_4"),
        ("# n=4 N=+1", "N", "+1"),
        ("# n=\u0664 N=1", "n", "\u0664"),
    ],
)
def test_load_bundle_names_a_non_integer_field(header, key, value):
    message = f"header field '{key}' is not an integer: '{value}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_bundle(io.StringIO(header + "\n010\n"))
