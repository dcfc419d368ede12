from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from delsub import verify
from delsub.words import (
    _complement_elements,
    _del_bit,
    _del_set,
    _Orbits,
    _reverse,
    _reverse_elements,
    _run_dels,
    _word_maps,
    _word_orbits,
    common_affixes,
    decode,
    hamming,
    inversion_number,
    max_le2_periodic_length,
    parse_word,
    psi,
    run_count,
    vt_syndrome,
    weight,
)

words = st.text(alphabet="01", min_size=0, max_size=16)
nonempty = st.text(alphabet="01", min_size=1, max_size=16)


def test_parse_word_rejects_other_symbols():
    assert parse_word("0110") == "0110"
    with pytest.raises(ValueError):
        parse_word("01a0")


def test_runs_empty():
    assert run_count("") == 0


@given(words)
def test_runs_consistency(x):
    assert run_count(x) == len(list(groupby(x)))


@given(nonempty)
def test_encode_decode_roundtrip(x):
    assert decode(int(x, 2), len(x)) == x


def test_vt_syndrome_examples():
    assert vt_syndrome("0101", 1) == 6
    assert vt_syndrome("0101", 2) == 13
    with pytest.raises(ValueError):
        vt_syndrome("0101", 3)


def test_inversion_number_example():
    assert inversion_number("1100") == 4
    assert inversion_number("0011") == 0


@given(words)
def test_inversion_number_bounds(x):
    w = weight(x)
    assert 0 <= inversion_number(x) <= w * (len(x) - w)


def test_psi_examples():
    assert psi("0110") == "0101"


@given(words)
def test_psi_roundtrip(x):
    # the prefix sums of psi(x), mod 2, give x back
    y = psi(x)
    assert "".join(str(y[: i + 1].count("1") % 2) for i in range(len(x))) == x


def test_common_affixes_examples():
    aff = common_affixes("0110", "1010")
    assert (aff.prefix, aff.suffix, aff.hamming) == ("", "10", 2)
    assert (aff.first_diff, aff.last_diff) == (1, 2)
    aff = common_affixes("000", "010")
    assert (aff.prefix, aff.suffix, aff.hamming) == ("0", "0", 1)


def test_common_affixes_rejects_equal():
    with pytest.raises(ValueError):
        common_affixes("01", "01")


@given(st.integers(1, 12), st.data())
def test_common_affixes_reconstructs(n, data):
    x = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
    y = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
    if x == y:
        return
    aff = common_affixes(x, y)
    j1, j2 = aff.first_diff, aff.last_diff
    assert x == aff.prefix + x[j1 - 1 : j2] + aff.suffix
    assert y == aff.prefix + y[j1 - 1 : j2] + aff.suffix
    assert aff.hamming == hamming(x, y)


def _period_le2_brute(x):
    best = min(len(x), 2)
    for lo in range(len(x)):
        for hi in range(lo + 1, len(x) + 1):
            win = x[lo:hi]
            if all(win[k] == win[k + 2] for k in range(len(win) - 2)):
                best = max(best, hi - lo)
    return best


def test_max_le2_periodic_length_examples():
    assert max_le2_periodic_length("001011") == 4
    assert max_le2_periodic_length("001100") == 2
    assert max_le2_periodic_length("000000") == 6


@given(nonempty)
def test_max_le2_periodic_length_matches_brute_force(x):
    assert max_le2_periodic_length(x) == _period_le2_brute(x)


def test_reverse_reads_the_word_backwards():
    for n in range(0, 9):
        for x in range(1 << n):
            assert decode(_reverse(x, n), n) == decode(x, n)[::-1]


@pytest.mark.parametrize("m", range(0, 7))
def test_element_maps_reverse_and_complement_every_word(m):
    top = (1 << m) - 1
    width = 1 << m
    for k in range(60):
        # 0, then pseudo-random sets, then the full set
        mask = (0x9E3779B97F4A7C15 * k) % (1 << width) if k < 59 else (1 << width) - 1
        members = [z for z in range(width) if mask >> z & 1]
        assert _reverse_elements(mask, m) == sum(1 << _reverse(z, m) for z in members)
        assert _complement_elements(mask, m) == sum(1 << (z ^ top) for z in members)


def _flip(w):
    return w.translate({48: 49, 49: 48})


# each group of _word_maps, as its maps on strings, the identity first
_STRING_GROUPS = {
    "": [lambda w: w],
    "c": [lambda w: w, _flip],
    "g": [lambda w: w, lambda w: _flip(w)[::-1]],
    "rc": [lambda w: w, _flip, lambda w: w[::-1], lambda w: _flip(w)[::-1]],
}


def test_orbit_rows_are_the_least_words_of_the_orbits():
    for group, maps in _STRING_GROUPS.items():
        for n in range(1, 11):
            orbits = {}
            for x in range(1 << n):
                images = {g(decode(x, n)) for g in maps}
                orbits[min(int(v, 2) for v in images)] = len(images)
            got = _word_orbits(n, group)
            assert got.closed
            assert got.rows == sorted(orbits), (group, n)
            assert got.weights == [orbits[r] for r in got.rows], (group, n)
            assert sum(got.weights) == 1 << n


@pytest.mark.parametrize("group", list(_STRING_GROUPS))
def test_orbit_close_spreads_pairs_over_the_group(group):
    n = 7
    pairs = [(3, 100), (100, 3), (0, 127), (17, 18), (42, 85)]
    want = sorted({tuple(sorted(int(g(decode(v, n)), 2) for v in pair))
                   for pair in pairs for g in _STRING_GROUPS[group]})
    orbits = _Orbits(_word_maps(n, group))
    assert orbits.close(pairs) == want
    assert orbits.close(pairs, 3) == want[:3]


def test_orbits_of_points_not_closed_under_the_group():
    # complement sends 0 to 7, which is not among the points
    assert not _Orbits(_word_maps(3, "c"), [0, 1, 6]).closed
    assert _Orbits(_word_maps(3, "c"), [0, 1, 6, 7]).closed


def test_run_dels_are_the_distinct_deletions_last_run_first():
    for n in range(1, 13):
        for x in range(1 << n):
            word = decode(x, n)
            dels = _run_dels(x, n)
            assert len(dels) == len(set(dels)) == run_count(word)
            assert set(dels) == _del_set(x, n)
            # the i-th value deletes a bit of the i-th run from the end
            # (bit 0 is the last position)
            low = 0
            for d, (_, run) in zip(dels, groupby(reversed(word))):
                assert d == _del_bit(x, low), (word, low)
                low += len(list(run))


def test_verify_reads_the_run_deletions_from_words():
    assert verify._run_dels is _run_dels
