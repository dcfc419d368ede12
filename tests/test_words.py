from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from delsub.words import (
    common_affixes,
    complement,
    decode,
    encode,
    hamming,
    inversion_number,
    max_le2_periodic_length,
    parse_word,
    psi,
    psi_inverse,
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
    assert decode(encode(x), len(x)) == x


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
    assert psi_inverse("1000") == "1111"


@given(words)
def test_psi_roundtrip(x):
    assert psi_inverse(psi(x)) == x
    assert psi(psi_inverse(x)) == x


@given(nonempty)
def test_complement_involution(x):
    assert complement(complement(x)) == x
    assert hamming(x, complement(x)) == len(x)


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
