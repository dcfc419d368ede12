import io
import math
from itertools import combinations

import pytest

from delsub.balls import ball_intersection
from delsub.codes import (
    C2N9,
    CL,
    CN21,
    CP,
    EVEN_POS,
    FULL,
    INV,
    RLL,
    RUN_BOUNDED,
    VT,
    VT_MOD,
    best_coset,
    contains,
    default_period,
    load_code,
    members,
    redundancy,
    save_code,
    size,
    spec,
    subcode_check,
)
from delsub.words import vt_syndrome


def test_contains_examples():
    assert contains(spec(VT, 4, a=5), "1001")
    assert contains(spec(RUN_BOUNDED, 4), "0011")
    assert not contains(spec(RUN_BOUNDED, 4), "0101")
    assert not contains(spec(RLL, 6, P=5), "010101")
    assert contains(spec(RLL, 6, P=6), "010101")
    assert contains(spec(CL, 4, a0=0, a1=0, a2=0), "0000")


def test_contains_rejects_wrong_length():
    with pytest.raises(ValueError):
        contains(spec(VT, 4, a=0), "10011")


def test_spec_validation():
    with pytest.raises(ValueError):
        spec("nonesuch", 4)
    with pytest.raises(ValueError):
        spec(VT, 4, a=8)
    with pytest.raises(ValueError):
        spec(VT, 4)
    with pytest.raises(ValueError):
        spec(INV, 4, a=2, m=2)
    with pytest.raises(ValueError):
        spec(INV, 4, a=0, m=1)
    with pytest.raises(ValueError):
        spec(CP, 6, P=5, a1=0, a2=0)
    with pytest.raises(ValueError):
        spec(CL, 4, a0=4, a1=0, a2=0)


def test_spec_params_canonical_order():
    cs = spec(INV, 6, m=2, a=1)
    assert cs.params == (("a", 1), ("m", 2))
    assert cs.param("m") == 2
    with pytest.raises(KeyError):
        cs.param("P")


def test_members_full_ascending():
    assert list(members(spec(FULL, 2))) == ["00", "01", "10", "11"]


def test_members_run_bounded_count():
    assert size(spec(RUN_BOUNDED, 6)) == 32


def test_run_bounded_size_formula():
    for n in range(2, 13):
        cap = (n + 1) // 2
        expected = sum(2 * math.comb(n - 1, i) for i in range(cap))
        assert size(spec(RUN_BOUNDED, n)) == expected >= 1 << (n - 1)


def test_vt_cosets_partition():
    total = sum(size(spec(VT, 8, a=a)) for a in range(16))
    assert total == 256


@pytest.mark.parametrize(
    "family,params",
    [
        (INV, {"m": 3}),
        (VT_MOD, {"m": 3}),
        (EVEN_POS, {"m": 2}),
        (CL, {}),
    ],
)
def test_residue_partition(family, params):
    n = 6
    if family == CL:
        tuples = [
            {"a0": a0, "a1": a1, "a2": a2}
            for a0 in range(4)
            for a1 in range(2 * n)
            for a2 in range(2 * n * n)
        ]
    else:
        tuples = [{"a": a, **params} for a in range(params["m"])]
    assert sum(size(spec(family, n, **t)) for t in tuples) == 1 << n


def test_size_and_redundancy_examples():
    assert size(spec(FULL, 10)) == 1024
    assert redundancy(spec(FULL, 10)) == 0
    assert size(spec(RLL, 8, P=6)) >= 192 == 3 * 2**6


def test_redundancy_empty_code():
    # weight must be 0 mod 4 while VT^1 says exactly one 1: unsatisfiable
    empty = spec(CL, 3, a0=1, a1=5, a2=0)
    if size(empty) == 0:
        with pytest.raises(ValueError):
            redundancy(empty)


def test_default_period():
    assert default_period(8) == 6
    assert default_period(10) == 8
    assert default_period(12) == 8
    assert default_period(16) == 8


def test_best_coset_examples():
    vt = best_coset(VT, 8)
    assert size(vt) >= 16
    inv = best_coset(INV, 6, m=2)
    assert size(inv) >= 32
    assert redundancy(best_coset(INV, 10, m=2)) <= 1
    assert size(best_coset(CL, 8)) >= 1


def test_best_coset_is_actually_best():
    best = best_coset(VT, 6)
    best_size = size(best)
    for a in range(12):
        other = size(spec(VT, 6, a=a))
        assert other <= best_size
        if other == best_size:
            assert best.param("a") <= a


def test_best_coset_rejects_structural_families():
    with pytest.raises(ValueError):
        best_coset(FULL, 6)
    with pytest.raises(ValueError):
        best_coset(RLL, 6)


def test_best_coset_rejects_bad_modulus_before_scanning():
    for m in (0, 1):
        with pytest.raises(ValueError, match="modulus m must be at least 2"):
            best_coset(INV, 6, m=m)


def test_subcode_examples():
    n = 10
    cn21 = best_coset(CN21, n)
    period = cn21.param("P")
    c2n9 = spec(C2N9, n, a=cn21.param("a2"), m=1 + period // 2)
    assert subcode_check(cn21, c2n9)
    assert subcode_check(cn21, spec(RUN_BOUNDED, n))

    cl = best_coset(CL, 8)
    assert subcode_check(cl, spec(VT, 8, a=cl.param("a1")))

    assert not subcode_check(spec(FULL, 8), spec(VT, 8, a=0))


def test_vt_pairs_share_no_deletions_or_substitutions():
    for a in range(12):
        code = list(members(spec(VT, 6, a=a)))
        for x, y in combinations(code, 2):
            assert ball_intersection(x, y, "del") == []
            assert ball_intersection(x, y, "sub") == []


def test_cp_pairs_share_at_most_one_deletion():
    cs = spec(CP, 8, P=6, a1=0, a2=1)
    code = list(members(cs))
    assert code
    for x, y in combinations(code, 2):
        assert len(ball_intersection(x, y, "del")) <= 1


def test_cl_triples_have_empty_shared_ball():
    # cosets are sparse at this length, so triples are rare and the test is
    # close to vacuous; the verifier rechecks at n <= 10 with pair support
    n = 8
    buckets: dict[tuple[int, int, int], list[str]] = {}
    for x in members(spec(FULL, n)):
        key = (
            x.count("1") % 4,
            vt_syndrome(x, 1) % (2 * n),
            vt_syndrome(x, 2) % (2 * n * n),
        )
        buckets.setdefault(key, []).append(x)
    assert sum(len(g) for g in buckets.values()) == 1 << n
    for group in buckets.values():
        for x, y, z in combinations(group, 3):
            shared = set(ball_intersection(x, y, "ds")) & set(
                ball_intersection(x, z, "ds")
            )
            assert not shared


def test_save_load_roundtrip():
    cs = spec(INV, 5, a=1, m=3)
    buf = io.StringIO()
    count = save_code(cs, buf)
    buf.seek(0)
    loaded, words = load_code(buf)
    assert loaded == cs
    assert len(words) == count == size(cs)
    assert words == list(members(cs))


def test_load_code_rejects_bad_header():
    with pytest.raises(ValueError):
        load_code(io.StringIO("0101\n"))
    with pytest.raises(ValueError):
        load_code(io.StringIO("# n=4 params=\n0101\n"))


def test_load_code_rejects_word_of_wrong_length():
    buf = io.StringIO()
    save_code(spec(VT, 4, a=0), buf, words=["0000", "10010"])
    buf.seek(0)
    with pytest.raises(ValueError, match="10010"):
        load_code(buf)


def test_load_code_rejects_non_member():
    cs = spec(VT, 4, a=0)
    assert not contains(cs, "1000")
    buf = io.StringIO()
    save_code(cs, buf, words=["0000", "1000"])
    buf.seek(0)
    with pytest.raises(ValueError, match="1000"):
        load_code(buf)
