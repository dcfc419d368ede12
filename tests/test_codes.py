import functools
import math
import random
import tracemalloc
from itertools import combinations, islice, product

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
    FAMILIES,
    best_coset,
    contains,
    cosets,
    default_period,
    members,
    redundancy,
    size,
    spec,
)
from delsub import codes, verify
from delsub.words import (
    decode,
    inversion_number,
    max_le2_periodic_length,
    run_count,
    vt_syndrome,
    weight,
)


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


def test_contains_rejects_non_binary_words():
    for cs, x in (
        (spec(VT, 4, a=0), "2222"),
        (spec(CL, 4, a0=0, a1=0, a2=0), "abcd"),
        (spec(FULL, 3), "xyz"),
        (spec(RUN_BOUNDED, 4), "0120"),
    ):
        with pytest.raises(ValueError, match=f"not a binary word: {x!r}"):
            contains(cs, x)


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
    assert cs.param_dict()["m"] == 2
    with pytest.raises(KeyError):
        cs.param_dict()["P"]


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
    # the DP packs counts up to 2^n into lanes of 8, 16, 32 or 64 bits,
    # wider past n = 63: these n sit on each side of every width
    for n in (7, 8, 10, 15, 16, 31, 32, 33, 63, 64, 65, 128, 300):
        assert size(spec(FULL, n)) == 1 << n, n
        assert redundancy(spec(FULL, n)) == 0, n
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
            assert best.param_dict()["a"] <= a


def test_best_coset_rejects_structural_families():
    with pytest.raises(ValueError):
        best_coset(FULL, 6)
    with pytest.raises(ValueError):
        best_coset(RLL, 6)


def test_best_coset_rejects_bad_modulus_before_scanning():
    for m in (0, 1):
        with pytest.raises(ValueError, match="modulus m must be at least 2"):
            best_coset(INV, 6, m=m)


def test_coset_search_rejects_parameters_the_family_lacks():
    for family, params in ((VT, {"m": 3}), (CL, {"P": 4}), (CN21, {"m": 2}), (INV, {"P": 6})):
        name = next(iter(params))
        with pytest.raises(ValueError, match=f"family {family} takes no parameter {name}"):
            best_coset(family, 6, **params)
        with pytest.raises(ValueError, match=f"family {family} takes no parameter {name}"):
            cosets(family, 6, **params)
    assert best_coset(INV, 6, m=3).param_dict()["m"] == 3
    assert best_coset(CN21, 8, P=6).param_dict()["P"] == 6


def _fixed_params(family):
    """Fixed parameters of the differential test: non-default moduli and
    several periods, odd ones where the family allows them."""
    fixed = codes._FAMILIES[family].fixed
    if not fixed:
        return [{}]
    (name,) = fixed
    values = {"m": (2, 3, 5), "P": (1, 2, 3, 5, 8) if family == RLL else (2, 4, 6, 8)}[name]
    return [{name: value} for value in values]


def _definition(family, n, fixed):
    """Each family's definition from the words helpers, written apart from
    the counting automata in codes: the modulus of each residue, the
    structural test a member must pass, and the word -> residue tuple map.
    Only the fixed parameters m and P are read from fixed."""
    m, period = fixed.get("m"), fixed.get("P")
    mod = 1 + period // 2 if period else None

    def anything(x):
        return True

    def runs_ok(x):
        return run_count(x) <= (n + 1) // 2

    def window_ok(x):
        return max_le2_periodic_length(x) <= period

    def inversions(x):
        return (inversion_number(x) % m,)

    def parity_inversions(x):
        return weight(x) % 2, inversion_number(x) % mod

    return {
        FULL: ((), anything, lambda x: ()),
        VT: ((2 * n,), anything, lambda x: (vt_syndrome(x, 1) % (2 * n),)),
        INV: ((m,), anything, inversions),
        VT_MOD: ((m,), anything, lambda x: (vt_syndrome(x, 1) % m,)),
        EVEN_POS: ((m,), anything, lambda x: (sum(x[i] == "1" for i in range(1, n, 2)) % m,)),
        RUN_BOUNDED: ((), runs_ok, lambda x: ()),
        RLL: ((), window_ok, lambda x: ()),
        CP: ((2, mod), window_ok, parity_inversions),
        C2N9: ((m,), runs_ok, inversions),
        CN21: ((2, mod), lambda x: window_ok(x) and runs_ok(x), parity_inversions),
        CL: ((4, 2 * n, 2 * n * n), anything, lambda x: (
            weight(x) % 4, vt_syndrome(x, 1) % (2 * n), vt_syndrome(x, 2) % (2 * n * n)
        )),
    }[family]


def _scan_buckets(family, n, fixed):
    """Oracle: the ascending values of the words in each coset, by the
    definition on every word."""
    _, accept, residues_of = _definition(family, n, fixed)
    buckets = {}
    for value in range(1 << n):
        x = decode(value, n)
        if accept(x):
            buckets.setdefault(residues_of(x), []).append(value)
    return buckets


def _scan_counts(family, n, fixed):
    """Oracle: words per residue tuple, in ascending residue order;
    structural families have the one residue tuple ()."""
    moduli = _definition(family, n, fixed)[0]
    buckets = _scan_buckets(family, n, fixed)
    return {k: len(buckets.get(k, ())) for k in product(*map(range, moduli))}


@pytest.mark.parametrize("family", FAMILIES)
def test_membership_and_cosets_match_definition(family):
    residues = codes._FAMILIES[family].residues
    for n in range(1, 13):
        for fixed in _fixed_params(family):
            _, accept, residues_of = _definition(family, n, fixed)

            @functools.cache
            def coset(k):
                return spec(family, n, **fixed, **dict(zip(residues, k)))

            buckets = {}
            for value in range(1 << n):
                x = decode(value, n)
                k, member = residues_of(x), accept(x)
                # a word the structural test rejects is not even in the
                # coset its residues name
                assert contains(coset(k), x) == member, (n, fixed, x)
                assert codes._contains_int(coset(k), value) == member, (n, fixed, x)
                if member:
                    buckets.setdefault(k, []).append(value)
            if residues:
                got, coset_of = cosets(family, n, **fixed)
                assert got == buckets, (n, fixed)
                assert all(coset_of(k) == coset(k) for k in buckets)
            # every coset to n = 10, empty ones included; past it the first
            # three nonempty ones
            keys = product(*map(range, _definition(family, n, fixed)[0]))
            for k in keys if n <= 10 else list(buckets)[:3]:
                got = list(members(coset(k)))
                assert got == [decode(v, n) for v in buckets.get(k, ())], (n, fixed, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_members_match_definition_on_sampled_cosets_to_fourteen(family):
    """members against the definition past n = 12, at the default m and P:
    the largest coset and five seeded random ones, empty ones included."""
    rng = random.Random(14)
    residues = codes._FAMILIES[family].residues
    for n in (13, 14):
        fixed = {name: {"m": 2, "P": default_period(n)}[name]
                 for name in codes._FAMILIES[family].fixed}
        buckets = _scan_buckets(family, n, fixed)
        keys = list(product(*map(range, _definition(family, n, fixed)[0])))
        largest = max(keys, key=lambda k: len(buckets.get(k, ())))
        for k in [largest, *rng.sample(keys, min(5, len(keys)))]:
            got = list(members(spec(family, n, **fixed, **dict(zip(residues, k)))))
            assert got == [decode(v, n) for v in buckets.get(k, ())], (n, k)


def test_the_control_table_is_explored_once_per_definition(monkeypatch):
    explored = []
    control = codes._control
    monkeypatch.setattr(codes, "_control", lambda filters: explored.append(filters) or control(filters))
    codes._automaton.cache_clear()
    cs = best_coset(CN21, 15)
    assert best_coset(CN21, 15) == cs
    assert contains(cs, next(members(cs)))
    assert len(explored) == 1


def test_cosets_returns_fresh_containers():
    first, _ = cosets(INV, 8)
    again = {k: list(v) for k, v in first.items()}
    key = next(iter(first))
    first[key].append(1 << 8)
    first[key].reverse()
    del first[next(reversed(first))]
    first[(9,)] = [0]
    assert cosets(INV, 8)[0] == again
    assert cosets(INV, 8)[0] is not cosets(INV, 8)[0]


@pytest.mark.parametrize("theorem_id", list(verify.CODE_CHECKS))
def test_code_check_cosets_match_definition_to_fourteen(theorem_id):
    family = verify.CODE_CHECKS[theorem_id].family
    for n in (13, 14):
        defaults = {"m": 2, "P": default_period(n)}
        assert cosets(family, n)[0] == _scan_buckets(family, n, defaults), n


def test_coset_search_without_a_period_rejects_nonpositive_length():
    for family in (VT, CL, INV):
        for n in (0, -3):
            with pytest.raises(ValueError, match="code length must be positive"):
                best_coset(family, n)
            with pytest.raises(ValueError, match="code length must be positive"):
                cosets(family, n)
    with pytest.raises(ValueError, match="period needs n >= 1"):
        best_coset(CN21, 0)


def test_members_stream_in_ascending_order_without_listing_the_space():
    # a breadth-first walk would hold 2^24 prefixes before its first word
    for cs in (spec(FULL, 24), spec(VT, 24, a=0)):
        tracemalloc.start()
        try:
            first = list(islice(members(cs), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (cs, peak)
        assert len(first) == 3 and first == sorted(set(first)) and first[0] == "0" * 24
        assert all(contains(cs, x) for x in first)


@pytest.mark.parametrize("family", FAMILIES)
def test_counting_dp_matches_scan(family):
    residues = codes._FAMILIES[family].residues
    for n in range(1, 13):
        for fixed in _fixed_params(family):
            counts = _scan_counts(family, n, fixed)
            keys = list(counts)

            def coset(k):
                return spec(family, n, **fixed, **dict(zip(residues, k)))

            assert codes._coset_counts(coset(keys[0])) == list(counts.values())
            best = min(counts, key=lambda k: (-counts[k], k))
            # a size call counts every coset, so cl (16 n^3 cosets) is sampled
            sampled = keys if len(keys) <= 256 else keys[:: len(keys) // 64] + [best]
            for k in sampled:
                assert size(coset(k)) == counts[k], (n, fixed, k)
            if residues:
                assert best_coset(family, n, **fixed) == coset(best), (n, fixed)


RESIDUE_FAMILIES = [family for family in FAMILIES if codes._FAMILIES[family].residues]


@pytest.mark.parametrize("family", RESIDUE_FAMILIES)
def test_counting_dp_matches_enumeration_to_sixteen(family):
    """The zero coset's counts against the bucket sizes of the prefix walk,
    at the default m and P, past the n <= 12 scan above; and best_coset
    against the largest bucket where the walk is cheap."""
    for n in range(1, 17):
        buckets, coset_of = cosets(family, n)
        zero = coset_of((0,) * len(codes._FAMILIES[family].residues))
        moduli = codes._coset(zero)[0].moduli
        counts = {k: len(buckets.get(k, ())) for k in product(*map(range, moduli))}
        assert codes._coset_counts(zero) == list(counts.values()), n
        if n <= 10:
            assert best_coset(family, n) == coset_of(min(counts, key=lambda k: (-counts[k], k))), n


def test_counting_dp_keeps_one_int_per_cell():
    # one int per cell of cl at n = 16 holds 512 lanes; packing a whole
    # layer into one int would hold 65,536 and its shifted copies
    cs = best_coset(CL, 16)
    tracemalloc.start()
    try:
        codes._coset_counts(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def _subcode(inner, outer):
    """Whether every member of inner is a member of outer."""
    return all(contains(outer, x) for x in members(inner))


def test_subcode_examples():
    n = 10
    cn21 = best_coset(CN21, n)
    params = cn21.param_dict()
    c2n9 = spec(C2N9, n, a=params["a2"], m=1 + params["P"] // 2)
    assert _subcode(cn21, c2n9)
    assert _subcode(cn21, spec(RUN_BOUNDED, n))

    cl = best_coset(CL, 8)
    assert _subcode(cl, spec(VT, 8, a=cl.param_dict()["a1"]))

    assert not _subcode(spec(FULL, 8), spec(VT, 8, a=0))


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
