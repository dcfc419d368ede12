import contextlib
import functools
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

import delsub.report
from delsub import codes, reconstruct, tables, verify
from delsub.balls import (
    ADJACENT_TRANSPOSITION,
    ALTERNATING_BLOCK,
    CASE_CEILINGS,
    GENERIC,
    SHIFTED_PAIR,
    SINGLE_FLIP,
    ball_intersection,
    classify_pair,
    deletion_ball,
    ds_ball,
    is_bad,
    witnesses,
)
from delsub.verify import (
    CODE_CHECKS,
    EXHAUSTIVE_LIMIT,
    STRUCTURED_LIMIT,
    _del_set,
    _ds_inter,
    _good,
    _run_dels,
    _witness_list,
    verify_bad_count,
    verify_ball_sizes,
    verify_claim_tables,
    verify_code_theorem,
    verify_constrained_deletion,
    verify_del_positions,
    verify_intersection_bounds,
    verify_reconstruction,
    verify_rll,
)
from delsub.words import decode as to_word
from delsub.words import run_count


def all_words(n):
    return ["".join(bits) for bits in product("01", repeat=n)]


def test_ball_sizes_trivial_length_one():
    report = verify_ball_sizes(1)
    assert report.status == "PASS"
    assert report.pairs_checked == 2
    assert report.counterexamples == []


def test_ball_sizes_small_range():
    report = verify_ball_sizes(6)
    assert report.status == "PASS"
    assert report.pairs_checked == 64


def test_del_positions_pass():
    assert verify_del_positions(7).status == "PASS"


def test_constrained_deletion_pass():
    report = verify_constrained_deletion(5)
    assert report.status == "PASS"
    assert report.pairs_checked == 2 ** 11


def test_intersection_bounds_frozen_n6():
    report = verify_intersection_bounds(6)
    assert report.status == "PASS"
    assert report.pairs_checked == 2016
    assert report.bound == 15
    assert report.extremal_observed == 15
    assert report.equality_cases == 4


def test_intersection_bounds_equality_matches_brute_force_n6():
    expected = 0
    for x, y in combinations(all_words(6), 2):
        if len(ball_intersection(x, y, "ds")) != 15:
            continue
        cls = classify_pair(x, y)
        if cls.case != "ADJACENT_TRANSPOSITION":
            continue
        profile = (run_count(cls.prefix), run_count(cls.suffix))
        assert profile in ((0, 4), (4, 0))
        expected += 1
    assert verify_intersection_bounds(6).equality_cases == expected == 4


def test_intersection_bounds_below_global_threshold():
    report = verify_intersection_bounds(4)
    assert report.status == "PASS"
    assert report.bound is None
    assert report.equality_cases == 0


def test_intersection_bounds_jobs_do_not_change_report():
    lone = verify_intersection_bounds(7, jobs=1)
    many = verify_intersection_bounds(7, jobs=4)
    assert lone.to_json() == many.to_json()


def test_intersection_bounds_structured_matches_exhaustive_cases():
    exhaustive = verify_intersection_bounds(8)
    structured = verify_intersection_bounds(8, structured=True)
    assert structured.status == "PASS"
    covered = ("ADJACENT_TRANSPOSITION", "SINGLE_FLIP", "RUN_SHIFT", "ALTERNATING_BLOCK")
    expected = max(exhaustive.detail["case_extremal"][c] for c in covered)
    assert structured.extremal_observed == expected
    assert structured.equality_cases == exhaustive.equality_cases


def test_case_ceilings_are_the_paper_thresholds_less_one():
    thresholds = {
        ADJACENT_TRANSPOSITION: lambda n: 4 * n - 8,
        SINGLE_FLIP: lambda n: 3 * n - 4,
        ALTERNATING_BLOCK: lambda n: 2 * n + 9,
        SHIFTED_PAIR: lambda n: n + 21,
        GENERIC: lambda n: 31,
    }
    code_cases = {"vt": GENERIC, "inv": SINGLE_FLIP, "c2n9": ALTERNATING_BLOCK, "cn21": SHIFTED_PAIR}
    assert set(CODE_CHECKS) == {*code_cases, "cl"}
    for n in range(6, 41):
        for case, threshold in thresholds.items():
            assert CASE_CEILINGS[case].ceiling(n) + 1 == threshold(n)
            assert CASE_CEILINGS[case].limits(n)[0] == CASE_CEILINGS[case].ceiling(n)
        assert CODE_CHECKS["cl"].ceiling(n) + 1 == 7
        for theorem, case in code_cases.items():
            assert CODE_CHECKS[theorem].ceiling(n) == CASE_CEILINGS[case].ceiling(n)


def test_intersection_bounds_every_ladder_check_fires(monkeypatch):
    # n = 8 tables with the run counts of every fifth word lowered by 3 and
    # three words sharing every length-7 word, so that each run-sum,
    # equality-family and ceiling check of the exhaustive sweep fails somewhere;
    # the counts were recorded before the checks read balls.CASE_CEILINGS
    real = verify._tables
    tab = verify._Tables(8)
    for x in range(0, 256, 5):
        tab.runs[x] -= 3
    for x in (0b00101101, 0b01010101, 0b11100100):
        tab.bmask[x] |= (1 << 128) - 1
    monkeypatch.setattr(verify, "_tables", lambda n: tab if n == 8 else real(n))
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    report = verify_intersection_bounds(8)
    assert Counter(c["check"] for c in report.counterexamples) == {
        "flip run-sum ceiling": 32,
        "shift run-sum ceiling": 184,
        "two-flip run-sum ceiling": 59,
        "flip equality family": 2,
        "transposition equality family": 2,
        "SINGLE_FLIP ceiling": 23,
        "ADJACENT_TRANSPOSITION ceiling": 15,
        "RUN_SHIFT ceiling": 7,
        "TWO_FLIPS ceiling": 53,
        "ALTERNATING_BLOCK ceiling": 25,
        "SHIFTED_PAIR ceiling": 20,
        "GENERIC ceiling": 101,
        "global ceiling": 588,
    }


def _window_shift(x, y):
    """Whether shift_a, shift_b or alt_comp of _bounds_chunk's per-pair body
    holds for x != y, by that body's window test."""
    diff = x ^ y
    hi_b = diff.bit_length() - 1
    lo_b = (diff & -diff).bit_length() - 1
    span = hi_b - lo_b + 1
    if span < 2:
        return False
    mask_l = (1 << span) - 1
    wx = (x >> lo_b) & mask_l
    wy = (y >> lo_b) & mask_l
    low = (1 << (span - 1)) - 1
    shift_a = (wx & low) == (wy >> 1)
    shift_b = (wy & low) == (wx >> 1)
    alt_comp = wy == wx ^ mask_l and ((wx ^ (wx >> 1)) & low) == low
    return shift_a or shift_b or alt_comp


def test_shift_partners_are_the_window_shifts():
    # the row walk skips a pair only when the enumeration leaves it out, so
    # the enumeration must hold every pair the body's window test flags
    for n in range(1, 10):
        for x in range(1 << n):
            want = {y for y in range(1 << n) if y != x and _window_shift(x, y)}
            assert set(tables._shift_partners(x, n)) == want, (n, x)


def test_generic_row_is_a_plain_ceiling():
    # the row walk counts generic pairs within the ceiling in bulk, which is
    # exact only while the generic row has no run-sum or equality check
    assert CASE_CEILINGS[GENERIC].eq_gap is None
    assert CASE_CEILINGS[GENERIC].run_sum is None


def _lower_runs_and_widen_balls(tab):
    # the ladder test's faults, plus a generic pair sharing 27 elements:
    # above the global ceiling 23, within the generic one
    for x in range(0, 256, 5):
        tab.runs[x] -= 3
    for x in (0b00101101, 0b01010101, 0b11100100):
        tab.bmask[x] |= (1 << 128) - 1
    tab.bmask[0b00000000] = tab.bmask[0b00000111] = (1 << 27) - 1


def _add_bit(table, every, bit):
    def corrupt(tab):
        rows = getattr(tab, table)
        for x in range(0, 256, every):
            rows[x] |= 1 << bit
    return corrupt


def _drop_bits(table, every, keep):
    def corrupt(tab):
        rows = getattr(tab, table)
        for x in range(1, 256, every):
            rows[x] &= keep(rows[x])
    return corrupt


_WALK_FAULTS = {
    "sound": lambda tab: None,
    "runs-and-balls": _lower_runs_and_widen_balls,
    "spurious-dmask": _add_bit("dmask", 7, 0b1011001),
    "spurious-smask": _add_bit("smask", 7, 0b10110010),
    "dropped-smask": _drop_bits("smask", 5, lambda row: 0),
    "dropped-dmask": _drop_bits("dmask", 3, lambda row: row - 1),
}


@pytest.mark.parametrize("corrupt", list(_WALK_FAULTS.values()), ids=list(_WALK_FAULTS))
def test_row_walk_matches_the_every_pair_sweep(monkeypatch, corrupt):
    # walking every partner is the every-pair sweep; the row walk must give
    # the same chunk results on sound and faulty n = 8 tables, on the full
    # route (every later word) and on the orbit route (every other word)
    real = verify._tables
    tab = verify._Tables(8)
    corrupt(tab)
    monkeypatch.setattr(verify, "_tables", lambda n: tab if n == 8 else real(n))
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)

    def chunks():
        return [fn(*args) for chunk in (verify._bounds_chunk, verify._identity_chunk)
                for group in ("", "rc")
                for fn, *args in verify._sweep_tasks(chunk, (8,), 8, group)]

    walked = chunks()
    monkeypatch.setattr(tables, "_walk_mask", lambda tab, x, planes, limit, scope: scope)
    assert chunks() == walked


def _sharing(tab):
    """Per word x, the mask of the y whose dmask or smask row shares an
    element with x's, read off the rows one element at a time."""
    out = [0] * len(tab.runs)
    for table in (tab.dmask, tab.smask):
        holders = {}
        for y, row in enumerate(table):
            for z in verify._bits(row):
                holders[z] = holders.get(z, 0) | 1 << y
        for x, row in enumerate(table):
            for z in verify._bits(row):
                out[x] |= holders[z]
    return out


@pytest.mark.parametrize(
    "n, fault",
    [(n, "sound") for n in range(1, 13)] + [(8, f) for f in _WALK_FAULTS if f != "sound"],
)
def test_row_walk_holds_every_pair_the_tables_share(n, fault):
    # the strays are the words whose dmask or smask row a fault changed, and
    # every pair whose rows share an element is walked on both routes, the
    # strays standing in for the shared elements of a faulty row; on sound
    # tables the walk is the near flips, the shift partners and the pairs
    # above the limit, and holds nothing more with or without the shifts
    sound = verify._tables(n)
    tab = verify._Tables(n)
    _WALK_FAULTS[fault](tab)
    changed = [(tab.dmask[x], tab.smask[x]) != (sound.dmask[x], sound.smask[x])
               for x in range(1 << n)]
    assert tab.strays == sum(1 << x for x, c in enumerate(changed) if c)
    # runs-and-balls changes no dmask or smask row
    assert bool(tab.strays) == fault.endswith("mask")
    sharing = _sharing(tab)
    words = range(1 << n)
    generic = CASE_CEILINGS[GENERIC].ceiling(n)
    limit = min(generic, verify._global_ceiling(n) or generic)
    for group in ("", "rc"):
        for x, _, walk, *_ in verify._row_walk(tab, words, [2] * len(words), group):
            scope = ((1 << (1 << n)) - 1) ^ (1 << x)
            if not group:
                scope &= -(2 << x)
            assert sharing[x] & scope & ~walk == 0, (n, fault, group, x)
            if fault != "sound":
                continue
            near = sum({1 << (x ^ f) for f in tables._near_flips(n)})
            shifts = sum({1 << y for y in tables._shift_partners(x, n)})
            planes = verify._count_planes(tab.columns, tab.elements([x])[0])
            identity = (near | sharing[x] | verify._count_above(planes, limit)) & scope
            assert walk == identity == identity | (shifts & scope), (n, group, x)


def _reversal(x, n):
    return int(format(x, f"0{n}b")[::-1], 2) if n else 0


def _group(n, reversal=True):
    """The maps of the group of reversal and complement on length-n words,
    or of complement alone."""
    top = (1 << n) - 1
    maps = [lambda x: x, lambda x: x ^ top]
    if reversal:
        maps += [lambda x: _reversal(x, n), lambda x: _reversal(x, n) ^ top]
    return maps


def _image(mask, g):
    return sum(1 << g(z) for z in verify._bits(mask))


def test_sound_tables_are_equivariant():
    for n in range(1, 11):
        tab = verify._tables(n)
        assert tab.equivariant(verify._IDENTITY_TABLES, "rc") == "rc", n
        if n >= 3:
            assert tab.equivariant(verify._BAD_TABLES, "c") == "c", n


def _full_route(m):
    """Send every all-pairs sweep down the full route, as asymmetric tables do."""
    m.setattr(verify._Tables, "equivariant", lambda self, tables, group: "")


def _by_route(monkeypatch, call):
    """call()'s canonical report on the orbit route, then on the full route."""
    reduced = call().to_json()
    with monkeypatch.context() as m:
        _full_route(m)
        full = call().to_json()
    return reduced, full


@pytest.mark.parametrize("n", range(3, 13))
def test_orbit_route_bounds_match_the_full_route(monkeypatch, n):
    assert verify._tables(n).equivariant(verify._BOUNDS_TABLES, "rc")
    reduced, full = _by_route(monkeypatch, lambda: verify_intersection_bounds(n))
    assert reduced == full
    if n in (8, 10):
        assert verify_intersection_bounds(n, jobs=2).to_json() == full


def test_orbit_route_identity_matches_the_full_route(monkeypatch):
    # the identity leg alone, one length more per call
    monkeypatch.setattr(verify, "_family_tasks", lambda kind, depth, n: [])
    for n in range(2, 11):
        reduced, full = _by_route(monkeypatch, lambda: verify_claim_tables(n))
        assert reduced == full, n
        if n in (8, 10):
            assert verify_claim_tables(n, jobs=2).to_json() == full, n


@pytest.mark.parametrize("convention", ["pre", "post"])
def test_orbit_route_bad_count_matches_the_full_route_at_ten(monkeypatch, convention):
    # n = 3..9 are compared in test_bad_count_summaries_match_the_witness_loop;
    # "post" fails from n = 8 on, and its orbit route derives the FAIL report
    reduced, full = _by_route(monkeypatch, lambda: verify_bad_count(10, convention=convention))
    assert reduced == full
    assert verify_bad_count(10, jobs=2, convention=convention).to_json() == full


def _close_under(tab, closure, reversal=True):
    """Make the corrupted tables equivariant again: each mask row becomes the
    closure (| or &) of the images of its orbit's rows, and each run count the
    least one in its orbit."""
    n = tab.n
    for name, (dn, dm) in verify._Tables._SHAPES.items():
        if name == "summaries" or (name == "prev_smask" and not reversal):
            continue
        rows = getattr(tab, name)
        k = n + dn
        word_maps = _group(k, reversal)
        if dm is None:
            rows[:] = [min(rows[g(x)] for g in word_maps) for x in range(1 << k)]
            continue
        elem_maps = _group(n + dm, reversal)
        out = []
        for x in range(1 << k):
            acc = None
            for g, h in zip(word_maps, elem_maps):
                img = _image(rows[g(x)], h)
                acc = img if acc is None else closure(acc, img)
            out.append(acc)
        rows[:] = out


def _task_ces(monkeypatch, tasks):
    """Every counterexample that tasks find, on an orbit route too, whose
    sink otherwise lists only the failing pairs (see _Sink)."""
    real = verify._Sink
    with monkeypatch.context() as m:
        m.setattr(verify, "_Sink", lambda n, group="", task=tuple: real(n))
        return [c for fn, *args in tasks for c in fn(*args)["ces"]]


def _task_fails(tasks):
    """The failing pairs, or their full-route tasks, that the orbit-route
    tasks list."""
    return set().union(*(fn(*args)["fails"] for fn, *args in tasks))


def _orbit_pairs(ces, n, reversal=True):
    """The (unordered pair, check) of every counterexample among length-n
    words, over its orbit; n = 0 keeps each pair as it is."""
    out = set()
    for c in ces:
        x, y = int(c["x"], 2), int(c["y"], 2)
        maps = _group(n, reversal) if n else [lambda x: x]
        out |= {(frozenset((g(x), g(y))), c["check"]) for g in maps}
    return out


@pytest.mark.parametrize(
    "corrupt, closure",
    [
        (_lower_runs_and_widen_balls, int.__or__),
        (_add_bit("dmask", 7, 0b1011001), int.__or__),
        (_add_bit("smask", 7, 0b10110010), int.__or__),
        (_drop_bits("smask", 5, lambda row: 0), int.__and__),
        (_drop_bits("dmask", 3, lambda row: row - 1), int.__and__),
    ],
    ids=["runs-and-balls", "spurious-dmask", "spurious-smask", "dropped-smask", "dropped-dmask"],
)
def test_orbit_route_finds_symmetric_faults_over_their_orbits(monkeypatch, corrupt, closure):
    # faults spread over whole orbits keep the tables equivariant, so the
    # sweeps first take the orbit route; its counterexamples, spread over
    # their orbits, must be the full route's, and the report the full one's
    n = 8
    real = verify._tables
    tab = verify._Tables(n)
    corrupt(tab)
    _close_under(tab, closure)
    assert tab.equivariant(verify._IDENTITY_TABLES, "rc")
    monkeypatch.setattr(verify, "_tables", lambda k: tab if k == n else real(k))
    with monkeypatch.context() as m:
        m.setattr(verify, "_family_tasks", lambda kind, depth, n: [])
        for call in (verify_intersection_bounds, verify_claim_tables):
            reduced, full = _by_route(m, lambda: call(n))
            assert json.loads(reduced)["status"] == "FAIL"
            assert reduced == full
            assert call(n, jobs=2).to_json() == full
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    for chunk in (verify._bounds_chunk, verify._identity_chunk):
        found = [
            _orbit_pairs(_task_ces(monkeypatch, verify._sweep_tasks(chunk, (n,), n, group)),
                         n if group else 0)
            for group in ("rc", "")
        ]
        assert found[1], chunk
        # the shared deletion witness is read off x's side of the window, so
        # whether it fires can depend on which word of the pair comes first;
        # it can only differ where the count check fired on the pair too
        for got in found:
            assert all((pair, "shared deletion count") in got
                       for pair, check in got if check == "shared deletion witness")
        assert {p for p, _ in found[0]} == {p for p, _ in found[1]}, chunk
        assert ({e for e in found[0] if e[1] != "shared deletion witness"}
                == {e for e in found[1] if e[1] != "shared deletion witness"}), chunk
        # what the derived FAIL report rests on: the failing pairs that the
        # orbit route lists, closed under the group, are the full route's
        fails = _task_fails(verify._sweep_tasks(chunk, (n,), n, "rc"))
        assert fails == {tuple(sorted(pair)) for pair, _ in found[1]}, chunk


@pytest.mark.parametrize("convention", ["pre", "post"])
def test_orbit_route_finds_symmetric_bad_count_faults(monkeypatch, convention):
    # the faulty-tables bad-count test's widened balls, spread over each
    # complement pair; no deletion reaches most of the added elements
    n = 8
    real = verify._tables
    tab = verify._Tables(n)
    for x in range(1, 256, 5):
        tab.bmask[x] |= (1 << 32) - 1
    _close_under(tab, int.__or__, reversal=False)
    assert tab.equivariant(verify._BAD_TABLES, "c")
    monkeypatch.setattr(verify, "_tables", lambda k: tab if k == n else real(k))
    reduced, full = _by_route(monkeypatch, lambda: verify_bad_count(n, convention=convention))
    assert json.loads(reduced)["status"] == "FAIL"
    assert reduced == full
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    found = [
        _orbit_pairs(
            _task_ces(monkeypatch, verify._sweep_tasks(verify._bad_chunk, (convention, n), n, group)),
            n if group else 0,
            reversal=False,
        )
        for group in ("c", "")
    ]
    assert found[1]
    assert found[0] == found[1]
    fails = _task_fails(verify._sweep_tasks(verify._bad_chunk, (convention, n), n, "c"))
    assert fails == {tuple(sorted(pair)) for pair, _ in found[1]}


def _full_route_rows(monkeypatch, name):
    """The rows that the sweep chunk function name is given on the full
    route, as the calls after this one go."""
    rows = []
    chunk = getattr(verify, name)

    def counted(*args):
        if not args[-1]:
            rows.extend(args[-3])
        return chunk(*args)

    monkeypatch.setattr(verify, name, counted)
    return rows


def test_derived_fail_reports_rerun_no_sweep(monkeypatch):
    # the orbit route derives a FAIL report from at most _CE_CAP rows of the
    # full route, not from the 2^n rows of a rerun
    rows = _full_route_rows(monkeypatch, "_bad_chunk")
    assert verify_bad_count(10, convention="post").status == "FAIL"
    assert 0 < len(rows) <= delsub.report._CE_CAP
    n = 8
    real = verify._tables
    tab = verify._Tables(n)
    _lower_runs_and_widen_balls(tab)
    _close_under(tab, int.__or__)
    monkeypatch.setattr(verify, "_tables", lambda k: tab if k == n else real(k))
    rows = _full_route_rows(monkeypatch, "_bounds_chunk")
    assert verify_intersection_bounds(n).status == "FAIL"
    assert 0 < len(rows) <= delsub.report._CE_CAP


def test_asymmetric_tables_take_the_full_route_only(monkeypatch):
    # one word's dmask gains a spurious deletion that its orbit lacks
    n = 8
    real = verify._tables
    tab = verify._Tables(n)
    tab.dmask[0b00010111] |= 1 << 0b1011001
    assert not tab.equivariant(verify._BOUNDS_TABLES, "rc")
    assert not tab.equivariant(verify._BAD_TABLES, "c")
    monkeypatch.setattr(verify, "_tables", lambda k: tab if k == n else real(k))
    flags = []
    for name in ("_bounds_chunk", "_bad_chunk"):
        def recorded(*args, chunk=getattr(verify, name)):
            flags.append(args[-1])
            return chunk(*args)
        monkeypatch.setattr(verify, name, recorded)
    assert verify_intersection_bounds(n).status == "FAIL"
    verify_bad_count(n)
    assert flags and not any(flags)


def test_bit_sliced_counts_are_the_shared_ball_sizes():
    n = 7
    tab = verify._Tables(n)
    bm = tab.bmask
    cols = tab.columns
    for x in range(1 << n):
        planes = verify._count_planes(cols, verify._bits(bm[x]))
        assert len(planes) == bm[x].bit_count().bit_length()
        sizes = [(bm[x] & bm[y]).bit_count() for y in range(1 << n)]
        for y, size in enumerate(sizes):
            assert sum((plane >> y & 1) << k for k, plane in enumerate(planes)) == size
        for limit in (0, 5, 12, 40):
            assert verify._count_above(planes, limit) == sum(
                1 << y for y, size in enumerate(sizes) if size > limit
            )
        later = ((1 << (1 << n)) - 1) & -(2 << x)
        assert verify._count_max(planes, later) == max(sizes[x + 1:], default=-1)


def test_run_dels_span_the_deletion_ball():
    for n in range(1, 13):
        for x in range(1 << n):
            dels = _run_dels(x, n)
            assert len(dels) == len(set(dels))
            assert set(dels) == _del_set(x, n)


def _assert_ds_inter_matches_string_api(x, y, n):
    got = {to_word(z, n - 1) for z in _ds_inter(_run_dels(x, n), _run_dels(y, n), n)}
    assert got == set(ball_intersection(to_word(x, n), to_word(y, n), "ds")), (n, x, y)


def test_ds_inter_matches_string_api_on_all_pairs():
    for n in range(1, 8):
        for x, y in combinations(range(1 << n), 2):
            _assert_ds_inter_matches_string_api(x, y, n)


def test_ds_inter_matches_string_api_on_structured_families():
    for n in range(2, 11):
        for kind in verify._FAMILY_KINDS:
            for params in verify._family_params(kind, n):
                total = 1 << (n - verify._window(kind, params)[2])
                for _, _, _, x, y in verify._structured_pairs(kind, n, params, 0, total):
                    _assert_ds_inter_matches_string_api(x, y, n)


def test_ds_inter_is_on_the_checked_path(monkeypatch):
    real = verify._ds_inter

    def drop_one(dx, dy, n):
        out = real(dx, dy, n)
        if out:
            out.discard(min(out))
        return out

    monkeypatch.setattr(verify, "_ds_inter", drop_one)
    assert verify_claim_tables(8).status == "FAIL"
    assert verify_intersection_bounds(8, structured=True).status == "FAIL"


def test_structured_checks_fire_at_both_depths(monkeypatch):
    # one foreign word, all ones or all ones but the last bit, added to every
    # structured shared ball; the counts were recorded before the structured
    # walk built each pair's ball once for its checker
    real = verify._ds_inter

    def add_one(dx, dy, n):
        out = real(dx, dy, n)
        out.add(((1 << (n - 1)) - 1) ^ (dx[0] & 1))
        return out

    monkeypatch.setattr(verify, "_ds_inter", add_one)
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    full = verify_claim_tables(8)
    assert Counter(c["check"] for c in full.counterexamples) == {
        "extra elements": 3080,
        "mixed-profile ceiling": 112,
        "flip ceiling": 16,
        "flip equality": 16,
        "transposition ceiling": 12,
        "transposition equality": 12,
        "shift ceiling": 37,
        "run-sum ceiling": 19,
    }
    ceiling = verify_intersection_bounds(9, structured=True)
    assert Counter(c["check"] for c in ceiling.counterexamples) == {
        "transposition ceiling": 4,
        "transposition equality family": 28,
        "flip ceiling": 4,
        "flip equality family": 32,
        "shift ceiling": 16,
        "run-sum ceiling": 15,
        "alternating ceiling": 4,
    }


def _by_walk_route(monkeypatch, call):
    """call()'s canonical report with the structured walks on the orbit
    route, then on the full route."""
    reduced = call().to_json()
    real = verify._family_tasks
    with monkeypatch.context() as m:
        m.setattr(verify, "_family_tasks",
                  lambda kind, depth, n, group="rc": real(kind, depth, n, ""))
        full = call().to_json()
    return reduced, full


@pytest.mark.parametrize("n", range(2, 14))
def test_structured_orbit_route_matches_the_full_route(monkeypatch, n):
    calls = [lambda jobs: verify_intersection_bounds(n, jobs=jobs, structured=True)]
    if n <= 12:
        calls.append(lambda jobs: verify_claim_tables(n, jobs=jobs))
    for call in calls:
        reduced, full = _by_walk_route(monkeypatch, lambda: call(1))
        assert json.loads(reduced)["status"] == "PASS"
        assert reduced == full
        if n in (9, 11):
            assert call(2).to_json() == full


def _walk(kind, depth, n, orbits):
    """(x, y, weight) of every pair the kind's walk visits."""
    return [(x, y, task[7])
            for task in verify._family_tasks(kind, depth, n, "rc" if orbits else "")
            for *_, x, y in verify._structured_pairs(kind, *task[3:7])]


def test_orbit_weights_count_every_family_pair():
    for n in range(1, 17):
        for kind in verify._FAMILY_KINDS:
            full = sum(1 << (n - verify._window(kind, params)[2])
                       for params in verify._family_params(kind, n))
            for group in ("", "rc"):
                tasks = verify._family_tasks(kind, "full", n, group)
                assert sum((hi - lo) * w for *_, lo, hi, w, _ in tasks) == full, (n, kind, group)
            assert all(w == 1 for *_, w, _ in verify._family_tasks(kind, "full", n, ""))


def test_orbit_representatives_cover_every_family_pair():
    # each representative stands for its images under the four maps of the
    # group with its weight; spread over them (weight / 4 each) they must
    # count every family pair once
    for n in range(2, 10):
        group = _group(n)
        for kind in verify._FAMILY_KINDS:
            want = Counter(frozenset((x, y)) for x, y, _ in _walk(kind, "full", n, False))
            assert set(want.values()) <= {1}
            cover = Counter()
            for x, y, w in _walk(kind, "full", n, True):
                for g in group:
                    cover[frozenset((g(x), g(y)))] += w
            assert cover == Counter({pair: 4 for pair in want}), (n, kind)


def _commutes(g, h, x, y, n):
    """Whether the map g of length-n words, with h the same map on length
    n - 1, carries the run deletions and the shared ball of the pair (x, y),
    and the substitution balls of x and of its deletions, to its image's;
    the primitives are looked up in verify, where a test may patch them."""
    run_dels, ds_inter, sub_set = verify._run_dels, verify._ds_inter, verify._sub_set
    rdx, rdy = run_dels(x, n), run_dels(y, n)
    gdx, gdy = run_dels(g(x), n), run_dels(g(y), n)
    return (
        set(gdx) == {h(z) for z in rdx}
        and set(gdy) == {h(z) for z in rdy}
        and ds_inter(gdx, gdy, n) == {h(z) for z in ds_inter(rdx, rdy, n)}
        and sub_set(g(x), n) == {g(z) for z in sub_set(x, n)}
        and all(sub_set(h(z), n - 1) == {h(s) for s in sub_set(z, n - 1)} for z in rdx)
    )


def _sampled_family_pairs(n):
    """Two seeded random pairs (x, y) of every window of every family."""
    rng = random.Random(n)
    for kind in verify._FAMILY_KINDS:
        for params in verify._family_params(kind, n):
            total = 1 << (n - verify._window(kind, params)[2])
            for index in rng.sample(range(total), min(2, total)):
                (*_, x, y), = verify._structured_pairs(kind, n, params, index, index + 1)
                yield x, y


def _noncommuting_pairs(n):
    return [(x, y) for x, y in _sampled_family_pairs(n)
            for g, h in zip(_group(n), _group(n - 1)) if not _commutes(g, h, x, y, n)]


def test_structured_primitives_commute_with_reversal_and_complement():
    # the orbit route walks one pair of each orbit and stands for its images
    # (see _family_tasks); this checks what that rests on
    for n in range(2, 17):
        assert _noncommuting_pairs(n) == [], n


def test_a_fault_the_orbit_route_skips_needs_the_commuting_check(monkeypatch):
    # a spurious word in the shared balls of the pairs whose common prefix
    # is longer than their common suffix, which are the pairs of the windows
    # with m > q; the orbit route walks none of them and passes, the full
    # route fails, and the commuting check catches the broken reversal
    real = verify._ds_inter

    def add_zero(dx, dy, n):
        out = real(dx, dy, n)
        # x and y from their deletions of the last and of the first run
        x = dx[0] << 1 | dx[-1] & 1
        diff = x ^ (dy[0] << 1 | dy[-1] & 1)
        if n - diff.bit_length() > (diff & -diff).bit_length() - 1:
            out.add(0)
        return out

    monkeypatch.setattr(verify, "_ds_inter", add_zero)
    for call in (lambda: verify_claim_tables(8),
                 lambda: verify_intersection_bounds(9, structured=True)):
        reduced, full = _by_walk_route(monkeypatch, call)
        assert json.loads(reduced)["status"] == "PASS"
        assert json.loads(full)["status"] == "FAIL"
    assert _noncommuting_pairs(9)


def test_split_offsets_map_onto_themselves():
    # complement swaps the edge symbols "a" and "c" of both sides together
    # with the two deletion-term columns; reversal swaps the two sides
    swap = {"a": "c", "c": "a", None: None}
    offsets = verify._SPLIT_OFFSETS
    for (left, right), (o1, o2) in offsets.items():
        assert offsets[swap[left], swap[right]] == (o2, o1)
        assert offsets[right, left] == (o1, o2)


def test_structured_orbit_route_finds_symmetric_faults(monkeypatch):
    # a foreign element, no word at all, added to the shared balls of the
    # pairs whose run counts multiply to a multiple of three: a set of pairs
    # closed under reversal and complement, so the orbit route must see the
    # faults of every orbit, and the report must be the full route's
    real = verify._ds_inter

    def add_foreign(dx, dy, n):
        out = real(dx, dy, n)
        if len(dx) * len(dy) % 3 == 0:
            out.add(-1)
        return out

    monkeypatch.setattr(verify, "_ds_inter", add_foreign)
    for call in (lambda: verify_claim_tables(8),
                 lambda: verify_intersection_bounds(9, structured=True)):
        reduced, full = _by_walk_route(monkeypatch, call)
        assert json.loads(reduced)["status"] == "FAIL"
        assert reduced == full
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    fired = Counter()
    for depth, n in (("full", 8), ("ceiling", 9)):
        for kind in verify._FAMILY_KINDS:
            found = [
                _orbit_pairs(_task_ces(monkeypatch, verify._family_tasks(kind, depth, n, group)),
                             n if group else 0)
                for group in ("rc", "")
            ]
            assert found[0] == found[1], (depth, kind)
            # the orbit route lists the full-route task of each failing pair
            fails = _task_fails(verify._family_tasks(kind, depth, n, "rc"))
            assert fails == {verify._family_task(kind, depth, n, tuple(pair))
                             for pair, _ in found[1]}, (depth, kind)
            fired.update(check for _, check in found[1])
    assert set(fired) == {
        "extra elements", "mixed-profile ceiling", "run-sum ceiling", "shift ceiling",
        "flip ceiling", "flip equality family", "transposition ceiling",
        "transposition equality family", "alternating ceiling",
    }


def test_intersection_bounds_enforces_caps():
    with pytest.raises(ValueError):
        verify_intersection_bounds(EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(ValueError):
        verify_intersection_bounds(STRUCTURED_LIMIT + 1, structured=True)


def test_claim_tables_pass_small():
    report = verify_claim_tables(8)
    assert report.status == "PASS"
    assert report.detail["identity_max_n"] == 8
    # one flip family pair per (position, affix content) choice
    assert report.detail["family_pairs"]["fam12f"] == sum(
        n * 2 ** (n - 1) for n in range(2, 9)
    )


def test_claim_tables_skipped_below_two():
    assert verify_claim_tables(1).status == "SKIPPED"


# a generic pair at n = 7: Hamming distance 3, no shared deletion
_GENERIC_X, _GENERIC_Y = 0b0000000, 0b0000111


def _claim_tables_with(monkeypatch, corrupt):
    """verify_claim_tables(7), every counterexample kept, on n = 7 tables
    that corrupt(tables) has changed."""
    real = verify._tables
    tab = verify._Tables(7)
    corrupt(tab)
    monkeypatch.setattr(verify, "_tables", lambda n: tab if n == 7 else real(n))
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    report = verify_claim_tables(7)
    x, y = to_word(_GENERIC_X, 7), to_word(_GENERIC_Y, 7)
    return [c for c in report.counterexamples if (c["n"], c["x"], c["y"]) == (7, x, y)]


def test_claim_tables_generic_pair_keeps_its_ceiling(monkeypatch):
    def share_31(tab):
        tab.bmask[_GENERIC_X] = tab.bmask[_GENERIC_Y] = (1 << 31) - 1

    ces = _claim_tables_with(monkeypatch, share_31)
    assert [(c["check"], c["expected"], c["observed"]) for c in ces] == [
        ("generic ceiling", 30, 31)
    ]


# a length-6 deletion and a length-7 substitution that neither word has
@pytest.mark.parametrize("table, spurious", [("dmask", 0b111111), ("smask", 0b1111111)])
def test_claim_tables_spurious_shared_term_takes_the_full_path(monkeypatch, table, spurious):
    def share(tab):
        for v in (_GENERIC_X, _GENERIC_Y):
            getattr(tab, table)[v] |= 1 << spurious

    ces = _claim_tables_with(monkeypatch, share)
    assert [c["check"] for c in ces] == ["term containment"]


def test_bad_count_frozen_maxima_n6():
    report = verify_bad_count(6)
    assert report.status == "PASS"
    assert report.detail["max_bad"] == {"pre": 4, "post": 5}
    assert report.extremal_observed == 4


def test_bad_count_post_convention_fails_at_n8():
    report = verify_bad_count(8, convention="post")
    assert report.status == "FAIL"
    assert report.extremal_observed == 7
    first = report.counterexamples[0]
    assert first["check"] == "bad element count"
    assert first["observed"] > 6


def test_bad_count_skipped_for_tiny_n():
    assert verify_bad_count(2).status == "SKIPPED"


def test_bad_count_rejects_unknown_convention():
    with pytest.raises(ValueError):
        verify_bad_count(6, convention="middle")


def test_witness_list_agrees_with_string_witnesses():
    n = 5
    dels = verify._tables(n).dels
    for x in all_words(n):
        xi = int(x, 2)
        for z in range(1 << (n - 1)):
            triples = _witness_list(dels[xi], z, n)
            expected = witnesses(x, format(z, f"0{n - 1}b"))
            got = sorted((i, post) for i, _, post in triples)
            assert got == sorted(expected, key=lambda w: (w[0], w[1] is not None, w[1]))


def test_bad_count_agrees_with_is_bad_on_sample_pair():
    x, y = "010010", "001101"
    cls = classify_pair(x, y)
    assert (cls.d, cls.s) == (0, 0)
    shared = ball_intersection(x, y, "ds")
    for convention in ("pre", "post"):
        direct = sum(is_bad(x, y, z, convention=convention) for z in shared)
        assert direct <= 6


@pytest.mark.parametrize("n", [5, 6, 7])
def test_good_agrees_with_is_bad_on_every_generic_pair(n):
    dels = verify._tables(n).dels
    for x, y in combinations(all_words(n), 2):
        if sum(a != b for a, b in zip(x, y)) < 3 or set(deletion_ball(x)) & set(deletion_ball(y)):
            continue
        for z in ball_intersection(x, y, "ds"):
            want = tuple(not is_bad(x, y, z, convention=c) for c in ("pre", "post"))
            assert _good(dels[int(x, 2)], dels[int(y, 2)], int(z, 2), n) == want, (x, y, z)


def _summary_of(triples, n):
    # (min i, max i, lo, pre hi, post hi) read straight off a witness list;
    # the least flip below the deletion is the same in both coordinates
    starts = [i for i, _, _ in triples]
    flips = [[(i, p) for i, p, _ in triples if p is not None],
             [(i, q) for i, _, q in triples if q is not None]]
    lo = [min((p for i, p in pos if p < i), default=n) for pos in flips]
    hi = [max((p for i, p in pos if p > i), default=0) for pos in flips]
    assert lo[0] == lo[1]
    return (min(starts), max(starts), lo[0], *hi)


def test_witness_summaries_are_the_witness_list_extremes():
    for n in range(1, 9):
        dels = verify._tables(n).dels
        summaries = verify._tables(n).summaries
        bm = verify._tables(n).bmask
        for x in range(1 << n):
            assert sorted(summaries[x]) == verify._bits(bm[x])
            for z, summary in summaries[x].items():
                assert summary == _summary_of(_witness_list(dels[x], z, n), n), (n, x, z)


def test_four_comparisons_decide_goodness_on_every_pair():
    # the _bad_chunk rule, on every pair and shared element, generic or not
    for n in range(2, 8):
        dels = verify._tables(n).dels
        summaries = verify._tables(n).summaries
        bm = verify._tables(n).bmask
        for x in range(1 << n):
            for y in range(x, 1 << n):
                for z in verify._bits(bm[x] & bm[y]):
                    ix, jx, lx, px, qx = summaries[x][z]
                    iy, jy, ly, py, qy = summaries[y][z]
                    low = lx < jy or ly < jx
                    got = (low or px > iy or py > ix, low or qx > iy or qy > ix)
                    assert got == _good(dels[x], dels[y], z, n), (n, x, y, z)


def _bad_chunk_by_pairs(convention, n, rows, weights, orbits):
    # _bad_chunk on the full route without witness summaries: each shared
    # element through _good
    assert not orbits and set(weights) == {1}
    tab = verify._tables(n)
    dels = verify._tables(n).dels
    generic = CASE_CEILINGS[GENERIC].ceiling(n)
    side = ("pre", "post").index(convention)
    sink = verify._Sink(n)
    pairs = seen = eq = 0
    max_bad = [0, 0]
    for x in rows:
        for y in range(x + 1, 1 << n):
            if (x ^ y).bit_count() < 3 or tab.dmask[x] & tab.dmask[y]:
                continue
            pairs += 1
            elements = verify._bits(tab.bmask[x] & tab.bmask[y])
            if not elements:
                continue
            seen += 1
            if len(elements) > generic:
                sink.add(x, y, "generic ceiling", generic, len(elements))
            good = [_good(dels[x], dels[y], z, n) for z in elements]
            bad = [sum(not g[k] for g in good) for k in (0, 1)]
            max_bad = [max(m, b) for m, b in zip(max_bad, bad)]
            if bad[side] == 6:
                eq += 1
            elif bad[side] > 6:
                sink.add(x, y, "bad element count", 6, bad[side])
    return {
        "pairs": pairs,
        "seen": seen,
        "max_bad": {"pre": max_bad[0], "post": max_bad[1]},
        "extremal": max_bad[side],
        "eq": eq,
        "ces": sink.ces,
        "fails": [],
    }


def _check_bad_count_routes(monkeypatch, n, convention):
    # witness summaries at jobs 1 and 2, on the orbit route where the tables
    # allow it, then the full route pair by pair through _good; the first
    # differing line is reported, since pytest takes minutes to diff reports
    # with thousands of counterexamples
    out = [verify_bad_count(n, convention=convention, jobs=jobs).to_json() for jobs in (1, 2)]
    with monkeypatch.context() as m:
        _full_route(m)
        m.setattr(verify, "_bad_chunk", _bad_chunk_by_pairs)
        out.append(verify_bad_count(n, convention=convention).to_json())
    lines = [report.splitlines() for report in out]
    for k, row in enumerate(zip(*lines)):
        assert len(set(row)) == 1, (k, row)
    assert len({len(report) for report in lines}) == 1
    return out


@pytest.mark.parametrize("convention", ["pre", "post"])
@pytest.mark.parametrize("n", range(3, 10))
def test_bad_count_summaries_match_the_witness_loop(monkeypatch, n, convention):
    _check_bad_count_routes(monkeypatch, n, convention)


@pytest.mark.parametrize("convention", ["pre", "post"])
def test_bad_count_summaries_match_the_witness_loop_on_faulty_tables(monkeypatch, convention):
    # the 32 lowest length-7 words join the ball of every word x = 1 (mod 5);
    # no deletion of x reaches most of them, so they are bad under both
    # conventions, and the pairs of such words share more than 30 elements
    real = verify._tables
    tab = verify._Tables(8)
    for x in range(1, 256, 5):
        tab.bmask[x] |= (1 << 32) - 1
    monkeypatch.setattr(verify, "_tables", lambda n: tab if n == 8 else real(n))
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    report = json.loads(_check_bad_count_routes(monkeypatch, 8, convention)[0])
    checks = Counter(c["check"] for c in report["counterexamples"])
    assert checks["bad element count"] > 0
    assert checks["generic ceiling"] > 0
    assert report["equality_cases"] > 0


def test_code_theorem_vt_frozen_n8():
    report = verify_code_theorem("vt", 8)
    assert report.status == "PASS"
    assert report.bound == 30
    assert report.extremal_observed == 13
    assert report.detail["cosets"] == 16
    assert report.detail["largest_coset"] == 16


def test_code_theorem_parity_vt_n8():
    report = verify_code_theorem("cl", 8)
    assert report.status == "PASS"
    assert report.bound == 6
    assert report.detail["alt_bound_satisfied"] is True
    assert "triples_checked" in report.detail


def test_code_theorem_inversion_parity_fails_below_crossover():
    # the alternating-window case can reach 2n + 8 shared elements inside a
    # parity class, which exceeds 3n - 5 for every n below 13
    report = verify_code_theorem("inv", 8)
    assert report.status == "FAIL"
    first = report.counterexamples[0]
    assert (first["x"], first["y"]) == ("00010110", "00101010")
    assert first["observed"] == 20 > 19 == report.bound


@pytest.mark.slow
def test_code_theorem_inversion_parity_holds_at_crossover():
    report = verify_code_theorem("inv", 13)
    assert report.status == "PASS"
    assert report.extremal_observed == report.bound == 34


def _code_reports_by_route(monkeypatch, families, lengths):
    # every coset on the row route, then every coset on the pair loop
    out = []
    for switch in (0, 1 << 40):
        monkeypatch.setattr(verify, "_CODE_ROW_MIN_MEMBERS", switch)
        out.append([verify_code_theorem(f, n).to_json() for f in families for n in lengths])
    return out


def test_code_row_route_matches_the_pair_loop(monkeypatch):
    # cl never takes the row route: it also checks every shared element
    rows, pairs = _code_reports_by_route(
        monkeypatch, ("vt", "inv", "c2n9", "cn21", "cl"), range(2, 13)
    )
    assert rows == pairs


def test_code_row_route_matches_the_pair_loop_on_faulty_tables(monkeypatch):
    # the 32 lowest length-9 words join the ball of every word x = 1 (mod 5),
    # so the pairwise ceiling fails far more often than the counterexample cap
    real = verify._tables
    tab = verify._Tables(10)
    for x in range(1, 1 << 10, 5):
        tab.bmask[x] |= (1 << 32) - 1
    monkeypatch.setattr(verify, "_tables", lambda n: tab if n == 10 else real(n))
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    rows, pairs = _code_reports_by_route(monkeypatch, ("vt", "inv", "c2n9", "cn21"), (10,))
    assert rows == pairs
    for report in rows:
        ces = json.loads(report)["counterexamples"]
        assert len(ces) > 32
        assert {c["check"] for c in ces} == {"pairwise ceiling"}


def _row_route_planes(monkeypatch, call):
    """Per coset that call() counts a row at a time: its members and the
    number of rows it sums into planes."""
    out = []
    coset_rows, count_planes = verify._coset_rows, verify._count_planes

    def rows(tab, members, bound, sink):
        out.append([members, 0])
        return coset_rows(tab, members, bound, sink)

    def planes(columns, row):
        out[-1][1] += 1
        return count_planes(columns, row)

    with monkeypatch.context() as m:
        m.setattr(verify, "_coset_rows", rows)
        m.setattr(verify, "_count_planes", planes)
        call()
    return out


def _fixed_words(members, n):
    top = (1 << n) - 1
    return sum(_reversal(x, n) ^ top == x for x in members)


def test_closed_cosets_walk_one_row_per_orbit(monkeypatch):
    # reversed complement keeps every inv and c2n9 coset; vt's syndrome
    # moves under it, so its cosets walk every row
    n = 12
    monkeypatch.setattr(verify, "_CODE_ROW_MIN_MEMBERS", 0)
    for theorem_id in ("inv", "c2n9"):
        seen = _row_route_planes(monkeypatch, lambda: verify_code_theorem(theorem_id, n))
        assert seen, theorem_id
        for members, calls in seen:
            assert calls <= (len(members) + _fixed_words(members, n)) // 2, theorem_id
    seen = _row_route_planes(monkeypatch, lambda: verify_code_theorem("vt", n))
    assert seen
    assert all(calls == len(members) for members, calls in seen)


def _closure(words, n):
    return {g(x) for x in words for g in _group(n)}


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "non-representative"])
def test_code_row_route_matches_the_pair_loop_on_symmetric_faults(monkeypatch, closed):
    # a set of length-9 words closed under reversal and complement joins the
    # balls of such a set of length-10 words, which keeps bmask equivariant:
    # closed cosets walk their orbit rows and derive every counterexample
    # from them.  Joined to the rows x > g(x) alone, which those walks never
    # sum, the fault breaks the equivariance and every coset walks all rows.
    n = 10
    top = (1 << n) - 1
    real = verify._tables
    tab = verify._Tables(n)
    extra = sum(1 << z for z in _closure(range(32), n - 1))
    for x in _closure(range(1, 1 << n, 5), n):
        if closed or x > _reversal(x, n) ^ top:
            tab.bmask[x] |= extra
    assert bool(tab.equivariant(("bmask",), "rc")) == closed
    monkeypatch.setattr(verify, "_tables", lambda k: tab if k == n else real(k))
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)
    monkeypatch.setattr(verify, "_CODE_ROW_MIN_MEMBERS", 0)
    seen = _row_route_planes(monkeypatch, lambda: verify_code_theorem("inv", n))
    assert seen
    for members, calls in seen:
        assert calls < len(members) if closed else calls == len(members)
    rows, pairs = _code_reports_by_route(monkeypatch, ("vt", "inv", "c2n9", "cn21"), (n,))
    assert rows == pairs
    for report in rows:
        ces = json.loads(report)["counterexamples"]
        assert len(ces) > 32
        assert {c["check"] for c in ces} == {"pairwise ceiling"}


def test_code_row_route_reports_are_byte_identical_across_jobs(monkeypatch):
    monkeypatch.setattr(verify, "_CODE_ROW_MIN_MEMBERS", 0)
    one = verify_code_theorem("inv", 11, jobs=1)
    assert one.pairs_checked >= verify._CODE_FORK_MIN_PAIRS
    assert verify_code_theorem("inv", 11, jobs=2).to_json() == one.to_json()


def test_code_theorem_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify_code_theorem("fountain", 8)


def test_counting_dp_off_by_one_fails_both_cross_checks(monkeypatch):
    counts = codes._coset_counts
    monkeypatch.setattr(codes, "_coset_counts", lambda cs: [c + 1 for c in counts(cs)])
    code = verify_code_theorem("vt", 8)
    rll = verify_rll(8, 6)
    assert code.status == rll.status == "FAIL"
    assert [c["check"] for c in code.counterexamples] == ["coset size routes"]
    assert code.counterexamples[0]["observed"] == code.counterexamples[0]["expected"] + 1
    assert [c["check"] for c in rll.counterexamples] == ["member count routes"]
    assert rll.counterexamples[0]["observed"] == rll.detail["members"] + 1


def test_a_non_member_in_the_best_bucket_fails_coset_membership(monkeypatch):
    cosets = codes.cosets

    def padded(family, n, **fixed):
        buckets, coset_of = cosets(family, n, **fixed)
        best = min(buckets, key=lambda k: (-len(buckets[k]), k))
        stranger = next(v for k, vs in sorted(buckets.items()) if k != best for v in vs)
        buckets[best] = sorted(buckets[best] + [stranger])
        return buckets, coset_of

    monkeypatch.setattr(codes, "cosets", padded)
    report = verify_code_theorem("vt", 8)
    assert report.status == "FAIL"
    found = [c for c in report.counterexamples if c["check"] == "coset membership"]
    assert len(found) == 1
    assert found[0]["expected"] == str(codes.best_coset("vt", 8))


# faults run both here and in a fresh interpreter: each patches through
# patch(module, name, value) and reads the length n of the call
_CACHE_FAULTS = {
    "padded cosets": """
real = codes.cosets
def padded(family, n, **fixed):
    buckets, coset_of = real(family, n, **fixed)
    best = min(buckets, key=lambda k: (-len(buckets[k]), k))
    stranger = next(v for k, vs in sorted(buckets.items()) if k != best for v in vs)
    buckets[best] = sorted(buckets[best] + [stranger])
    return buckets, coset_of
patch(codes, "cosets", padded)
""",
    "corrupted tables": """
real = verify._tables
def corrupted(k):
    if k != n:
        return real(k)
    tab = verify._Tables(k)
    for x in range(1, 1 << k, 5):
        tab.bmask[x] |= (1 << 32) - 1
    return tab
patch(verify, "_tables", corrupted)
""",
}

_COLD_CALL = """
import sys
from delsub import codes, verify
theorem_id, n = sys.argv[1], int(sys.argv[2])
patch = setattr
exec(sys.argv[3])
print(verify.verify_code_theorem(theorem_id, n).to_json())
"""


def _cold_report(theorem_id, n, fault):
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _COLD_CALL, theorem_id, str(n), fault],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("fault", list(_CACHE_FAULTS))
def test_warm_code_checks_still_see_injected_faults(monkeypatch, fault):
    # vt 8 walks its cosets pair by pair, inv 10 its two 512-member cosets a
    # row at a time from the state each length keeps
    calls = (("vt", 8), ("inv", 10))
    clean = {call: verify_code_theorem(*call).to_json() for call in calls}
    for theorem_id, n in calls:
        with monkeypatch.context() as m:
            exec(_CACHE_FAULTS[fault], {"codes": codes, "verify": verify, "n": n,
                                        "patch": m.setattr})
            warm = verify_code_theorem(theorem_id, n)
        assert warm.status == "FAIL"
        assert warm.to_json() != clean[theorem_id, n]
        assert warm.to_json() == _cold_report(theorem_id, n, _CACHE_FAULTS[fault])


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_code_checks_repeat_the_first_call(monkeypatch, jobs):
    # fresh per-length caches, so that each first call builds what it keeps
    monkeypatch.setattr(verify, "_tables", functools.cache(verify._Tables))
    monkeypatch.setattr(codes, "_walked", functools.lru_cache(16)(codes._walked.__wrapped__))
    for theorem_id in CODE_CHECKS:
        for n in range(2, 13):
            first = verify_code_theorem(theorem_id, n, jobs=jobs).to_json()
            assert verify_code_theorem(theorem_id, n, jobs=jobs).to_json() == first, (theorem_id, n)


def test_rll_frozen_n10():
    report = verify_rll(10, 8)
    assert report.status == "PASS"
    assert report.extremal_observed == 1012
    assert report.bound == 3 * 2 ** 8
    assert report.detail["size_bound_checked"] is True


def test_rll_size_bound_skipped_for_small_period():
    report = verify_rll(8, 3)
    assert report.status == "PASS"
    assert report.bound is None
    assert report.detail["size_bound_checked"] is False


def test_reconstruction_best_parity_vt_coset():
    cs = codes.best_coset(codes.CL, 8)
    report = verify_reconstruction(cs, 7, trials=50, subset_words=2, subset_trials=10)
    assert report.status == "PASS"
    assert report.pairs_checked == 50 + 2 * 10
    again = verify_reconstruction(cs, 7, trials=50, subset_words=2, subset_trials=10)
    assert report.to_json() == again.to_json()


@pytest.mark.parametrize("size", ["trials", "subset_words", "subset_trials"])
def test_reconstruction_rejects_negative_sizes(size):
    cs = codes.best_coset(codes.CL, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_reconstruction(cs, 7, **{size: -1})


def test_reconstruction_skips_when_balls_too_small():
    cs = codes.spec(codes.FULL, 2)
    report = verify_reconstruction(cs, 5, trials=10)
    assert report.status == "SKIPPED"
    assert report.detail["ineligible_members"] == 4


def _reconstruction_by_bundle(code, N, *, trials=1000, subset_words=20, subset_trials=100):
    """verify_reconstruction as one plain decode per bundle, in trial
    order, nothing shared between decodes: the shared route's reference."""
    t0 = time.monotonic()
    n = code.n
    words = list(codes.members(code))
    eligible = [w for w in words if len(ds_ball(w)) >= N]
    detail = {
        "code": {"family": code.family, "n": n, "params": dict(code.params)},
        "read_count": N,
        "seed": verify.DEFAULT_SEED,
        "channel_trials": trials,
        "subset_words": min(subset_words, len(eligible)),
        "subset_trials": subset_trials,
        "ineligible_members": len(words) - len(eligible),
    }
    rng = random.Random(verify.DEFAULT_SEED)
    sink = verify._Sink(n)

    def check(w, bundle, label):
        res = reconstruct.decode(code, bundle)
        if res.status != reconstruct.UNIQUE or res.candidates != (w,):
            sink.add(int(w, 2), None, label, reconstruct.UNIQUE, res.status,
                     candidates=list(res.candidates))

    checked = 0
    for _ in range(trials):
        w = eligible[rng.randrange(len(eligible))]
        check(w, reconstruct.collect_reads(w, N, seed=rng.randrange(1 << 30)), "channel decode")
        checked += 1
    for w in eligible[:subset_words]:
        ball = ds_ball(w)
        for _ in range(subset_trials):
            check(w, reconstruct.ReadBundle(n, tuple(sorted(rng.sample(ball, N)))),
                  "subset decode")
            checked += 1
    return verify._finish("reconstruction", (n, n), checked, None, None, 0, sink.ces, t0, detail)


# (code, N, status); the two FAIL cases fill the counterexample cap, so they
# pin the order in which failures are reported
RECONSTRUCTION_CASES = [
    (("cl", 8), 7, "PASS"),
    (("cl", 9), 7, "PASS"),
    (("cl", 10), 7, "PASS"),
    (("vt", 9), 7, "PASS"),
    (("full", 6), 2, "FAIL"),
    (("full", 7), 3, "FAIL"),
]


def _spec(family, n):
    return codes.spec(family, n) if family == codes.FULL else codes.best_coset(family, n)


@pytest.mark.parametrize("code, N, status", RECONSTRUCTION_CASES)
def test_reconstruction_shared_balls_match_one_decode_per_bundle(code, N, status):
    cs = _spec(*code)
    report = verify_reconstruction(cs, N)
    assert report.status == status
    if status == "FAIL":
        assert len(report.counterexamples) == delsub.report._CE_CAP
    assert report.to_json() == _reconstruction_by_bundle(cs, N).to_json()


def test_reconstruction_shared_balls_report_a_faulty_ball_alike(monkeypatch):
    real = reconstruct._preimage

    def drop_one(z, n):
        # z with its last bit doubled: every codeword whose last run gives
        # up the read's deletion is lost
        ball = real(z, n)
        ball.discard(z << 1 | z & 1)
        return ball

    monkeypatch.setattr(reconstruct, "_preimage", drop_one)
    cs = codes.best_coset(codes.CL, 10)
    report = verify_reconstruction(cs, 7)
    assert report.status == "FAIL"
    assert report.to_json() == _reconstruction_by_bundle(cs, 7).to_json()


def _drop_first_run(real):
    def run_dels(x, n):
        # the deletion in x's first run is lost, unless it is x's only run
        dels = real(x, n)
        return dels[:-1] or dels

    return run_dels


def _drop_top_flip(real):
    def sub_set(x, n):
        out = real(x, n)
        if n:
            out.discard(x ^ 1 << (n - 1))
        return out

    return sub_set


@pytest.mark.parametrize(
    "name, fault", [("_run_dels", _drop_first_run), ("_sub_set", _drop_top_flip)]
)
def test_reconstruction_memo_reports_a_faulty_kernel_alike(monkeypatch, name, fault):
    # the memo keeps what the faulty kernel built; the report must still be
    # the one that a fresh decode per bundle gives
    monkeypatch.setattr(reconstruct, name, fault(getattr(reconstruct, name)))
    cs = codes.best_coset(codes.CL, 10)
    report = verify_reconstruction(cs, 7)
    assert report.status == "FAIL"
    assert report.to_json() == _reconstruction_by_bundle(cs, 7).to_json()


@pytest.mark.parametrize("code, N", [(("cl", 10), 7), (("vt", 9), 7)])
def test_reconstruction_shares_balls_within_one_codeword(monkeypatch, code, N):
    cs = _spec(*code)
    real = verify.decode_reads
    owners = {}  # id of a shared memo -> (the memo, kept alive, and its codeword)

    def decode(code, bundle, *, _memo):
        res = real(code, bundle, _memo=_memo)
        (w,) = res.candidates
        _, owner = owners.setdefault(id(_memo), (_memo, w))
        assert owner == w
        ball = {int(z or "0", 2) for z in ds_ball(w)}
        assert set(_memo.balls) <= ball and set(_memo.near) <= ball
        assert set(_memo.dels) <= set().union(*_memo.balls.values())
        return res

    monkeypatch.setattr(verify, "decode_reads", decode)
    report = verify_reconstruction(cs, N)
    assert report.status == "PASS"
    words = [w for _, w in owners.values()]
    eligible = [w for w in codes.members(cs) if len(ds_ball(w)) >= N]
    k = len(words) - report.detail["subset_words"]
    # one memo per codeword of the channel leg, then one per subset word
    assert len(set(words[:k])) == k
    assert words[k:] == eligible[: report.detail["subset_words"]]


def test_reconstruction_check_peaks_under_one_megabyte():
    cs = codes.best_coset(codes.CL, 10)
    verify_reconstruction(cs, 7)  # fill the per-length caches
    tracemalloc.start()
    try:
        verify_reconstruction(cs, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_report_serialization_shape():
    report = verify_ball_sizes(3)
    payload = report.to_dict()
    assert list(payload) == [
        "target",
        "status",
        "n_range",
        "pairs_checked",
        "bound",
        "extremal_observed",
        "equality_cases",
        "detail",
        "counterexamples",
    ]
    assert "elapsed" not in payload
    timed = json.loads(report.to_json(include_timing=True))
    assert "elapsed" in timed


def test_small_code_check_stays_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(delsub.report.os, "fork", no_fork)
    assert verify_code_theorem("cl", 12, jobs=2).status == "PASS"


class _Deadline(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Raise _Deadline in the test process once seconds have passed."""

    def expire(signum, frame):
        raise _Deadline(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FAILING_CHUNKS = {
    "intersection-bounds": ("_bounds_chunk", lambda jobs: verify_intersection_bounds(4, jobs=jobs)),
    "claim-tables": ("_identity_chunk", lambda jobs: verify_claim_tables(4, jobs=jobs)),
    "bad-count": ("_bad_chunk", lambda jobs: verify_bad_count(4, jobs=jobs)),
    "code-theorem": ("_code_chunk", lambda jobs: verify_code_theorem("inv", 4, jobs=jobs)),
}


@pytest.mark.parametrize(
    "chunk, sweep, jobs",
    [
        pytest.param(*_FAILING_CHUNKS[name], jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
        for jobs in (1, 2)
        for name in _FAILING_CHUNKS
    ],
)
def test_failing_chunk_raises_to_the_caller(monkeypatch, tmp_path, chunk, sweep, jobs):
    calls = tmp_path / "calls"

    def failing_chunk(*args):
        with calls.open("a") as log:
            log.write(f"{os.getpid()}\n")
        raise RuntimeError("task failed")

    monkeypatch.setattr(verify, chunk, failing_chunk)
    # code checks this small stay in one process; force the fork path
    monkeypatch.setattr(verify, "_CODE_FORK_MIN_PAIRS", 0)
    with _deadline(60), pytest.raises(RuntimeError, match="^task failed$"):
        sweep(jobs)
    _assert_no_child()
    pids = calls.read_text().split()
    # each process stops at its first failing task
    assert 1 <= len(pids) <= jobs
    assert len(set(pids)) == len(pids)
    if jobs > 1:
        assert str(os.getpid()) not in pids


def test_a_worker_that_dies_makes_the_call_raise(monkeypatch):
    caller = os.getpid()

    def dying_chunk(*args):
        if os.getpid() == caller:
            raise AssertionError("the chunk ran in the test process")
        os._exit(3)

    monkeypatch.setattr(verify, "_bounds_chunk", dying_chunk)
    with _deadline(60), pytest.raises(RuntimeError, match="exited with status 3"):
        verify_intersection_bounds(4, jobs=2)
    _assert_no_child()


def _fail_large(i):
    raise ValueError("x" * 200_000)


def test_a_fan_out_whose_workers_all_fail_does_not_block():
    # 80 kB of task indices and 200 kB of result per worker both overfill a
    # 64 kB pipe: the parent must not block writing indices nobody reads
    tasks = [(_fail_large, i) for i in range(20_000)]
    with _deadline(60), pytest.raises(ValueError) as info:
        delsub.report._map_tasks(tasks, 2)
    assert str(info.value) == "x" * 200_000
    _assert_no_child()


def test_an_interrupted_fan_out_leaves_no_child(monkeypatch):
    caller = os.getpid()

    def stuck_chunk(*args):
        if os.getpid() == caller:
            raise AssertionError("the chunk ran in the test process")
        time.sleep(60)

    monkeypatch.setattr(verify, "_bounds_chunk", stuck_chunk)
    # the parent is blocked reading a worker's result pipe when this fires
    with pytest.raises(_Deadline):
        with _deadline(0.5):
            verify_intersection_bounds(4, jobs=2)
    _assert_no_child()


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda jobs: verify_intersection_bounds(5, jobs=jobs),
        lambda jobs: verify_bad_count(5, jobs=jobs),
        lambda jobs: verify_claim_tables(4, jobs=jobs),
        lambda jobs: verify_code_theorem("vt", 6, jobs=jobs),
    ],
    ids=["intersection-bounds", "bad-count", "claim-tables", "code-theorem"],
)
def test_fan_out_verifiers_reject_jobs_below_one(monkeypatch, call, jobs):
    def no_tables(n):
        raise AssertionError("tables were built")

    monkeypatch.setattr(verify, "_tables", no_tables)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        call(jobs)


_TABLE_NAMES = {"runs", "prev_smask", "smask", "dmask", "bmask", "columns", "strays", "dels",
                "summaries"}
_SWEEP_BUILT = {"runs", "prev_smask", "smask", "dmask", "bmask", "columns", "strays"}
_BAD_BUILT = {"prev_smask", "dmask", "bmask", "dels", "summaries"}


def _asymmetric_dmask(tab):
    # the first table bad-count's verdict judges fails, so it reads no other
    tab.dmask[0b00010111] |= 1 << 0b1011001


_BUILD_CALLS = {
    "intersection-bounds": (lambda: verify_intersection_bounds(8), {8: _SWEEP_BUILT}, None),
    "claim-tables": (lambda: verify_claim_tables(9), dict.fromkeys(range(2, 10), _SWEEP_BUILT),
                     None),
    **{f"bad-count-{c}": (lambda c=c: verify_bad_count(8, convention=c), {8: _BAD_BUILT}, None)
       for c in ("pre", "post")},
    "bad-count-asymmetric": (lambda: verify_bad_count(8), {8: _BAD_BUILT}, _asymmetric_dmask),
    # inv takes the row route at n = 10, the others go pair by pair
    **{f"code-{t}": (lambda t=t: verify_code_theorem(t, 10),
                     {10: {"prev_smask", "bmask"} | ({"dels"} if t == "cl" else set())}, None)
       for t in CODE_CHECKS},
}


@pytest.mark.parametrize("call, built, fault", list(_BUILD_CALLS.values()), ids=list(_BUILD_CALLS))
def test_no_task_builds_a_table(monkeypatch, call, built, fault):
    # every verifier builds what its tasks read before it forks, so that
    # workers share it; the tasks run here, and no _Tables of any length
    # may gain a table while they do.  A call keeps only what it reads.
    made = {}

    def fresh(n):
        if n not in made:
            made[n] = verify._Tables(n)
            if fault:
                fault(made[n])
        return made[n]

    def in_process(tasks, jobs):
        before = {n: set(vars(tab)) for n, tab in made.items()}
        parts = [delsub.report._run_task(t) for t in tasks]
        assert {n: set(vars(tab)) for n, tab in made.items()} == before
        ran.append(len(tasks))
        return parts

    ran = []
    monkeypatch.setattr(verify, "_tables", fresh)
    monkeypatch.setattr(verify, "_map_tasks", in_process)
    monkeypatch.setattr(delsub.report, "_map_tasks", in_process)
    call()
    assert ran
    assert {n: set(vars(tab)) & _TABLE_NAMES for n, tab in made.items()} == built
    if fault:
        assert not made[8].equivariant(verify._BAD_TABLES, "c")


def test_ceiling_depth_run_sum_reports_its_bound(monkeypatch):
    real = verify._runs_int
    monkeypatch.setattr(
        verify, "_runs_int", lambda x, n: real(x, n) - 3 if n >= 7 else real(x, n)
    )
    monkeypatch.setattr(delsub.report, "_CE_CAP", 1 << 20)  # keep every counterexample
    report = verify_intersection_bounds(9, structured=True)
    run_sum = [c for c in report.counterexamples if c["check"] == "run-sum ceiling"]
    assert run_sum
    assert all(type(c["expected"]) is int for c in run_sum)
    # fam12f pair: r(x) + r(y) + n - 1 with both run counts lowered by 3
    flip = [c for c in run_sum if (c["x"], c["y"]) == ("000000000", "000100000")]
    assert [c["expected"] for c in flip] == [(1 - 3) + (3 - 3) + 9 - 1]
