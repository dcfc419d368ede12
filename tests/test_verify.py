import json
from itertools import combinations, product

import pytest

from delsub import codes, verify
from delsub.balls import ball_intersection, classify_pair, is_bad, witnesses
from delsub.verify import (
    EXHAUSTIVE_LIMIT,
    STRUCTURED_LIMIT,
    _dels_by_position,
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
    dels = _dels_by_position(n)
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


def test_code_theorem_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify_code_theorem("fountain", 8)


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


def test_reconstruction_skips_when_balls_too_small():
    cs = codes.spec(codes.FULL, 2)
    report = verify_reconstruction(cs, 5, trials=10)
    assert report.status == "SKIPPED"
    assert report.detail["ineligible_members"] == 4


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


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: verify_intersection_bounds(4),
        lambda: verify_claim_tables(4),
        lambda: verify_bad_count(4),
    ],
    ids=["intersection-bounds", "claim-tables", "bad-count"],
)
def test_shared_work_cleared_when_a_sweep_raises(monkeypatch, sweep):
    def failing_map(tasks, jobs):
        raise RuntimeError("task failed")

    monkeypatch.setattr(verify, "_map_tasks", failing_map)
    with pytest.raises(RuntimeError):
        sweep()
    assert verify._WORK == {}
