import argparse
import json

import pytest

from delsub import cli, codes, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ball_ds_frozen_example(capsys):
    code, out, err = run(capsys, "ball", "--kind", "ds", "--word", "010")
    assert code == 0
    assert json.loads(out) == ["00", "01", "10", "11"]
    assert err == ""


def test_intersect_requires_two_words(capsys):
    code, _, err = run(capsys, "intersect", "--word", "0101")
    assert code == 2
    assert err.count("\n") == 1
    assert "--word" in err


def test_intersect_matches_library(capsys):
    code, out, _ = run(capsys, "intersect", "--word", "0110", "--word", "1010", "--kind", "del")
    assert code == 0
    from delsub.balls import ball_intersection

    assert json.loads(out) == ball_intersection("0110", "1010", "del")


def test_classify_reports_case(capsys):
    code, out, _ = run(capsys, "classify", "--word", "010101", "--word", "011001")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "ADJACENT_TRANSPOSITION"
    assert payload["d"] == 2 and payload["s"] == 2


def test_code_size_partitions_space(capsys):
    total = 0
    for a in range(16):
        code, out, _ = run(capsys, "code", "size", "--family", "vt", "--n", "8", "--a", str(a))
        assert code == 0
        total += json.loads(out)
    assert total == 256


def test_code_list_and_check_agree(capsys):
    code, out, _ = run(capsys, "code", "list", "--family", "vt", "--n", "6", "--a", "0")
    assert code == 0
    listed = json.loads(out)
    assert listed
    code, out, _ = run(capsys, "code", "check", "--family", "vt", "--n", "6", "--a", "0",
                       "--word", listed[0])
    assert code == 0
    assert json.loads(out) is True


def test_code_rejects_wrong_parameter_set(capsys):
    code, _, err = run(capsys, "code", "size", "--family", "vt", "--n", "8", "--m", "2")
    assert code == 2
    assert err.count("\n") == 1


def test_malformed_word_is_usage_error(capsys):
    code, _, err = run(capsys, "ball", "--word", "01a")
    assert code == 2
    assert err.count("\n") == 1
    assert "--word" in err


def test_unknown_verify_target_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "mass-gap", "--n", "6")
    assert code == 2
    assert err.count("\n") == 1


def test_verify_frozen_example(capsys):
    code, out, _ = run(capsys, "verify", "intersection-bounds", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    assert payload["extremal_observed"] == 15
    assert payload["bound"] == 15
    assert "elapsed" not in payload


def test_verify_timing_flag_adds_elapsed(capsys):
    code, out, _ = run(capsys, "verify", "ball-sizes", "--n", "4", "--timing")
    assert code == 0
    assert "elapsed" in json.loads(out)


def test_verify_failure_sets_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "bad-count", "--n", "8", "--convention", "post")
    assert code == 1
    assert json.loads(out)["status"] == "FAIL"


def test_verify_reconstruction_via_best_coset(capsys):
    code, out, _ = run(
        capsys, "verify", "reconstruction", "--family", "cl", "--best", "--n", "8",
        "--N", "7", "--trials", "20", "--subset-words", "2", "--subset-trials", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    assert payload["pairs_checked"] == 20 + 2 * 5


def test_verify_jobs_are_byte_identical(capsys):
    _, lone, _ = run(capsys, "verify", "intersection-bounds", "--n", "6", "--jobs", "1")
    _, many, _ = run(capsys, "verify", "intersection-bounds", "--n", "6", "--jobs", "8")
    assert lone == many


def test_text_format_renders_lines(capsys):
    code, out, _ = run(capsys, "ball", "--word", "010", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["00", "01", "10", "11"]


def test_csv_format_flattens_report(capsys):
    code, out, _ = run(capsys, "verify", "ball-sizes", "--n", "3", "--format", "csv")
    assert code == 0
    head, row = out.splitlines()
    assert head.split(",")[:3] == ["target", "status", "n_range"]
    cells = row.split(",")
    assert cells[0] == "ball-sizes"
    assert cells[1] == "PASS"
    assert cells[2] == "3..3"


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "ball.json"
    code, out, _ = run(capsys, "ball", "--word", "010", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == ["00", "01", "10", "11"]


def test_simulate_decode_roundtrip(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    word = "0110100110"
    code, _, _ = run(capsys, "simulate", "--word", word, "--N", "7", "--seed", "5",
                     "--format", "text", "--out", str(bundle))
    assert code == 0
    header = bundle.read_text().splitlines()[0]
    assert header == "# n=10 N=7"
    code, out, _ = run(capsys, "decode", "--bundle", str(bundle), "--family", "full")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "UNIQUE"
    assert payload["candidates"] == [word]


def test_simulate_is_seed_deterministic(capsys):
    _, first, _ = run(capsys, "simulate", "--word", "010101", "--N", "4", "--seed", "9")
    _, second, _ = run(capsys, "simulate", "--word", "010101", "--N", "4", "--seed", "9")
    _, third, _ = run(capsys, "simulate", "--word", "010101", "--N", "4", "--seed", "10")
    assert first == second
    assert first != third


def test_decode_rejects_length_mismatch(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    run(capsys, "simulate", "--word", "010101", "--N", "3", "--format", "text",
        "--out", str(bundle))
    code, _, err = run(capsys, "decode", "--bundle", str(bundle), "--family", "full",
                       "--n", "9")
    assert code == 2
    assert "--n" in err


def test_decode_missing_bundle_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "decode", "--bundle", str(tmp_path / "nope.txt"),
                       "--family", "full")
    assert code == 2
    assert "--bundle" in err


def test_every_verify_target_maps_to_an_operation(monkeypatch):
    public_ops = {name for name in verify.__all__ if name.startswith("verify_")}
    called: list[str] = []
    for name in public_ops:
        monkeypatch.setattr(verify, name, lambda *a, _name=name, **k: called.append(_name))
    parser = cli.build_parser()
    backing = set()
    for target, call in cli.VERIFY_TARGETS.items():
        args = parser.parse_args(["verify", target, "--n", "6", "--family", "vt", "--a", "0",
                                  "--N", "3"])
        called.clear()
        call(args)
        assert len(called) == 1 and called[0] in public_ops, target
        backing.add(called[0])
    assert backing == public_ops


def test_dispatch_table_covers_grammar():
    parser = cli.build_parser()
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(actions) == 1
    subcommands = set(actions[0].choices)
    assert subcommands == {"ball", "intersect", "classify", "code", "verify",
                           "simulate", "decode"}
    code_parser = actions[0].choices["code"]
    nested = [a for a in code_parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(nested[0].choices) == {"list", "size", "check"}


def test_code_families_all_reachable(capsys):
    cases = {
        codes.FULL: [],
        codes.VT: ["--a", "0"],
        codes.INV: ["--a", "0", "--m", "2"],
        codes.VT_MOD: ["--a", "0", "--m", "2"],
        codes.EVEN_POS: ["--a", "0", "--m", "2"],
        codes.RUN_BOUNDED: [],
        codes.RLL: ["--P", "4"],
        codes.CP: ["--P", "4", "--a1", "0", "--a2", "0"],
        codes.C2N9: ["--a", "0", "--m", "2"],
        codes.CN21: ["--P", "4", "--a1", "0", "--a2", "0"],
        codes.CL: ["--a0", "0", "--a1", "0", "--a2", "0"],
    }
    assert set(cases) == set(codes.FAMILIES)
    for family, extra in cases.items():
        code, out, _ = run(capsys, "code", "size", "--family", family, "--n", "6", *extra)
        assert code == 0, family
        assert json.loads(out) >= 0
