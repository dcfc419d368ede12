import argparse
import hashlib
import json
import time

import pytest

from delsub import balls, cli, codes, verify


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
    assert err == "delsub: error: argument --word: expected exactly two words, got 1\n"


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


def test_code_size_of_the_full_code_past_the_widest_fixed_lane(capsys):
    code, out, err = run(capsys, "code", "size", "--family", "full", "--n", "100")
    assert (code, out, err) == (0, "1267650600228229401496703205376\n", "")


def test_code_list_and_check_agree(capsys):
    code, out, _ = run(capsys, "code", "list", "--family", "vt", "--n", "6", "--a", "0")
    assert code == 0
    listed = json.loads(out)
    assert listed
    code, out, _ = run(capsys, "code", "check", "--family", "vt", "--n", "6", "--a", "0",
                       "--word", listed[0])
    assert code == 0
    assert json.loads(out) is True


def test_code_list_of_the_best_cl_coset_at_twenty(capsys):
    # 98 members among 2^20 words: the budget fails a listing that walks them all
    start = time.perf_counter()
    code, out, err = run(capsys, "code", "list", "--family", "cl", "--n", "20", "--best")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 98
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "60878890143cac88d6c8810e9bc05f792655ae1a49497fd43d64449755be9e35"
    )
    assert elapsed < 0.2, elapsed


def test_code_rejects_wrong_parameter_set(capsys):
    code, _, err = run(capsys, "code", "size", "--family", "vt", "--n", "8", "--m", "2")
    assert code == 2
    assert err.count("\n") == 1


def test_code_best_rejects_parameters_the_family_lacks(capsys):
    for argv in (("--family", "vt", "--m", "3"), ("--family", "cl", "--P", "4")):
        code, out, err = run(capsys, "code", "size", "--n", "6", "--best", *argv)
        assert code == 2
        assert out == ""
        assert "takes no parameter" in err and err.count("\n") == 1
    code, out, _ = run(capsys, "code", "size", "--family", "inv", "--n", "6", "--best", "--m", "3")
    assert code == 0
    assert json.loads(out) == codes.size(codes.best_coset(codes.INV, 6, m=3))


def test_code_size_best_counts_the_cosets_once(monkeypatch, capsys):
    counts = codes._coset_counts
    calls = []
    monkeypatch.setattr(codes, "_coset_counts", lambda cs: calls.append(cs) or counts(cs))
    code, out, _ = run(capsys, "code", "size", "--family", "cl", "--n", "16", "--best")
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    assert json.loads(out) == codes.size(codes.best_coset(codes.CL, 16))


def test_code_best_without_a_period_rejects_zero_length(capsys):
    for family in ("vt", "inv", "cl"):
        code, out, err = run(capsys, "code", "list", "--family", family, "--n", "0", "--best")
        assert code == 2
        assert out == ""
        assert err == "delsub: error: code length must be positive\n"


@pytest.mark.parametrize("command", [
    ("code", "size", "--family", "vt", "--n", "6", "--a", "3"),
    ("code", "check", "--family", "cl", "--n", "6", "--a1", "2", "--word", "000000"),
    ("decode", "--family", "cn21", "--n", "6", "--a2", "1", "--bundle", "BUNDLE"),
    ("verify", "reconstruction", "--family", "inv", "--n", "6", "--N", "5", "--a", "1"),
])
def test_best_rejects_residue_flags(tmp_path, capsys, command):
    bundle = tmp_path / "reads.txt"
    run(capsys, "simulate", "--word", "010101", "--N", "3", "--format", "text",
        "--out", str(bundle))
    flag = next(arg for arg in command if arg.startswith("--a"))
    argv = [str(bundle) if arg == "BUNDLE" else arg for arg in command]
    code, out, err = run(capsys, *argv, "--best")
    assert code == 2
    assert out == ""
    assert f"argument {flag}: --best picks the residues itself" in err
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


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "code-cl", "--n", "6", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "--jobs" in err


@pytest.mark.parametrize("flag", ["--trials", "--subset-words", "--subset-trials"])
def test_verify_reconstruction_rejects_negative_sizes(capsys, flag):
    code, out, err = run(
        capsys, "verify", "reconstruction", "--family", "cl", "--best", "--n", "8",
        "--N", "7", flag, "-1",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"argument {flag}: must be at least 0, got -1" in err


def test_verify_reconstruction_accepts_zero_sizes(capsys):
    code, out, _ = run(
        capsys, "verify", "reconstruction", "--family", "cl", "--best", "--n", "8",
        "--N", "7", "--trials", "0", "--subset-words", "0", "--subset-trials", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs_checked"] == 0
    assert payload["detail"]["channel_trials"] == 0


def test_verify_jobs_are_byte_identical(capsys):
    _, lone, _ = run(capsys, "verify", "intersection-bounds", "--n", "6", "--jobs", "1")
    _, many, _ = run(capsys, "verify", "intersection-bounds", "--n", "6", "--jobs", "8")
    assert lone == many


# per verify target, a flag that the target does not read
_UNREAD_FLAG = {
    "ball-sizes": ["--jobs", "2"],
    "del-positions": ["--seed", "5"],
    "constrained-deletion": ["--structured"],
    "intersection-bounds": ["--convention", "post"],
    "claim-tables": ["--structured"],
    "bad-count": ["--N", "3"],
    "rll": ["--jobs", "2"],
    "code-vt": ["--P", "4"],
    "code-inv": ["--family", "vt"],
    "code-c2n9": ["--trials", "7"],
    "code-cn21": ["--best"],
    "code-cl": ["--a", "1"],
    "reconstruction": ["--jobs", "2"],
}


def test_unread_flag_table_covers_every_target():
    assert set(_UNREAD_FLAG) == set(cli.VERIFY_TARGETS)


@pytest.mark.parametrize("target", sorted(_UNREAD_FLAG))
def test_verify_rejects_a_flag_its_target_does_not_read(capsys, target):
    extra = []
    if target == "reconstruction":
        extra = ["--family", "cl", "--best", "--N", "7", "--trials", "0",
                 "--subset-words", "0", "--subset-trials", "0"]
    flag = _UNREAD_FLAG[target]
    code, out, err = run(capsys, "verify", target, "--n", "6", *extra, *flag)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"argument {flag[0]}: target {target} does not read it" in err


def test_simulate_rejects_a_second_word(capsys):
    code, out, err = run(capsys, "simulate", "--word", "0101100010", "--word", "111",
                         "--N", "3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "argument --word: expected exactly one word, got 2" in err


@pytest.mark.parametrize("action", ["list", "size", "check"])
def test_code_without_family_names_the_flag(capsys, action):
    word = ["--word", "010101"] if action == "check" else []
    code, out, err = run(capsys, "code", action, "--n", "6", *word)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "argument --family: required" in err


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


@pytest.mark.parametrize(
    "command", [["ball", "--word", "0101"], ["verify", "ball-sizes", "--n", "3"]],
    ids=["ball", "verify"],
)
def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, command):
    missing = tmp_path / "no-such-dir" / "x"
    code, out, err = run(capsys, *command, "--out", str(missing))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("delsub: error: argument --out: ")
    assert "no-such-dir" in err


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


def test_decode_rejects_a_repeated_header_field(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    bundle.write_text("# n=5 N=1 n=6\n0101\n")
    code, out, err = run(capsys, "decode", "--bundle", str(bundle), "--family", "full")
    assert code == 2
    assert out == ""
    assert err == "delsub: error: header field 'n' is given twice\n"


def test_decode_names_a_non_integer_header_field(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    bundle.write_text("# n=abc N=1\n0101\n")
    code, out, err = run(capsys, "decode", "--bundle", str(bundle), "--family", "full")
    assert code == 2
    assert out == ""
    assert err == "delsub: error: header field 'n' is not an integer: 'abc'\n"


def test_decode_rejects_an_underscored_header_integer(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    bundle.write_text("# n=0_4 N=1\n0101\n")
    code, out, err = run(capsys, "decode", "--bundle", str(bundle), "--family", "full")
    assert code == 2
    assert out == ""
    assert err == "delsub: error: header field 'n' is not an integer: '0_4'\n"


def test_simulate_decode_roundtrip_at_length_one(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    code, _, _ = run(capsys, "simulate", "--word", "0", "--N", "1",
                     "--format", "text", "--out", str(bundle))
    assert code == 0
    assert bundle.read_text() == "# n=1 N=1\n\n"
    code, out, _ = run(capsys, "decode", "--family", "full", "--n", "1", "--bundle", str(bundle))
    assert code == 0
    assert json.loads(out) == {"status": "AMBIGUOUS", "candidates": ["0", "1"]}


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


def test_build_parser_returns_a_fresh_parser_and_run_reuses_one():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


def test_the_reused_parser_gives_what_a_fresh_one_gives(capsys, monkeypatch):
    # the append lists of --word and the --format default must not carry
    # over from one run to the next
    calls = [
        ("ball", "--word", "0101"),
        ("ball", "--word", "11", "--format", "text"),
        ("intersect", "--word", "0101", "--word", "0110"),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == [run(capsys, *argv) for argv in calls]
    assert [code for code, *_ in reused] == [0, 0, 0]
    assert reused[1][1] == "".join(f"{z}\n" for z in balls.ds_ball("11"))


def test_a_usage_error_leaves_the_reused_parser_working(tmp_path, capsys):
    bundle = tmp_path / "reads.txt"
    word = "0110100110"
    code, _, _ = run(capsys, "simulate", "--word", word, "--N", "7", "--seed", "5",
                     "--format", "text", "--out", str(bundle))
    assert code == 0
    code, out, err = run(capsys, "decode", "--bundle", str(bundle), "--family", "nosuch")
    assert (code, out) == (2, "")
    assert err.startswith("delsub decode: error: argument --family: invalid choice")
    code, out, err = run(capsys, "decode", "--bundle", str(bundle), "--family", "full")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"status": "UNIQUE", "candidates": [word]}
