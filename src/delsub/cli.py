"""Command-line front end for balls, codes, verification, and channel runs.

Output is JSON by default; ``--format text`` renders the same data for
reading and ``--format csv`` flattens tabular payloads.  Exit status is 0
for success (including SKIPPED verifier runs), 1 when a verifier finds a
counterexample, and 2 for usage errors, which are reported as a single
diagnostic line naming the offending flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
from typing import Any, Callable

from . import balls, codes, reconstruct, verify, words
from .verify import DEFAULT_SEED

FORMATS = ("json", "text", "csv")

_PARAM_FLAGS = ("a", "m", "P", "a0", "a1", "a2")


class _Parser(argparse.ArgumentParser):
    """argparse with one-line errors instead of a usage dump."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.exit(2, f"{self.prog}: error: {message}\n")


def _word_arg(text: str) -> str:
    try:
        return words.parse_word(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fail(message: str) -> int:
    print(f"delsub: error: {message}", file=sys.stderr)
    return 2


def _render_text(payload: Any) -> str:
    if isinstance(payload, list):
        return "".join(f"{item}\n" for item in payload)
    if isinstance(payload, dict):
        lines = []
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            lines.append(f"{key}: {value}\n")
        return "".join(lines)
    return f"{payload}\n"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        value = json.dumps(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(payload: Any) -> str:
    if isinstance(payload, list):
        return "word\n" + "".join(f"{item}\n" for item in payload)
    if isinstance(payload, dict):
        flat = dict(payload)
        if "counterexamples" in flat:
            flat["counterexamples"] = len(flat["counterexamples"])
        if "n_range" in flat:
            lo, hi = flat["n_range"]
            flat["n_range"] = f"{lo}..{hi}"
        head = ",".join(flat)
        row = ",".join(_csv_cell(v) for v in flat.values())
        return f"{head}\n{row}\n"
    return f"value\n{_csv_cell(payload)}\n"


def _emit(payload: Any, args: argparse.Namespace, text_override: str | None = None) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2) + "\n"
    elif args.format == "text":
        rendered = text_override if text_override is not None else _render_text(payload)
    else:
        rendered = _render_csv(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _collect_params(args: argparse.Namespace) -> dict[str, int]:
    return {
        name: getattr(args, name)
        for name in _PARAM_FLAGS
        if getattr(args, name, None) is not None
    }


def _code_spec(args: argparse.Namespace, n: int) -> codes.CodeSpec:
    params = _collect_params(args)
    if getattr(args, "best", False):
        fixed = {name: params[name] for name in ("m", "P") if name in params}
        return codes.best_coset(args.family, n, **fixed)
    return codes.spec(args.family, n, **params)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ball(args: argparse.Namespace) -> int:
    if len(args.word) != 1:
        return _fail(f"argument --word: expected exactly one word, got {len(args.word)}")
    _emit(balls.ds_ball(args.word[0]) if args.kind == "ds"
          else balls.deletion_ball(args.word[0]) if args.kind == "del"
          else balls.substitution_ball(args.word[0]), args)
    return 0


def _cmd_intersect(args: argparse.Namespace) -> int:
    if len(args.word) != 2:
        return _fail(f"argument --word: expected exactly two words, got {len(args.word)}")
    _emit(balls.ball_intersection(args.word[0], args.word[1], args.kind), args)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if len(args.word) != 2:
        return _fail(f"argument --word: expected exactly two words, got {len(args.word)}")
    _emit(dataclasses.asdict(balls.classify_pair(args.word[0], args.word[1])), args)
    return 0


def _cmd_code_list(args: argparse.Namespace) -> int:
    _emit(list(codes.members(_code_spec(args, args.n))), args)
    return 0


def _cmd_code_size(args: argparse.Namespace) -> int:
    _emit(codes.size(_code_spec(args, args.n)), args)
    return 0


def _cmd_code_check(args: argparse.Namespace) -> int:
    if len(args.word) != 1:
        return _fail(f"argument --word: expected exactly one word, got {len(args.word)}")
    member = codes.contains(_code_spec(args, args.n), args.word[0])
    _emit(member, args, text_override=f"{member}\n")
    return 0


def _verify_reconstruction(args: argparse.Namespace) -> verify.VerificationReport:
    if args.family is None:
        raise ValueError("argument --family: required for target reconstruction")
    if args.N is None:
        raise ValueError("argument --N: required for target reconstruction")
    return verify.verify_reconstruction(
        _code_spec(args, args.n),
        args.N,
        trials=args.trials,
        seed=args.seed,
        subset_words=args.subset_words,
        subset_trials=args.subset_trials,
    )


def _verify_code(theorem_id: str) -> Callable[[argparse.Namespace], verify.VerificationReport]:
    return lambda args: verify.verify_code_theorem(theorem_id, args.n, jobs=args.jobs)


# verifier target -> the call of its verify-module operation; --jobs goes
# only to the operations that take it
VERIFY_TARGETS: dict[str, Callable[[argparse.Namespace], verify.VerificationReport]] = {
    "ball-sizes": lambda args: verify.verify_ball_sizes(args.n),
    "del-positions": lambda args: verify.verify_del_positions(args.n),
    "constrained-deletion": lambda args: verify.verify_constrained_deletion(args.n),
    "intersection-bounds": lambda args: verify.verify_intersection_bounds(
        args.n, jobs=args.jobs, structured=args.structured
    ),
    "claim-tables": lambda args: verify.verify_claim_tables(args.n, jobs=args.jobs),
    "bad-count": lambda args: verify.verify_bad_count(
        args.n, jobs=args.jobs, convention=args.convention
    ),
    "rll": lambda args: verify.verify_rll(
        args.n, args.P if args.P is not None else codes.default_period(args.n)
    ),
    **{f"code-{theorem_id}": _verify_code(theorem_id) for theorem_id in verify.CODE_CHECKS},
    "reconstruction": _verify_reconstruction,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    report = VERIFY_TARGETS[args.target](args)
    _emit(report.to_dict(include_timing=args.timing), args)
    return 0 if report.status in ("PASS", "SKIPPED") else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    bundle = reconstruct.collect_reads(args.word[0], args.N, args.seed)
    buf = io.StringIO()
    reconstruct.save_bundle(bundle, buf)
    payload = {
        "n": bundle.n,
        "N": len(bundle.reads),
        "seed": args.seed,
        "reads": list(bundle.reads),
    }
    _emit(payload, args, text_override=buf.getvalue())
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    try:
        with open(args.bundle) as fh:
            bundle = reconstruct.load_bundle(fh)
    except OSError as exc:
        return _fail(f"argument --bundle: {exc}")
    if args.n is not None and args.n != bundle.n:
        return _fail(f"argument --n: bundle carries n={bundle.n}, got {args.n}")
    if args.family is None:
        return _fail("argument --family: required for decode")
    result = reconstruct.decode(_code_spec(args, bundle.n), bundle)
    _emit({"status": result.status, "candidates": list(result.candidates)}, args)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_code_flags(parser: _Parser, with_best: bool = False) -> None:
    parser.add_argument("--family", choices=codes.FAMILIES, help="code family")
    for name in _PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=int, help=f"family parameter {name}")
    if with_best:
        parser.add_argument(
            "--best", action="store_true",
            help="use the family's largest coset instead of explicit parameters",
        )


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json", help="output format")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    parser = _Parser(prog="delsub", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ball", parents=[common], help="error ball of one word")
    p.add_argument("--word", action="append", required=True, type=_word_arg)
    p.add_argument("--kind", choices=("del", "sub", "ds"), default="ds")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("intersect", parents=[common], help="shared ball of two words")
    p.add_argument("--word", action="append", required=True, type=_word_arg,
                   help="give twice, once per word")
    p.add_argument("--kind", choices=("del", "sub", "ds"), default="ds")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("classify", parents=[common], help="structural case of a pair")
    p.add_argument("--word", action="append", required=True, type=_word_arg,
                   help="give twice, once per word")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("code", parents=[], help="code family queries")
    code_sub = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    for action, handler, needs_word in (
        ("list", _cmd_code_list, False),
        ("size", _cmd_code_size, False),
        ("check", _cmd_code_check, True),
    ):
        q = code_sub.add_parser(action, parents=[common])
        q.add_argument("--n", type=int, required=True, help="word length")
        _add_code_flags(q, with_best=True)
        if needs_word:
            q.add_argument("--word", action="append", required=True, type=_word_arg)
        q.set_defaults(func=handler)

    p = sub.add_parser("verify", parents=[common], help="run one verifier")
    p.add_argument("target", choices=tuple(VERIFY_TARGETS))
    p.add_argument("--n", type=int, required=True,
                   help="word length (upper end of the range for claim-tables)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--structured", action="store_true",
                   help="intersection-bounds: sweep the structured families only")
    p.add_argument("--convention", choices=balls.WITNESS_CONVENTIONS,
                   default=balls.DEFAULT_WITNESS_CONVENTION,
                   help="bad-count: flip-index convention")
    p.add_argument("--timing", action="store_true", help="include elapsed seconds")
    _add_code_flags(p, with_best=True)
    p.add_argument("--N", type=int, help="reconstruction: reads per bundle")
    p.add_argument("--trials", type=int, default=1000, help="reconstruction: channel trials")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--subset-words", type=int, default=20,
                   help="reconstruction: codewords for the subset leg")
    p.add_argument("--subset-trials", type=int, default=100,
                   help="reconstruction: sampled subsets per codeword")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", parents=[common], help="draw channel reads of a word")
    p.add_argument("--word", action="append", required=True, type=_word_arg)
    p.add_argument("--N", type=int, required=True, help="number of distinct reads")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decode", parents=[common], help="reconstruct a codeword from reads")
    p.add_argument("--bundle", required=True, metavar="FILE",
                   help="read bundle in the simulate/save_bundle text format")
    p.add_argument("--n", type=int, help="expected word length (cross-checked)")
    _add_code_flags(p, with_best=True)
    p.set_defaults(func=_cmd_decode)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


main = run


if __name__ == "__main__":
    sys.exit(run())
