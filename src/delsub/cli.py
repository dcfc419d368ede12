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
import functools
import io
import json
import sys
from typing import Any, Callable, NamedTuple

from . import balls, codes, reconstruct, verify, words
from .verify import DEFAULT_SEED

FORMATS = ("json", "text", "csv")

_PARAM_FLAGS = ("a", "m", "P", "a0", "a1", "a2")


class _Parser(argparse.ArgumentParser):
    """argparse with one-line errors instead of a usage dump."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


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
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise ValueError(f"argument --out: {exc}") from None
    else:
        sys.stdout.write(rendered)


def _code_spec(args: argparse.Namespace, n: int) -> codes.CodeSpec:
    if args.family is None:
        raise ValueError("argument --family: required")
    params = {name: getattr(args, name) for name in _PARAM_FLAGS if getattr(args, name) is not None}
    if args.best:
        residue = next((name for name in params if name not in ("m", "P")), None)
        if residue is not None:
            raise ValueError(f"argument --{residue}: --best picks the residues itself")
        return codes.best_coset(args.family, n, **params)
    return codes.spec(args.family, n, **params)


def _words(args: argparse.Namespace, count: int) -> list[str]:
    if len(args.word) != count:
        wanted = ("one word", "two words")[count - 1]
        raise ValueError(f"argument --word: expected exactly {wanted}, got {len(args.word)}")
    return args.word


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ball(args: argparse.Namespace) -> int:
    (x,) = _words(args, 1)
    _emit(balls.ds_ball(x) if args.kind == "ds"
          else balls.deletion_ball(x) if args.kind == "del"
          else balls.substitution_ball(x), args)
    return 0


def _cmd_intersect(args: argparse.Namespace) -> int:
    x, y = _words(args, 2)
    _emit(balls.ball_intersection(x, y, args.kind), args)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    x, y = _words(args, 2)
    _emit(dataclasses.asdict(balls.classify_pair(x, y)), args)
    return 0


def _cmd_code_list(args: argparse.Namespace) -> int:
    _emit(list(codes.members(_code_spec(args, args.n))), args)
    return 0


def _cmd_code_size(args: argparse.Namespace) -> int:
    _emit(codes.size(_code_spec(args, args.n)), args)
    return 0


def _cmd_code_check(args: argparse.Namespace) -> int:
    (x,) = _words(args, 1)
    member = codes.contains(_code_spec(args, args.n), x)
    _emit(member, args, text_override=f"{member}\n")
    return 0


class _Target(NamedTuple):
    """A verifier target: the name of its verify-module operation, looked up
    per call, and the target flags (see _TARGET_FLAGS) it reads.  Keywords
    are passed on by name only when given, so their defaults are the
    operation's own; inputs feed positional(args), the positional arguments."""

    operation: str
    keywords: tuple[str, ...] = ()
    positional: Callable[[argparse.Namespace], tuple] = lambda args: (args.n,)
    inputs: tuple[str, ...] = ()

    def __call__(self, args: argparse.Namespace) -> verify.VerificationReport:
        given = {k: getattr(args, k) for k in self.keywords if getattr(args, k) is not None}
        return getattr(verify, self.operation)(*self.positional(args), **given)


def _reconstruction_inputs(args: argparse.Namespace) -> tuple[codes.CodeSpec, int]:
    spec = _code_spec(args, args.n)
    if args.N is None:
        raise ValueError("argument --N: required for target reconstruction")
    return spec, args.N


def _rll_inputs(args: argparse.Namespace) -> tuple[int, int]:
    return args.n, args.P if args.P is not None else codes.default_period(args.n)


# the verify flags beyond --n, --timing, --format and --out; the parser leaves
# them None so that a flag given to a target that does not read it is told
# apart from one left out
_TARGET_FLAGS = (
    "jobs", "structured", "convention", "family", *_PARAM_FLAGS, "best", "N",
    "trials", "seed", "subset_words", "subset_trials",
)

VERIFY_TARGETS: dict[str, _Target] = {
    "ball-sizes": _Target("verify_ball_sizes"),
    "del-positions": _Target("verify_del_positions"),
    "constrained-deletion": _Target("verify_constrained_deletion"),
    "intersection-bounds": _Target("verify_intersection_bounds", ("jobs", "structured")),
    "claim-tables": _Target("verify_claim_tables", ("jobs",)),
    "bad-count": _Target("verify_bad_count", ("jobs", "convention")),
    "rll": _Target("verify_rll", (), _rll_inputs, ("P",)),
    **{
        f"code-{theorem_id}": _Target(
            "verify_code_theorem", ("jobs",), lambda args, t=theorem_id: (t, args.n)
        )
        for theorem_id in verify.CODE_CHECKS
    },
    "reconstruction": _Target(
        "verify_reconstruction", ("trials", "seed", "subset_words", "subset_trials"),
        _reconstruction_inputs, ("family", *_PARAM_FLAGS, "best", "N"),
    ),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    target = VERIFY_TARGETS[args.target]
    for dest in _TARGET_FLAGS:
        if getattr(args, dest) is not None and dest not in target.keywords + target.inputs:
            flag = dest.replace("_", "-")
            return _fail(f"argument --{flag}: target {args.target} does not read it")
    report = target(args)
    _emit(report.to_dict(include_timing=args.timing), args)
    return 0 if report.status in ("PASS", "SKIPPED") else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    (x,) = _words(args, 1)
    bundle = reconstruct.collect_reads(x, args.N, args.seed)
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
    result = reconstruct.decode(_code_spec(args, bundle.n), bundle)
    _emit({"status": result.status, "candidates": list(result.candidates)}, args)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_code_flags(parser: _Parser) -> None:
    parser.add_argument("--family", choices=codes.FAMILIES, help="code family")
    for name in _PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=int, help=f"family parameter {name}")
    parser.add_argument(
        "--best", action="store_true", default=None,
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
        _add_code_flags(q)
        if needs_word:
            q.add_argument("--word", action="append", required=True, type=_word_arg)
        q.set_defaults(func=handler)

    p = sub.add_parser("verify", parents=[common], help="run one verifier")
    p.add_argument("target", choices=tuple(VERIFY_TARGETS))
    p.add_argument("--n", type=int, required=True,
                   help="word length (upper end of the range for claim-tables)")
    p.add_argument("--timing", action="store_true", help="include elapsed seconds")
    # target flags (_TARGET_FLAGS) default to None here
    p.add_argument("--jobs", type=_positive_int, help="worker processes")
    p.add_argument("--structured", action="store_true", default=None,
                   help="intersection-bounds: sweep the structured families only")
    p.add_argument("--convention", choices=balls.WITNESS_CONVENTIONS,
                   help="bad-count: flip-index convention")
    _add_code_flags(p)
    p.add_argument("--N", type=int, help="reconstruction: reads per bundle")
    p.add_argument("--trials", type=_nonnegative_int, help="reconstruction: channel trials")
    p.add_argument("--seed", type=int)
    p.add_argument("--subset-words", type=_nonnegative_int,
                   help="reconstruction: codewords for the subset leg")
    p.add_argument("--subset-trials", type=_nonnegative_int,
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
    _add_code_flags(p)
    p.set_defaults(func=_cmd_decode)

    return parser


_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    """Run the command argv (default sys.argv[1:]); return its exit status.
    The parser is built once per process; parsing leaves no state on it."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


main = run


if __name__ == "__main__":
    sys.exit(run())
