"""The benchmark workloads: inputs made from the seed, the timed public calls
into delsub, and the check each call's output must pass.

Every workload is a closed loop from one process: each call waits for the
previous one to return.  Only ``exhaustive-j2`` forks, with ``jobs=2``.
Importing this module imports delsub, so callers put the checkout's ``src``
on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from delsub import balls, cli, codes, reconstruct, verify

import gate

# Call sizes.  "full" is what a run measures: rounds of 0.4 s to 2 s at
# nominal speed, so that each of a run's worker interpreters gets at least two
# rounds.  The reconstruction check is the acceptance test's call.  "smoke"
# keeps every word length at 8 or below so the self-test runs each workload
# in seconds.
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "bounds_n": 10,
        "bad_n": 8,
        "code_n": 12,
        "claim_n": 10,
        "structured_n": 11,
        "cosets": (("cl", 16), ("cn21", 15)),
        "run_bounded_n": 16,
        "recon": {"family": "cl", "n": 10, "N": 7,
                  "trials": 1000, "subset_words": 20, "subset_trials": 100},
        "few": {"family": "cl", "n": 12, "N": 7, "count": 100},
        "many": {"family": "vt", "n": 14, "N": 31, "count": 100},
        "cli_count": 10,
    },
    "smoke": {
        "bounds_n": 7,
        "bad_n": 6,
        "code_n": 8,
        "claim_n": 7,
        "structured_n": 8,
        "cosets": (("cl", 8), ("cn21", 8)),
        "run_bounded_n": 8,
        "recon": {"family": "cl", "n": 8, "N": 7,
                  "trials": 20, "subset_words": 2, "subset_trials": 5},
        "few": {"family": "cl", "n": 8, "N": 7, "count": 5},
        "many": {"family": "vt", "n": 8, "N": 13, "count": 5},
        "cli_count": 2,
    },
}

# The inversion-parity ceiling 3n - 5 is false for n in [8, 12]; the verifier
# must keep reporting FAIL there, so a PASS is a failed operation.
INV_CEILING_FALSE = range(8, 13)


@dataclass
class Op:
    """One timed public call and the check its result must pass."""

    layer: str
    fn: Callable[..., Any]
    args: tuple
    kwargs: dict[str, Any]
    check: Callable[[Any], list[str]]
    key: str
    inputs: dict[str, Any]

    def call(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    def describe(self) -> str:
        """The call with every argument, the form compared across runs."""
        return describe(self.layer, self.args, self.kwargs)


def describe(layer: str, args: tuple, kwargs: dict[str, Any]) -> str:
    parts = [repr(a) for a in args]
    parts += [f"{k}={v!r}" for k, v in sorted(kwargs.items())]
    return f"{layer}({', '.join(parts)})"


@dataclass
class Workload:
    name: str
    seed: int
    scratch: str
    ops: list[Op] = field(default_factory=list)
    properties: dict[str, Any] = field(default_factory=dict)


def _report_check(key: str, expected: dict[str, Any]) -> Callable[[Any], list[str]]:
    def check(report: verify.VerificationReport) -> list[str]:
        got = report.to_dict()
        problems = gate.check(expected, key, got)
        if (
            got["target"] == "code-inv"
            and got["n_range"][0] in INV_CEILING_FALSE
            and got["status"] != "FAIL"
        ):
            problems.append(f"{key}: inv ceiling reported {got['status']}, expected FAIL")
        return problems
    return check


def _value_check(key: str, expected: dict[str, Any], render: Callable[[Any], Any]) -> Callable[[Any], list[str]]:
    return lambda value: gate.check(expected, key, render(value))


def spec_dict(cs: codes.CodeSpec) -> dict[str, Any]:
    return {"family": cs.family, "n": cs.n, "params": dict(cs.params)}


def _decode_check(word: str) -> Callable[[Any], list[str]]:
    def check(result: reconstruct.DecodeResult) -> list[str]:
        if result.status == reconstruct.UNIQUE and result.candidates == (word,):
            return []
        return [f"decode of {word}: {result.status} {list(result.candidates)}"]
    return check


def _cli_decode(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(word: str) -> Callable[[tuple[int, str]], list[str]]:
    def check(result: tuple[int, str]) -> list[str]:
        code, text = result
        try:
            payload = json.loads(text)
        except ValueError:
            return [f"cli decode of {word}: exit {code}, unparsable output"]
        if code == 0 and payload == {"status": reconstruct.UNIQUE, "candidates": [word]}:
            return []
        return [f"cli decode of {word}: exit {code}, {payload}"]
    return check


def _verifier(layer: str, fn: Callable[..., Any], args: tuple, kwargs: dict[str, Any],
              expected: dict[str, Any], inputs: dict[str, Any]) -> Op:
    # jobs never changes a canonical report, so the record is keyed without it
    key = describe(layer, args, {k: v for k, v in kwargs.items() if k != "jobs"})
    return Op(layer, fn, args, kwargs, _report_check(key, expected), key, inputs)


def _eligible(cs: codes.CodeSpec, N: int) -> list[str]:
    return [w for w in codes.members(cs) if len(balls.ds_ball(w)) >= N]


def _exhaustive(wl: Workload, sz: dict[str, Any], expected: dict[str, Any], jobs: int) -> list[tuple]:
    wl.ops = [
        _verifier("verify.intersection_bounds", verify.verify_intersection_bounds,
                  (sz["bounds_n"],), {"jobs": jobs}, expected,
                  {"target": "intersection-bounds", "n": sz["bounds_n"], "jobs": jobs}),
        _verifier("verify.bad_count", verify.verify_bad_count,
                  (sz["bad_n"],), {"jobs": jobs}, expected,
                  {"target": "bad-count", "n": sz["bad_n"], "jobs": jobs}),
    ]
    if jobs == 1:
        wl.ops += [
            _verifier("verify.code_theorem", verify.verify_code_theorem,
                      (family, sz["code_n"]), {"jobs": 1}, expected,
                      {"target": f"code-{family}", "family": family, "n": sz["code_n"], "jobs": 1})
            for family in ("inv", "cl")
        ]
    # the cl check builds the mask tables and deletion tables at its length
    lengths = sorted({op.args[-1] for op in wl.ops})
    return [(verify.verify_code_theorem, ("cl", n)) for n in lengths]


def _structured(wl: Workload, sz: dict[str, Any], expected: dict[str, Any]) -> list[tuple]:
    n_max, n_sb = sz["claim_n"], sz["structured_n"]
    wl.ops = [
        _verifier("verify.claim_tables", verify.verify_claim_tables,
                  (n_max,), {"jobs": 1}, expected,
                  {"target": "claim-tables", "n": n_max, "jobs": 1}),
        _verifier("verify.structured_bounds", verify.verify_intersection_bounds,
                  (n_sb,), {"jobs": 1, "structured": True}, expected,
                  {"target": "intersection-bounds", "mode": "structured", "n": n_sb, "jobs": 1}),
    ]
    # claim tables reuse the exhaustive mask tables for every length up to ten
    return [(verify.verify_code_theorem, ("cl", n)) for n in range(2, min(n_max, 10) + 1)]


def _bundles(rng: random.Random, cs: codes.CodeSpec, N: int, count: int,
             eligible: list[str]) -> list[tuple[str, reconstruct.ReadBundle]]:
    out = []
    for _ in range(count):
        word = eligible[rng.randrange(len(eligible))]
        out.append((word, reconstruct.collect_reads(word, N, rng.randrange(1 << 30))))
    return out


def _codes_decode(wl: Workload, sz: dict[str, Any], expected: dict[str, Any]) -> list[tuple]:
    rng = random.Random(wl.seed)
    ops: list[Op] = []
    for family, n in sz["cosets"]:
        key = f"codes.best_coset({family!r}, {n})"
        ops.append(Op("codes.best_coset", codes.best_coset, (family, n), {},
                      _value_check(key, expected, spec_dict), key,
                      {"family": family, "n": n, "words_scanned": 1 << n}))
    rb = codes.spec(codes.RUN_BOUNDED, sz["run_bounded_n"])
    key = f"codes.size({rb!r})"
    ops.append(Op("codes.size", codes.size, (rb,), {}, _value_check(key, expected, int), key,
                  {"family": rb.family, "n": rb.n, "words_scanned": 1 << rb.n}))

    rc = sz["recon"]
    recon_code = codes.best_coset(rc["family"], rc["n"])
    trials = {k: rc[k] for k in ("trials", "subset_words", "subset_trials")}
    ops.append(_verifier("verify.reconstruction", verify.verify_reconstruction,
                         (recon_code, rc["N"]), trials, expected,
                         {"family": rc["family"], "n": rc["n"], "N": rc["N"], **trials}))

    props: dict[str, Any] = {}
    settings: dict[str, tuple[codes.CodeSpec, list]] = {}
    for setting in ("few", "many"):
        d = sz[setting]
        cs = codes.best_coset(d["family"], d["n"])
        eligible = _eligible(cs, d["N"])
        bundles = _bundles(rng, cs, d["N"], d["count"], eligible)
        settings[setting] = (cs, bundles)
        first = [len(set(balls.preimage_ball(b.reads[0], cs.n))) for _, b in bundles]
        props[setting] = {
            "code": spec_dict(cs),
            "N": d["N"],
            "largest_coset": codes.size(cs),
            "eligible_words": len(eligible),
            "decodes": len(bundles),
            "survivors_first_read": sum(first) / len(first),
        }
        for word, bundle in bundles:
            ops.append(Op("reconstruct.decode", reconstruct.decode, (cs, bundle), {},
                          _decode_check(word), "",
                          {"setting": setting, "family": cs.family, "n": cs.n, "N": d["N"]}))

    # the CLI path reads bundles from disk; they live in a scratch directory
    # inside the checkout that the runner removes at the end
    cs, bundles = settings["few"]
    params = [a for k, v in cs.params for a in (f"--{k}", str(v))]
    for i, (word, bundle) in enumerate(bundles[: sz["cli_count"]]):
        path = os.path.join(wl.scratch, f"bundle-{i}.txt")
        with open(path, "w") as fh:
            reconstruct.save_bundle(bundle, fh)
        argv = ["decode", "--family", cs.family, "--n", str(cs.n), *params, "--bundle", path]
        ops.append(Op("cli.decode", _cli_decode, (argv,), {}, _cli_check(word), "",
                      {"setting": "few", "family": cs.family, "n": cs.n,
                       "N": sz["few"]["N"], "bundle": os.path.basename(path)}))
    wl.ops = ops
    wl.properties["decode"] = props
    wl.properties["survivors_first_read"] = props["few"]["survivors_first_read"]
    return []


def build(name: str, seed: int, size: str, scratch: str, expected: dict[str, Any]) -> tuple[Workload, list[tuple]]:
    """Make a workload's inputs from the seed; return it with its warm-up calls."""
    sz = SIZES[size]
    wl = Workload(name, seed, scratch)
    if name == "exhaustive-j1":
        warm = _exhaustive(wl, sz, expected, 1)
    elif name == "exhaustive-j2":
        warm = _exhaustive(wl, sz, expected, 2)
    elif name == "structured":
        warm = _structured(wl, sz, expected)
    elif name == "codes-decode":
        warm = _codes_decode(wl, sz, expected)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl, warm


def record_properties(wl: Workload, result: Any) -> None:
    """Keep the input properties a verifier report reveals."""
    if not isinstance(result, verify.VerificationReport):
        return
    detail = result.detail or {}
    if result.target == "bad-count" and result.pairs_checked:
        wl.properties["shared_pair_share"] = (
            detail["pairs_with_shared_elements"] / result.pairs_checked
        )
    if "largest_coset" in detail:
        wl.properties.setdefault("largest_coset", {})[result.target] = detail["largest_coset"]
