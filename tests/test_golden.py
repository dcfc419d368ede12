"""Golden outputs: canonical verifier reports and code-family results.

Every entry of ``golden.json`` is compared byte for byte with a fresh
computation, so a refactor that changes one character of a canonical report,
a best coset, a code size or a parameter error shows here.  Rewrite the file
only from a commit whose outputs are trusted:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import json
import pathlib

from delsub import codes, verify

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

# residue families with a modulus m searched at both m = 2 and m = 3
_M_FAMILIES = (codes.INV, codes.VT_MOD, codes.EVEN_POS, codes.C2N9)
_RESIDUE_FAMILIES = (codes.VT, *_M_FAMILIES, codes.CP, codes.CN21, codes.CL)


def _reports() -> dict[str, str]:
    out: dict[str, str] = {}

    def put(label: str, report: verify.VerificationReport) -> None:
        out[label] = report.to_json()

    for n in range(1, 10):
        put(f"ball-sizes n={n}", verify.verify_ball_sizes(n))
        put(f"del-positions n={n}", verify.verify_del_positions(n))
    for n in range(1, 7):
        put(f"constrained-deletion n={n}", verify.verify_constrained_deletion(n))
    for n in range(2, 10):
        put(f"intersection-bounds n={n}", verify.verify_intersection_bounds(n))
    for n in range(9, 13):
        put(f"intersection-bounds structured n={n}",
            verify.verify_intersection_bounds(n, structured=True))
    put("claim-tables n=10", verify.verify_claim_tables(10))
    for n in range(3, 10):
        for convention in ("pre", "post"):
            put(f"bad-count n={n} {convention}", verify.verify_bad_count(n, convention=convention))
    for theorem in ("vt", "inv", "c2n9", "cn21", "cl"):
        for n in range(2, 11):
            put(f"code-{theorem} n={n}", verify.verify_code_theorem(theorem, n))
    for n in range(1, 13):
        for period in (3, codes.default_period(n)):
            put(f"rll n={n} P={period}", verify.verify_rll(n, period))
    cs = codes.best_coset(codes.CL, 8)
    put("reconstruction cl n=8 N=7",
        verify.verify_reconstruction(cs, 7, trials=50, subset_words=3, subset_trials=10))
    return out


def _codes() -> dict[str, str]:
    out: dict[str, str] = {}
    for family in _RESIDUE_FAMILIES:
        for n in range(1, 11):
            for m in (2, 3) if family in _M_FAMILIES else (2,):
                fixed = {"m": m} if family in _M_FAMILIES else {}
                cs = codes.best_coset(family, n, **fixed)
                out[f"best_coset {family} n={n} m={m}"] = f"{cs.params} size={codes.size(cs)}"
    return out


def _param_errors() -> dict[str, str]:
    n = 6
    period = codes.default_period(n)
    bad = [
        (codes.VT, {"a": 2 * n}),
        *[(family, {"a": 3, "m": 3}) for family in _M_FAMILIES],
        *[(family, {"P": period, "a1": 2, "a2": 0}) for family in (codes.CP, codes.CN21)],
        *[(family, {"P": period, "a1": 0, "a2": period // 2 + 1})
          for family in (codes.CP, codes.CN21)],
        (codes.CL, {"a0": 4, "a1": 0, "a2": 0}),
        (codes.CL, {"a0": 0, "a1": 2 * n, "a2": 0}),
        (codes.CL, {"a0": 0, "a1": 0, "a2": 2 * n * n}),
    ]
    out: dict[str, str] = {}
    for family, params in bad:
        label = f"spec error {family} n={n} " + ",".join(f"{k}={v}" for k, v in params.items())
        try:
            codes.spec(family, n, **params)
        except ValueError as exc:
            out[label] = str(exc)
        else:
            out[label] = "accepted"
    return out


def collect() -> dict[str, str]:
    return {**_reports(), **_codes(), **_param_errors()}


def test_outputs_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(want)
    for label, text in want.items():
        assert got[label] == text, label


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
