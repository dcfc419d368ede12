"""Correctness gate: compare outputs against the values recorded from the seed.

``expected.json`` maps each gated call to its canonical output.  A recorded
dict key must be present with an equal value; keys a later version adds
(such as a new report field) are ignored.  Lists must match element by
element, so counterexamples keep their order and count.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load(path: Path = EXPECTED) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def check(records: dict[str, Any], key: str, output: Any) -> list[str]:
    """Differences between the record for key and an output, as text."""
    if key not in records:
        return [f"{key}: no recorded value"]
    # a JSON round trip turns tuples into lists, as in the record
    return _diff(records[key], json.loads(json.dumps(output)), key)


def _diff(expected: Any, got: Any, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, got {got!r:.200}"]
        problems = []
        for key, value in expected.items():
            if key in got:
                problems.extend(_diff(value, got[key], f"{where}/{key}"))
            else:
                problems.append(f"{where}/{key}: missing")
        return problems
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{where}: expected {len(expected)} items, got {got!r:.200}"]
        problems = []
        for i, (e, g) in enumerate(zip(expected, got)):
            problems.extend(_diff(e, g, f"{where}/{i}"))
        return problems
    if type(expected) is not type(got) or expected != got:
        return [f"{where}: expected {expected!r}, got {got!r:.200}"]
    return []
