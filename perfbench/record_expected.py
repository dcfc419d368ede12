"""Record the canonical outputs of every gated call into expected.json.

Run once from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_expected.py

Both call sizes are recorded.  exhaustive-j2 makes the same calls as
exhaustive-j1 at another job count, and reports do not depend on it.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main() -> int:
    run._import_delsub()
    import workloads

    records = {}
    for size in ("full", "smoke"):
        for name in ("exhaustive-j1", "structured", "codes-decode"):
            with tempfile.TemporaryDirectory(dir=run.HERE) as scratch:
                wl, _ = workloads.build(name, 0, size, scratch, {})
                for op in wl.ops:
                    if op.key and op.key not in records:
                        out = op.call()
                        records[op.key] = out.to_dict() if hasattr(out, "to_dict") else (
                            workloads.spec_dict(out) if hasattr(out, "family") else out)
                        print(op.key, file=sys.stderr)
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
