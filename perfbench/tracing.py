"""In-memory spans around calls into delsub's layers.

The runner opens a span around each public call it makes.  To see inside
those calls, ``Tracer.install`` replaces the module attributes that one
delsub module looks up in another (``verify.decode_reads``,
``reconstruct.preimage_ball``, the ``words`` names imported into ``codes``
and so on) with wrappers that open a child span; ``uninstall`` puts the
originals back.  Each span's self time is its duration minus the time its
child spans cover.  ``rescale`` turns the seconds in the totals into nominal
seconds (see ``speed.py``); the stored spans keep the clock's readings.
Spans inside forked workers are not seen.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from delsub import codes, reconstruct, verify

_WORDS = ("inversion_number", "max_le2_periodic_length", "run_count", "vt_syndrome", "weight")

# (module, attribute, span name, hot).  Hot names are called per word inside
# scans; they are counted and timed but not stored span by span.
INNER: list[tuple[Any, str, str, bool]] = [
    (verify, "decode_reads", "reconstruct.decode", False),
    (verify, "collect_reads", "reconstruct.collect_reads", False),
    (verify, "ds_ball", "balls.ds_ball", False),
    (verify, "to_word", "words.decode", True),
    *[(verify, name, f"words.{name}", True) for name in _WORDS],
    (codes, "members", "codes.members", False),
    (codes, "decode", "words.decode", True),
    *[(codes, name, f"words.{name}", True) for name in _WORDS],
    (reconstruct, "decode", "reconstruct.decode", False),
    (reconstruct, "preimage_ball", "balls.preimage_ball", False),
    (reconstruct, "contains", "codes.contains", False),
    (reconstruct, "members", "codes.members", False),
    (reconstruct, "ds_ball", "balls.ds_ball", False),
    (reconstruct, "apply_del_sub", "balls.apply_del_sub", True),
]

# generators whose whole iteration belongs in the span; every caller in
# delsub consumes them completely, so iterating eagerly changes no result
_EAGER = {"codes.members"}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # (id, parent id, root id, name, start, end); spans under one public
        # call share the root id
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self._saved: list[tuple[Any, str, Any]] = []
        # totals as they were at the last rescale
        self._rescaled: dict[str, list[float]] = {}

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict[str, Any],
             hot: bool = False) -> Any:
        """Run fn(*args, **kwargs) inside a span called name."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0, parent[2] if parent else span_id]
        self._stack.append(frame)
        t0 = self._clock()
        try:
            result = fn(*args, **kwargs)
            if name in _EAGER:
                result = iter(list(result))
            return result
        finally:
            t1 = self._clock()
            self._stack.pop()
            duration = t1 - t0
            if parent is not None:
                parent[1] += duration
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if not hot:
                self.spans.append((span_id, parent[0] if parent else 0, frame[2], name, t0, t1))

    def rescale(self, factor: float) -> None:
        """Multiply the seconds added to the totals since the last rescale by factor."""
        for name, entry in self.totals.items():
            before = self._rescaled.get(name, [0, 0.0, 0.0])
            for i in (1, 2):
                entry[i] = before[i] + (entry[i] - before[i]) * factor
            self._rescaled[name] = list(entry)

    def install(self) -> None:
        for module, attr, name, hot in INNER:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, hot))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name: str, fn: Callable[..., Any], hot: bool) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, hot)
        return wrapped

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "root", "name", "start", "end"],
                "spans": self.spans,
                "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.totals.items())},
            }, fh)
