"""Verification reports, the counterexample sink and the task fan-out.

Every verifier returns a :class:`VerificationReport` whose JSON form is
byte-identical for a fixed input regardless of ``jobs``: pair ranges are
partitioned the same way no matter how many workers run, partial results
merge in partition order, and timing is kept out of the canonical output.
Each task keeps its first 32 counterexamples, and a report keeps the first 32
of them all in partition order.  A task is a plain (function, *args) tuple
that carries all of its per-call inputs; the per-length caches, _tables(n)
and what it builds on first ask, are read by the task functions themselves,
and each verifier fills them before it forks, so workers inherit them
copy-on-write.  With jobs > 1 the tasks run over workers forked per call
with os.fork, fed task indices over a pipe (_map_tasks).
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, NoReturn

from .words import _Orbits, _word_maps, _word_orbits
from .words import decode as to_word

_CE_CAP = 32
# tasks per all-pairs sweep or code check
_SPAN_PIECES = 64


@dataclass(slots=True)
class VerificationReport:
    """Outcome of one verifier run.

    ``counterexamples`` is empty exactly when the run passed; SKIPPED marks
    a precondition that left nothing to check.  ``elapsed`` is informative
    only and excluded from the canonical JSON unless explicitly requested.
    """

    target: str
    n_range: tuple[int, int]
    pairs_checked: int
    bound: int | None
    extremal_observed: int | None
    equality_cases: int
    counterexamples: list[dict[str, Any]]
    status: str
    elapsed: float
    detail: dict[str, Any] | None = None

    def to_dict(self, include_timing: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "target": self.target,
            "status": self.status,
            "n_range": list(self.n_range),
            "pairs_checked": self.pairs_checked,
            "bound": self.bound,
            "extremal_observed": self.extremal_observed,
            "equality_cases": self.equality_cases,
            "detail": self.detail,
            "counterexamples": self.counterexamples,
        }
        if include_timing:
            out["elapsed"] = round(self.elapsed, 3)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


def _finish(
    target: str,
    n_range: tuple[int, int],
    pairs: int,
    bound: int | None,
    extremal: int | None,
    eq: int,
    ces: list[dict[str, Any]],
    t0: float,
    detail: dict[str, Any] | None = None,
    skipped: bool = False,
) -> VerificationReport:
    status = "SKIPPED" if skipped else ("FAIL" if ces else "PASS")
    return VerificationReport(
        target=target,
        n_range=n_range,
        pairs_checked=pairs,
        bound=bound,
        extremal_observed=extremal,
        equality_cases=eq,
        counterexamples=ces,
        status=status,
        elapsed=time.monotonic() - t0,
        detail=detail,
    )


class _Sink:
    """The first _CE_CAP counterexamples recorded, for words of length n.

    x and y are words of length n, formatted only for the counterexamples
    kept.  On the orbit route of a group (_word_maps) fails keeps task(p)
    instead, p by default, for each image p = (min, max) of the pair: the
    _CE_CAP first, cut at twice that.
    """

    __slots__ = ("n", "ces", "fails", "orbits", "task")

    def __init__(self, n: int, group: str = "", task: Callable = tuple) -> None:
        self.n = n
        self.ces: list[dict[str, Any]] = []
        self.fails = set()
        self.orbits = _Orbits(_word_maps(n, group)) if group else None
        self.task = task

    def add(
        self,
        x: int | None,
        y: int | None,
        check: str,
        expected: Any,
        observed: Any,
        **extra: Any,
    ) -> None:
        if self.orbits:
            self.fails.update(map(self.task, self.orbits.close([(x, y)])))
            if len(self.fails) > 2 * _CE_CAP:
                self.fails = set(sorted(self.fails)[:_CE_CAP])
            return
        if len(self.ces) >= _CE_CAP:
            return
        out: dict[str, Any] = {"n": self.n}
        if x is not None:
            out["x"] = to_word(x, self.n)
        if y is not None:
            out["y"] = to_word(y, self.n)
        out["check"] = check
        out["expected"] = expected
        out["observed"] = observed
        out.update(extra)
        self.ces.append(out)


# ---------------------------------------------------------------------------
# task fan-out; partitions depend only on the input, never on jobs


def _check_jobs(jobs: int) -> None:
    """Reject a worker count below one, before a verifier does any work."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _run_task(task: tuple) -> dict[str, Any]:
    fn, *args = task
    return fn(*args)


def _serve(tasks: list[tuple], feed: BinaryIO, feeder: BinaryIO, into: BinaryIO) -> NoReturn:
    """A forked worker: run the tasks whose indices it reads from feed until
    the feed ends or a task raises, then send the pickled list of (index,
    result) to into, a failed task's result being its exception and
    traceback.  It leaves only through os._exit."""
    try:
        feeder.close()
        done: list[tuple[int, Any]] = []
        # an unbuffered read of one record takes it whole: Linux reads a pipe
        # under its lock, and the parent writes whole records only
        while index := feed.read(4):
            i = int.from_bytes(index, "little")
            try:
                done.append((i, _run_task(tasks[i])))
            except Exception as exc:
                done.append((i, (exc, traceback.format_exc())))
                break
        # so that the parent's write of the indices cannot block on workers
        # that have all stopped reading
        feed.close()
        pickle.dump(done, into)
        into.close()
        os._exit(0)
    finally:
        os._exit(1)


def _map_tasks(tasks: list[tuple], jobs: int) -> list[dict[str, Any]]:
    """Run each task (function, *args), in order, over up to jobs forked workers.

    The caller fills the per-length caches the tasks read before this forks;
    workers inherit them and the task list, so no task input is pickled.
    After the fork each task index goes down one pipe as a 4-byte record and
    an idle worker takes the next (_serve).  Results come in task order.  A
    worker that dies raises RuntimeError naming its exit status; otherwise
    the first task exception in task order is re-raised.  Every child is
    reaped, killed first if it still runs, before this returns or raises.
    Without os.fork the tasks run in-process.
    """
    if jobs <= 1 or len(tasks) <= 1 or not hasattr(os, "fork"):
        return [_run_task(t) for t in tasks]
    r, w = os.pipe()
    feed, feeder = open(r, "rb", buffering=0), open(w, "wb")
    workers: dict[int, BinaryIO] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(min(jobs, len(tasks))):
            r, w = os.pipe()
            results, into = open(r, "rb"), open(w, "wb")
            if (pid := os.fork()) == 0:
                _serve(tasks, feed, feeder, into)
            workers[pid] = results
            into.close()
        feed.close()
        # a broken pipe means every worker failed or died; results tell which
        with suppress(BrokenPipeError), feeder:
            feeder.write(b"".join(i.to_bytes(4, "little") for i in range(len(tasks))))
        parts: list[Any] = [None] * len(tasks)
        for pid, results in list(workers.items()):
            with results:
                data = results.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if status:
                raise RuntimeError(f"a fan-out worker exited with status {status}")
            for i, part in pickle.loads(data):
                parts[i] = part
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in (feed, feeder, *workers.values()):
            f.close()
    for part in parts:
        if isinstance(part, tuple):
            exc, trace = part
            raise exc from RuntimeError(f"in a fan-out worker:\n{trace}")
    return parts


def _merge(parts: list[dict[str, Any]], n: int) -> tuple[_Sink, int, int | None, int]:
    """A sink for words of length n holding the first _CE_CAP counterexamples
    of the task results in partition order, then their pairs, extremal (None
    when no task saw one) and equality cases."""
    sink = _Sink(n)
    sink.ces = [c for part in parts for c in part["ces"]][:_CE_CAP]
    extremal = max((p["extremal"] for p in parts), default=-1)
    return (
        sink,
        sum(p["pairs"] for p in parts),
        extremal if extremal >= 0 else None,
        sum(p["eq"] for p in parts),
    )


def _spans(size: int) -> list[tuple[int, int]]:
    """At most _SPAN_PIECES contiguous ranges covering range(size)."""
    step = max(1, -(-size // _SPAN_PIECES))
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _sweep_tasks(fn: Callable, head: tuple, n: int, group: str = "") -> list[tuple]:
    """The tasks (fn, *head, rows, weights, group) of an all-pairs sweep
    over the length-n words, one per span of its rows: one word per orbit
    of the group (named as in _word_maps) and the orbit's size, or every
    word with weight 1 on the full route (group "")."""
    orbits = _word_orbits(n, group)
    return [(fn, *head, orbits.rows[lo:hi], orbits.weights[lo:hi], group)
            for lo, hi in _spans(len(orbits.rows))]


def _sweep(legs: list[tuple], jobs: int) -> list[dict[str, Any]]:
    """The parts of the tasks of legs in one fan-out, a leg (make, *args)
    having the tasks make(*args) of an all-pairs sweep (_sweep_tasks) or a
    structured walk (verify._family_tasks), whose fourth argument is its
    group.

    An orbit-route part lists its failing pairs and their images (_Sink).
    The _CE_CAP first in full-route order name the full-route tasks, a row
    or a family pair each, that the leg's report comes from; only they run,
    here.  One that records nothing shows a fault the group does not keep,
    and the leg's full route runs here instead.
    """
    made = [make(*args) for make, *args in legs]
    parts = _map_tasks([t for tasks in made for t in tasks], jobs)
    at = 0
    for (make, *args), tasks in zip(legs, made):
        mine = parts[at:at + len(tasks)]
        at += len(tasks)
        named = sorted(set().union(*(part["fails"] for part in mine)))[:_CE_CAP]
        if make is _sweep_tasks:
            # a sweep lists pairs; the full route walks each row's in order
            named = [(args[0], *args[1], (x,), (1,), "")
                     for x in dict.fromkeys(x for x, _ in named)]
        if named:
            ces = [_run_task(t)["ces"] for t in named]
            if not all(ces):
                ces = [_run_task(t)["ces"] for t in make(*args[:3], "")]
            mine[0]["ces"] = sum(ces, [])
    return parts
