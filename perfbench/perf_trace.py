"""Spans and counts recorded from outside the program.

The benchmark never edits the code it measures.  Instead it replaces
the bindings through which callers reach a public function -- the
defining module's attribute, a class attribute, or a name another
module bound with ``from ... import`` -- with a wrapper that records a
span (name, start, end, parent span, job id) or only a call count, and
restores every binding afterwards.

Spans are kept in memory; :func:`chrome_trace` writes them as Chrome
trace-event JSON (which Perfetto opens) and :func:`layer_times`
aggregates busy and self time per span name.  A binding that no longer
exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    tid: int
    job: "str | None"
    args: "dict | None"


class Tracer:
    """In-memory spans (a stack per thread) and thread-safe counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job: "str | None" = None) -> tuple:
        """Open a span on this thread; returns the frame :meth:`end`
        closes.  A span without a job id inherits its parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent[3]
        frame = (
            next(self._ids),
            name,
            self.clock(),
            job,
            None if parent is None else parent[0],
        )
        stack.append(frame)
        return frame

    def end(self, frame: tuple, args: "dict | None" = None) -> None:
        end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - unbalanced use; keep the stack sane
            stack.remove(frame)
        span_id, name, start, job, parent = frame
        self.spans.append(
            Span(span_id, name, start, end, parent,
                 threading.get_ident(), job, args)
        )

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n


# -- binding replacement ----------------------------------------------

def resolve_binding(binding: str) -> tuple:
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.attr"`` to
    ``(owner, attr)``.

    Raises:
        ImportError, AttributeError: the binding does not exist.
    """
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # must exist now
    return owner, attr


class Patcher:
    """Replaces attributes and puts every one back on :meth:`restore`.

    An attribute a class only inherited is deleted again on restore,
    so the class's own ``__dict__`` ends exactly as it started.
    """

    def __init__(self) -> None:
        self._applied: list[tuple] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr = make(current value)``."""
        own = vars(owner)
        had_own = attr in own
        saved = own[attr] if had_own else None
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._applied.append((owner, attr, had_own, saved))

    def restore(self) -> None:
        while self._applied:
            owner, attr, had_own, saved = self._applied.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# -- wrappers -----------------------------------------------------------

def span_wrapper(
    tracer: Tracer,
    layer: str,
    original: Callable,
    name_of: "Callable | None" = None,
    job_of: "Callable | None" = None,
    on_result: "Callable | None" = None,
) -> Callable:
    """Time every call to ``original`` as a span.

    ``name_of(args)`` may refine the span name (e.g. by pass),
    ``job_of(args)`` may give the job id, and ``on_result(result)``
    may return span arguments (and bump counters).
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = layer if name_of is None else name_of(args)
        job = None if job_of is None else job_of(args)
        frame = tracer.begin(name, job)
        extra = None
        try:
            result = original(*args, **kwargs)
            if on_result is not None:
                extra = on_result(result)
            return result
        finally:
            tracer.end(frame, extra)

    return wrapper


def count_wrapper(tracer: Tracer, layer: str, original: Callable) -> Callable:
    """Count calls to ``original`` (for functions called too often to
    time individually)."""
    counts = tracer.counts
    lock = tracer._lock
    key = layer + ".calls"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with lock:
            counts[key] += 1
        return original(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class Target:
    """One measured layer and every binding callers reach it through.

    ``mode`` is ``"span"`` (time each call) or ``"count"`` (count
    only); the hooks are those of :func:`span_wrapper`.
    """

    layer: str
    bindings: tuple
    mode: str = "span"
    name_of: "Callable | None" = None
    job_of: "Callable | None" = None
    on_result: "Callable | None" = None


def install(tracer: Tracer, patcher: Patcher, targets) -> list[str]:
    """Wrap every binding of every target; returns the bindings that
    do not exist (absent targets are skipped, never fatal)."""
    absent = []
    for target in targets:
        for binding in target.bindings:
            try:
                owner, attr = resolve_binding(binding)
            except (ImportError, AttributeError):
                absent.append(binding)
                continue
            if target.mode == "count":
                make = functools.partial(count_wrapper, tracer, target.layer)
            else:
                make = functools.partial(
                    _make_span_wrapper, tracer, target
                )
            patcher.replace(owner, attr, make)
    return absent


def _make_span_wrapper(tracer: Tracer, target: Target, original):
    return span_wrapper(
        tracer,
        target.layer,
        original,
        name_of=target.name_of,
        job_of=target.job_of,
        on_result=target.on_result,
    )


# -- aggregation and export ------------------------------------------

def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> self time: its duration minus the part of its
    interval its child spans cover (overlapping children count once)."""
    children: dict = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_times(spans) -> dict:
    """Span name -> ``{"calls", "busy_s", "self_s"}``.

    Calls and busy time count the outermost spans of a name only, so
    a recursive or nested layer is not counted twice; self time sums
    every span's own time.
    """
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["self_s"] += selfs[span.id]
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            entry["calls"] += 1
            entry["busy_s"] += span.end - span.start
    return dict(out)


def chrome_trace(
    tracer: Tracer, metadata: "dict | None" = None, min_us: float = 0.0
) -> dict:
    """The spans as Chrome trace-event JSON (complete ``X`` events in
    microseconds), with the counts under ``otherData``.  Spans shorter
    than ``min_us`` are left out of the file (and counted), which keeps
    a kernel called a quarter-million times from swamping the viewer;
    the per-layer totals always use every span."""
    threads = {}
    events = []
    dropped = 0
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.id)):
        if (span.end - span.start) * 1e6 < min_us:
            dropped += 1
            continue
        tid = threads.setdefault(span.tid, len(threads) + 1)
        args = {"id": span.id}
        if span.parent is not None:
            args["parent"] = span.parent
        if span.job is not None:
            args["job"] = span.job
        if span.args:
            args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.start - tracer.origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    for ident, tid in threads.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"thread-{tid}"},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counts": dict(sorted(tracer.counts.items())),
            "spans_shorter_than_min_us_left_out": dropped,
            "min_us": min_us,
            **(metadata or {}),
        },
    }
