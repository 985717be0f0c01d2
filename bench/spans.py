"""Outside-in span tracing for the padesr benchmark.

The tracer replaces a function in the namespace its caller looks it up in
(``padesr.pde.eval_grid``, ``padesr.search.SharedState.offer``, ...) with a
wrapper that records a span, and puts the original back on ``restore``.
Nothing under ``src/`` is edited.

Each thread keeps its own span stack, so self time (a span's duration minus
the time its child spans cover) stays correct when search workers run on
several threads.  A worker thread's busy time runs from its first span's
start to its last span's end.  The part of it that no span covers is the
search algorithm's own loop, and is booked as self time of
``LOOP_SPAN``, the span the harness opens around a 1-worker ``run_search``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter

LOOP_SPAN = "search.run_search"


class Frame:
    """One open span; ``hook_state`` is free for the hooks of its function."""

    __slots__ = ("name", "start", "child", "hook_state")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.hook_state = None


class _ThreadLog:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list[Frame] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.first_start = None
        self.last_end = 0.0
        self.root_total = 0.0


@dataclass
class Summary:
    """Spans and counters merged over all threads."""

    stats: dict[str, list]  # name -> [calls, total_s, self_s]
    durations: dict[str, list[float]]
    counts: dict[str, float]
    busy_s: float

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))


class Tracer:
    """Wraps functions in place; ``restore`` undoes every wrap in reverse.

    ``on_enter(frame, args)`` and ``on_exit(frame, args, result, error)`` are
    optional per-function hooks that count traffic properties.  They run
    inside the span, so their cost is part of the tracing overhead.
    """

    def __init__(self, keep_durations: tuple[str, ...] = ()):
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._undo: list[tuple[object, str, object]] = []
        self._keep = frozenset(keep_durations)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident() == self._main)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def enclosing(self, name: str) -> Frame | None:
        """The innermost open span called ``name`` on the calling thread."""
        for frame in reversed(self._log().stack):
            if frame.name == name:
                return frame
        return None

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the calling thread."""
        counts = self._log().counts
        counts[name] = counts.get(name, 0) + amount

    def _open(self, name: str) -> Frame:
        log = self._log()
        frame = Frame(name, perf_counter())
        if log.first_start is None:
            log.first_start = frame.start
        log.stack.append(frame)
        return frame

    def _close(self, frame: Frame) -> None:
        end = perf_counter()
        log = self._log()
        log.stack.pop()
        duration = end - frame.start
        stat = log.stats.get(frame.name)
        if stat is None:
            stat = log.stats[frame.name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame.child
        if frame.name in self._keep:
            log.durations.setdefault(frame.name, []).append(duration)
        if log.stack:
            log.stack[-1].child += duration
        else:
            log.root_total += duration
        log.last_end = end

    def span(self, name: str):
        """Context manager recording one span around the harness's own call."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._open(name)
                return self.frame

            def __exit__(self, *exc):
                tracer._close(self.frame)
                return False

        return _Span()

    def wrap(self, owner, attr: str, name: str, on_enter=None, on_exit=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            if on_enter is not None:
                on_enter(frame, args)
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                if on_exit is not None:
                    on_exit(frame, args, None, err)
                tracer._close(frame)
                raise
            if on_exit is not None:
                on_exit(frame, args, result, None)
            tracer._close(frame)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> Summary:
        """Merge every thread's spans; call once the traced work has ended."""
        out = Summary({}, {}, {}, 0.0)
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for name, (calls, total, self_s) in log.stats.items():
                acc = out.stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            for name, values in log.durations.items():
                out.durations.setdefault(name, []).extend(values)
            for name, amount in log.counts.items():
                out.counts[name] = out.counts.get(name, 0) + amount
            if log.is_main or log.first_start is None:
                out.busy_s += log.root_total
                continue
            span = log.last_end - log.first_start
            out.busy_s += span
            loop = out.stats.setdefault(LOOP_SPAN, [0, 0.0, 0.0])
            loop[1] += span - log.root_total
            loop[2] += span - log.root_total
        return out
