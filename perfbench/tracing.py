"""Benchmark-side spans around the calls into each layer of the stack.

The benchmark does not change the program to trace it: with ``--trace 1``
a :class:`Tracer` wraps a few entry points of each layer for the length
of the run and restores them afterwards:

* ``frontend``   — :meth:`C4CAMCompiler.import_torchscript` (trace + import);
* ``pass:<name>`` — every pass a :class:`PassManager` ran, from its own
  per-pass statistics;
* ``program``    — :class:`QuerySession` construction (allocate the
  hierarchy, program every stored row);
* ``plan_build`` — tracing a :class:`FusedPlan` for a session;
* ``execute``    — :meth:`QuerySession.run_batch` (scoring, merge and
  top-k; a lazy plan build inside it is a child span, not self time).

Workloads add their own spans (``mutate``) through :meth:`Tracer.span`.
Spans stay in memory as ``(name, seconds, self_seconds, measuring)``; a
span's self time is its duration minus the spans it caused on the same
thread, and ``measuring`` tells the timed operations from the set-ups.
Counters count during the operations only.  Nothing is recorded while
the tracer is :meth:`paused` (the untimed output checks).  An
entry point that no longer exists is skipped, so a refactor of one layer
drops that layer's span instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Collects spans and counters from any thread."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, bool]] = []
        self.counts: Dict[str, int] = {}
        #: Set while the timed operations run (not the set-ups).
        self.measuring = False
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def record(self, name: str, seconds: float,
               self_seconds: Optional[float] = None) -> None:
        if not self.enabled:
            return
        own = seconds if self_seconds is None else self_seconds
        with self._lock:
            self.spans.append((name, seconds, own, self.measuring))

    def count(self, name: str, n: int = 1) -> None:
        if not (self.enabled and self.measuring):
            return
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the ``with`` block."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)  # time of this span's children
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            self.record(name, duration, duration - children)

    # ------------------------------------------------------------- wrapping
    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`close`."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Span every call of ``owner.attr`` until :meth:`close`."""
        def make(original):
            def traced(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)
            return traced

        self.replace(owner, attr, make)

    def close(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- reading
    def self_times(self, name: str,
                   measuring: Optional[bool] = None) -> List[float]:
        """Self times of the ``name`` spans; ``measuring`` keeps only
        those of the operations (True) or of the set-ups (False)."""
        with self._lock:
            return [own for span, _dur, own, during in self.spans
                    if span == name and measuring in (None, during)]

    def median_ms(self, name: str) -> float:
        """Median self time of the ``name`` spans in ms; 0.0 if none."""
        values = self.self_times(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def n(self, name: str, measuring: Optional[bool] = None) -> int:
        return len(self.self_times(name, measuring))


def install(tracer: Tracer) -> None:
    """Wrap the stack's layer entry points (see the module docstring)."""
    import repro.runtime.session as session_mod
    from repro.compiler import C4CAMCompiler
    from repro.passes.pass_manager import PassManager

    tracer.wrap(C4CAMCompiler, "import_torchscript", "frontend")
    tracer.wrap(session_mod.QuerySession, "__init__", "program")
    # run_batch looks the builder up in its module at call time.
    tracer.wrap(session_mod, "build_fused_plan", "plan_build")

    def passes(original):
        def traced(pm, module):
            result = original(pm, module)
            for entry in getattr(pm, "statistics", ()):
                tracer.record(f"pass:{entry['pass']}", entry["seconds"])
            return result
        return traced

    def run_batch(original):
        def traced(session, *args, **kwargs):
            before = getattr(session, "fused_runs", 0)
            result = tracer.span("execute", original, session, *args,
                                 **kwargs)
            fused = getattr(session, "fused_runs", 0) > before
            tracer.count("fused_batches" if fused else "unfused_batches")
            return result
        return traced

    tracer.replace(PassManager, "run", passes)
    tracer.replace(session_mod.QuerySession, "run_batch", run_batch)
