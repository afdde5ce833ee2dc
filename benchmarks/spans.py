"""Spans around the library's public functions, recorded from outside.

``Tracer.patched`` replaces each traced function, as a module attribute of
every ``matryoshkan`` module that holds it, with a wrapper that records a
span (name, parent, start, end, error); no file of the library changes.
Spans stay in memory; ``summary`` turns them into per-function calls, self
time (duration minus the part its child spans cover), median duration and
errors.  The benchmark's own loop records root spans too (``bench.op``,
``bench.check``, ``bench.kernel``), so that ``check_accounting`` can hold
the spans against the wall time of the traced run.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute) pairs, named <layer>.<fn> after the library module.
TRACED = (
    ("processes", "build"),
    ("core", "exp_scaled"),
    ("core", "solve_lower"),
    ("engine", "transient_vector"),
    ("engine", "steady_vector"),
    ("euler", "euler_solve"),
    ("mc", "simulate"),
    ("mc", "estimate_moments"),
    ("cli", "main"),
)

JITTER_S = 1e-6  # clock jitter tolerated in a self time
# Share of the traced wall time that the root spans (operations, checks and
# calibration kernels) may leave uncovered: the loop's own bookkeeping.
UNACCOUNTED_MAX = 0.02


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float | None = None
    error: bool = False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1, self.clock()))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Trace every function in TRACED for the duration of the block."""
        replaced = []
        try:
            for module, attr in TRACED:
                original = getattr(sys.modules[f"matryoshkan.{module}"], attr)
                wrapper = self.wrap(f"{module}.{attr}", original)
                for name, mod in list(sys.modules.items()):
                    if (name == "matryoshkan" or name.startswith("matryoshkan.")) and getattr(
                        mod, attr, None
                    ) is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self seconds, durations and errors."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "durations": [], "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(s.end - s.start)
            entry["errors"] += s.error
        return out

    def check_accounting(self, wall: float) -> float:
        """The share of ``wall`` that no root span covers.  Refuses a trace
        with an open span, a negative self time beyond clock jitter, or an
        uncovered share above UNACCOUNTED_MAX."""
        if self._stack or any(s.end is None for s in self.spans):
            raise RuntimeError("trace has open spans")
        if min(self.self_times(), default=0.0) < -JITTER_S:
            raise RuntimeError("a span ends after its parent")
        roots = sum(s.end - s.start for s in self.spans if s.parent < 0)
        if wall - roots > UNACCOUNTED_MAX * wall:
            raise RuntimeError(
                f"root spans cover {roots:.6f} s of {wall:.6f} s of traced wall time"
            )
        return (wall - roots) / wall


def median_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0
