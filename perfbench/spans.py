"""Spans recorded around calls into trackmine's public functions.

The benchmark never instruments trackmine itself: each call the benchmark
makes into a layer goes through ``Ops.call``, which counts it and, when
tracing is on, records a span (name, start, end, parent, run id).  Spans
stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# trackmine's modules plus "cli" (one subprocess per subcommand) and "io"
# (file reads and writes made by the benchmark around a layer's text).
LAYERS = ("sim", "events", "eventlog", "procnet", "ranking", "cli", "io")
# self time of spans outside every layer: the benchmark's own glue
GLUE = "bench"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span among those of this run_id
    run_id: str

    @property
    def layer(self) -> str:
        head = self.name.split(".", 1)[0]
        return head if head in LAYERS else GLUE


class Tracer:
    """Records nested spans; ``parent`` is the index of the enclosing span."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.run_id)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


class NullTracer:
    """Tracing off: ``Ops.call`` reads no clock and records nothing."""

    enabled = False

    def __init__(self, run_id: str = ""):
        self.run_id = run_id

    @contextmanager
    def span(self, name: str):
        yield

    def finished(self) -> list[Span]:
        return []


class Ops:
    """Counts every public call (``attempted``) and every exception it
    raises (``failed``); records a span per call when tracing is on.  With a
    ``speed`` (a ``perfbench.speed.Speedometer``), it lets the speedometer
    take a reading after each call, when the last one is old enough: the
    benchmark gives one to the subprocess chain, whose steps the speedometer's
    timer must not interrupt."""

    def __init__(self, tracer, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            if not self.tracer.enabled:
                return fn(*args, **kwargs)
            with self.tracer.span(name):
                return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise
        finally:
            if self.speed is not None:
                self.speed.tick()


def raw_seconds(start: float, end: float) -> float:
    return end - start


def self_times(spans: list[Span], seconds=raw_seconds) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children of one parent run one after another (the benchmark is single
    threaded), so their durations add without overlap.  ``seconds(start,
    end)`` gives an interval's duration, by default its length.
    """
    durations = [seconds(s.start, s.end) for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s.parent is not None:
            covered[s.parent] += d
    return [d - c for d, c in zip(durations, covered)]


def totals_by_name(spans: list[Span], seconds=raw_seconds) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans, seconds)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


def totals_by_layer(spans: list[Span], seconds=raw_seconds) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS + (GLUE,)}
    for s, t in zip(spans, self_times(spans, seconds)):
        out[s.layer] += t
    return out


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
