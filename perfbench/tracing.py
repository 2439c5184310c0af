"""Span recorder around the layer functions that ``f0kit.cli`` calls.

Nothing inside the package changes: :class:`Tracer` rebinds the names
``f0kit.cli`` looked up at import (``load_wav``, ``spectrogram``,
``envelope``, ``track``, ``export_table``, ``render_plot``) and the entries
of ``f0kit.baselines.BASELINES`` to timing wrappers, and puts the originals
back when tracing ends. Spans stay in memory; :meth:`Tracer.dump` writes
them out once the benchmark is done.

Traced runs process one input per ``main`` call, so each call is one root
span (``cli.main``) and every layer span it causes is attributed to it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# name bound in f0kit.cli -> span name, after the module that defines it
CLI_LAYERS = {
    "load_wav": "audio_io.load_wav",
    "spectrogram": "dsp.spectrogram",
    "envelope": "dsp.envelope",
    "track": "tracker.track",
    "export_table": "export.export_table",
    "render_plot": "export.render_plot",
}
BASELINE_LAYERS = {
    "acf": "baselines.autocorr_pitch",
    "yin": "baselines.yin_pitch",
    "cepstrum": "baselines.cepstrum_pitch",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    # spectrogram/envelope spans only: whether track or render_plot used the result
    used: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class FileTrace:
    """The spans of one ``main`` call on one input, root span first."""

    input_name: str
    method: str
    spans: list[Span] = field(default_factory=list)
    wav_bytes: int = 0
    table_bytes: int = 0
    svg_bytes: int = 0
    n_frames: int = 0
    voiced_frames: int = 0

    @property
    def wall(self) -> float:
        return self.spans[0].duration

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans[1:]:
            own[span.parent] -= span.duration
        return own

    def layer_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def nesting_problems(self) -> list[str]:
        """Children must lie inside their parent and not overlap each other."""
        problems = []
        last_end: dict[int, float] = {}
        for span in self.spans[1:]:
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                problems.append(f"{self.input_name}: span {span.name} leaves its parent")
            if span.start < last_end.get(span.parent, span.start):
                problems.append(f"{self.input_name}: span {span.name} overlaps a sibling")
            last_end[span.parent] = span.end
        total = sum(self.self_times())
        if abs(total - self.wall) > 1e-9:
            problems.append(f"{self.input_name}: self times sum to {total} s, "
                            f"wall time is {self.wall} s")
        return problems


class Tracer:
    def __init__(self, cli_module, baselines_module):
        self._cli = cli_module
        self._baselines = baselines_module
        self._local = threading.local()
        self._current: FileTrace | None = None
        self._results: dict[int, int] = {}  # id(spectrogram/envelope) -> span index
        self._keep: list[object] = []  # holds those results so ids stay unique
        self.files: list[FileTrace] = []

    @contextlib.contextmanager
    def installed(self):
        saved_cli = {name: getattr(self._cli, name) for name in CLI_LAYERS}
        table = self._baselines.BASELINES
        saved_baselines = dict(table)
        try:
            for name, span_name in CLI_LAYERS.items():
                setattr(self._cli, name, self._wrap(span_name, saved_cli[name]))
            for method, span_name in BASELINE_LAYERS.items():
                table[method] = self._wrap(span_name, saved_baselines[method])
            yield self
        finally:
            for name, fn in saved_cli.items():
                setattr(self._cli, name, fn)
            table.update(saved_baselines)

    @contextlib.contextmanager
    def file(self, input_name: str, method: str):
        """Root span for one single-input ``main`` call."""
        trace = FileTrace(input_name, method, wav_bytes=os.path.getsize(input_name))
        trace.spans.append(Span("cli.main", time.perf_counter()))
        self._current = trace
        try:
            yield trace
        finally:
            trace.spans[0].end = time.perf_counter()
            self._current = None
            self._results.clear()
            self._keep.clear()
            self.files.append(trace)

    def _wrap(self, span_name: str, fn):
        def traced(*args, **kwargs):
            trace = self._current
            stack = self._local.__dict__.setdefault("stack", [])
            index = len(trace.spans)
            span = Span(span_name, 0.0, parent=stack[-1] if stack else 0)
            trace.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self._account(trace, span_name, index, args, result)
            return result

        return traced

    def _account(self, trace: FileTrace, span_name: str, index: int,
                 args: tuple, result) -> None:
        if span_name in ("dsp.spectrogram", "dsp.envelope"):
            self._results[id(result)] = index
            self._keep.append(result)
            return
        if span_name in ("tracker.track", "export.render_plot"):
            for arg in args:
                if id(arg) in self._results:
                    trace.spans[self._results[id(arg)]].used = True
        if span_name == "tracker.track" or span_name.startswith("baselines."):
            trace.n_frames = result.n_frames
            trace.voiced_frames = int(result.voiced.sum())

    def dump(self, path: Path) -> None:
        """Write every recorded span as JSON, one object per traced file."""
        records = []
        for trace in self.files:
            origin = trace.spans[0].start
            records.append({
                "input": trace.input_name,
                "method": trace.method,
                "calls": trace.calls(),
                "spans": [
                    {"name": s.name, "parent": s.parent,
                     "start_ms": (s.start - origin) * 1e3,
                     "end_ms": (s.end - origin) * 1e3,
                     "self_ms": own * 1e3}
                    for s, own in zip(trace.spans, trace.self_times())
                ],
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records, indent=1), encoding="utf-8")
