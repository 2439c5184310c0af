"""Song-batch benchmark for f0kit: real-time factor, file latency, set-up time
and peak memory, with a per-layer trace on request.

Usage, from the repository root:

    python3 perfbench/run.py --workload song-specmax --seed 1 --seconds 30 --trace 0

Each run writes seeded 16-bit PCM clips (``songgen``), runs the real
``f0kit.cli.main`` on them in whole rounds until ``--seconds`` have passed,
checks every table, SVG and summary line against the analytic truth
(``checks``), and prints one JSON line last. With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics, which come
from single-input calls run under the span recorder (``tracing``) after the
untraced calls of each round. See README.md for the metrics, workloads and
bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import SPECMAX_BIN_HZ, Accuracy, check_operation
from songgen import SAMPLE_RATE, Clip, generate
from tracing import BASELINE_LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_STARTS = 11  # at least this many fresh starts per run
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import f0kit.cli; f0kit.cli.build_parser()")


@dataclass(frozen=True)
class Workload:
    kind: str  # songgen clip kind
    methods: tuple[str, ...]
    plot: bool
    files: int
    clip_seconds: float
    accuracy: dict[str, Accuracy]
    refine: bool = False
    fmin: float = 800.0  # the CLI default band is 800-8000 Hz

    def flags(self, method: str) -> list[str]:
        flags = ["--method", method]
        if self.refine:
            flags.append("--refine")
        if self.fmin != 800.0:
            flags += ["--fmin", f"{self.fmin:g}"]
        return flags

    def lags(self) -> int:
        """Size of the baselines' lag window [ceil(fs/8000), floor(fs/fmin)]."""
        return math.floor(SAMPLE_RATE / self.fmin) - math.ceil(SAMPLE_RATE / 8000.0) + 1


WORKLOADS = {
    # the paper's own use: spectral maximum with refinement and a plot
    "song-specmax": Workload(
        "song", ("specmax",), plot=True, files=8, clip_seconds=6.0, refine=True,
        accuracy={"specmax": Accuracy(0.98, tol_hz=SPECMAX_BIN_HZ)}),
    # the baselines over a short lag range (50 lags); the spectrogram goes unused.
    # Periods of 7-22 samples make acf and yin pick whole multiples of the
    # period, so their sub-harmonic readings count (README, "Output checks").
    "song-baselines": Workload(
        "song", ("acf", "yin", "cepstrum"), plot=False, files=4, clip_seconds=6.0,
        accuracy={"acf": Accuracy(0.9, tol_rel=0.03, period_multiple=True),
                  "yin": Accuracy(0.9, tol_rel=0.03, period_multiple=True),
                  "cepstrum": Accuracy(0.3, tol_rel=0.10, max_high_share=0.05)}),
    # the same lag loops over 436 lags, where they dominate. Below about
    # 400 Hz acf locks onto the bottom of its lag window (a known fault), so
    # its truth check covers notes above 450 Hz only.
    "lowband-baselines": Workload(
        "lowband", ("acf", "yin"), plot=False, files=2, clip_seconds=6.0, fmin=100.0,
        accuracy={"acf": Accuracy(0.95, tol_rel=0.03, min_truth_hz=450.0),
                  "yin": Accuracy(0.95, tol_rel=0.03)}),
}


def import_f0kit():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "f0kit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no f0kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import f0kit.baselines
    import f0kit.cli

    if Path(f0kit.cli.__file__).resolve().parent != SRC / "f0kit":
        raise SystemExit(f"perfbench: imported f0kit from {f0kit.cli.__file__}, not {SRC}")
    return f0kit.cli, f0kit.baselines


class Bench:
    """One run of one workload: its inputs, its counters and its samples."""

    def __init__(self, workload: Workload, seed: int, cli, work: Path):
        self.w = workload
        self.cli = cli
        self.work = work
        self.clips: dict[str, Clip] = {}
        (work / "single").mkdir(parents=True)
        for clip in generate(workload.kind, seed, workload.files, workload.clip_seconds):
            path = work / f"{clip.name}.wav"
            clip.write(path)
            self.clips[str(path)] = clip
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.batch_rates: list[float] = []  # audio s per wall s, one per round
        self.single_s: dict[str, list[float]] = {m: [] for m in workload.methods}

    def _main(self, argv: list[str]) -> tuple[float, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            started = time.perf_counter()
            self.cli.main(argv)
            elapsed = time.perf_counter() - started
        return elapsed, out.getvalue()

    def _check(self, inputs: list[str], method: str, tables: list[Path],
               svgs: list[Path | None], stdout: str) -> None:
        for name, table_path, svg_path in zip(inputs, tables, svgs):
            problems = check_operation(self.clips[name], method, self.w.accuracy[method],
                                      name, table_path, svg_path, stdout)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def batch(self, method: str) -> float:
        """One ``main`` call on every input with ``nproc`` workers; returns seconds."""
        out_dir = self.work / "batch" / method
        inputs = list(self.clips)
        tables = [out_dir / (Path(n).stem + ".f0.txt") for n in inputs]
        svgs = [out_dir / (Path(n).stem + ".f0.svg") if self.w.plot else None for n in inputs]
        for path in tables + svgs:
            if path is not None:
                path.unlink(missing_ok=True)
        argv = ["track", *inputs, *self.w.flags(method), "--out", f"{out_dir}{os.sep}"]
        if self.w.plot:
            argv += ["--plot", f"{out_dir}{os.sep}"]
        elapsed, stdout = self._main(argv)
        self._check(inputs, method, tables, svgs, stdout)
        return elapsed

    def single_paths(self, name: str, method: str) -> tuple[Path, Path | None]:
        stem = self.work / "single" / f"{Path(name).stem}.{method}"
        svg = stem.with_name(stem.name + ".f0.svg") if self.w.plot else None
        return stem.with_name(stem.name + ".f0.txt"), svg

    def single(self, name: str, method: str, tracer=None) -> float:
        """One ``main`` call on one input; returns seconds to the outputs on disk."""
        table, svg = self.single_paths(name, method)
        for path in (table, svg):
            if path is not None:
                path.unlink(missing_ok=True)
        argv = ["track", name, *self.w.flags(method), "--out", str(table)]
        if svg is not None:
            argv += ["--plot", str(svg)]
        if tracer is None:
            elapsed, stdout = self._main(argv)
        else:
            with tracer.file(name, method) as trace:
                elapsed, stdout = self._main(argv)
            trace.table_bytes = size_of(table)
            trace.svg_bytes = size_of(svg)
        self._check([name], method, [table], [svg], stdout)
        return elapsed

    def round(self, tracer=None) -> None:
        batch_s = sum(self.batch(m) for m in self.w.methods)
        audio = len(self.w.methods) * sum(c.duration for c in self.clips.values())
        self.batch_rates.append(audio / batch_s)
        for method in self.w.methods:
            for name in self.clips:
                self.single_s[method].append(self.single(name, method))
        if tracer is not None:
            with tracer.installed():
                for method in self.w.methods:
                    for name in self.clips:
                        self.single(name, method, tracer)

    def file_seconds(self, samples: dict[str, list[float]]) -> float:
        """Median single-input wall time of each method, averaged over methods."""
        return statistics.fmean(statistics.median(v) for v in samples.values())


def size_of(path: Path | None) -> int:
    return path.stat().st_size if path is not None and path.exists() else 0


def fresh_start() -> float:
    """Wall time of a fresh interpreter importing f0kit.cli and building its parser."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, setup: list[float]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "audio_s_per_s": metric(statistics.median(bench.batch_rates), "s/s"),
        "file_ms_p50": metric(bench.file_seconds(bench.single_s) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_kb * 1024 / 1e6, "MB"),
    }


def per_layer(bench: Bench, tracer, nproc: int) -> dict:
    files = tracer.files

    def per_file_ms(span_name: str) -> float:
        """Median per-file time in one layer, over the files that called it."""
        values = [t.layer_seconds(span_name) for t in files if span_name in t.calls()]
        return statistics.median(values) * 1e3 if values else 0.0

    def ns_per_frame_lag(method: str) -> float:
        span_name = BASELINE_LAYERS[method]
        values = [t.layer_seconds(span_name) / (t.n_frames * bench.w.lags()) * 1e9
                  for t in files if t.method == method]
        return statistics.median(values) if values else 0.0

    one_pass = files[:len(bench.w.methods) * len(bench.clips)]
    traced_s = {m: [t.wall for t in files if t.method == m] for m in bench.w.methods}
    load = [(t.wav_bytes / 1e6) / t.layer_seconds("audio_io.load_wav")
            for t in files if "audio_io.load_wav" in t.calls()]
    unused = [sum(s.duration for s in t.spans
                  if s.name in ("dsp.spectrogram", "dsp.envelope") and not s.used)
              for t in files]
    single_rate = bench.w.clip_seconds / bench.file_seconds(bench.single_s)
    return {
        "audio_io.load_wav_ms": metric(per_file_ms("audio_io.load_wav"), "ms"),
        "audio_io.decode_mb_per_s": metric(statistics.median(load), "MB/s"),
        "dsp.spectrogram_ms": metric(per_file_ms("dsp.spectrogram"), "ms"),
        "dsp.envelope_ms": metric(per_file_ms("dsp.envelope"), "ms"),
        "dsp.unused_spectrogram_ms": metric(statistics.median(unused) * 1e3, "ms"),
        "tracker.track_ms": metric(per_file_ms("tracker.track"), "ms"),
        "tracker.voiced_frames": metric(sum(t.voiced_frames for t in one_pass), "count"),
        "baselines.acf_ms": metric(per_file_ms(BASELINE_LAYERS["acf"]), "ms"),
        "baselines.yin_ms": metric(per_file_ms(BASELINE_LAYERS["yin"]), "ms"),
        "baselines.cepstrum_ms": metric(per_file_ms(BASELINE_LAYERS["cepstrum"]), "ms"),
        "baselines.acf_ns_per_frame_lag": metric(ns_per_frame_lag("acf"), "ns"),
        "baselines.yin_ns_per_frame_lag": metric(ns_per_frame_lag("yin"), "ns"),
        "export.export_table_ms": metric(per_file_ms("export.export_table"), "ms"),
        "export.render_plot_ms": metric(per_file_ms("export.render_plot"), "ms"),
        "export.svg_kb": metric(sum(t.svg_bytes for t in one_pass) / 1e3, "kB"),
        "export.table_kb": metric(sum(t.table_bytes for t in one_pass) / 1e3, "kB"),
        "cli.self_ms": metric(statistics.median(t.self_times()[0] for t in files) * 1e3, "ms"),
        "cli.pool_efficiency": metric(
            statistics.median(bench.batch_rates) / (nproc * single_rate), "ratio"),
        "trace.overhead_ms": metric(
            (bench.file_seconds(traced_s) - bench.file_seconds(bench.single_s)) * 1e3, "ms"),
    }


def trace_problems(tracer: Tracer) -> list[str]:
    """Span nesting per file, and identical voiced counts on every pass."""
    problems = [p for t in tracer.files for p in t.nesting_problems()]
    voiced: dict[tuple[str, str], set[int]] = {}
    for t in tracer.files:
        voiced.setdefault((t.input_name, t.method), set()).add(t.voiced_frames)
    problems += [f"{name}/{method}: voiced frames vary between passes: {sorted(v)}"
                 for (name, method), v in voiced.items() if len(v) > 1]
    return problems


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """Set up, warm up, measure whole rounds for ``seconds``; return the result line."""
    cli, baselines = import_f0kit()
    nproc = len(os.sched_getaffinity(0))
    bench = Bench(workload, seed, cli, work)
    os.environ["F0_NUM_THREADS"] = str(nproc)
    for method in workload.methods:  # untimed warm-up pass
        bench.batch(method)
    # Fresh starts are spread over the run, one per round, so that they
    # sample the machine's state as widely as the rounds do.
    setup: list[float] = []
    tracer = Tracer(cli, baselines) if trace else None
    deadline = time.perf_counter() + seconds
    while not bench.batch_rates or time.perf_counter() < deadline:
        if not trace:
            setup.append(fresh_start())
        bench.round(tracer)
    while not trace and len(setup) < SETUP_STARTS:
        setup.append(fresh_start())
    problems = list(bench.problems)
    if tracer is None:
        metrics = end_to_end(bench, setup)
    else:
        problems += trace_problems(tracer)
        metrics = per_layer(bench, tracer, nproc)
        tracer.dump(WORK / "traces" / f"{work.name}.json")
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
