"""Batch command-line front end.

``f0 track`` runs the full pipeline per input file: load (as mono), the
spectrogram and envelope (specmax or --plot only), the pitch method, then
table (and optional plot) export. Files run on the process's one thread
pool and every output is written atomically, so a crashed run never leaves
a truncated table behind. Errors exit with their class's ``exit_code``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .audio_io import load_wav
from .baselines import BASELINES, BaselineConfig
from .dsp import WINDOW_FUNCTIONS, SpectrogramConfig, _submit, _thread_limit, envelope, spectrogram
from .errors import ConfigError, F0KitError
from .export import export_table, render_plot
from .tracker import TrackerConfig, track

METHODS = ("specmax", *BASELINES)

# each config flag once: flag -> (the config field it sets, its argparse keywords);
# a run reads a flag if one of its configs has that field (see _resolve)
_FLAGS = {
    "--fmin": ("f_min", dict(type=float, metavar="HZ", help="lower band edge (default 800)")),
    "--fmax": ("f_max", dict(type=float, metavar="HZ", help="upper band edge (default 8000)")),
    "--window": ("window_size", dict(
        type=int, metavar="N",
        help="spectrogram window size in samples, power of two (default 1024)")),
    "--overlap": ("overlap", dict(
        type=int, metavar="N", help="spectrogram overlap in samples (default window/2)")),
    "--window-fn": ("window_function", dict(
        choices=WINDOW_FUNCTIONS, help="spectrogram window function (default hann)")),
    "--silence-db": ("silence_threshold_db", dict(
        type=float, metavar="DB", help="silence gate relative to max envelope (default -40)")),
    "--peak-db": ("peak_threshold_db", dict(
        type=float, metavar="DB", help="peak gate relative to max magnitude (default -45)")),
    "--refine": ("refine_peak", dict(
        action="store_true", help="parabolic refinement of the spectral peak")),
    "--frame-size": ("frame_size", dict(
        type=int, metavar="N", help="baseline frame size in samples (default 2048)")),
    "--hop": ("hop", dict(type=int, metavar="N", help="baseline hop in samples (default 512)")),
    "--yin-threshold": ("yin_threshold", dict(
        type=float, metavar="X", help="voicing threshold for the yin method (default 0.15)")),
}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, F0KitError):
        return exc.exit_code
    return 13 if isinstance(exc, OSError) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use: building costs about 7x the parse."""
    parser = argparse.ArgumentParser(
        prog="f0", description="Fundamental-frequency estimation for tonal sounds."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("track", help="estimate f0 tables (and plots) for WAV files")
    p.add_argument("inputs", nargs="+", help="input WAV files")
    p.add_argument("--method", choices=METHODS, default="specmax")
    for flag, (field, keywords) in _FLAGS.items():
        p.add_argument(flag, dest=field, default=None, **keywords)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="table destination; a directory when given several inputs")
    p.add_argument("--plot", default=None, metavar="PATH",
                   help="SVG destination; a directory when given several inputs")
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configs this run reads before running")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="report per-file progress on stderr")
    return parser


def _resolve(args) -> dict[type, object]:
    """The configs this run reads, keyed by class, built from the flags given.

    Specmax reads a ``TrackerConfig``, a baseline a ``BaselineConfig``, and
    the spectrogram config is read by specmax and by every ``--plot``. Only
    these are built, so only they check their values; a flag that none of
    them reads (or ``--yin-threshold`` outside yin) draws a warning instead.
    """
    classes = [TrackerConfig if args.method == "specmax" else BaselineConfig]
    if args.method == "specmax" or args.plot is not None:
        classes.insert(0, SpectrogramConfig)
    read = {f.name for cls in classes for f in fields(cls)}
    if args.method != "yin":
        read.discard("yin_threshold")
    for flag, (field, _) in _FLAGS.items():
        if getattr(args, field) is not None and field not in read:
            print(f"f0: warning: {flag} has no effect with method {args.method}", file=sys.stderr)
    return {cls: cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                        if f.name in read and getattr(args, f.name) is not None})
            for cls in classes}


def _dump_config(method: str, configs: dict[type, object]) -> None:
    print(f"method={method}")
    for cls, cfg in configs.items():
        prefix = cls.__name__.removesuffix("Config").lower()
        for name, value in sorted(vars(cfg).items()):
            print(f"{prefix}.{name}={value}")


def _destination(base: str | None, input_path: Path, suffix: str,
                 multi: bool) -> tuple[Path, Path | None]:
    """The output path for one input, and the directory it needs, if any.

    With several inputs (or when the target is a directory) ``base`` names a
    directory and each file gets ``<stem><suffix>`` inside it; otherwise it
    names the file, and its parent is the directory needed. Creates nothing.
    """
    if base is None:
        return input_path.with_name(input_path.stem + suffix), None
    base_path = Path(base)
    if multi or base_path.is_dir() or str(base).endswith(os.sep):
        return base_path / (input_path.stem + suffix), base_path
    return base_path, base_path.parent


def _atomic_write(path: Path, write) -> None:
    # mode "x" is O_CREAT | O_EXCL at mode 0o666, so the umask sets the output's
    # permissions as for any new file (mkstemp's 0o600 would reach the output
    # through os.replace); opened outside the try, so a clash on the temp name
    # never unlinks a file that is not ours
    tmp_name = str(path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp"))
    stream = open(tmp_name, "x", encoding="utf-8", newline="\n")
    try:
        with stream:
            write(stream)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _process_one(input_name: str, method: str, configs: dict[type, object],
                 table_path: Path, plot_path: Path | None, verbose: bool) -> str:
    started = time.perf_counter()
    clip = load_wav(input_name)
    if SpectrogramConfig in configs:
        spec = spectrogram(clip, configs[SpectrogramConfig])
        env = envelope(clip, configs[SpectrogramConfig])
    if method == "specmax":
        result = track(spec, env, configs[TrackerConfig])
    else:
        result = BASELINES[method](clip, configs[BaselineConfig])
    del clip  # nothing below reads the samples: free them before the outputs
    _atomic_write(table_path, lambda stream: export_table(result, stream))
    if plot_path is not None:
        _atomic_write(plot_path, lambda stream: render_plot(spec, result, env, stream))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if verbose:
        print(f"f0: {input_name} -> {table_path}"
              + (f" + {plot_path}" if plot_path else ""), file=sys.stderr)
    return (f"{input_name}: frames={result.n_frames} "
            f"voiced={100.0 * result.voiced_fraction():.1f}% "
            f"elapsed={elapsed_ms:.1f} ms")


def _plan(args) -> list[tuple[str, Path, Path | None]]:
    """(input, table path, plot path) per input; no output may share a path with
    another output or with an input. Directories are made after every check."""
    multi = len(args.inputs) > 1
    jobs, claimed = [], dict.fromkeys(Path(name).resolve() for name in args.inputs)
    directories = {}  # ordered, so the first failing check is always the same
    for name in args.inputs:
        input_path = Path(name)
        table_path, table_dir = _destination(args.out, input_path, ".f0.txt", multi)
        plot_path, plot_dir = (_destination(args.plot, input_path, ".f0.svg", multi)
                               if args.plot is not None else (None, None))
        directories.update(dict.fromkeys(filter(None, (table_dir, plot_dir))))
        for path in filter(None, (table_path, plot_path)):
            key = path.resolve()
            if key in claimed and claimed[key] is None:
                raise ConfigError(f"{name} would write {path} over an input")
            if key in claimed:
                raise ConfigError(f"{claimed[key]} and {name} would both write {path}")
            claimed[key] = name
        jobs.append((name, table_path, plot_path))
    for directory in directories:
        nearest = next(p for p in (directory, *directory.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"cannot make output directory {directory}: {nearest} is a file")
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
    return jobs


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configs = _resolve(args)
        _thread_limit()  # a bad F0_NUM_THREADS fails here, before any work
        jobs = _plan(args)
    except (ConfigError, OSError) as exc:
        print(f"f0: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    if args.dump_config:
        _dump_config(args.method, configs)

    status = 0
    futures = [_submit(_process_one, name, args.method, configs, table_path, plot_path,
                       args.verbose)
               for name, table_path, plot_path in jobs]
    for (name, _, _), future in zip(jobs, futures):
        try:
            print(future.result())
        except Exception as exc:
            print(f"f0: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if status == 0:
                status = exit_code_for(exc)
    return status


if __name__ == "__main__":
    sys.exit(main())
