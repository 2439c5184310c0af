"""Peak RSS per audio second of ``f0 track`` on long clips, one fresh process per run.

What a run's peak grows by per second of audio, with the interpreter's and
NumPy's fixed share taken out::

    python tools/long_clip_rss.py SRC_DIR

It writes one seeded song clip from ``perfbench/songgen.py`` (imported
read-only) at each of two lengths (``--seconds``, default 60 and 240 s) in
three formats: 16-bit mono, 32-bit float mono and 16-bit stereo (the clip in
both channels). For each format and each flag set (``--refine --plot``, and
``--method yin --fmin 100``) it runs ``f0 track`` on both lengths, each in a
fresh interpreter that imports ``f0kit`` from ``SRC_DIR``, at
``F0_NUM_THREADS=1``; each child prints its own ``ru_maxrss``. Per case it
prints both peaks and (peak at the long length - peak at the short one) /
(the lengths' difference), in MB (10^6 bytes, as perfbench's
``peak_rss_mb``) per audio second.

On Linux a child's ``ru_maxrss`` starts from the memory of the process that
started it, so this process imports no NumPy and holds no clip: another
fresh interpreter writes the clips. A run's own peak is far above that
floor (about 10 MB), since importing NumPy alone takes more.
"""

from __future__ import annotations

import argparse
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
FORMATS = ("16-bit mono", "float-32 mono", "16-bit stereo")
FLAG_SETS = {
    "--refine --plot": ["--refine", "--plot", "run.f0.svg"],
    "--method yin --fmin 100": ["--method", "yin", "--fmin", "100"],
}
WRITER = ("import sys; sys.path.insert(0, sys.argv[1]); import long_clip_rss; "
          "long_clip_rss.write_clips(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))")
# the f0 child: argv is SRC_DIR, then f0's own; it prints where f0kit came
# from and its peak RSS in kB after f0's own lines
CHILD = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import f0kit.cli
code = f0kit.cli.main(sys.argv[2:])
print(f0kit.cli.__file__, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def write_clips(work: str, seed: int, seconds: float) -> None:
    """The song clip of ``seconds`` in each format, as ``work/<index in FORMATS>.wav``."""
    import numpy as np

    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    from songgen import SAMPLE_RATE, generate

    (clip,) = generate("song", seed, 1, seconds)
    codes = clip.samples
    every = (codes[:, None], (codes / 32768.0).astype(np.float32)[:, None],
             np.column_stack([codes, codes]))
    for index, frames in enumerate(every):
        tag = 3 if frames.dtype.kind == "f" else 1  # IEEE float or PCM
        channels, width = frames.shape[1], frames.dtype.itemsize
        payload = frames.astype(frames.dtype.newbyteorder("<")).tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, SAMPLE_RATE,
                                        SAMPLE_RATE * channels * width, channels * width,
                                        8 * width)
        header += b"data" + struct.pack("<I", len(payload))
        (Path(work) / f"{index}.wav").write_bytes(header + payload)


def peak_mb(src: Path, argv: list[str], cwd: str) -> float:
    """The peak RSS in MB of one ``f0`` run from ``src`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], cwd=cwd,
                          env={**os.environ, "F0_NUM_THREADS": "1"},
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"long_clip_rss: f0 {' '.join(argv)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    origin, peak_kb = proc.stdout.splitlines()[-1].rsplit(" ", 1)
    if Path(origin).resolve().parent != (src / "f0kit").resolve():
        raise SystemExit(f"long_clip_rss: imported f0kit from {origin}, not {src}")
    return int(peak_kb) * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, metavar="SRC_DIR",
                        help="the directory holding the f0kit package to run")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, nargs=2, default=[60.0, 240.0],
                        metavar=("SHORT", "LONG"), help="the two clip lengths (default 60 240)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    short, long = args.seconds
    peaks = {}  # (format, flag set) -> [peak at SHORT, peak at LONG]
    with tempfile.TemporaryDirectory() as work:
        for seconds in (short, long):
            subprocess.run([sys.executable, "-c", WRITER, str(TOOLS), work, str(args.seed),
                            str(seconds)], check=True)
            for index, fmt in enumerate(FORMATS):
                for name, flags in FLAG_SETS.items():
                    run = ["track", f"{index}.wav", *flags, "--out", "run.f0.txt"]
                    peaks.setdefault((fmt, name), []).append(peak_mb(src, run, work))
    print(f"song seed {args.seed}, {short:g} s against {long:g} s, F0_NUM_THREADS=1")
    for (fmt, name), (at_short, at_long) in peaks.items():
        print(f"  {fmt}, {name}: {at_short:.1f} MB at {short:g} s, {at_long:.1f} MB at "
              f"{long:g} s: {(at_long - at_short) / (long - short):.3f} MB per audio second")
    return 0


if __name__ == "__main__":
    sys.exit(main())
