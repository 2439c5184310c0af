"""One sha256 over every output of ``f0 track`` on seeded song and lowband clips.

Two source trees that print the same digest wrote the same bytes: the
``f0 track --help`` text, and for every run each table, each SVG, the
summary lines (with their ``elapsed=`` times masked), everything printed to
stderr (warnings and per-file errors) and the exit code. Use it to show that
a refactor changed no output::

    python tools/output_digest.py path/to/parent/src
    python tools/output_digest.py src

It writes ``--clips`` song and lowband clips of 6 s from
``perfbench/songgen.py`` (imported read-only), then calls
``f0kit.cli.main``, imported from ``SRC_DIR``, for each flag set (specmax
with and without ``--refine``, acf, yin, cepstrum, acf and yin at
``--hop 500`` and at ``--hop 256``, yin at ``--hop 128``, and acf with two
flags it does not read, each with ``--plot``) at each band (the default,
and ``--fmin 100``) under each ``F0_NUM_THREADS`` value (1 and 2): once per
clip, and once more with every clip as one batch that writes into
``--out DIR/ --plot DIR/``. Each call is one run. At 2 threads a one-input
call splits a baseline's frames over the idle thread, and a batch runs its
inputs side by side. A hop of 500 divides neither frame size, so acf and
yin there take one segment per frame instead of sharing segments. Shared
segments are the hop, halved while the half still covers the longest lag
and 128 samples: 128 samples at the default band, where a hop of 512 holds
4 of them, 256 holds 2 and 128 is one, and the whole hop at ``--fmin 100``
(lags up to 441), where each frame spans 4 hops of 512 and yin's half
frame 2. There a hop of 256 or 128 is shorter than the longest lag, so acf
takes one segment per frame, while yin's lags reach 2 and 4 segments past
each of its own. The ``acf-unread`` set passes ``--silence-db`` and
``--yin-threshold``, so every one of its runs prints a "has no effect"
warning for each, even with ``--plot``. The inputs are named relative to
the working directory, so no temporary path reaches the hashed text; the
help text is wrapped at ``COLUMNS=80``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from songgen import generate  # noqa: E402

FLAG_SETS = {
    "specmax": ["--method", "specmax"],
    "specmax-refine": ["--method", "specmax", "--refine"],
    "acf": ["--method", "acf"],
    "yin": ["--method", "yin"],
    "cepstrum": ["--method", "cepstrum"],
    "acf-hop500": ["--method", "acf", "--hop", "500"],
    "yin-hop500": ["--method", "yin", "--hop", "500"],
    "acf-hop256": ["--method", "acf", "--hop", "256"],
    "yin-hop256": ["--method", "yin", "--hop", "256"],
    "yin-hop128": ["--method", "yin", "--hop", "128"],
    "acf-unread": ["--method", "acf", "--silence-db", "-30", "--yin-threshold", "0.2"],
}
BANDS = ([], ["--fmin", "100"])
THREADS = ("1", "2")
SECONDS = 6.0


def import_cli(src: Path):
    """``f0kit.cli`` from ``src``, never from an installed copy."""
    sys.path.insert(0, str(src))
    import f0kit.cli

    if Path(f0kit.cli.__file__).resolve().parent != (src / "f0kit").resolve():
        raise SystemExit(f"output_digest: imported f0kit from {f0kit.cli.__file__}, not {src}")
    return f0kit.cli


def run(cli, sha, argv: list[str], threads: str) -> None:
    """Hash one ``main`` call: its argv, exit code, masked summary lines and
    stderr, then the name and bytes of every file it wrote under ``out/``,
    which it removes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    summary = re.sub(r"elapsed=[0-9.]+ ms", "elapsed=* ms", stdout.getvalue())
    sha.update(f"{' '.join(argv)} threads={threads} exit={code}\n".encode())
    sha.update(summary.encode())
    sha.update(stderr.getvalue().encode())
    for output in sorted(path for path in Path("out").rglob("*") if path.is_file()):
        sha.update(f"{output}\n".encode())
        sha.update(output.read_bytes())
    shutil.rmtree("out", ignore_errors=True)


def digest(cli, names: list[str], sets: list[str]) -> tuple[str, int]:
    """The sha256 over the help text and every run of ``names`` (WAVs in the
    working directory), and the run count."""
    sha = hashlib.sha256()
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text), contextlib.suppress(SystemExit):
        cli.main(["track", "--help"])
    sha.update(help_text.getvalue().encode())
    runs = 0
    for set_name in sets:
        for band in BANDS:
            for threads in THREADS:
                os.environ["F0_NUM_THREADS"] = threads
                flags = [*FLAG_SETS[set_name], *band]
                for name in names:
                    run(cli, sha, ["track", name, *flags, "--out", "out/run.f0.txt",
                                   "--plot", "out/run.f0.svg"], threads)
                run(cli, sha, ["track", *names, *flags, "--out", "out/tables/",
                               "--plot", "out/plots/"], threads)
                runs += len(names) + 1
    return sha.hexdigest(), runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, metavar="SRC_DIR",
                        help="the directory holding the f0kit package to run")
    parser.add_argument("--seed", type=int, default=1717)
    parser.add_argument("--clips", type=int, default=2, help="clips per kind (default 2)")
    parser.add_argument("--kinds", nargs="+", choices=("song", "lowband"),
                        default=["song", "lowband"])
    parser.add_argument("--sets", nargs="+", choices=tuple(FLAG_SETS), default=list(FLAG_SETS),
                        help="flag sets to run (default: all)")
    args = parser.parse_args(argv)
    cli = import_cli(args.src.resolve())
    os.environ["COLUMNS"] = "80"  # argparse wraps the help text to the terminal
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the summary lines name the inputs as given
        try:
            names = []
            for kind in args.kinds:
                for clip in generate(kind, args.seed, args.clips, SECONDS):
                    clip.write(Path(f"{clip.name}.wav"))
                    names.append(f"{clip.name}.wav")
            hexdigest, runs = digest(cli, names, args.sets)
        finally:
            os.chdir(cwd)
    print(f"{hexdigest}  {runs} runs, {len(names)} clips, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
