"""Smoke test of ``tools/long_clip_rss.py``, the peak-RSS-per-audio-second tool."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_long_clip_rss_runs_every_case_on_short_clips():
    proc = subprocess.run([sys.executable, "tools/long_clip_rss.py", "src", "--seconds", "3", "4"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    head, *cases = proc.stdout.splitlines()
    assert head == "song seed 5, 3 s against 4 s, F0_NUM_THREADS=1"
    # three formats, each through the plotted specmax run and the lowband yin run
    assert len(cases) == 6, proc.stdout
    for fmt in ("16-bit mono", "float-32 mono", "16-bit stereo"):
        for flags in ("--refine --plot", "--method yin --fmin 100"):
            pattern = (rf"  {fmt}, {flags}: ([0-9.]+) MB at 3 s, ([0-9.]+) MB at 4 s: "
                       r"-?[0-9.]+ MB per audio second")
            (match,) = [m for m in map(re.compile(pattern).fullmatch, cases) if m]
            # a run's own peak: importing NumPy alone is above the tool's floor
            assert float(match.group(1)) > 20.0
