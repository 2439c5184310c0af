"""Smoke test of ``tools/output_digest.py``, the byte-identity check for refactors."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digest_runs_one_clip_and_repeats_itself():
    argv = [sys.executable, "tools/output_digest.py", "src",
            "--clips", "1", "--kinds", "song", "--sets", "yin"]
    lines = []
    for _ in range(2):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        lines.append(proc.stdout)
    # one clip through one flag set at two bands and two thread counts, once on
    # its own and once as a batch of one
    assert re.fullmatch(r"[0-9a-f]{64}  8 runs, 1 clips, seed 1717\n", lines[0])
    assert lines[0] == lines[1]
