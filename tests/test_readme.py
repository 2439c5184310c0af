"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

from f0kit import SynthSpec, synthesize, write_wav

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    clip, _ = synthesize(SynthSpec.tone(2000.0, duration=0.5), 44100)
    write_wav("input.wav", clip)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
