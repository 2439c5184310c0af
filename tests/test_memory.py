"""Peak memory per audio second of the baselines and the plot, on a 60 s clip.

Only the samples and the spectrogram need to be held whole. Each call here
gets those as its input, and what it allocates beyond them must not grow
with the clip: ``tracemalloc`` counts NumPy's buffers, so the peaks repeat
exactly from run to run. The clip is perfbench's canary-like song, imported
read-only from ``perfbench/songgen.py``.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from f0kit import (
    AudioClip,
    BaselineConfig,
    TrackerConfig,
    envelope,
    render_plot,
    spectrogram,
    track,
)
from f0kit.baselines import BASELINES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from songgen import SAMPLE_RATE, generate  # noqa: E402

SECONDS = 60.0
# MB per audio second. Measured on this clip, at the default band and at
# f_min=100 (the benchmark's widest lag window): acf 0.046 and 0.048, yin
# 0.039 and 0.035, cepstrum 0.056 and 0.037; render_plot 0.080. With
# whole-clip decisions and a padded pooling copy they read 0.08 and 0.61,
# 0.16 and 1.26, 0.13 and 0.90; render_plot 0.59.
BOUND_MB_PER_S = 0.1


@pytest.fixture(scope="module")
def song():
    (clip,) = generate("song", 0, 1, SECONDS)
    return AudioClip(samples=clip.samples / 32768.0, sample_rate=SAMPLE_RATE)


def peak_mb_per_s(call) -> float:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6 / SECONDS


@pytest.mark.parametrize("method", sorted(BASELINES))
@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_baseline_peak_does_not_grow_with_the_clip(song, method, f_min):
    config = BaselineConfig(f_min=f_min)
    assert peak_mb_per_s(lambda: BASELINES[method](song, config)) <= BOUND_MB_PER_S


def test_plot_peak_does_not_grow_with_the_clip(song, tmp_path):
    spec, env = spectrogram(song), envelope(song)
    result = track(spec, env, TrackerConfig(refine_peak=True))
    # a real file, opened before the measurement: a StringIO would hold the
    # whole SVG text and count it in the peak
    with open(tmp_path / "song.svg", "w", encoding="utf-8", newline="\n") as fh:
        assert peak_mb_per_s(lambda: render_plot(spec, result, env, fh)) <= BOUND_MB_PER_S
