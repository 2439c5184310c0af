"""Peak memory per audio second of the baselines, the tracker and the plot, on a 60 s clip.

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
# f_min=100 (the benchmark's widest lag window), on one thread: acf 0.027 and
# 0.030, yin 0.031 and 0.030, cepstrum 0.028 and 0.027. acf and yin read
# 0.026 and 0.032, 0.031 and 0.031 with hop-long segments and a second
# transform for the samples after each, and acf 0.036 and 0.048, yin 0.039
# and 0.046, cepstrum 0.036 and 0.036 while each lag block allocated a new
# array for every FFT product, conjugate, frame sum and normalisation;
# render_plot 0.068, which read 0.0765 with its dB levels built in new arrays
# and held as int64; track 0.008 (refined), which read 0.116 while argmax
# copied the whole band.
# On two threads each span's thread holds one chunk's arrays, so the
# baselines read acf 0.052 and 0.058, yin 0.053-0.060 and 0.057, cepstrum
# 0.053 and 0.052 (acf 0.049 and 0.061, yin 0.055 and 0.060 with the second
# transform; 0.069 and 0.094, 0.064-0.075 and 0.090, 0.070 and 0.070 before
# the kernels reused their buffers). With whole-clip decisions and a padded
# pooling copy they read 0.08 and 0.61, 0.16 and 1.26, 0.13 and 0.90;
# render_plot 0.59.
# On three threads those fixed few MB reach 0.073-0.090 MB per audio second
# of this one clip (0.086-0.139 before), so there the bound holds the peak's
# growth from the clip's first 30 s to all 60 s instead: at most 0.023
# (0.039 on one thread).
BOUND_MB_PER_S = 0.1
# render_plot's own bound: its value measured above, at most 10 % over it.
# Ratchet: a later change may lower it to a new measured value, never raise it.
PLOT_BOUND_MB_PER_S = 0.074
# Each baseline's own bound on one thread, by (method, f_min): its value
# measured above, at most 10 % over it, under the same ratchet.
METHOD_BOUND_MB_PER_S = {
    ("acf", 800.0): 0.028, ("acf", 100.0): 0.032,
    ("cepstrum", 800.0): 0.030, ("cepstrum", 100.0): 0.030,
    ("yin", 800.0): 0.034, ("yin", 100.0): 0.032,
}


@pytest.fixture(scope="module")
def song():
    (clip,) = generate("song", 0, 1, SECONDS)
    return AudioClip(samples=clip.samples / 32768.0, sample_rate=SAMPLE_RATE)


def peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def peak_mb_per_s(call) -> float:
    return peak_mb(call) / SECONDS


@pytest.mark.parametrize("method", sorted(BASELINES))
@pytest.mark.parametrize("f_min", [800.0, 100.0])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_baseline_peak_does_not_grow_with_the_clip(song, monkeypatch, method, f_min, threads):
    # the peak follows the thread count, so the test states it
    monkeypatch.setenv("F0_NUM_THREADS", threads)
    config = BaselineConfig(f_min=f_min)

    def call():
        BASELINES[method](song, config)

    call()  # a process's first call also imports modules that NumPy loads lazily
    bound = METHOD_BOUND_MB_PER_S[method, f_min] if threads == "1" else BOUND_MB_PER_S
    assert peak_mb_per_s(call) <= bound


@pytest.mark.parametrize("method", sorted(BASELINES))
@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_baseline_peak_growth_at_three_threads(song, monkeypatch, method, f_min):
    # what each span's thread holds is fixed, so the peak's growth from the
    # clip's first half to the whole clip is what must stay under the bound
    monkeypatch.setenv("F0_NUM_THREADS", "3")
    config = BaselineConfig(f_min=f_min)
    half = AudioClip(samples=song.samples[: len(song.samples) // 2], sample_rate=SAMPLE_RATE)
    whole_mb = peak_mb(lambda: BASELINES[method](song, config))
    half_mb = peak_mb(lambda: BASELINES[method](half, config))
    assert (whole_mb - half_mb) / (SECONDS / 2) <= BOUND_MB_PER_S


def test_plot_peak_does_not_grow_with_the_clip(song, tmp_path):
    spec, env = spectrogram(song), envelope(song)
    result = track(spec, env, TrackerConfig(refine_peak=True))
    # a real file, opened before the measurement: a StringIO would hold the
    # whole SVG text and count it in the peak
    with open(tmp_path / "song.svg", "w", encoding="utf-8", newline="\n") as fh:
        assert peak_mb_per_s(lambda: render_plot(spec, result, env, fh)) <= PLOT_BOUND_MB_PER_S


def test_track_peak_does_not_grow_with_the_clip(song):
    spec, env = spectrogram(song), envelope(song)
    config = TrackerConfig(refine_peak=True)
    assert peak_mb_per_s(lambda: track(spec, env, config)) <= BOUND_MB_PER_S
