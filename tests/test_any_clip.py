"""Any finite, in-range mono clip gives a valid track or a typed error.

Every method is run on clips Hypothesis draws: silent, constant, sparse
impulses, full-scale and subnormal values, shorter than one frame or many
frames long, at several sample rates and band floors. Each must return a
well-formed ``PitchTrack`` or raise an ``F0KitError``; any other exception
fails the test, and so does a ``RuntimeWarning`` (see ``pyproject.toml``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from f0kit import (
    AudioClip,
    BaselineConfig,
    F0KitError,
    PitchTrack,
    SpectrogramConfig,
    TrackerConfig,
    autocorr_pitch,
    cepstrum_pitch,
    envelope,
    spectrogram,
    track,
    yin_pitch,
)


def _specmax(clip, f_min):
    cfg = SpectrogramConfig()
    return track(spectrogram(clip, cfg), envelope(clip, cfg),
                 TrackerConfig(f_min=f_min, refine_peak=True))


# method -> (run it, its frame size); every method hops 512 samples by default
METHODS = {
    "specmax": (_specmax, 1024),
    "acf": (lambda clip, f_min: autocorr_pitch(clip, BaselineConfig(f_min=f_min)), 2048),
    "yin": (lambda clip, f_min: yin_pitch(clip, BaselineConfig(f_min=f_min)), 2048),
    "cepstrum": (lambda clip, f_min: cepstrum_pitch(clip, BaselineConfig(f_min=f_min)), 2048),
}

unit = st.floats(-1.0, 1.0, allow_nan=False)
# up to about 70 frames, so several analysis blocks are crossed
lengths = st.one_of(st.integers(1, 3000), st.integers(3000, 40000))


@st.composite
def clips(draw):
    n = draw(lengths)
    if draw(st.booleans()):
        # a drawn fill value with drawn elements scattered over it
        samples = draw(arrays(np.float64, n, elements=unit, fill=unit))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        level = draw(st.sampled_from([1.0, 1e-3, 1e-300]))
        samples = rng.uniform(-level, level, n)
    rate = draw(st.sampled_from([8000, 22050, 44100, 96000]))
    return AudioClip(samples=samples, sample_rate=rate)


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=60, deadline=None)
@given(clip=clips(), f_min=st.sampled_from([20.0, 100.0, 800.0]))
def test_any_clip_gives_a_track_or_a_typed_error(method, clip, f_min):
    run, frame_size = METHODS[method]
    try:
        result = run(clip, f_min)
    except F0KitError:
        return
    assert isinstance(result, PitchTrack)
    assert result.n_frames == (len(clip.samples) - frame_size) // 512 + 1
    assert np.all(np.diff(result.times) > 0)
    f0 = result.voiced_f0()
    assert np.all((f0 >= f_min * (1 - 1e-12)) & (f0 <= 8000.0 * (1 + 1e-12)))


@st.composite
def clips_at_any_rate(draw):
    """Tones up to Nyquist, or noise, at any sample rate from 8 to 48 kHz."""
    rate = draw(st.integers(8000, 48000))
    n = draw(st.integers(2048, 12000))
    if draw(st.booleans()):
        freq = draw(st.floats(0.05, 0.5)) * rate
        phase = draw(st.floats(0.0, 2 * np.pi))
        samples = 0.8 * np.sin(2 * np.pi * freq * np.arange(n) / rate + phase)
    else:
        samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-0.5, 0.5, n)
    return AudioClip(samples=samples, sample_rate=rate)


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=60, deadline=None)
@given(clip=clips_at_any_rate(), f_min=st.sampled_from([100.0, 800.0]))
def test_no_pitch_above_nyquist(method, clip, f_min):
    # the default f_max of 8 kHz lies above Nyquist for every rate under 16 kHz
    run, _ = METHODS[method]
    try:
        result = run(clip, f_min)
    except F0KitError:
        return
    assert np.all(result.voiced_f0() <= clip.sample_rate / 2)
