import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f0kit import (
    AudioClip,
    ClipTooShortError,
    ConfigError,
    Envelope,
    Spectrogram,
    SpectrogramConfig,
    envelope,
    spectrogram,
)
from conftest import BLOCK_EDGE_FRAMES, assert_frozen_view, random_clip
from f0kit.dsp import frame_signal
from oracles import naive_dft_magnitudes, naive_rms, whole_clip_magnitudes, whole_clip_rms


def make_clip(samples, sample_rate=44100):
    return AudioClip(samples=np.asarray(samples, dtype=float),
                     sample_rate=sample_rate)


class TestConfig:
    def test_defaults(self):
        cfg = SpectrogramConfig()
        assert cfg.window_size == 1024
        assert cfg.hop == 512
        assert cfg.window_function == "hann"

    @pytest.mark.parametrize("bad", [0, 15, 17, 1000, -1024])
    def test_window_size_must_be_power_of_two(self, bad):
        with pytest.raises(ConfigError):
            SpectrogramConfig(window_size=bad)

    def test_overlap_bounds(self):
        assert SpectrogramConfig(window_size=64, overlap=0).hop == 64
        assert SpectrogramConfig(window_size=64, overlap=63).hop == 1
        with pytest.raises(ConfigError):
            SpectrogramConfig(window_size=64, overlap=64)
        with pytest.raises(ConfigError):
            SpectrogramConfig(window_size=64, overlap=-1)

    def test_unknown_window_function(self):
        with pytest.raises(ConfigError):
            SpectrogramConfig(window_function="kaiser")


class TestSpectrogram:
    def test_dc_with_rectangular_window(self):
        n = 64
        cfg = SpectrogramConfig(window_size=n, window_function="rectangular")
        spec = spectrogram(make_clip(np.full(n, 1.0)), cfg)
        assert spec.magnitudes[0, 0] == pytest.approx(n)
        assert np.all(spec.magnitudes[1:, 0] < 1e-9)

    def test_bin_centered_sine_with_rectangular_window(self):
        n, sr, k = 256, 44100, 10
        cfg = SpectrogramConfig(window_size=n, window_function="rectangular")
        t = np.arange(n) / sr
        spec = spectrogram(make_clip(np.sin(2 * np.pi * (k * sr / n) * t), sr), cfg)
        assert spec.magnitudes[k, 0] == pytest.approx(n / 2, rel=1e-9)

    def test_matches_naive_dft_oracle(self, rng):
        n = 128
        cfg = SpectrogramConfig(window_size=n)
        clip = random_clip(rng, n)
        spec = spectrogram(clip, cfg)
        expected = naive_dft_magnitudes(clip.samples * np.hanning(n))
        np.testing.assert_allclose(spec.magnitudes[:, 0], expected,
                                   rtol=1e-9, atol=1e-9)

    def test_frame_count_formula(self):
        cfg = SpectrogramConfig()
        clip = make_clip(np.zeros(44100))
        spec = spectrogram(clip, cfg)
        assert spec.n_frames == (44100 - 1024) // 512 + 1 == 85

    def test_frame_times_are_window_centers(self):
        cfg = SpectrogramConfig()
        spec = spectrogram(make_clip(np.zeros(4096)), cfg)
        assert spec.frame_times[0] == pytest.approx(512 / 44100)
        steps = np.diff(spec.frame_times)
        np.testing.assert_allclose(steps, 512 / 44100, rtol=1e-12)

    def test_freq_bins_exact(self):
        spec = spectrogram(make_clip(np.zeros(2048)), SpectrogramConfig())
        assert spec.freq_bins[0] == 0.0
        assert spec.freq_bins[-1] == 44100 / 2
        assert spec.freq_bins[23] == 23 * 44100 / 1024
        assert len(spec.freq_bins) == 513

    def test_trailing_partial_frame_dropped(self):
        cfg = SpectrogramConfig(window_size=64, overlap=0)
        spec = spectrogram(make_clip(np.zeros(64 * 3 + 63)), cfg)
        assert spec.n_frames == 3

    def test_parseval_with_rectangular_window(self, rng):
        n = 256
        cfg = SpectrogramConfig(window_size=n, window_function="rectangular")
        clip = random_clip(rng, n)
        spec = spectrogram(clip, cfg)
        one_sided_sq = spec.magnitudes[:, 0] ** 2
        two_sided = one_sided_sq[0] + one_sided_sq[-1] + 2 * one_sided_sq[1:-1].sum()
        assert two_sided / n == pytest.approx(np.sum(clip.samples**2), rel=1e-6)

    def test_linearity_in_amplitude(self, rng):
        clip = random_clip(rng, 2048, amplitude=0.25)
        scaled = AudioClip(samples=clip.samples * 3.0,
                           sample_rate=clip.sample_rate)
        a = spectrogram(clip, SpectrogramConfig())
        b = spectrogram(scaled, SpectrogramConfig())
        np.testing.assert_allclose(b.magnitudes, 3.0 * a.magnitudes, rtol=1e-9)

    def test_hop_shift_moves_one_column(self, rng):
        cfg = SpectrogramConfig()
        clip = random_clip(rng, 4096)
        shifted = AudioClip(samples=clip.samples[cfg.hop:],
                            sample_rate=clip.sample_rate)
        a = spectrogram(clip, cfg)
        b = spectrogram(shifted, cfg)
        assert np.array_equal(b.magnitudes, a.magnitudes[:, 1 : b.n_frames + 1])

    def test_too_short_clip(self):
        with pytest.raises(ClipTooShortError):
            spectrogram(make_clip(np.zeros(1023)), SpectrogramConfig())

    def test_magnitudes_nonnegative(self, rng):
        spec = spectrogram(random_clip(rng, 4096), SpectrogramConfig())
        assert np.all(spec.magnitudes >= 0)


def test_spectrogram_freezes_views_not_the_callers_arrays():
    mags, freqs, times = np.ones((3, 2)), np.arange(3.0), np.arange(2.0)
    spec = Spectrogram(magnitudes=mags, freq_bins=freqs, frame_times=times)
    for given, stored in ((mags, spec.magnitudes), (freqs, spec.freq_bins),
                          (times, spec.frame_times)):
        assert_frozen_view(given, stored)


def test_envelope_freezes_views_not_the_callers_arrays():
    values, times = np.ones(2), np.arange(2.0)
    env = Envelope(values=values, frame_times=times)
    assert_frozen_view(values, env.values)
    assert_frozen_view(times, env.frame_times)


class TestEnvelope:
    def test_zero_clip(self):
        env = envelope(make_clip(np.zeros(4096)), SpectrogramConfig())
        assert np.all(env.values == 0.0)

    def test_constant_half(self):
        env = envelope(make_clip(np.full(4096, 0.5)), SpectrogramConfig())
        np.testing.assert_allclose(env.values, 0.5, rtol=1e-12)

    def test_sine_rms_near_inverse_sqrt2(self):
        sr = 44100
        t = np.arange(sr) / sr
        env = envelope(make_clip(np.sin(2 * np.pi * 1000.0 * t), sr),
                       SpectrogramConfig())
        np.testing.assert_allclose(env.values, 1 / np.sqrt(2), rtol=0.01)

    def test_matches_direct_summation_oracle(self, rng):
        cfg = SpectrogramConfig(window_size=64, overlap=32)
        clip = random_clip(rng, 200)
        env = envelope(clip, cfg)
        for j, value in enumerate(env.values):
            frame = clip.samples[j * 32 : j * 32 + 64]
            assert value == pytest.approx(naive_rms(frame), rel=1e-12)

    def test_envelope_is_unwindowed(self):
        # a hann config must not taper the envelope frames
        cfg = SpectrogramConfig(window_size=256, window_function="hann")
        env = envelope(make_clip(np.full(1024, 0.5)), cfg)
        np.testing.assert_allclose(env.values, 0.5, rtol=1e-12)

    def test_same_frame_grid_as_spectrogram(self, rng):
        cfg = SpectrogramConfig(window_size=512, overlap=128)
        clip = random_clip(rng, 9999)
        spec = spectrogram(clip, cfg)
        env = envelope(clip, cfg)
        assert np.array_equal(spec.frame_times, env.frame_times)


@settings(max_examples=25, deadline=None)
@given(
    n_samples=st.integers(min_value=1024, max_value=5000),
    window_size=st.sampled_from([64, 256, 1024]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_frame_count_property(n_samples, window_size, seed):
    cfg = SpectrogramConfig(window_size=window_size)
    clip = random_clip(np.random.default_rng(seed), n_samples)
    spec = spectrogram(clip, cfg)
    assert spec.n_frames == (n_samples - window_size) // cfg.hop + 1
    assert isinstance(spec, Spectrogram)
    assert spec.magnitudes.shape == (window_size // 2 + 1, spec.n_frames)


@pytest.mark.parametrize("n_frames", BLOCK_EDGE_FRAMES)
@pytest.mark.parametrize("window_function,window", [
    ("hann", np.hanning), ("hamming", np.hamming), ("rectangular", np.ones)])
def test_blocked_analysis_matches_whole_clip(rng, n_frames, window_function, window):
    cfg = SpectrogramConfig(window_size=256, overlap=192, window_function=window_function)
    # plus a tail shorter than one hop, which framing drops
    clip = random_clip(rng, 256 + (n_frames - 1) * cfg.hop + 37)
    frames = frame_signal(clip.samples, 256, cfg.hop)
    spec = spectrogram(clip, cfg)
    env = envelope(clip, cfg)
    assert spec.n_frames == env.n_frames == n_frames
    assert np.array_equal(spec.magnitudes, whole_clip_magnitudes(frames, window(256)))
    assert np.array_equal(env.values, whole_clip_rms(frames))
    times = (np.arange(n_frames) * cfg.hop + 128) / clip.sample_rate
    assert np.array_equal(spec.frame_times, times)
    assert np.array_equal(env.frame_times, times)
