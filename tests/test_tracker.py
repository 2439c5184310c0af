import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f0kit import (
    AudioClip,
    EmptyBandError,
    Envelope,
    FrameGridMismatchError,
    PitchTrack,
    Spectrogram,
    SpectrogramConfig,
    SynthSpec,
    TrackerConfig,
    ConfigError,
    envelope,
    spectrogram,
    synthesize,
    track,
)
from f0kit.tracker import _refine_at, db_to_ratio
from conftest import assert_frozen_view, random_clip
from oracles import _parabola

BIN_WIDTH = 44100 / 1024


def analyze(clip, tracker_cfg=None, spec_cfg=None):
    spec_cfg = spec_cfg or SpectrogramConfig()
    spec = spectrogram(clip, spec_cfg)
    env = envelope(clip, spec_cfg)
    return track(spec, env, tracker_cfg)


class TestConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert (cfg.f_min, cfg.f_max) == (800.0, 8000.0)
        assert cfg.silence_threshold_db == -40.0
        assert cfg.peak_threshold_db == -45.0
        assert cfg.refine_peak is False

    @pytest.mark.parametrize("kwargs", [
        {"f_min": 2000.0, "f_max": 1000.0},
        {"f_min": -1.0},
        {"f_min": 800.0, "f_max": 800.0},
        {"silence_threshold_db": 3.0},
        {"peak_threshold_db": 0.1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrackerConfig(**kwargs)

    def test_db_to_ratio(self):
        assert db_to_ratio(0.0) == 1.0
        assert db_to_ratio(-20.0) == pytest.approx(0.1)
        assert db_to_ratio(-40.0) == pytest.approx(0.01)


class TestTrack:
    def test_1khz_tone_all_frames_bin_23(self, tone_1khz):
        clip, _ = tone_1khz
        result = analyze(clip)
        assert result.n_frames == 85
        assert result.voiced_fraction() == 1.0
        expected = 23 * 44100 / 1024
        assert np.all(result.f0 == expected)
        assert np.all(np.abs(result.f0 - 1000.0) <= BIN_WIDTH)

    def test_all_zero_clip_fully_unvoiced(self):
        clip = AudioClip(samples=np.zeros(8192), sample_rate=44100)
        result = analyze(clip)
        assert result.voiced_fraction() == 0.0
        assert np.all(np.isnan(result.f0))

    def test_band_filter_recovers_f0_under_stronger_harmonic(self):
        spec = SynthSpec.harmonic_stack(1000.0, (0.3, 0.9))
        clip, _ = synthesize(spec, 44100)
        narrow = analyze(clip, TrackerConfig(f_min=900.0, f_max=1500.0))
        assert narrow.voiced_fraction() == 1.0
        assert np.all(np.abs(narrow.voiced_f0() - 1000.0) <= BIN_WIDTH)
        wide = analyze(clip, TrackerConfig(f_min=800.0, f_max=8000.0))
        assert np.all(np.abs(wide.voiced_f0() - 2000.0) <= BIN_WIDTH)

    def test_silence_gate_blocks_quiet_frames(self):
        spec = SynthSpec.concat(
            SynthSpec.tone(1000.0, duration=0.5),
            SynthSpec.silence(duration=0.5),
        )
        clip, _ = synthesize(spec, 44100)
        result = analyze(clip)
        # frames fully inside the silent half must be unvoiced
        inside = (result.times - 1024 / 2 / 44100 >= 0.5)
        assert not result.voiced[inside].any()
        assert result.voiced[result.times < 0.4].all()

    def test_band_endpoints_inclusive(self):
        clip, _ = synthesize(SynthSpec.tone(2000.0), 44100)
        spec = spectrogram(clip, SpectrogramConfig())
        env = envelope(clip, SpectrogramConfig())
        edge = float(spec.freq_bins[23])
        result = track(spec, env, TrackerConfig(f_min=edge, f_max=edge + 1.0))
        assert np.all(result.f0[result.voiced] == edge)

    def test_tie_breaks_to_lowest_bin(self):
        times = np.array([0.0])
        freqs = np.array([0.0, 1000.0, 2000.0, 3000.0])
        mags = np.array([[0.0], [5.0], [5.0], [1.0]])
        spec = Spectrogram(magnitudes=mags, freq_bins=freqs, frame_times=times)
        env = Envelope(values=np.array([1.0]), frame_times=times)
        result = track(spec, env, TrackerConfig(f_min=500.0, f_max=3500.0))
        assert result.f0[0] == 1000.0

    def test_empty_band_raises(self, tone_1khz):
        clip, _ = tone_1khz
        spec = spectrogram(clip, SpectrogramConfig())
        env = envelope(clip, SpectrogramConfig())
        with pytest.raises(EmptyBandError):
            track(spec, env, TrackerConfig(f_min=100.0, f_max=120.0))

    def test_frame_grid_mismatch_raises(self, tone_1khz):
        clip, _ = tone_1khz
        spec = spectrogram(clip, SpectrogramConfig())
        env = envelope(clip, SpectrogramConfig(window_size=2048))
        with pytest.raises(FrameGridMismatchError):
            track(spec, env)

    def test_times_match_spectrogram(self, tone_1khz):
        clip, _ = tone_1khz
        spec = spectrogram(clip, SpectrogramConfig())
        env = envelope(clip, SpectrogramConfig())
        result = track(spec, env)
        assert np.array_equal(result.times, spec.frame_times)

    def test_band_containment(self, rng):
        clip = random_clip(rng, 8192)
        result = analyze(clip, TrackerConfig(f_min=1000.0, f_max=3000.0))
        voiced_f0 = result.voiced_f0()
        assert np.all(voiced_f0 >= 1000.0)
        assert np.all(voiced_f0 <= 3000.0)

    def test_tightening_band_never_adds_voiced_frames(self, rng):
        clip = random_clip(rng, 16384)
        wide = analyze(clip, TrackerConfig(f_min=800.0, f_max=8000.0))
        narrow = analyze(clip, TrackerConfig(f_min=2000.0, f_max=4000.0))
        assert not np.any(narrow.voiced & ~wide.voiced)

    def test_gate_monotonicity(self, rng):
        clip = random_clip(rng, 16384)
        counts = []
        for db in (-10.0, -20.0, -40.0, -80.0):
            result = analyze(clip, TrackerConfig(silence_threshold_db=db))
            counts.append(int(result.voiced.sum()))
        assert counts == sorted(counts)

    def test_determinism(self, tone_1khz):
        clip, _ = tone_1khz
        a = analyze(clip)
        b = analyze(clip)
        assert np.array_equal(a.f0, b.f0, equal_nan=True)
        assert np.array_equal(a.voiced, b.voiced)


class TestRefinePeak:
    @pytest.mark.parametrize("row,offset", [
        ((1.0, 2.0, 1.0), 0.0),  # symmetric vertex
        ((1.0, 2.0, 2.0), 0.5),  # plateau to the right
        ((2.0, 2.0, 1.0), -0.5),  # plateau to the left
        ((2.0, 2.0, 2.0), 0.0),  # flat: no vertex
    ])
    def test_offset_at_the_middle_of_a_row(self, row, offset):
        assert _refine_at(np.array([row]), np.array([1]))[0] == offset

    def test_1khz_tone_refined_within_5hz(self, tone_1khz):
        clip, _ = tone_1khz
        result = analyze(clip, TrackerConfig(refine_peak=True))
        assert result.voiced_fraction() == 1.0
        assert np.all(np.abs(result.voiced_f0() - 1000.0) <= 5.0)

    def test_refined_f0_stays_in_band(self):
        clip, _ = synthesize(SynthSpec.tone(8000.0), 44100)
        result = analyze(clip, TrackerConfig(refine_peak=True))
        assert np.all(result.voiced_f0() <= 8000.0)
        assert np.all(result.voiced_f0() >= 800.0)


class TestPitchTrack:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PitchTrack(times=np.array([0.0, 1.0]), f0=np.array([np.nan]), config=None)

    def test_freezes_views_not_the_callers_arrays(self):
        times, f0 = np.arange(2.0), np.array([np.nan, 1.0])
        result = PitchTrack(times=times, f0=f0, config=None)
        assert_frozen_view(times, result.times)
        assert_frozen_view(f0, result.f0)

    def test_track_shares_the_spectrogram_times(self, tone_1khz):
        clip, _ = tone_1khz
        spec = spectrogram(clip, SpectrogramConfig())
        result = track(spec, envelope(clip, SpectrogramConfig()))
        assert np.shares_memory(result.times, spec.frame_times)
        assert not result.times.flags.writeable

    def test_voiced_helpers(self, tone_1khz):
        clip, _ = tone_1khz
        result = analyze(clip)
        assert result.voiced_fraction() == 1.0
        assert len(result.voiced_f0()) == result.n_frames


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.sampled_from([0.01, 0.5, 3.0]),
)
def test_scaling_invariance_property(seed, scale):
    clip = random_clip(np.random.default_rng(seed), 4096, amplitude=0.3)
    scaled = AudioClip(samples=clip.samples * scale,
                       sample_rate=clip.sample_rate)
    a = analyze(clip)
    b = analyze(scaled)
    assert np.array_equal(a.voiced, b.voiced)
    assert np.array_equal(a.f0, b.f0, equal_nan=True)


def test_refine_peak_arrays_match_scalar_calls(rng):
    left, center, right = rng.uniform(0.0, 1.0, (3, 500))
    center[:50] = left[:50]  # plateaus clamp to +-0.5
    left[50:60] = center[50:60] = right[50:60]  # collinear: offset 0
    offsets = _refine_at(np.column_stack([left, center, right]), np.ones(500, dtype=int))
    for j in range(500):
        assert offsets[j] == _parabola(left[j], center[j], right[j])


def test_refined_track_matches_per_frame_refinement(rng):
    clip = random_clip(rng, 44100)
    spec_cfg = SpectrogramConfig()
    spec, env = spectrogram(clip, spec_cfg), envelope(clip, spec_cfg)
    plain = track(spec, env, TrackerConfig(peak_threshold_db=-20.0))
    refined = track(spec, env, TrackerConfig(peak_threshold_db=-20.0, refine_peak=True))
    mags, last = spec.magnitudes, spec.magnitudes.shape[0] - 1
    assert plain.voiced.any()
    for j in np.flatnonzero(plain.voiced):
        k = int(round(plain.f0[j] / spec.bin_width))
        want = plain.f0[j]
        if 0 < k < last:
            want += _parabola(mags[k - 1, j], mags[k, j], mags[k + 1, j]) * spec.bin_width
        assert refined.f0[j] == min(max(want, 800.0), 8000.0)
