import math

import numpy as np
import pytest

from f0kit import (
    AudioClip,
    BaselineConfig,
    ClipTooShortError,
    ConfigError,
    SynthSpec,
    autocorr_pitch,
    cepstrum_pitch,
    synthesize,
    yin_pitch,
)
from f0kit.dsp import frame_signal
from conftest import random_clip
from oracles import acf_scan, cepstrum_scan, yin_scan

SR = 44100


def sine_period_100() -> AudioClip:
    # exactly 100 samples per cycle -> 441 Hz at 44.1 kHz
    t = np.arange(SR)
    samples = 0.8 * np.sin(2 * np.pi * t / 100.0)
    return AudioClip(samples=samples, sample_rate=SR)


WIDE = BaselineConfig(f_min=400.0, f_max=8000.0)


class TestConfig:
    def test_defaults(self):
        cfg = BaselineConfig()
        assert cfg.frame_size == 2048
        assert cfg.hop == 512
        assert (cfg.f_min, cfg.f_max) == (800.0, 8000.0)
        assert cfg.yin_threshold == 0.15

    def test_lag_range_default(self):
        assert BaselineConfig().lag_range(SR) == (math.ceil(SR / 8000), SR // 800)

    def test_frame_must_cover_two_periods(self):
        with pytest.raises(ConfigError):
            BaselineConfig(frame_size=256, f_min=100.0).lag_range(SR)

    def test_frame_size_boundary_message(self):
        # f_min 100 Hz at 44.1 kHz: tau_max 441, so a frame needs 882 samples
        assert BaselineConfig(frame_size=882, f_min=100.0).lag_range(SR) == (6, 441)
        with pytest.raises(ConfigError, match=r"\(needs at least 882\)"):
            BaselineConfig(frame_size=881, f_min=100.0).lag_range(SR)

    @pytest.mark.parametrize("kwargs", [
        {"frame_size": 1},
        {"hop": 0},
        {"f_min": 0.0},
        {"f_min": 900.0, "f_max": 800.0},
        {"yin_threshold": 0.0},
        {"yin_threshold": 1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BaselineConfig(**kwargs)

    def test_short_clip_rejected(self):
        clip = AudioClip(samples=np.zeros(100), sample_rate=SR)
        with pytest.raises(ClipTooShortError):
            autocorr_pitch(clip, BaselineConfig())


class TestAutocorr:
    def test_period_100_against_exhaustive_scan(self):
        clip = sine_period_100()
        frame = clip.samples[:2048]
        values, r0 = acf_scan(frame, *WIDE.lag_range(SR))
        assert r0 > 0
        assert max(values, key=values.get) == 100
        result = autocorr_pitch(clip, WIDE)
        assert result.voiced_fraction() == 1.0
        # parabolic lag refinement carries a small phase-dependent bias,
        # far below the 4.4 Hz integer-lag step at this frequency
        assert np.all(np.abs(result.voiced_f0() - 441.0) <= 1.5)

    def test_white_noise_is_unvoiced(self, rng):
        clip = random_clip(rng, 4 * 2048)
        result = autocorr_pitch(clip, BaselineConfig())
        assert result.voiced_fraction() == 0.0

    def test_all_zero_clip_unvoiced(self):
        clip = AudioClip(samples=np.zeros(4096), sample_rate=SR)
        result = autocorr_pitch(clip, BaselineConfig())
        assert result.voiced_fraction() == 0.0

    def test_band_containment(self):
        clip, _ = synthesize(SynthSpec.tone(1000.0), SR)
        result = autocorr_pitch(clip, BaselineConfig())
        f0 = result.voiced_f0()
        assert np.all((f0 >= 800.0) & (f0 <= 8000.0))


class TestYin:
    def test_period_100_within_half_hz(self):
        result = yin_pitch(sine_period_100(), WIDE)
        assert result.voiced_fraction() == 1.0
        assert np.all(np.abs(result.voiced_f0() - 441.0) <= 0.5)

    def test_matches_exhaustive_difference_scan(self):
        clip = sine_period_100()
        frame = clip.samples[:2048]
        tau_min, tau_max = WIDE.lag_range(SR)
        d, dn = yin_scan(frame, tau_max)
        assert dn[0] == 1.0
        assert np.all(dn >= 0.0)
        # perfect periodicity: the difference at the true period is ~0
        assert d[100] < 1e-18 * d[50]
        assert dn[100] < WIDE.yin_threshold

    def test_dc_constant_frame_unvoiced(self):
        clip = AudioClip(samples=np.full(4096, 0.5), sample_rate=SR)
        result = yin_pitch(clip, BaselineConfig())
        assert result.voiced_fraction() == 0.0

    def test_white_noise_mostly_unvoiced(self, rng):
        clip = random_clip(rng, 4 * 2048)
        result = yin_pitch(clip, BaselineConfig())
        assert result.voiced_fraction() <= 0.2

    def test_threshold_is_respected(self):
        clip = sine_period_100()
        strict = yin_pitch(clip, BaselineConfig(f_min=400.0, yin_threshold=0.01))
        loose = yin_pitch(clip, BaselineConfig(f_min=400.0, yin_threshold=0.5))
        assert loose.voiced.sum() >= strict.voiced.sum()


class TestCepstrum:
    def test_500hz_stack_against_naive_dft_oracle(self):
        clip, _ = synthesize(SynthSpec.harmonic_stack(500.0, (1.0,) * 6), SR)
        cfg = WIDE
        tau_min, tau_max = cfg.lag_range(SR)
        frame = frame_signal(clip.samples, cfg.frame_size, cfg.hop)[10]
        oracle = cepstrum_scan(frame, np.hamming(cfg.frame_size),
                               range(tau_min, tau_max + 1))
        q_star = max(oracle, key=oracle.get)
        assert abs(q_star - SR / 500.0) <= 1.0  # true period is 88.2 samples

        result = cepstrum_pitch(clip, cfg)
        assert result.voiced_fraction() > 0.9
        step = SR / q_star - SR / (q_star + 1)
        assert abs(np.median(result.voiced_f0()) - 500.0) <= step

    def test_pure_sine_not_asserted_voiced(self):
        # single partial: weak rahmonic, decision left to the gate
        clip, _ = synthesize(SynthSpec.tone(1000.0), SR)
        result = cepstrum_pitch(clip, BaselineConfig())
        f0 = result.voiced_f0()
        assert np.all((f0 >= 800.0) & (f0 <= 8000.0))

    def test_all_zero_clip_unvoiced(self):
        clip = AudioClip(samples=np.zeros(4096), sample_rate=SR)
        result = cepstrum_pitch(clip, BaselineConfig())
        assert result.voiced_fraction() == 0.0

    def test_rich_stack_voiced_and_accurate(self):
        clip, _ = synthesize(SynthSpec.harmonic_stack(2000.0, (1.0,) * 6), SR)
        result = cepstrum_pitch(clip, BaselineConfig())
        assert result.voiced_fraction() == 1.0
        assert np.all(np.abs(result.voiced_f0() - 2000.0) <= 25.0)


class TestSharedStructure:
    @pytest.mark.parametrize("detector", [autocorr_pitch, yin_pitch, cepstrum_pitch])
    def test_frame_grid_and_invariants(self, detector):
        clip, _ = synthesize(SynthSpec.harmonic_stack(1200.0, (1.0,) * 6), SR)
        result = detector(clip, BaselineConfig())
        n = (len(clip.samples) - 2048) // 512 + 1
        assert result.n_frames == n
        assert result.times[0] == pytest.approx(1024 / SR)
        assert np.all(np.diff(result.times) > 0)
        assert np.array_equal(result.voiced, ~np.isnan(result.f0))
        f0 = result.voiced_f0()
        assert np.all((f0 >= 800.0) & (f0 <= 8000.0))
