import numpy as np
import pytest

from f0kit import (
    AliasingError,
    AmplitudeOverflowError,
    ConfigError,
    SynthSpec,
    synthesize,
)

SR = 44100


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            SynthSpec(kind="square")

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_bad_duration(self, duration):
        with pytest.raises(ConfigError):
            SynthSpec.tone(1000.0, duration=duration)

    @pytest.mark.parametrize("amplitude", [0.0, 1.5, -0.2])
    def test_bad_amplitude(self, amplitude):
        with pytest.raises(ConfigError):
            SynthSpec.tone(1000.0, amplitude=amplitude)

    def test_stack_needs_positive_amplitudes(self):
        with pytest.raises(ConfigError):
            synthesize(SynthSpec.harmonic_stack(1000.0, ()), SR)
        with pytest.raises(ConfigError):
            synthesize(SynthSpec.harmonic_stack(1000.0, (0.0, 0.0)), SR)
        with pytest.raises(ConfigError):
            synthesize(SynthSpec.harmonic_stack(1000.0, (1.0, -0.5)), SR)

    def test_concat_needs_parts(self):
        with pytest.raises(ConfigError):
            synthesize(SynthSpec.concat(), SR)

    @pytest.mark.parametrize("spec", [SynthSpec.tone(0.0),
                                      SynthSpec.harmonic_stack(-1.0, (1.0,)),
                                      SynthSpec.linear_chirp(-5.0, 1000.0)],
                             ids=["tone", "stack", "chirp"])
    def test_frequency_must_be_positive(self, spec):
        with pytest.raises(ConfigError, match="must be positive"):
            synthesize(spec, SR)

    def test_snr_on_silence_rejected(self):
        spec = SynthSpec(kind="silence", duration=1.0, noise_snr_db=20.0)
        with pytest.raises(ConfigError):
            synthesize(spec, SR)


class TestAliasing:
    def test_tone_at_nyquist(self):
        with pytest.raises(AliasingError):
            synthesize(SynthSpec.tone(SR / 2), SR)

    def test_harmonic_above_nyquist(self):
        with pytest.raises(AliasingError):
            synthesize(SynthSpec.harmonic_stack(8000.0, (1.0, 1.0, 1.0)), SR)

    def test_chirp_end_above_nyquist(self):
        with pytest.raises(AliasingError):
            synthesize(SynthSpec.linear_chirp(1000.0, 23000.0), SR)

    def test_just_below_nyquist_ok(self):
        clip, _ = synthesize(SynthSpec.tone(SR / 2 - 1.0), SR)
        assert len(clip.samples) == SR


class TestOverflow:
    def test_loud_noise_overflows(self):
        spec = SynthSpec.tone(1000.0, amplitude=1.0, noise_snr_db=10.0, seed=1)
        with pytest.raises(AmplitudeOverflowError):
            synthesize(spec, SR)

    def test_headroom_is_enough(self):
        spec = SynthSpec.tone(1000.0, amplitude=0.4, noise_snr_db=20.0, seed=1)
        clip, _ = synthesize(spec, SR)
        assert np.abs(clip.samples).max() <= 1.0


class TestWaveforms:
    def test_tone_is_exact_sine(self):
        clip, _ = synthesize(SynthSpec.tone(441.0, duration=0.1, amplitude=0.7), SR)
        t = np.arange(len(clip.samples)) / SR
        expected = (0.7 * np.sin(2 * np.pi * 441.0 * t)).astype(np.float32)
        np.testing.assert_array_equal(clip.samples, expected.astype(np.float64))

    def test_stack_peak_equals_amplitude(self):
        clip, _ = synthesize(
            SynthSpec.harmonic_stack(1000.0, (0.3, 0.9), amplitude=0.8), SR)
        assert np.abs(clip.samples).max() == pytest.approx(0.8, abs=1e-6)

    def test_stack_partial_ratio_preserved(self):
        clip, _ = synthesize(SynthSpec.harmonic_stack(1000.0, (0.3, 0.9)), SR)
        # 4410 samples put 1 kHz and 2 kHz exactly on bins 100 and 200
        spectrum = np.abs(np.fft.rfft(clip.samples[:4410]))
        assert spectrum[200] / spectrum[100] == pytest.approx(3.0, rel=1e-4)

    def test_silence_is_zero(self):
        clip, truth = synthesize(SynthSpec.silence(duration=0.5), SR)
        assert np.all(clip.samples == 0.0)
        assert truth.f0_at(0.25) is None

    def test_sample_count_rounding(self):
        clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.1), SR)
        assert len(clip.samples) == 4410

    def test_samples_are_float32_quantized(self):
        clip, _ = synthesize(SynthSpec.tone(997.0, duration=0.05), SR)
        assert np.array_equal(clip.samples,
                              clip.samples.astype(np.float32).astype(np.float64))


class TestGroundTruth:
    def test_tone_truth_is_exact(self):
        _, truth = synthesize(SynthSpec.tone(1234.5, duration=1.0), SR)
        for t in (0.0, 0.123, 0.999):
            assert truth.f0_at(t) == 1234.5

    def test_chirp_instantaneous_frequency(self):
        _, truth = synthesize(SynthSpec.linear_chirp(1000.0, 2000.0, duration=2.0), SR)
        assert truth.f0_at(0.0) == pytest.approx(1000.0)
        assert truth.f0_at(1.0) == pytest.approx(1500.0)
        assert truth.f0_at(2.0) == pytest.approx(2000.0)

    def test_concat_segments(self):
        spec = SynthSpec.concat(
            SynthSpec.tone(1000.0, duration=1.0),
            SynthSpec.silence(duration=1.0),
            SynthSpec.tone(1500.0, duration=1.0),
        )
        clip, truth = synthesize(spec, SR)
        assert len(clip.samples) == 3 * SR
        assert truth.f0_at(0.5) == 1000.0
        assert truth.f0_at(1.5) is None
        assert truth.f0_at(2.5) == 1500.0

    def test_vectorized_lookup(self):
        _, truth = synthesize(SynthSpec.concat(
            SynthSpec.tone(1000.0, duration=0.5),
            SynthSpec.silence(duration=0.5),
        ), SR)
        values = truth.f0_at_times(np.array([0.1, 0.7, 2.0]))
        assert values[0] == 1000.0
        assert np.isnan(values[1])
        assert np.isnan(values[2])


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = SynthSpec.tone(2000.0, amplitude=0.4, noise_snr_db=20.0, seed=42)
        a, _ = synthesize(spec, SR)
        b, _ = synthesize(spec, SR)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        a, _ = synthesize(SynthSpec.tone(2000.0, amplitude=0.4,
                                         noise_snr_db=20.0, seed=1), SR)
        b, _ = synthesize(SynthSpec.tone(2000.0, amplitude=0.4,
                                         noise_snr_db=20.0, seed=2), SR)
        assert not np.array_equal(a.samples, b.samples)

    def test_measured_snr_within_half_db(self):
        quiet, _ = synthesize(SynthSpec.tone(2000.0, amplitude=0.4), SR)
        noisy, _ = synthesize(SynthSpec.tone(2000.0, amplitude=0.4,
                                             noise_snr_db=20.0, seed=9), SR)
        noise = noisy.samples - quiet.samples
        snr = 10.0 * np.log10(np.mean(quiet.samples**2) / np.mean(noise**2))
        assert snr == pytest.approx(20.0, abs=0.5)
