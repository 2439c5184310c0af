"""Frame-by-frame pins of the baselines' FFT lag products and array picks.

The acf and yin detectors compute their lag products by FFT, and all three
detectors pick peaks on (frame x lag) arrays, one chunk of frames at a time.
These tests hold both to the literal loops in ``oracles.py``: the lag
products to ``acf_scan`` and ``yin_scan`` within a stated rounding
tolerance, and the picks, with their parabolic refinement, exactly on every
frame, across chunk edges too.
"""

import numpy as np
import pytest

from f0kit import (
    AudioClip,
    BaselineConfig,
    SynthSpec,
    autocorr_pitch,
    cepstrum_pitch,
    synthesize,
    yin_pitch,
)
from f0kit import baselines
from f0kit.baselines import (
    BASELINES,
    _chunk_frames,
    autocorrelation,
    difference,
    pick_max,
    pick_yin,
)
from f0kit.dsp import frame_signal
from conftest import BLOCK_EDGE_FRAMES
from oracles import (
    acf_pick,
    acf_scan,
    cepstrum_pick,
    whole_clip_cepstrum_region,
    yin_pick,
    yin_scan,
)

SR = 44100

# Rounding of the FFT route, as a share of the frame energy (sum of squares).
# Measured at most 3e-14 on frames of up to 4096 samples; allowed: 1e-12.
TOL = 1e-12


def _signals():
    rng = np.random.default_rng(20261018)
    t = np.arange(4096)
    stack, _ = synthesize(
        SynthSpec.harmonic_stack(523.0, (1.0, 0.6, 0.3, 0.2), duration=0.1), SR)
    return {
        "random": rng.uniform(-0.9, 0.9, 4096),
        # exactly 100 samples per cycle: d(100) is 0 up to rounding
        "sine_period_100": 0.8 * np.sin(2 * np.pi * t / 100.0),
        "stack_523hz": stack.samples[:4096],
        "quiet_then_loud": np.concatenate([
            1e-4 * rng.standard_normal(2048),
            0.5 * np.sin(2 * np.pi * t[:2048] / 37.3),
        ]),
    }


SIGNALS = _signals()

# (frame size, f_min, frames checked per signal): the oracles are pure
# Python, so the long 436-lag window is checked on one frame per signal
CASES = [(512, 400.0, 8), (2048, 800.0, 2), (1024, 100.0, 1)]


def _case_frames(frame_size, f_min, count):
    cfg = BaselineConfig(frame_size=frame_size, f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    for name, samples in SIGNALS.items():
        frames = frame_signal(np.asarray(samples, dtype=float), frame_size, frame_size)
        yield name, frames[:count], tau_min, tau_max


@pytest.mark.parametrize("frame_size,f_min,count", CASES)
def test_autocorrelation_matches_acf_scan(frame_size, f_min, count):
    for name, frames, tau_min, tau_max in _case_frames(frame_size, f_min, count):
        r = autocorrelation(frames, tau_max)
        for j, frame in enumerate(frames):
            values, r0 = acf_scan(frame, tau_min, tau_max)
            assert abs(r[j, 0] - r0) <= TOL * r0, name
            want = np.array([values[tau] for tau in range(tau_min, tau_max + 1)])
            norm = r[j, tau_min:] / r0
            assert np.max(np.abs(norm - want)) <= TOL, name

            # chosen lag: the oracle's, unless two lags tie within rounding
            got, _ = pick_max(norm[None, :])
            lag, _, _, _ = acf_pick(want, r0, tau_min)
            if tau_min + got[0] != lag:
                assert abs(want[got[0]] - want[lag - tau_min]) <= 2 * TOL, name


@pytest.mark.parametrize("frame_size,f_min,count", CASES)
def test_difference_matches_yin_scan(frame_size, f_min, count):
    threshold = BaselineConfig().yin_threshold
    for name, frames, tau_min, tau_max in _case_frames(frame_size, f_min, count):
        d, dn = difference(frames, tau_max)
        lags, _ = pick_yin(dn, tau_min, threshold)
        for j, frame in enumerate(frames):
            d_ref, dn_ref = yin_scan(frame, tau_max)
            energy = float(np.dot(frame, frame))
            assert np.max(np.abs(d[j] - d_ref)) <= TOL * energy, name

            # chosen lag: the oracle's, unless both lags sit at d ~ 0, where
            # the FFT route cannot order them (it sets d below TOL * energy
            # to exactly 0)
            lag, _, _, _ = yin_pick(dn_ref, tau_min, tau_max, threshold)
            if lags[j] != lag:
                assert max(d_ref[lags[j]], d_ref[lag]) <= TOL * energy, name


def test_period_100_sine_picks_lag_100():
    frames = frame_signal(SIGNALS["sine_period_100"], 2048, 1024)
    cfg = BaselineConfig(f_min=400.0)
    tau_min, tau_max = cfg.lag_range(SR)
    d, dn = difference(frames, tau_max)
    assert np.all(d[:, 100] == 0.0)  # ~1e-28 in the time domain
    lags, voiced = pick_yin(dn, tau_min, cfg.yin_threshold)
    assert voiced.all() and np.all(lags == 100)
    r = autocorrelation(frames, tau_max)
    got, _ = pick_max(r[:, tau_min:] / r[:, :1])
    assert np.all(tau_min + got == 100)


def test_blocks_do_not_change_lag_products():
    # more frames than one FFT block: each row equals its own one-frame call
    rng = np.random.default_rng(7)
    frames = frame_signal(rng.uniform(-1, 1, 150 * 64 + 512), 512, 64)
    assert len(frames) > 64
    r = autocorrelation(frames, 110)
    d, _ = difference(frames, 110)
    for j in (0, 63, 64, 65, len(frames) - 1):
        assert np.array_equal(r[j], autocorrelation(frames[j : j + 1], 110)[0])
        assert np.array_equal(d[j], difference(frames[j : j + 1], 110)[0][0])


@pytest.mark.parametrize("n_frames", BLOCK_EDGE_FRAMES)
def test_blocked_cepstrum_matches_whole_clip(monkeypatch, n_frames):
    cfg = BaselineConfig(frame_size=512, hop=128, f_min=400.0)
    tau_min, tau_max = cfg.lag_range(SR)
    rng = np.random.default_rng(n_frames)
    clip = AudioClip(samples=rng.uniform(-0.9, 0.9, 512 + (n_frames - 1) * 128 + 50),
                     sample_rate=SR)
    regions = []

    def spy(rows):
        regions.append(rows)
        return pick_max(rows)

    monkeypatch.setattr(baselines, "pick_max", spy)
    cepstrum_pitch(clip, cfg)
    frames = frame_signal(clip.samples, 512, 128)
    assert len(frames) == n_frames
    # one region per chunk of frames, together the whole clip's
    assert np.array_equal(np.concatenate(regions),
                          whole_clip_cepstrum_region(frames, tau_min, tau_max))


@pytest.fixture(scope="module")
def stacks():
    """Harmonic stacks from 150 Hz to 3 kHz with silence and some noise."""
    parts = [SynthSpec.harmonic_stack(f0, (1.0, 0.5, 0.35, 0.2), duration=0.15,
                                      amplitude=0.5)
             for f0 in (150.0, 311.0, 523.0, 1234.5, 2950.0)]
    parts.insert(2, SynthSpec.silence(0.1))
    clip, _ = synthesize(SynthSpec.concat(*parts, noise_snr_db=25.0, seed=3), SR)
    return clip


def _assert_matches(result, picks, cfg):
    """Every frame as the per-frame rule has it; both of its branches taken.

    At f_min=100 the cepstrum voices every frame of this clip, so the
    unvoiced branch is required at the default band only.
    """
    n_voiced = 0
    for j, (lag, delta, _, voiced) in enumerate(picks):
        assert result.voiced[j] == voiced, j
        if voiced:
            n_voiced += 1
            want = SR / np.clip(lag + delta, SR / cfg.f_max, SR / cfg.f_min)
            assert result.f0[j] == want, j
    assert n_voiced > 0
    assert n_voiced < len(picks) or cfg.f_min != 800.0


@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_acf_picks_match_per_frame_rule(stacks, f_min):
    cfg = BaselineConfig(f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    frames = frame_signal(stacks.samples, cfg.frame_size, cfg.hop)
    r = autocorrelation(frames, tau_max)
    r0 = np.einsum("ij,ij->i", frames, frames)
    picks = [acf_pick(r[j, tau_min:] / r0[j], r0[j], tau_min) for j in range(len(frames))]
    _assert_matches(autocorr_pitch(stacks, cfg), picks, cfg)


@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_yin_picks_match_per_frame_rule(stacks, f_min):
    cfg = BaselineConfig(f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    frames = frame_signal(stacks.samples, cfg.frame_size, cfg.hop)
    _, dn = difference(frames, tau_max)
    picks = [yin_pick(row, tau_min, tau_max, cfg.yin_threshold) for row in dn]
    _assert_matches(yin_pitch(stacks, cfg), picks, cfg)


@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_cepstrum_picks_match_per_frame_rule(stacks, f_min):
    cfg = BaselineConfig(f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    frames = frame_signal(stacks.samples, cfg.frame_size, cfg.hop)
    # the detector's cepstra, recomputed with the same calls
    spectra = np.abs(np.fft.rfft(frames * np.hamming(cfg.frame_size), axis=1))
    cepstra = np.fft.irfft(np.log(spectra + 1e-12), axis=1)
    picks = [cepstrum_pick(row[tau_min : tau_max + 1], tau_min) for row in cepstra]
    _assert_matches(cepstrum_pitch(stacks, cfg), picks, cfg)


def _oracle_picks(method, clip, cfg):
    """Each frame's (lag, offset, strength, voiced) from the per-frame rule in
    ``oracles.py``, on lag products of the whole clip: as in the tests above,
    but with the cepstra computed one frame at a time, for clips of thousands
    of frames."""
    tau_min, tau_max = cfg.lag_range(SR)
    frames = frame_signal(clip.samples, cfg.frame_size, cfg.hop)
    if method == "acf":
        r = autocorrelation(frames, tau_max)
        r0 = np.einsum("ij,ij->i", frames, frames)
        return [acf_pick(r[j, tau_min:] / r0[j], r0[j], tau_min) for j in range(len(frames))]
    if method == "yin":
        _, dn = difference(frames, tau_max)
        return [yin_pick(row, tau_min, tau_max, cfg.yin_threshold) for row in dn]
    window = np.hamming(cfg.frame_size)
    return [cepstrum_pick(np.fft.irfft(np.log(np.abs(np.fft.rfft(frame * window)) + 1e-12))
                          [tau_min : tau_max + 1], tau_min) for frame in frames]


@pytest.mark.parametrize("method", ["acf", "yin", "cepstrum"])
@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_picks_match_per_frame_rule_across_chunk_edges(stacks, method, f_min):
    # a hop that gives just over two chunks of frames (1152 frames per chunk
    # at the default band, 128 at f_min=100), so frames chunk +- 1 and
    # 2 * chunk +- 1 are all checked
    cfg = BaselineConfig(f_min=f_min)
    chunk = _chunk_frames(cfg.lag_range(SR)[1] + 1)
    hop = (len(stacks.samples) - cfg.frame_size) // (2 * chunk + 2)
    cfg = BaselineConfig(f_min=f_min, hop=hop)
    picks = _oracle_picks(method, stacks, cfg)
    assert len(picks) > 2 * chunk + 1
    _assert_matches(BASELINES[method](stacks, cfg), picks, cfg)


def test_picks_match_per_frame_rules_on_rows_with_ties():
    # values on a coarse grid, so rows hold plateaus, repeated maxima and
    # values exactly at the thresholds
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 12, size=(400, 40)) / 20.0
    tau_min, threshold = 5, 0.15

    cols, peaks = pick_max(rows)
    for j, row in enumerate(rows):
        lag, _, strength, voiced = acf_pick(row, 1.0, tau_min)
        assert (tau_min + cols[j], peaks[j], peaks[j] >= 0.5) == (lag, strength, voiced)

    dn = np.concatenate([np.ones((len(rows), 1)), rows], axis=1)
    dn[::3] = np.maximum(dn[::3], threshold)  # never under the threshold
    lags, voiced = pick_yin(dn, tau_min, threshold)
    for j, row in enumerate(dn):
        want = yin_pick(row, tau_min, dn.shape[1] - 1, threshold)
        assert (lags[j], voiced[j]) == (want[0], want[3])
    assert voiced.any() and not voiced.all()
