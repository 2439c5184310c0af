"""Frame-by-frame pins of the baselines' FFT lag products and array picks.

The acf and yin detectors compute their lag products by FFT, from segments
shared between overlapping frames where the hop allows, and all three
detectors pick peaks on (frame x lag) arrays, one chunk of frames at a time.
These tests hold both to the literal loops in ``oracles.py``: the lag
products to ``acf_scan`` and ``yin_scan`` within a stated rounding
tolerance, on one-segment and shared-segment geometries, and the picks,
with their parabolic refinement, exactly on every frame, across chunk edges
too. The lag products and the cepstrum are also held bit for bit to the
library's former whole-array expressions (``oracles.whole_clip_*``), so a
reordered sum or a swapped complex product fails here, not only in a digest.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
from conftest import BLOCK_EDGE_FRAMES
from oracles import (
    acf_pick,
    acf_scan,
    cepstrum_pick,
    whole_clip_autocorrelation,
    whole_clip_cepstrum_region,
    whole_clip_difference,
    yin_pick,
    yin_scan,
)

SR = 44100

# Rounding of the FFT route, as a share of the frame energy (sum of squares).
# Measured at most 3e-14 on frames of up to 4096 samples, and 4e-15 with
# segments shared between frames; allowed: 1e-12.
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
        frames = sliding_window_view(np.asarray(samples, dtype=float), frame_size)[::frame_size]
        yield name, frames[:count], tau_min, tau_max


def _assert_acf_matches_scan(name, frames, r, tau_min, tau_max, checked):
    for j in checked:
        frame = frames[j]
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


def _assert_difference_matches_scan(name, frames, d, dn, tau_min, tau_max, checked):
    threshold = BaselineConfig().yin_threshold
    lags, _ = pick_yin(dn, tau_min, threshold)
    for j in checked:
        frame = frames[j]
        d_ref, dn_ref = yin_scan(frame, tau_max)
        energy = float(np.dot(frame, frame))
        assert np.max(np.abs(d[j] - d_ref)) <= TOL * energy, name

        # chosen lag: the oracle's, unless both lags sit at d ~ 0, where
        # the FFT route cannot order them (it sets d below TOL * energy
        # to exactly 0)
        lag, _, _, _ = yin_pick(dn_ref, tau_min, tau_max, threshold)
        if lags[j] != lag:
            assert max(d_ref[lags[j]], d_ref[lag]) <= TOL * energy, name


@pytest.mark.parametrize("frame_size,f_min,count", CASES)
def test_autocorrelation_matches_acf_scan(frame_size, f_min, count):
    for name, frames, tau_min, tau_max in _case_frames(frame_size, f_min, count):
        _assert_acf_matches_scan(name, frames, autocorrelation(frames, tau_max, frame_size),
                                 tau_min, tau_max, range(len(frames)))


@pytest.mark.parametrize("frame_size,f_min,count", CASES)
def test_difference_matches_yin_scan(frame_size, f_min, count):
    for name, frames, tau_min, tau_max in _case_frames(frame_size, f_min, count):
        d, dn = difference(frames, tau_max, frame_size)
        _assert_difference_matches_scan(name, frames, d, dn, tau_min, tau_max,
                                        range(len(frames)))


# (frame size, hop, f_min) at which frames hop apart share their segments: both
# benchmark bands at the default frame and hop, and a short frame
SHARED = [(2048, 512, 800.0), (2048, 512, 100.0), (512, 128, 400.0)]


def _shared_frames(frame_size, hop, f_min):
    """Each signal's overlapping frames, with the ones the oracles check: the
    first, middle and last, or only the middle on the long lag window (the
    oracles are pure Python). The middle frame of ``quiet_then_loud`` holds
    the quiet half and then the loud half."""
    tau_min, tau_max = BaselineConfig(frame_size=frame_size, hop=hop, f_min=f_min).lag_range(SR)
    for name, samples in SIGNALS.items():
        frames = sliding_window_view(np.asarray(samples, dtype=float), frame_size)[::hop]
        n = len(frames)
        checked = [n // 2] if tau_max > 200 else [0, n // 2, n - 1]
        yield name, frames, tau_min, tau_max, checked


@pytest.mark.parametrize("frame_size,hop,f_min", SHARED)
def test_shared_autocorrelation_matches_acf_scan(frame_size, hop, f_min):
    for name, frames, tau_min, tau_max, checked in _shared_frames(frame_size, hop, f_min):
        _assert_acf_matches_scan(name, frames, autocorrelation(frames, tau_max, hop),
                                 tau_min, tau_max, checked)


@pytest.mark.parametrize("frame_size,hop,f_min", SHARED)
def test_shared_difference_matches_yin_scan(frame_size, hop, f_min):
    for name, frames, tau_min, tau_max, checked in _shared_frames(frame_size, hop, f_min):
        d, dn = difference(frames, tau_max, hop)
        _assert_difference_matches_scan(name, frames, d, dn, tau_min, tau_max, checked)


@pytest.mark.parametrize("frame_size,hop,f_min,products", [
    # the hop divides neither the frame nor the half frame
    (2048, 500, 800.0, (autocorrelation, difference)),
    # tau_max 441 > hop: acf's Y_k would reach past the next segment
    (1024, 256, 100.0, (autocorrelation,)),
])
def test_geometries_outside_the_shared_route_take_one_segment(frame_size, hop, f_min,
                                                              products):
    tau_max = BaselineConfig(frame_size=frame_size, hop=hop, f_min=f_min).lag_range(SR)[1]
    for samples in SIGNALS.values():
        frames = sliding_window_view(np.asarray(samples, dtype=float), frame_size)[::hop]
        for product in products:
            np.testing.assert_array_equal(product(frames, tau_max, hop),
                                          product(frames, tau_max, frame_size))


def test_period_100_sine_picks_lag_100():
    frames = sliding_window_view(SIGNALS["sine_period_100"], 2048)[::1024]
    cfg = BaselineConfig(f_min=400.0)
    tau_min, tau_max = cfg.lag_range(SR)
    d, dn = difference(frames, tau_max, 2048)
    assert np.all(d[:, 100] == 0.0)  # ~1e-28 in the time domain
    lags, voiced = pick_yin(dn, tau_min, cfg.yin_threshold)
    assert voiced.all() and np.all(lags == 100)
    r = autocorrelation(frames, tau_max, 2048)
    got, _ = pick_max(r[:, tau_min:] / r[:, :1])
    assert np.all(tau_min + got == 100)


@pytest.mark.parametrize("frame_size,hop,tau_max", [
    (512, 512, 110),  # one segment per frame
    (512, 64, 110),  # yin shares 4 segments; acf keeps one, as tau_max > hop
    (2048, 512, 441),  # both share
])
def test_blocks_do_not_change_lag_products(frame_size, hop, tau_max):
    # more frames than one FFT block: each row equals its own one-frame call,
    # which is what keeps tracks byte-identical across thread counts
    rng = np.random.default_rng(7)
    frames = sliding_window_view(rng.uniform(-1, 1, 150 * hop + frame_size), frame_size)[::hop]
    assert len(frames) > 64
    r = autocorrelation(frames, tau_max, hop)
    d, _ = difference(frames, tau_max, hop)
    for j in (0, 63, 64, 65, len(frames) - 1):
        assert np.array_equal(r[j], autocorrelation(frames[j : j + 1], tau_max, hop)[0])
        assert np.array_equal(d[j], difference(frames[j : j + 1], tau_max, hop)[0][0])


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
    frames = sliding_window_view(clip.samples, 512)[::128]
    assert len(frames) == n_frames
    whole = whole_clip_cepstrum_region(frames, tau_min, tau_max)
    # one region per chunk of frames, together the whole clip's; spans of chunks
    # may finish in either order, so each region is keyed by its first frame
    first = {next(j for j, row in enumerate(whole) if np.array_equal(row, region[0])): region
             for region in regions}
    assert len(first) == len(regions)
    assert np.array_equal(np.concatenate([first[j] for j in sorted(first)]), whole)


# (frame size, hop, f_min): acf and yin take 2 and 1 segments per frame, 4 and
# 2, 8 and 4, 16 and 8; 4 and 2, then 1 (tau_max 441 > hop) and 4, over the
# 442-lag window; and one segment each at a hop that divides neither
EXACT = [(2048, 1024, 800.0), (2048, 512, 800.0), (2048, 256, 800.0), (2048, 128, 800.0),
         (2048, 512, 100.0), (2048, 256, 100.0), (2048, 500, 800.0)]


def _exact_clip(frame_size, hop, n_frames):
    """``n_frames`` frames ``hop`` apart of noise, then silence longer than a
    frame (r(0) = 0, d' = 1), then a sine of period 100 (d(100) ~ 0)."""
    rng = np.random.default_rng(hop)
    n = (n_frames - 1) * hop + frame_size
    samples = 0.8 * np.sin(2 * np.pi * np.arange(n) / 100.0)
    samples[: n // 3] = rng.uniform(-0.9, 0.9, n // 3)
    samples[n // 3 : n // 3 + frame_size + hop] = 0.0
    return AudioClip(samples=samples, sample_rate=SR)


@pytest.mark.parametrize("frame_size,hop,f_min", EXACT)
def test_lag_products_equal_the_former_expressions(frame_size, hop, f_min):
    # 150 frames: two edges of the 64-frame lag blocks
    tau_max = BaselineConfig(frame_size=frame_size, hop=hop, f_min=f_min).lag_range(SR)[1]
    frames = sliding_window_view(_exact_clip(frame_size, hop, 150).samples, frame_size)[::hop]
    assert np.array_equal(autocorrelation(frames, tau_max, hop),
                          whole_clip_autocorrelation(frames, tau_max, hop))
    d, dn = difference(frames, tau_max, hop)
    d_ref, dn_ref = whole_clip_difference(frames, tau_max, hop)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(dn, dn_ref)


@pytest.mark.parametrize("hop", [512, 256])
def test_decisions_read_the_former_expressions_across_chunk_edges(monkeypatch, hop):
    # at f_min=100 a chunk is 128 frames; 261 frames give two chunk edges.
    # One thread runs one span, so the chunks reach the picks in order.
    monkeypatch.setenv("F0_NUM_THREADS", "1")
    cfg = BaselineConfig(f_min=100.0, hop=hop)
    tau_min, tau_max = cfg.lag_range(SR)
    chunk = _chunk_frames(tau_max + 1)
    clip = _exact_clip(cfg.frame_size, hop, 2 * chunk + 5)
    frames = sliding_window_view(clip.samples, cfg.frame_size)[::hop]
    r = whole_clip_autocorrelation(frames, tau_max, hop)[:, tau_min:]
    r0 = np.einsum("ij,ij->i", frames, frames)[:, None]
    expected = {
        autocorr_pitch: np.divide(r, r0, out=np.zeros_like(r), where=r0 > 0.0),
        yin_pitch: whole_clip_difference(frames, tau_max, hop)[1],
        cepstrum_pitch: whole_clip_cepstrum_region(frames, tau_min, tau_max),
    }
    for detector, want in expected.items():
        seen = []
        monkeypatch.setattr(baselines, "pick_max",
                            lambda rows: seen.append(rows.copy()) or pick_max(rows))
        monkeypatch.setattr(baselines, "pick_yin",
                            lambda dn, *args: seen.append(dn.copy()) or pick_yin(dn, *args))
        detector(clip, cfg)
        assert len(seen) == 3
        assert np.array_equal(np.concatenate(seen), want), detector.__name__


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
    frames = sliding_window_view(stacks.samples, cfg.frame_size)[::cfg.hop]
    r = autocorrelation(frames, tau_max, cfg.hop)
    r0 = np.einsum("ij,ij->i", frames, frames)
    picks = [acf_pick(r[j, tau_min:] / r0[j], r0[j], tau_min) for j in range(len(frames))]
    _assert_matches(autocorr_pitch(stacks, cfg), picks, cfg)


@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_yin_picks_match_per_frame_rule(stacks, f_min):
    cfg = BaselineConfig(f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    frames = sliding_window_view(stacks.samples, cfg.frame_size)[::cfg.hop]
    _, dn = difference(frames, tau_max, cfg.hop)
    picks = [yin_pick(row, tau_min, tau_max, cfg.yin_threshold) for row in dn]
    _assert_matches(yin_pitch(stacks, cfg), picks, cfg)


@pytest.mark.parametrize("f_min", [800.0, 100.0])
def test_cepstrum_picks_match_per_frame_rule(stacks, f_min):
    cfg = BaselineConfig(f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    frames = sliding_window_view(stacks.samples, cfg.frame_size)[::cfg.hop]
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
    frames = sliding_window_view(clip.samples, cfg.frame_size)[::cfg.hop]
    if method == "acf":
        r = autocorrelation(frames, tau_max, cfg.hop)
        r0 = np.einsum("ij,ij->i", frames, frames)
        return [acf_pick(r[j, tau_min:] / r0[j], r0[j], tau_min) for j in range(len(frames))]
    if method == "yin":
        _, dn = difference(frames, tau_max, cfg.hop)
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


@pytest.mark.parametrize("method", ["acf", "yin"])
def test_shared_picks_match_per_frame_rule_across_chunk_edges(stacks, method):
    # the default hop shares segments; four copies of the stacks give more
    # than two 128-frame chunks at f_min=100
    clip = AudioClip(samples=np.tile(stacks.samples, 4), sample_rate=SR)
    cfg = BaselineConfig(f_min=100.0)
    chunk = _chunk_frames(cfg.lag_range(SR)[1] + 1)
    picks = _oracle_picks(method, clip, cfg)
    assert chunk == 128 and len(picks) > 2 * chunk + 1
    _assert_matches(BASELINES[method](clip, cfg), picks, cfg)


@pytest.mark.parametrize("f_min", [800.0, 100.0])
@pytest.mark.parametrize("method", ["acf", "yin"])
def test_default_config_transforms_only_shared_segments(monkeypatch, stacks, method, f_min):
    # every rfft is of whole segments, 128 samples long on the song band and 512
    # at f_min=100, at N = 2 seg; never of a frame or of a Y window. Each lag
    # block, which ends with its one irfft, transforms each of its segments once:
    # one hop's per frame, then the last frame's further hops (acf: the rest of
    # its 4; yin: the rest of the half frame's 2, and the one its lags reach into)
    cfg = BaselineConfig(f_min=f_min)
    seg, hops = {800.0: 128, 100.0: 512}[f_min], {"acf": 4, "yin": 3}[method]
    calls = []
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def spy(transform):
        def call(a, n=None, *args, **kwargs):
            calls.append((transform, a.shape, n))
            return transform(a, n, *args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "rfft", spy(rfft))
    monkeypatch.setattr(np.fft, "irfft", spy(irfft))
    monkeypatch.setenv("F0_NUM_THREADS", "1")  # the blocks run in order
    BASELINES[method](stacks, cfg)
    segments, blocks = 0, 0
    for transform, shape, n in calls:
        if transform is rfft:
            assert (shape[-1], n) == (seg, 2 * seg)
            segments += int(np.prod(shape[:-1]))
        else:
            assert segments == (shape[0] - 1 + hops) * (cfg.hop // seg)
            segments, blocks = 0, blocks + 1
    assert blocks > 1 and segments == 0


# (frame size, hop, f_min) on the shared route since segments may be shorter
# than the hop: 4, 2 and 8 segments per hop on the song band (yin's half frame
# is one segment at hop 1024); yin's Y_k over the 2 and 4 segments after S_k at
# f_min=100 (acf takes one segment there); 2 per hop on 1024-sample frames; and
# 4096-sample frames on both bands
SPLIT = [(2048, 512, 800.0), (2048, 256, 800.0), (2048, 1024, 800.0), (2048, 256, 100.0),
         (2048, 128, 100.0), (1024, 256, 400.0), (4096, 1024, 100.0), (4096, 512, 800.0)]


@pytest.mark.parametrize("frame_size,hop,f_min", SPLIT)
def test_split_segments_match_the_scans_at_block_and_chunk_edges(frame_size, hop, f_min):
    # every test signal in turn, repeated past the second chunk; the frames
    # checked straddle the first two 64-frame lag blocks and the first chunk
    cfg = BaselineConfig(frame_size=frame_size, hop=hop, f_min=f_min)
    tau_min, tau_max = cfg.lag_range(SR)
    chunk = _chunk_frames(tau_max + 1)
    n = (chunk + 1) * hop + frame_size
    samples = np.tile(np.concatenate(list(SIGNALS.values())), n // 16384 + 1)[:n]
    frames = sliding_window_view(samples, frame_size)[::hop]
    checked = [0, 63, 64, 65, chunk - 1, chunk, len(frames) - 1]
    if tau_max > 200:  # the oracles are pure Python
        checked = [64, chunk]
    name = f"{frame_size}-{hop}-{f_min}"
    _assert_acf_matches_scan(name, frames, autocorrelation(frames, tau_max, hop),
                             tau_min, tau_max, checked)
    d, dn = difference(frames, tau_max, hop)
    _assert_difference_matches_scan(name, frames, d, dn, tau_min, tau_max, checked)


@pytest.mark.parametrize("frame_size,hop,f_min", [(2048, 512, 800.0), (2048, 512, 100.0),
                                                  (2048, 128, 100.0)])
def test_lag_products_do_not_depend_on_the_frames_layout(frame_size, hop, f_min):
    # the segments are read from the frames themselves, whether they are the
    # clip's strided view, as framed, a copy, or a copy whose rows lie apart
    tau_max = BaselineConfig(frame_size=frame_size, hop=hop, f_min=f_min).lag_range(SR)[1]
    frames = sliding_window_view(_exact_clip(frame_size, hop, 70).samples, frame_size)[::hop]
    r = autocorrelation(frames, tau_max, hop)
    d, dn = difference(frames, tau_max, hop)
    wide = np.zeros((len(frames), frame_size + 7))
    wide[:, :frame_size] = frames
    for copy in (frames.copy(), wide[:, :frame_size]):
        assert np.array_equal(autocorrelation(copy, tau_max, hop), r)
        d_copy, dn_copy = difference(copy, tau_max, hop)
        assert np.array_equal(d_copy, d)
        assert np.array_equal(dn_copy, dn)


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
