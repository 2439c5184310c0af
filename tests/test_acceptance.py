"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Each test
prints its measurement before asserting, so a failing run still reports the
numbers for all criteria that executed.
"""

import os
import re
import time

import numpy as np
import pytest

from f0kit import (
    AudioClip,
    SpectrogramConfig,
    SynthSpec,
    TrackerConfig,
    envelope,
    export_table,
    render_plot,
    spectrogram,
    synthesize,
    track,
    write_wav,
)
from f0kit.baselines import BaselineConfig, autocorr_pitch, cepstrum_pitch, yin_pitch
from f0kit.cli import main as cli_main
from conftest import GOLDEN_DIR
from oracles import brute_force_track

SR = 44100
BIN_WIDTH = SR / 1024


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{verdict}] {name}: {detail}")


def analyze(clip, tracker_cfg=None):
    cfg = SpectrogramConfig()
    spec = spectrogram(clip, cfg)
    env = envelope(clip, cfg)
    return track(spec, env, tracker_cfg)


def test_criterion_01_pure_tone_accuracy():
    started = time.perf_counter()
    freqs = np.geomspace(800.0, 8000.0, 20)
    raw_errors = []
    refined_errors = []
    for f0 in freqs:
        clip, _ = synthesize(SynthSpec.tone(float(f0), duration=0.5), SR)
        cfg = SpectrogramConfig()
        spec = spectrogram(clip, cfg)
        env = envelope(clip, cfg)
        coarse = track(spec, env)
        fine = track(spec, env, TrackerConfig(refine_peak=True))
        raw_errors.append(np.abs(coarse.voiced_f0() - f0))
        refined_errors.append(np.abs(fine.voiced_f0() - f0))
    elapsed = time.perf_counter() - started
    worst = float(np.concatenate(raw_errors).max())
    median_refined = float(np.median(np.concatenate(refined_errors)))
    ok = worst <= BIN_WIDTH and median_refined <= 5.0 and elapsed < 5.0
    report(1, "pure-tone accuracy", ok,
           f"worst raw error {worst:.2f} Hz (bin {BIN_WIDTH:.2f} Hz), "
           f"refined median {median_refined:.2f} Hz, elapsed {elapsed:.2f} s")
    assert worst <= BIN_WIDTH
    assert median_refined <= 5.0
    assert elapsed < 5.0


def test_criterion_02_dominant_harmonic_recovery():
    clip, _ = synthesize(SynthSpec.harmonic_stack(1000.0, (0.3, 0.9)), SR)
    narrow = analyze(clip, TrackerConfig(f_min=900.0, f_max=1500.0))
    wide = analyze(clip, TrackerConfig(f_min=800.0, f_max=8000.0))
    narrow_ok = (narrow.voiced_fraction() > 0.0
                 and bool(np.all(np.abs(narrow.voiced_f0() - 1000.0) <= BIN_WIDTH)))
    wide_ok = bool(np.all(np.abs(wide.voiced_f0() - 2000.0) <= BIN_WIDTH))
    ok = narrow_ok and wide_ok
    report(2, "dominant-harmonic recovery", ok,
           f"band [900,1500] median {np.median(narrow.voiced_f0()):.1f} Hz on "
           f"{100 * narrow.voiced_fraction():.0f}% voiced, "
           f"band [800,8000] median {np.median(wide.voiced_f0()):.1f} Hz")
    assert narrow_ok
    assert wide_ok


def test_criterion_03_silence_gating():
    spec = SynthSpec.concat(
        SynthSpec.tone(1000.0, duration=1.0),
        SynthSpec.silence(duration=1.0),
        SynthSpec.tone(1000.0, duration=1.0),
    )
    clip, _ = synthesize(spec, SR)
    result = analyze(clip)
    fraction = result.voiced_fraction()
    window_s = 1024 / SR
    inside = (result.times - window_s / 2 >= 1.0) & (result.times + window_s / 2 <= 2.0)
    silent_voiced = int(result.voiced[inside].sum())
    ok = abs(fraction - 2 / 3) <= 0.03 and silent_voiced == 0
    report(3, "silence gating", ok,
           f"voiced {100 * fraction:.1f}% (target 66.7 +- 3), "
           f"{silent_voiced} voiced frames inside the silent third "
           f"({int(inside.sum())} frames checked)")
    assert abs(fraction - 2 / 3) <= 0.03
    assert silent_voiced == 0


def test_criterion_04_chirp_tracking():
    clip, truth = synthesize(SynthSpec.linear_chirp(1000.0, 2000.0, duration=2.0), SR)
    result = analyze(clip)
    expected = truth.f0_at_times(result.times[result.voiced])
    errors = np.abs(result.voiced_f0() - expected)
    fraction_ok = float(np.mean(errors <= BIN_WIDTH))
    ok = fraction_ok >= 0.98 and result.voiced_fraction() > 0.9
    report(4, "chirp tracking", ok,
           f"{100 * fraction_ok:.1f}% of {len(errors)} voiced frames within "
           f"one bin (max error {errors.max():.2f} Hz)")
    assert fraction_ok >= 0.98


def test_criterion_05_noise_robustness():
    clip, _ = synthesize(
        SynthSpec.tone(2000.0, duration=1.0, amplitude=0.4,
                       noise_snr_db=20.0, seed=7), SR)
    result = analyze(clip)
    good = np.zeros(result.n_frames, dtype=bool)
    good[result.voiced] = np.abs(result.voiced_f0() - 2000.0) <= BIN_WIDTH
    fraction = float(np.mean(good))
    ok = fraction >= 0.95
    report(5, "noise robustness at 20 dB SNR", ok,
           f"{100 * fraction:.1f}% of frames voiced and within one bin")
    assert fraction >= 0.95


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(1234)
    mismatches = 0
    frames_checked = 0
    for _ in range(10):
        n = int(rng.integers(1024, 4097))
        samples = rng.uniform(-0.9, 0.9, n)
        clip = AudioClip(samples=samples, sample_rate=SR)
        result = analyze(clip)
        bins, voiced = brute_force_track(samples, SR)
        frames_checked += len(bins)
        if not np.array_equal(result.voiced, voiced):
            mismatches += 1
            continue
        got_bins = np.rint(result.f0[result.voiced] / BIN_WIDTH).astype(int)
        if not np.array_equal(got_bins, bins[voiced]):
            mismatches += 1
    ok = mismatches == 0
    report(6, "oracle equivalence", ok,
           f"10 clips, {frames_checked} frames, {mismatches} mismatching clips "
           f"against the naive O(N^2) reference")
    assert mismatches == 0


def test_criterion_07_scaling_invariance():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(3):
        base = AudioClip(samples=rng.uniform(-0.3, 0.3, 6000),
                         sample_rate=SR)
        reference = analyze(base)
        for c in (0.01, 0.5, 3.0):
            scaled = AudioClip(samples=base.samples * c, sample_rate=SR)
            result = analyze(scaled)
            same = (np.array_equal(result.voiced, reference.voiced)
                    and np.array_equal(result.f0, reference.f0, equal_nan=True))
            failures += 0 if same else 1
    ok = failures == 0
    report(7, "scaling invariance", ok,
           f"3 clips x scales (0.01, 0.5, 3.0): {failures} differing tracks")
    assert failures == 0


def test_criterion_08_baseline_agreement():
    compared = 0
    agreeing = 0
    per_freq = []
    for f0 in np.geomspace(800.0, 4000.0, 10):
        f0 = float(f0)
        tone, _ = synthesize(SynthSpec.tone(f0, duration=0.5), SR)
        n_harm = max(2, min(6, int(0.95 * (SR / 2) // f0)))
        stack, _ = synthesize(
            SynthSpec.harmonic_stack(f0, (1.0,) * n_harm, duration=0.5), SR)
        tracks = [
            analyze(tone),
            autocorr_pitch(tone, BaselineConfig()),
            yin_pitch(tone, BaselineConfig()),
            cepstrum_pitch(stack, BaselineConfig()),
        ]
        n = min(t.n_frames for t in tracks)
        local_total = 0
        local_ok = 0
        for i in range(len(tracks)):
            for j in range(i + 1, len(tracks)):
                both = tracks[i].voiced[:n] & tracks[j].voiced[:n]
                diff = np.abs(tracks[i].f0[:n][both] - tracks[j].f0[:n][both])
                local_total += int(both.sum())
                local_ok += int(np.sum(diff <= 50.0))
        assert local_total > 100, f"too few jointly voiced frames at {f0:.0f} Hz"
        compared += local_total
        agreeing += local_ok
        per_freq.append(local_ok / local_total)
    fraction = agreeing / compared
    ok = fraction >= 0.95
    report(8, "four-method agreement within 50 Hz", ok,
           f"{100 * fraction:.2f}% of {compared} pairwise comparisons agree "
           f"(worst frequency {100 * min(per_freq):.1f}%)")
    assert fraction >= 0.95


def test_criterion_09_performance_gate(tmp_path, capsys):
    clip, _ = synthesize(SynthSpec.linear_chirp(1000.0, 2000.0, duration=20.0), SR)
    wav = tmp_path / "long.wav"
    write_wav(wav, clip)
    table = tmp_path / "long.txt"
    plot = tmp_path / "long.svg"
    code = cli_main(["track", str(wav), "--out", str(table), "--plot", str(plot)])
    out = capsys.readouterr().out
    match = re.search(r"elapsed=([0-9.]+) ms", out)
    assert code == 0 and match, out
    elapsed_ms = float(match.group(1))
    ok = elapsed_ms < 12300.0
    with capsys.disabled():
        report(9, "20 s end-to-end performance", ok,
               f"elapsed {elapsed_ms:.1f} ms (bound 12300 ms, target 1000 ms), "
               f"table and plot written")
    assert table.exists() and plot.exists()
    assert elapsed_ms < 12300.0


def test_criterion_10_format_goldens(tmp_path):
    clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.25), SR)
    cfg = SpectrogramConfig()
    spec = spectrogram(clip, cfg)
    env = envelope(clip, cfg)
    result = track(spec, env)

    table_path = tmp_path / "golden.f0.txt"
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        export_table(result, fh)
    svg_path = tmp_path / "golden.f0.svg"
    render_plot(spec, result, env, svg_path)

    golden_table = GOLDEN_DIR / "tone1khz.f0.txt"
    golden_svg = GOLDEN_DIR / "tone1khz.f0.svg"
    if os.environ.get("F0KIT_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_table.write_bytes(table_path.read_bytes())
        golden_svg.write_bytes(svg_path.read_bytes())
        report(10, "format goldens", True, "regenerated golden files")
        return
    table_ok = table_path.read_bytes() == golden_table.read_bytes()
    svg_ok = svg_path.read_bytes() == golden_svg.read_bytes()
    ok = table_ok and svg_ok
    report(10, "format goldens", ok,
           f"table {'matches' if table_ok else 'DIFFERS'} "
           f"({golden_table.stat().st_size} B), "
           f"svg {'matches' if svg_ok else 'DIFFERS'} "
           f"({golden_svg.stat().st_size} B)")
    assert table_ok
    assert svg_ok
