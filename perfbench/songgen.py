"""Seeded input generator for the benchmark, with analytic ground truth.

Built on NumPy and the standard-library ``wave`` module only, so the inputs
do not depend on the package under test. Every clip is 16-bit PCM, mono, at
44.1 kHz, and every clip of a workload has the same length.

A clip is a sequence of tonal segments separated by silent spans that hold
only light noise. Within a segment f0 moves linearly from ``f_start`` to
``f_end``, so the true f0 at any sample is known exactly. The timing layout
(segment and gap lengths) is fixed per workload; the seed picks everything
else: syllable rates, frequencies, glide directions, harmonic make-up,
levels, phases and noise. The detectors' cost depends on the voiced share
and on the f0 range (a lag scan runs up to the period), so the layout is
fixed and the per-phrase values that set the cost (syllable period, f0,
harmonic count, level) are drawn stratified: each clip takes one value from
each equal slice of the range, in seeded order.
That keeps the work per clip nearly the same from seed to seed.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
NOISE_RMS = 5e-5  # 1.6 LSB; its spectrum stays below the plot's -80 dB floor
RAMP_S = 0.004  # raised-cosine attack and release of each segment
MAX_LEVEL = 0.8  # peak level of the loudest segment of every clip


@dataclass(frozen=True)
class Segment:
    """One tonal segment over samples ``[start, end)``; f0 glides linearly."""

    start: int
    end: int
    f_start: float
    f_end: float

    def f0_at(self, n: np.ndarray) -> np.ndarray:
        """True f0 in Hz at (possibly fractional) sample positions ``n``."""
        frac = (np.asarray(n, dtype=float) - self.start) / (self.end - self.start)
        return self.f_start + (self.f_end - self.f_start) * frac


@dataclass(frozen=True)
class Clip:
    """A generated recording and its ground truth."""

    name: str
    samples: np.ndarray  # int16 PCM codes
    segments: tuple[Segment, ...]
    silences: tuple[tuple[int, int], ...]  # [start, end) sample spans

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return self.n_samples / SAMPLE_RATE

    def write(self, path: Path) -> None:
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(SAMPLE_RATE)
            fh.writeframes(self.samples.astype("<i2").tobytes())


def _tone(seg: Segment, harmonics: list[float], level: float,
          rng: np.random.Generator) -> np.ndarray:
    """Harmonic stack whose fundamental follows ``seg.f0_at`` sample by sample."""
    n = seg.end - seg.start
    tau = np.arange(n) / SAMPLE_RATE
    rate = (seg.f_end - seg.f_start) / (n / SAMPLE_RATE)
    phase = 2.0 * math.pi * (seg.f_start * tau + 0.5 * rate * tau * tau)
    out = np.zeros(n)
    for h, amp in enumerate(harmonics, start=1):
        out += amp * np.sin(h * phase + rng.uniform(0.0, 2.0 * math.pi))
    out *= level / sum(harmonics)
    ramp = min(int(RAMP_S * SAMPLE_RATE), n // 2)
    fade = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, ramp))
    out[:ramp] *= fade
    out[n - ramp:] *= fade[::-1]
    return out


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` draws from ``[lo, hi)``, one inside each of ``n`` equal slices, shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def _weaker_harmonics(rng: np.random.Generator, count: int,
                      f_top: float) -> list[float]:
    """Unit fundamental plus ``count`` weaker partials kept below 0.45 fs."""
    amps = [1.0]
    for h in range(2, count + 2):
        if h * f_top >= 0.45 * SAMPLE_RATE:
            break
        amps.append(float(rng.uniform(0.1, 0.45)))
    return amps


def _render(name: str, n_samples: int, parts: list[tuple[Segment, list[float], float]],
            rng: np.random.Generator) -> Clip:
    # The loudest segment is always at MAX_LEVEL: the plot's dB scale and
    # the gates are relative to the clip maximum, so this keeps the share of
    # the spectrogram above the plot's -80 dB floor (its SVG size) steady.
    gain = MAX_LEVEL / max(level for _, _, level in parts)
    signal = rng.normal(0.0, NOISE_RMS, n_samples)
    for seg, harmonics, level in parts:
        signal[seg.start:seg.end] += _tone(seg, harmonics, gain * level, rng)
    segments = tuple(seg for seg, _, _ in parts)
    silences = []
    cursor = 0
    for seg in segments:
        if seg.start > cursor:
            silences.append((cursor, seg.start))
        cursor = seg.end
    if cursor < n_samples:
        silences.append((cursor, n_samples))
    codes = np.clip(np.rint(signal * 32767.0), -32768, 32767).astype(np.int16)
    return Clip(name=name, samples=codes, segments=segments, silences=tuple(silences))


def song_clip(name: str, seconds: float, rng: np.random.Generator) -> Clip:
    """Canary-like song: phrases of one repeated chirped syllable each.

    Phrases are 1.5 s long and 0.4 s apart after a 0.25 s lead-in. In each
    phrase the seed picks a syllable period of 90-200 ms (70 % of it sound,
    30 % gap), a centre f0 in 2-6 kHz, a glide of at most 5 Hz/ms, one to
    three weaker harmonics and a level of 0.3-0.8, scaled so the loudest
    phrase is at 0.8 of full scale. Period, centre, harmonic count and level
    take one value per slice of their range across a clip's phrases.
    """
    n_samples = int(round(seconds * SAMPLE_RATE))
    lead, phrase, gap = 0.25, 1.5, 0.4
    starts = np.arange(lead, seconds - 0.2 - phrase, phrase + gap)
    n = len(starts)
    periods = _stratified(rng, 0.09, 0.2, n)
    centres = _stratified(rng, 0.0, 1.0, n)
    counts = rng.permutation(np.resize([1, 2, 3], n))
    levels = _stratified(rng, 0.3, 0.8, n)
    parts = []
    for t, period, u, count, level in zip(starts, periods, centres, counts, levels):
        syl = 0.7 * period
        glide = float(rng.uniform(-5000.0, 5000.0)) * syl
        lo, hi = 2000.0 + abs(glide) / 2, 6000.0 - abs(glide) / 2
        centre = lo + u * (hi - lo)
        harmonics = _weaker_harmonics(rng, int(count), centre + abs(glide) / 2)
        for k in range(int(phrase / period)):
            start = int(round((t + k * period) * SAMPLE_RATE))
            end = start + int(round(syl * SAMPLE_RATE))
            seg = Segment(start, end, centre - glide / 2, centre + glide / 2)
            parts.append((seg, harmonics, float(level)))
    return _render(name, n_samples, parts, rng)


def lowband_clip(name: str, seconds: float, rng: np.random.Generator) -> Clip:
    """Low-pitched tonal notes: harmonic stacks gliding within 110-780 Hz.

    Notes are 0.9 s long and 0.25 s apart after a 0.2 s lead-in. Each note
    starts at an f0 from its own log-spaced slice of 120-700 Hz, so every
    clip spans the band, and glides by a factor of 0.8-1.25. It has four to
    eight harmonics falling off as 1/h and a level of 0.3-0.8, scaled so the
    loudest note is at 0.8 of full scale.
    """
    n_samples = int(round(seconds * SAMPLE_RATE))
    lead, note, gap = 0.2, 0.9, 0.25
    starts = np.arange(lead, seconds - 0.2 - note, note + gap)
    log_f = _stratified(rng, math.log(120.0), math.log(700.0), len(starts))
    levels = _stratified(rng, 0.3, 0.8, len(starts))
    parts = []
    for t, log_start, level in zip(starts, log_f, levels):
        f_start = float(math.exp(log_start))
        f_end = float(np.clip(f_start * rng.uniform(0.8, 1.25), 110.0, 780.0))
        count = int(rng.integers(4, 9))
        harmonics = [float(rng.uniform(0.5, 1.0)) / h for h in range(1, count + 1)]
        harmonics[0] = 1.0
        start = int(round(t * SAMPLE_RATE))
        seg = Segment(start, start + int(round(note * SAMPLE_RATE)), f_start, f_end)
        parts.append((seg, harmonics, float(level)))
    return _render(name, n_samples, parts, rng)


KINDS = {"song": song_clip, "lowband": lowband_clip}


def generate(kind: str, seed: int, count: int, seconds: float) -> list[Clip]:
    """``count`` clips of ``seconds`` each; the same seed gives the same clips."""
    rng = np.random.default_rng([seed, len(kind), sum(map(ord, kind))])
    return [KINDS[kind](f"{kind}{i:02d}", seconds, rng) for i in range(count)]
