"""Deterministic synthetic signals with known f0 trajectories.

Every generator returns the clip together with a :class:`GroundTruth` that
maps any time inside the clip to the true fundamental (or to silence), which
is what all accuracy tests measure against. Same spec + same seed always
yields a bit-identical clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .errors import AliasingError, AmplitudeOverflowError, ConfigError

KINDS = ("tone", "harmonic_stack", "linear_chirp", "silence", "concat")


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of one synthetic test signal.

    ``amplitude`` is the target peak of the generated segment (before any
    noise), so harmonic stacks are scaled to that peak after mixing and the
    full-scale invariant holds regardless of how the partials interfere.
    ``noise_snr_db`` adds seeded Gaussian noise at the requested
    signal-to-noise ratio.
    """

    kind: str
    f0: float = 0.0
    f_start: float = 0.0
    f_end: float = 0.0
    harmonic_amplitudes: tuple[float, ...] = ()
    duration: float = 1.0
    amplitude: float = 1.0
    noise_snr_db: float | None = None
    seed: int = 0
    parts: tuple["SynthSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown synth kind {self.kind!r}")
        if self.kind != "concat" and self.duration <= 0:
            raise ConfigError("duration must be positive")
        if not 0.0 < self.amplitude <= 1.0 and self.kind not in ("silence", "concat"):
            raise ConfigError("amplitude must lie in (0, 1]")

    @classmethod
    def tone(cls, f0, duration=1.0, amplitude=1.0, noise_snr_db=None, seed=0):
        return cls(kind="tone", f0=f0, duration=duration, amplitude=amplitude,
                   noise_snr_db=noise_snr_db, seed=seed)

    @classmethod
    def harmonic_stack(cls, f0, harmonic_amplitudes, duration=1.0, amplitude=1.0,
                       noise_snr_db=None, seed=0):
        return cls(kind="harmonic_stack", f0=f0,
                   harmonic_amplitudes=tuple(harmonic_amplitudes),
                   duration=duration, amplitude=amplitude,
                   noise_snr_db=noise_snr_db, seed=seed)

    @classmethod
    def linear_chirp(cls, f_start, f_end, duration=1.0, amplitude=1.0,
                     noise_snr_db=None, seed=0):
        return cls(kind="linear_chirp", f_start=f_start, f_end=f_end,
                   duration=duration, amplitude=amplitude,
                   noise_snr_db=noise_snr_db, seed=seed)

    @classmethod
    def silence(cls, duration=1.0):
        return cls(kind="silence", duration=duration)

    @classmethod
    def concat(cls, *parts, noise_snr_db=None, seed=0):
        return cls(kind="concat", parts=tuple(parts),
                   noise_snr_db=noise_snr_db, seed=seed)


@dataclass(frozen=True)
class Segment:
    """One ground-truth span; f0 endpoints are None during silence."""

    start: float
    end: float
    f0_start: float | None
    f0_end: float | None

    def f0_at(self, t: float) -> float | None:
        if self.f0_start is None or self.f0_end is None:
            return None
        if self.end == self.start:
            return self.f0_start
        frac = (t - self.start) / (self.end - self.start)
        return self.f0_start + (self.f0_end - self.f0_start) * frac


@dataclass(frozen=True)
class GroundTruth:
    """Piecewise-linear map from time to true f0 (None while silent)."""

    segments: tuple[Segment, ...]

    def f0_at(self, t: float) -> float | None:
        for seg in self.segments:
            if seg.start <= t < seg.end:
                return seg.f0_at(t)
        if self.segments and t == self.segments[-1].end:
            return self.segments[-1].f0_at(t)
        return None

    def f0_at_times(self, times: np.ndarray) -> np.ndarray:
        """Vectorised lookup; NaN for silence or times outside the clip."""
        out = np.full(len(times), np.nan)
        for i, t in enumerate(np.asarray(times, dtype=float)):
            f0 = self.f0_at(t)
            if f0 is not None:
                out[i] = f0
        return out


def _check_aliasing(freq: float, sample_rate: int, what: str) -> None:
    if freq <= 0:
        raise ConfigError(f"{what} must be positive, got {freq}")
    if freq >= sample_rate / 2:
        raise AliasingError(f"{what} {freq} Hz is at or above Nyquist ({sample_rate / 2} Hz)")


def _render(spec: SynthSpec, sample_rate: int) -> tuple[np.ndarray, list[Segment]]:
    n = int(round(spec.duration * sample_rate))
    t = np.arange(n) / sample_rate

    if spec.kind == "silence":
        return np.zeros(n), [Segment(0.0, n / sample_rate, None, None)]

    if spec.kind == "tone":
        _check_aliasing(spec.f0, sample_rate, "tone frequency")
        x = spec.amplitude * np.sin(2.0 * math.pi * spec.f0 * t)
        return x, [Segment(0.0, n / sample_rate, spec.f0, spec.f0)]

    if spec.kind == "harmonic_stack":
        if not spec.harmonic_amplitudes or all(a == 0 for a in spec.harmonic_amplitudes):
            raise ConfigError("harmonic_stack needs at least one nonzero amplitude")
        if any(a < 0 for a in spec.harmonic_amplitudes):
            raise ConfigError("harmonic amplitudes must be nonnegative")
        top = len(spec.harmonic_amplitudes) * spec.f0
        _check_aliasing(spec.f0, sample_rate, "fundamental")
        _check_aliasing(top, sample_rate, "highest harmonic")
        x = np.zeros(n)
        for k, a in enumerate(spec.harmonic_amplitudes, start=1):
            if a:
                x += a * np.sin(2.0 * math.pi * k * spec.f0 * t)
        peak = np.abs(x).max()
        x *= spec.amplitude / peak  # partial ratios preserved
        return x, [Segment(0.0, n / sample_rate, spec.f0, spec.f0)]

    if spec.kind == "linear_chirp":
        _check_aliasing(spec.f_start, sample_rate, "chirp start frequency")
        _check_aliasing(spec.f_end, sample_rate, "chirp end frequency")
        sweep = spec.f_end - spec.f_start
        # closed-form quadratic phase: integral of f(t) = f_start + sweep*t/D
        phase = 2.0 * math.pi * (spec.f_start * t + sweep * t * t / (2.0 * spec.duration))
        x = spec.amplitude * np.sin(phase)
        end = n / sample_rate
        f_at_end = spec.f_start + sweep * end / spec.duration
        return x, [Segment(0.0, end, spec.f_start, f_at_end)]

    # concat
    if not spec.parts:
        raise ConfigError("concat needs at least one part")
    chunks: list[np.ndarray] = []
    segments: list[Segment] = []
    offset = 0.0
    for part in spec.parts:
        x, segs = _render_with_noise(part, sample_rate)
        chunks.append(x)
        for seg in segs:
            segments.append(Segment(seg.start + offset, seg.end + offset,
                                    seg.f0_start, seg.f0_end))
        offset += len(x) / sample_rate
    return np.concatenate(chunks), segments


def _render_with_noise(spec: SynthSpec, sample_rate: int) -> tuple[np.ndarray, list[Segment]]:
    x, segments = _render(spec, sample_rate)
    if spec.noise_snr_db is not None:
        signal_power = float(np.mean(np.square(x)))
        if signal_power == 0.0:
            raise ConfigError("cannot set an SNR on an all-silent signal")
        noise_power = signal_power / 10.0 ** (spec.noise_snr_db / 10.0)
        rng = np.random.default_rng(spec.seed)
        x = x + rng.standard_normal(len(x)) * math.sqrt(noise_power)
    return x, segments


def synthesize(spec: SynthSpec, sample_rate: int) -> tuple[AudioClip, GroundTruth]:
    """Generate a mono clip and its ground-truth f0 trajectory.

    Raises:
        AliasingError: a requested frequency is at or above Nyquist.
        AmplitudeOverflowError: the mix (usually signal + noise) leaves
            [-1, 1]; lower ``amplitude`` or raise the SNR.

    The final samples are quantized to float32 precision so fixtures written
    with the 32-bit float WAV writer reload bit-exactly.
    """
    x, segments = _render_with_noise(spec, sample_rate)
    peak = np.abs(x).max() if len(x) else 0.0
    if peak > 1.0:
        raise AmplitudeOverflowError(
            f"mixed signal peaks at {peak:.4f} > 1.0 full scale"
        )
    x = x.astype(np.float32).astype(np.float64)
    x.setflags(write=False)  # nothing else holds it, so AudioClip need not copy it
    clip = AudioClip(samples=x, sample_rate=sample_rate)
    return clip, GroundTruth(segments=tuple(segments))
