"""Band-limited spectral-maximum pitch tracking.

Per frame the algorithm picks the strongest spectrogram bin inside the
configured [f_min, f_max] band, after two gates:

1. silence gate: frames whose RMS envelope falls below a dB threshold
   relative to the clip's loudest frame are marked unvoiced outright,
2. intensity gate: frames whose band maximum falls below a dB threshold
   relative to the spectrogram's global maximum are marked unvoiced, which
   drops residual noise peaks that survive the envelope gate.

Both gates are relative to per-clip maxima, never absolute units, so the
result is invariant under positive scaling of the input and needs no
calibration against recording level. The band filter is what recovers the
fundamental when a harmonic carries more energy than f0 itself: restrict
the band to a range that contains f0 but excludes the harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .audio_io import _freeze
from .dsp import Envelope, Spectrogram
from .errors import ConfigError, EmptyBandError, FrameGridMismatchError


def db_to_ratio(db: float) -> float:
    """Amplitude ratio for a dB value (-40 dB -> 0.01)."""
    return 10.0 ** (db / 20.0)


@dataclass(frozen=True)
class TrackerConfig:
    """Band limits, gating thresholds and peak refinement switch.

    The default 800-8000 Hz band covers canary song; thresholds are in dB
    relative to the per-clip maximum (envelope for the silence gate,
    spectrogram magnitude for the intensity gate) and must be <= 0.
    """

    f_min: float = 800.0
    f_max: float = 8000.0
    silence_threshold_db: float = -40.0
    peak_threshold_db: float = -45.0
    refine_peak: bool = False

    def __post_init__(self):
        if not 0 <= self.f_min < self.f_max:
            raise ConfigError(f"need 0 <= f_min < f_max, got [{self.f_min}, {self.f_max}]")
        if self.silence_threshold_db > 0 or self.peak_threshold_db > 0:
            raise ConfigError("thresholds are relative attenuations and must be <= 0 dB")


@dataclass(frozen=True)
class PitchTrack:
    """Per-frame pitch estimates aligned with the source frame grid.

    Unvoiced frames are kept (f0 = NaN) rather than dropped, so the track
    stays aligned column-for-column with the spectrogram it came from.
    """

    times: np.ndarray
    f0: np.ndarray  # Hz; NaN where unvoiced
    config: Any

    def __post_init__(self):
        if len(self.times) != len(self.f0):
            raise ValueError("track arrays must share one length")
        _freeze(self, "times", "f0")

    @property
    def voiced(self) -> np.ndarray:
        """True on the frames that carry an f0, i.e. where ``f0`` is not NaN."""
        return ~np.isnan(self.f0)

    @property
    def n_frames(self) -> int:
        return len(self.times)

    def voiced_fraction(self) -> float:
        return float(np.mean(self.voiced)) if self.n_frames else 0.0

    def voiced_f0(self) -> np.ndarray:
        """f0 values of voiced frames only."""
        return self.f0[self.voiced]


def pick_max(rows: np.ndarray):
    """Column of each row's first maximum, and that maximum."""
    i = np.argmax(rows, axis=1)
    return i, rows[np.arange(len(rows)), i]


def _refine_at(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Vertex offset of the parabola through ``rows[j, cols[j]]`` and its neighbours,
    clamped to [-0.5, 0.5]; 0 at either end of a row and on collinear points."""
    j = np.arange(len(rows))
    last = rows.shape[1] - 1
    left, right = rows[j, np.maximum(cols - 1, 0)], rows[j, np.minimum(cols + 1, last)]
    denom = left - 2.0 * rows[j, cols] + right
    delta = np.divide(left - right, 2.0 * denom, out=np.zeros(len(rows)),
                      where=(denom != 0.0) & (cols > 0) & (cols < last))
    return np.clip(delta, -0.5, 0.5)


def track(spec: Spectrogram, env: Envelope, config: TrackerConfig | None = None) -> PitchTrack:
    """Run the spectral-maximum tracker over a spectrogram/envelope pair.

    Per frame j: unvoiced if ``env[j]`` is below the silence gate; otherwise
    take the argmax bin over frequencies inside [f_min, f_max] (inclusive,
    ties broken toward the lower bin); unvoiced if that magnitude is below
    the intensity gate; else voiced with f0 at the bin centre, optionally
    refined by parabolic interpolation (refined values are clamped back into
    the band). A clip with an all-zero envelope is entirely unvoiced.

    Raises:
        FrameGridMismatchError: spec and env frame grids differ.
        EmptyBandError: no frequency bin lies inside the band.
    """
    config = config or TrackerConfig()
    if spec.n_frames != env.n_frames or not np.array_equal(spec.frame_times, env.frame_times):
        raise FrameGridMismatchError(
            f"spectrogram ({spec.n_frames} frames) and envelope ({env.n_frames} frames) "
            "were not computed on the same frame grid"
        )

    band = np.flatnonzero((spec.freq_bins >= config.f_min) & (spec.freq_bins <= config.f_max))
    if band.size == 0:
        raise EmptyBandError(
            f"no spectrogram bins inside [{config.f_min}, {config.f_max}] Hz "
            f"(bin width {spec.bin_width:.2f} Hz, Nyquist {spec.freq_bins[-1]:.1f} Hz)"
        )

    rows = spec.magnitudes.T  # frame x bin
    # the bins ascend, so the band is one slice; first maximum -> lowest frequency
    rel_bins, peak_mags = pick_max(rows[:, band[0] : band[-1] + 1])
    peak_bins = band[0] + rel_bins

    max_env = env.values.max()
    global_max = spec.magnitudes.max()
    silence_gate = max_env * db_to_ratio(config.silence_threshold_db)
    peak_gate = global_max * db_to_ratio(config.peak_threshold_db)

    voiced = ((env.values >= silence_gate) & (peak_mags >= peak_gate)
              & (max_env > 0.0) & (global_max > 0.0))

    f0 = spec.freq_bins[peak_bins]
    if config.refine_peak:
        f0 += _refine_at(rows, peak_bins) * spec.bin_width
        np.clip(f0, config.f_min, config.f_max, out=f0)

    f0[~voiced] = np.nan
    return PitchTrack(times=spec.frame_times, f0=f0, config=config)
