"""Classic time/quefrency-domain pitch detectors used as baselines.

All three estimators share a common framing scheme and search the same lag
window derived from the configured frequency band, so their outputs line up
frame for frame and can be compared directly against the spectral tracker.
Lag products come from FFTs (Wiener-Khinchin; YIN's difference function from
a cross-correlation plus energy sums). Each detector's whole per-frame
decision runs on one chunk of frames at a time, so only the per-frame lag,
strength and voicing outlive a chunk. Each integer-lag peak is refined with
a parabolic fit through its neighbours, which removes most of the
lag-quantization error at high fundamentals (at 4 kHz and 44.1 kHz a whole
lag step is worth hundreds of Hz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioClip
from .dsp import _BLOCK, _blockwise, _framed
from .errors import ConfigError
from .tracker import PitchTrack, _refine_at, pick_max


@dataclass(frozen=True)
class BaselineConfig:
    """Shared knobs for the autocorrelation, YIN and cepstrum detectors.

    Attributes:
        frame_size: analysis frame length in samples.
        hop: frame advance in samples.
        f_min: lowest admissible fundamental, Hz.
        f_max: highest admissible fundamental, Hz.
        yin_threshold: absolute threshold on the cumulative-mean-normalized
            difference function below which a frame counts as voiced.
    """

    frame_size: int = 2048
    hop: int = 512
    f_min: float = 800.0
    f_max: float = 8000.0
    yin_threshold: float = 0.15

    def __post_init__(self):
        if self.frame_size < 2:
            raise ConfigError("frame_size must be at least 2 samples")
        if self.hop < 1:
            raise ConfigError("hop must be at least 1 sample")
        if not 0.0 < self.f_min < self.f_max:
            raise ConfigError("need 0 < f_min < f_max")
        if not 0.0 < self.yin_threshold < 1.0:
            raise ConfigError("yin_threshold must lie in (0, 1)")

    def lag_range(self, sample_rate: int) -> tuple[int, int]:
        """Integer lag window [tau_min, tau_max] covering [f_min, f_max]."""
        tau_min = max(1, math.ceil(sample_rate / self.f_max))
        tau_max = math.floor(sample_rate / self.f_min)
        if tau_min > tau_max:
            raise ConfigError(
                f"band [{self.f_min}, {self.f_max}] Hz spans no integer lag "
                f"at {sample_rate} Hz"
            )
        if 2 * tau_max > self.frame_size:
            raise ConfigError(
                f"frame_size {self.frame_size} is too short for f_min "
                f"{self.f_min} Hz at {sample_rate} Hz (needs at least {2 * tau_max})"
            )
        return tau_min, tau_max


# (frame x lag) cells per decision, 512 kB of float64: a decision's arrays stay a
# few MB whatever the clip length or lag window. Each decision costs about 0.3 ms
# of NumPy call overhead, so a short lag window takes many frames per decision:
# 128 frames at 442 lags, 1152 at 56 (at 128 there, calls ran about 6 % slower).
_CHUNK_CELLS = 1 << 16

# d(tau) under this share of the frame energy is FFT rounding noise (at most
# 3e-14 measured); it is zeroed, else it alone can voice a constant frame.
_D_NOISE = 1e-12


@lru_cache(maxsize=32)
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; other lengths are several times slower."""
    k = range(n.bit_length() + 1)
    return min(size for size in (2**a * 3**b * 5**c for a in k for b in k for c in k)
               if size >= n)


def autocorrelation(frames: np.ndarray, tau_max: int) -> np.ndarray:
    """r(tau) = sum_t x[t] x[t+tau] for tau = 0..tau_max, per frame."""
    size = _fft_size(frames.shape[1] + tau_max)  # no circular wrap-around

    def lag_products(block):
        spec = np.fft.rfft(block, size, axis=1)
        power = spec.real * spec.real + spec.imag * spec.imag
        return np.fft.irfft(power, size, axis=1)[:, : tau_max + 1]

    return _blockwise(lag_products, frames, tau_max + 1)


def difference(frames: np.ndarray, tau_max: int) -> tuple[np.ndarray, np.ndarray]:
    """YIN difference d and its cumulative-mean normalization d' (d'(0) = 1).

    d(tau) = sum_{t<w} (x[t] - x[t+tau])^2 over the first half frame, for
    tau = 0..tau_max, formed as E_0 + E_tau - 2 c(tau): c correlates the
    first w samples with the first w + tau_max, and the energies come from
    one cumulative sum.
    """
    w = frames.shape[1] // 2
    span = w + tau_max
    size = _fft_size(span)

    def differences(block):
        x = block[:, :span]
        c = np.fft.irfft(np.fft.rfft(x[:, :w], size, axis=1).conj()
                         * np.fft.rfft(x, size, axis=1), size, axis=1)[:, : tau_max + 1]
        energy = np.zeros((len(x), span + 1))
        np.cumsum(x * x, axis=1, out=energy[:, 1:])
        e_tau = energy[:, w:] - energy[:, : tau_max + 1]
        rows = e_tau[:, :1] + e_tau - 2.0 * c
        rows[rows <= _D_NOISE * energy[:, -1:]] = 0.0
        return rows

    d = _blockwise(differences, frames, tau_max + 1)
    d[:, 0] = 0.0
    # all-zero frames keep d'(tau) = 1
    cumulative = np.cumsum(d[:, 1:], axis=1)
    dn = np.ones_like(d)
    np.divide(d[:, 1:] * np.arange(1.0, tau_max + 1), cumulative, out=dn[:, 1:],
              where=cumulative > 0.0)
    return d, dn


def pick_yin(dn: np.ndarray, tau_min: int, threshold: float):
    """First lag of ``dn`` (lags 0..tau_max) in [tau_min, tau_max] under ``threshold``.

    Walks downhill to the first t with dn[t+1] >= dn[t] (or tau_max) and
    returns (lag, 1 - dn there, voiced); rows that never cross report
    tau_min and 1 - their minimum over the window.
    """
    window = dn[:, tau_min:]
    below = window < threshold
    voiced = below.any(axis=1)
    stop = np.ones(window.shape, dtype=bool)
    stop[:, :-1] = window[:, 1:] >= window[:, :-1]
    stop &= np.arange(window.shape[1]) >= np.argmax(below, axis=1)[:, None]
    i = np.where(voiced, np.argmax(stop, axis=1), 0)
    value = np.where(voiced, window[np.arange(len(dn)), i], window.min(axis=1))
    return tau_min + i, 1.0 - value, voiced


def _chunk_frames(n_lags: int) -> int:
    """Frames per decision: whole FFT blocks, up to ``_CHUNK_CELLS`` lag cells."""
    return max(1, _CHUNK_CELLS // n_lags // _BLOCK) * _BLOCK


def _per_chunk(clip: AudioClip, config: BaselineConfig, decide) -> PitchTrack:
    """The track from ``decide(chunk, tau_min, tau_max)``, run on one chunk of frames
    at a time (see ``_chunk_frames``).

    ``decide`` returns each frame's (lag, strength, voiced); only those columns
    outlive a chunk, so memory does not grow with the clip's frames x lags.
    """
    fs = clip.sample_rate
    frames, times = _framed(clip, config.frame_size, config.hop)
    tau_min, tau_max = config.lag_range(fs)
    lag, strength, voiced = _blockwise(
        lambda chunk: np.column_stack(decide(chunk, tau_min, tau_max)),
        frames, 3, _chunk_frames(tau_max + 1)).T
    f0 = np.where(voiced > 0.0, fs / np.clip(lag, fs / config.f_max, fs / config.f_min), np.nan)
    return PitchTrack(times=times, f0=f0, peak_magnitude=strength, config=config)


def autocorr_pitch(clip: AudioClip, config: BaselineConfig | None = None) -> PitchTrack:
    """Normalized-autocorrelation pitch detector.

    A frame is voiced when the autocorrelation peak inside the lag window
    reaches 0.5 after normalizing by the zero-lag energy.
    """

    def decide(chunk, tau_min, tau_max):
        r = autocorrelation(chunk, tau_max)[:, tau_min:]
        r0 = np.einsum("ij,ij->i", chunk, chunk)[:, None]
        norm = np.divide(r, r0, out=np.zeros_like(r), where=r0 > 0.0)
        i, strength = pick_max(norm)
        return tau_min + i + _refine_at(norm, i), strength, strength >= 0.5

    return _per_chunk(clip, config or BaselineConfig(), decide)


def yin_pitch(clip: AudioClip, config: BaselineConfig | None = None) -> PitchTrack:
    """YIN-style detector on the cumulative-mean-normalized difference.

    The difference function is evaluated over the first half of each frame,
    normalized so d'(0) = 1, and the first dip under ``yin_threshold`` inside
    the lag window is walked downhill to its local minimum before refinement.
    Frames whose normalized difference never drops below the threshold are
    left unvoiced.
    """
    config = config or BaselineConfig()

    def decide(chunk, tau_min, tau_max):
        _, dn = difference(chunk, tau_max)
        tau, strength, voiced = pick_yin(dn, tau_min, config.yin_threshold)
        return tau + _refine_at(dn, tau), strength, voiced

    return _per_chunk(clip, config, decide)


def cepstrum_pitch(clip: AudioClip, config: BaselineConfig | None = None) -> PitchTrack:
    """Real-cepstrum pitch detector.

    Each frame is Hamming-windowed, the log magnitude spectrum is inverted
    back to quefrency, and the strongest rahmonic inside the lag window is
    kept when it stands at least four times above the median cepstral
    magnitude there. The Hamming taper keeps the rahmonic centered on the
    true period; a Hann taper was measured to drag the integer peak one
    quefrency step low on dense stacks.
    """
    config = config or BaselineConfig()
    window = np.hamming(config.frame_size)

    def decide(chunk, tau_min, tau_max):
        def quefrencies(block):
            spectra = np.abs(np.fft.rfft(block * window, axis=1))
            return np.fft.irfft(np.log(spectra + 1e-12), axis=1)[:, tau_min : tau_max + 1]

        region = _blockwise(quefrencies, chunk, tau_max - tau_min + 1)
        i, strength = pick_max(region)
        voiced = strength > 4.0 * np.median(np.abs(region), axis=1)
        return tau_min + i + _refine_at(region, i), strength, voiced

    return _per_chunk(clip, config, decide)


BASELINES = {
    "acf": autocorr_pitch,
    "yin": yin_pitch,
    "cepstrum": cepstrum_pitch,
}
