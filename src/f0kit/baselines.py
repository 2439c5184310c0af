"""Classic time/quefrency-domain pitch detectors used as baselines.

All three estimators share a common framing scheme and search the same lag
window derived from the configured frequency band, so their outputs line up
frame for frame and can be compared directly against the spectral tracker.
Lag products come from FFTs (Wiener-Khinchin; YIN's difference function from
a cross-correlation plus energy sums). Both are sums over a frame's samples,
so where the hop allows they are assembled from hop-long segments, each
transformed once and shared by the frames that overlap it, with one small
inverse transform per frame; any other hop treats each frame as one
segment. Each detector's whole per-frame decision runs on one chunk of
frames at a time, so only the per-frame lag and voicing outlive a chunk.
Each integer-lag peak is refined with a parabolic fit through its
neighbours, which removes most of the lag-quantization error at high
fundamentals (at 4 kHz and 44.1 kHz a whole lag step is worth hundreds of
Hz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .dsp import _blockwise, _framed, _spanwise
from .errors import ConfigError
from .tracker import PitchTrack, _refine_at, pick_max

_MIN_LAG = 2  # samples: the Nyquist period, the shortest a lag detector reports


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
        """Integer lag window [tau_min, tau_max] covering [f_min, f_max], f_max cut to fs/2."""
        tau_min = max(_MIN_LAG, math.ceil(sample_rate / self.f_max))
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

# Frames per block of acf and yin lag products, measured in-process on 6 s song
# and lowband clips (interleaved medians on a warm worker thread): against 32,
# 64-frame blocks ran one call 2-16 % faster and a 2-thread batch more evenly
# (efficiency 0.60-0.80 -> 0.74-0.88). 96 and 128 ran lowband acf 1.5-1.7x
# slower: their spectra fall out of cache. A block writes into the spectra it
# already owns and drops (``del``) each array once read, so a pool thread's
# peak, which its heap keeps, is about one block's two spectra.
_LAG_BLOCK = 64

# d(tau) under this share of the frame energy is FFT rounding noise (at most
# 3e-14 measured; 4e-15 with shared segments); it is zeroed, else it alone can
# voice a constant frame.
_D_NOISE = 1e-12


@lru_cache(maxsize=32)
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; other lengths are several times slower."""
    k = range(n.bit_length() + 1)
    return min(size for size in (2**a * 3**b * 5**c for a in k for b in k for c in k)
               if size >= n)


def _segments(frames: np.ndarray, seg: int, parts: int, width: int) -> np.ndarray:
    """Rows of ``width`` samples, one per ``seg``-sample segment under ``frames``.

    With ``parts`` segments per frame the frames must lie ``seg`` samples
    apart, so frame j's segments are rows j .. j + parts - 1 of the
    ``len(frames) + parts - 1`` shared ones; samples past the last frame read 0.
    With one part each frame is its own row.
    """
    if parts == 1:
        return frames[:, :width]
    pad = max(0, (parts - 1) * seg + width - frames.shape[1])
    x = np.concatenate([frames[:-1, :seg].ravel(), frames[-1], np.zeros(pad)])
    return sliding_window_view(x, width)[::seg][: len(frames) + parts - 1]


def _conj_times(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """conj(S) Y into ``y``, conjugating ``s`` in place; keep this operand order, as
    NumPy's complex multiply is not bitwise commutative."""
    return np.multiply(np.conjugate(s, out=s), y, out=y)


def _frame_sums(rows: np.ndarray, terms: int, out: np.ndarray) -> np.ndarray:
    """Into ``out``, per frame j < len(out), rows j .. j + terms - 1 added in that order."""
    n = len(out)
    out[...] = rows[:n]
    for k in range(1, terms):
        out += rows[k : k + n]
    return out


def autocorrelation(frames: np.ndarray, tau_max: int, hop: int) -> np.ndarray:
    """r(tau) = sum_t x[t] x[t+tau] for tau = 0..tau_max, per frame.

    When ``hop`` (the frames' spacing) divides the frame and tau_max <= hop,
    each hop-long segment S_k and the hop + tau_max samples Y_k starting with
    it are transformed once, and a frame's spectrum is the sum of
    conj(S_k) Y_k over its segments but the last, plus |S_k|^2 for the last.
    Otherwise (e.g. ``hop`` = frame length) each frame is one segment.
    """
    n = frames.shape[1]
    parts = n // hop if n % hop == 0 and tau_max <= hop else 1
    seg = n // parts
    size = _fft_size(seg + tau_max)  # no circular wrap-around

    def lag_products(block):
        rows = _segments(block, seg, parts, seg + tau_max)
        s = np.fft.rfft(rows[:, :seg], size, axis=1)
        if parts > 1:
            y = _conj_times(s[:-1], np.fft.rfft(rows[:-1], size, axis=1))
        del rows
        last = s[parts - 1 :]  # each frame's last segment; conjugation changes no square
        power = last.real * last.real
        power += np.multiply(last.imag, last.imag, out=last.imag)
        if parts > 1:  # the conj(S_k) Y_k sums overwrite s, then |S_k|^2 is added
            total = _frame_sums(y, parts - 1, s[: len(block)])
            del y
            total += power
        else:
            total = s
            total[...] = power
        return np.fft.irfft(total, size, axis=1)[:, : tau_max + 1]

    return _blockwise(lag_products, frames, tau_max + 1, _LAG_BLOCK)


def difference(frames: np.ndarray, tau_max: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """YIN difference d and its cumulative-mean normalization d' (d'(0) = 1).

    d(tau) = sum_{t<w} (x[t] - x[t+tau])^2 over the first half frame, for
    tau = 0..tau_max, formed as E_0 + E_tau - 2 c(tau). c sums, over the
    half frame's segments, the correlation of each segment S_k with the
    seg + tau_max samples Y_k that start with it. Segments are ``hop`` long,
    and shared between frames, when ``hop`` (the frames' spacing) divides w;
    otherwise (e.g. ``hop`` = frame length) the half frame is one segment. E_tau
    runs from E_0 by one cumulative sum of tau_max terms per frame.
    """
    w = frames.shape[1] // 2
    parts = w // hop if w % hop == 0 else 1
    seg = w // parts
    width = seg + tau_max
    size = _fft_size(width)

    def differences(block):
        rows = _segments(block, seg, parts, width)
        s = np.fft.rfft(rows[:, :seg], size, axis=1)
        y = _conj_times(s, np.fft.rfft(rows, size, axis=1))
        del rows
        total = _frame_sums(y, parts, s[: len(block)])
        del s, y  # the sums hold s's buffer until irfft has read them
        c = np.fft.irfft(total, size, axis=1)[:, : tau_max + 1]
        del total
        head, tail = block[:, :tau_max], block[:, w : w + tau_max]
        e_0 = np.einsum("ij,ij->i", block[:, :w], block[:, :w])[:, None]
        # E_tau = E_0 + sum_{v<tau} (x[w+v]^2 - x[v]^2), then d = E_0 + E_tau - 2c, in one buffer
        d = np.zeros_like(c)
        np.multiply(tail, tail, out=d[:, 1:])
        d[:, 1:] -= head * head
        np.cumsum(d[:, 1:], axis=1, out=d[:, 1:])
        d += e_0  # E_tau
        d += e_0
        d -= np.multiply(c, 2.0, out=c)
        # under this share of the first w + tau_max samples' energy, d is rounding noise
        d[d <= _D_NOISE * (e_0 + np.einsum("ij,ij->i", tail, tail)[:, None])] = 0.0
        return d

    d = _blockwise(differences, frames, tau_max + 1, _LAG_BLOCK)
    d[:, 0] = 0.0
    dn = np.empty_like(d)
    dn[:, 0] = 1.0
    cumulative = np.cumsum(d[:, 1:], axis=1, out=dn[:, 1:])
    positive = cumulative > 0.0
    np.divide(d[:, 1:] * np.arange(1.0, tau_max + 1), cumulative, out=cumulative,
              where=positive)
    cumulative[~positive] = 1.0  # all-zero frames keep d'(tau) = 1
    return d, dn


def pick_yin(dn: np.ndarray, tau_min: int, threshold: float):
    """First lag of ``dn`` (lags 0..tau_max) in [tau_min, tau_max] under ``threshold``.

    Walks downhill to the first t with dn[t+1] >= dn[t] (or tau_max) and
    returns (lag, voiced); rows that never cross report tau_min, unvoiced.
    """
    window = dn[:, tau_min:]
    below = window < threshold
    voiced = below.any(axis=1)
    stop = np.ones(window.shape, dtype=bool)
    stop[:, :-1] = window[:, 1:] >= window[:, :-1]
    stop &= np.arange(window.shape[1]) >= np.argmax(below, axis=1)[:, None]
    return tau_min + np.where(voiced, np.argmax(stop, axis=1), 0), voiced


def _chunk_frames(n_lags: int) -> int:
    """Frames per decision: whole lag-product blocks, up to ``_CHUNK_CELLS`` lag cells."""
    return max(1, _CHUNK_CELLS // n_lags // _LAG_BLOCK) * _LAG_BLOCK


def _per_chunk(clip: AudioClip, config: BaselineConfig, decide) -> PitchTrack:
    """The track from ``decide(chunk, tau_min, tau_max)``, run on one chunk of frames
    at a time (see ``_chunk_frames``).

    ``decide`` returns each frame's (lag, voiced); only those columns
    outlive a chunk, so memory does not grow with the clip's frames x lags.
    Spans of whole lag blocks may run on idle pool threads (``dsp._spanwise``);
    a frame's decision reads that frame alone, so the split changes no output.
    """
    fs = clip.sample_rate
    frames, times = _framed(clip, config.frame_size, config.hop)
    tau_min, tau_max = config.lag_range(fs)
    lag, voiced = _spanwise(
        lambda span: _blockwise(lambda chunk: np.column_stack(decide(chunk, tau_min, tau_max)),
                                span, 2, _chunk_frames(tau_max + 1)),
        frames, _LAG_BLOCK).T
    lag = np.clip(lag, max(_MIN_LAG, fs / config.f_max), fs / config.f_min)
    f0 = np.where(voiced > 0.0, fs / lag, np.nan)
    return PitchTrack(times=times, f0=f0, config=config)


def autocorr_pitch(clip: AudioClip, config: BaselineConfig | None = None) -> PitchTrack:
    """Normalized-autocorrelation pitch detector.

    A frame is voiced when the autocorrelation peak inside the lag window
    reaches 0.5 after normalizing by the zero-lag energy.
    """
    config = config or BaselineConfig()

    def decide(chunk, tau_min, tau_max):
        r = autocorrelation(chunk, tau_max, config.hop)[:, tau_min:]
        r0 = np.einsum("ij,ij->i", chunk, chunk)[:, None]
        norm = np.divide(r, r0, out=np.zeros_like(r), where=r0 > 0.0)
        i, strength = pick_max(norm)
        return tau_min + i + _refine_at(norm, i), strength >= 0.5

    return _per_chunk(clip, config, decide)


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
        _, dn = difference(chunk, tau_max, config.hop)
        tau, voiced = pick_yin(dn, tau_min, config.yin_threshold)
        return tau + _refine_at(dn, tau), voiced

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
            spectra = np.fft.rfft(block * window, axis=1)
            # log |X| as the real part of the spectra's own buffer: irfft casts nothing
            spectra.real = np.log(np.abs(spectra) + 1e-12)
            spectra.imag = 0.0
            return np.fft.irfft(spectra, axis=1)[:, tau_min : tau_max + 1]

        region = _blockwise(quefrencies, chunk, tau_max - tau_min + 1)
        i, strength = pick_max(region)
        voiced = strength > 4.0 * np.median(np.abs(region), axis=1)
        return tau_min + i + _refine_at(region, i), voiced

    return _per_chunk(clip, config, decide)


BASELINES = {
    "acf": autocorr_pitch,
    "yin": yin_pitch,
    "cepstrum": cepstrum_pitch,
}
