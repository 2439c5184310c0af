"""Classic time/quefrency-domain pitch detectors used as baselines.

All three estimators share a common framing scheme and search the same lag
window derived from the configured frequency band, so their outputs line up
frame for frame and can be compared directly against the spectral tracker.
Lag products come from FFTs (Wiener-Khinchin; YIN's difference function from
a cross-correlation plus energy sums). Both are sums over a frame's samples,
so where the hop allows they are assembled from segments of at most a hop,
each transformed once and shared by the frames that overlap it, with one
small inverse transform per frame. The samples that follow a segment are
never transformed again: by the DFT shift theorem their spectrum is the
neighbouring segments' spectra, each times a phase. Any other hop treats
each frame as one segment. Each detector's whole per-frame decision runs on
one chunk of frames at a time, so only the per-frame lag and voicing outlive
a chunk. Each integer-lag peak is refined with a parabolic fit through its
neighbours, which removes most of the lag-quantization error at high
fundamentals (at 4 kHz and 44.1 kHz a whole lag step is worth hundreds of
Hz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
# 7e-15 measured on random, period-100, quiet-then-loud and constant frames of
# 1024-4096 samples, at both bands and every hop from 64 to the frame); it is
# zeroed, else it alone can voice a constant frame.
_D_NOISE = 1e-12


@lru_cache(maxsize=32)
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; other lengths are several times slower."""
    k = range(n.bit_length() + 1)
    return min(size for size in (2**a * 3**b * 5**c for a in k for b in k for c in k)
               if size >= n)


def _segment_length(hop: int, tau_max: int) -> int:
    """Samples per shared segment: ``hop``, halved while the half still covers the
    lag window and 128 samples, so a short window gets short transforms. At the
    default hop of 512 on 6 s song clips, one-thread calls of acf and yin ran
    as fast with 64-sample segments as with 128 and 15-25 % faster than with
    whole hops, but a 2-thread batch of both ran 1-5 % slower with 64.
    """
    seg = hop
    while seg % 2 == 0 and seg // 2 >= max(tau_max, 128):
        seg //= 2
    return seg


@lru_cache(maxsize=32)
def _phases(seg: int, reach: int, size: int) -> np.ndarray:
    """Row m - 1 holds e^(-2 pi i f m seg / size), f = 0 .. size // 2, for m = 1 .. reach:
    by the shift theorem, the factor that turns the spectrum at ``size`` of a segment
    into its share of the spectrum of the samples starting m segments earlier."""
    turns = np.outer(np.arange(1, reach + 1) * seg, np.arange(size // 2 + 1)) % size
    phases = np.exp(turns * (-2j * np.pi / size))
    phases.setflags(write=False)
    return phases


def _segment_spectra(frames: np.ndarray, hop: int, seg: int, hops: int,
                     size: int) -> np.ndarray:
    """rfft at ``size`` of each ``seg``-sample segment of the first ``hops`` hops of
    ``frames``, which lie ``hop`` apart: entry [i, h] is segment i of hop h, hop j
    being frame j's first, so the segment after it is entry [i + 1, h], or
    [0, h + 1] after a hop's last.

    The segments are read from the frames' own samples, each frame's first hop
    and then the last frame's following ones, so no copy of the samples is made.
    They start at each frame's first sample; a window that starts later would
    pass ``frames[:, start:]``.
    """
    n, step = len(frames), hop // seg
    s = np.empty((step, n - 1 + hops, size // 2 + 1), dtype=complex)
    np.fft.rfft(frames[:, :hop].reshape(n, step, seg), size, out=s[:, :n].transpose(1, 0, 2))
    np.fft.rfft(frames[-1, hop : hops * hop].reshape(hops - 1, step, seg), size,
                out=s[:, n:].transpose(1, 0, 2))
    return s


def _conj_times(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """conj(S) Y into ``y``, conjugating ``s`` in place; keep this operand order, as
    NumPy's complex multiply is not bitwise commutative."""
    return np.multiply(np.conjugate(s, out=s), y, out=y)


def _power(s: np.ndarray) -> np.ndarray:
    """|S|^2 in ``s``'s own buffer: the real parts squared and summed, imaginary 0."""
    np.multiply(s.real, s.real, out=s.real)
    s.real += np.multiply(s.imag, s.imag, out=s.imag)
    s.imag = 0.0
    return s


def _hop_sums(s: np.ndarray, seg: int, reach: int, size: int, hops: int):
    """conj(S_k) Y_k summed over the segments of each of the first ``hops`` hops of
    ``_segment_spectra``'s ``s``: as (the sum over all but the hop's last segment, or
    None for a one-segment hop; the last segment's term, for the hops with ``reach``
    segments after it).

    Y_k, the spectrum of the (reach + 1) * seg samples starting with segment k, is
    S_k plus each S_{k+m} (m = 1 .. reach) times its ``_phases`` row. Each S_k is
    conjugated in place once no later term reads it.
    """
    step, phases, partial = len(s), _phases(seg, reach, size), None
    for i in range(step):
        n = min(hops, s.shape[1] - (i + reach) // step)
        y = np.multiply(s[(i + 1) % step, (i + 1) // step :][:n], phases[0])
        y += s[i, :n]
        for m in range(2, reach + 1):
            y += s[(i + m) % step, (i + m) // step :][:n] * phases[m - 1]
        # a hop's first segment is also the S_{k+1} of the hop before's last
        y = _conj_times(s[i, :n] if i or step == 1 else s[i, :n].copy(), y)
        if i == step - 1:
            return partial, y
        if partial is None:
            partial = y
        else:
            partial += y
        del y


def _frame_sums(rows: np.ndarray, terms: int, out: np.ndarray) -> np.ndarray:
    """Into ``out``, per frame j < len(out), rows j .. j + terms - 1 (terms >= 2)
    added in that order."""
    n = len(out)
    np.add(rows[:n], rows[1 : n + 1], out=out)
    for k in range(2, terms):
        out += rows[k : k + n]
    return out


def autocorrelation(frames: np.ndarray, tau_max: int, hop: int) -> np.ndarray:
    """r(tau) = sum_t x[t] x[t+tau] for tau = 0..tau_max, per frame.

    When ``hop`` (the frames' spacing) is a proper divisor of the frame and
    tau_max <= hop, the frames share segments of ``_segment_length`` samples
    (seg >= tau_max), each transformed once at N = ``_fft_size``(2 seg). By the
    shift theorem the 2 seg samples starting with segment k have the spectrum
    Y_k = S_k + S_{k+1} e^(-2 pi i f seg / N), which is (-1)^f S_{k+1} at
    N = 2 seg, and seg - 1 + tau_max < N, so no lag wraps around. A frame's
    spectrum is |S_k|^2 of its last segment plus conj(S_k) Y_k over the others,
    summed one hop's segments at a time. Otherwise (e.g. ``hop`` = frame
    length) each frame is one segment, transformed at frame + tau_max.
    """
    n = frames.shape[1]
    if n % hop or tau_max > hop or hop == n:
        size = _fft_size(n + tau_max)  # no circular wrap-around

        def spectra(block):
            return _power(np.fft.rfft(block, size, axis=1))
    else:
        seg = _segment_length(hop, tau_max)
        hops, size = n // hop, _fft_size(2 * seg)

        def spectra(block):
            s = _segment_spectra(block, hop, seg, hops, size)
            partial, hop_terms = _hop_sums(s, seg, 1, size, s.shape[1])
            if partial is not None:  # whole hops
                hop_terms += partial[:-1]
            total = _power(s[-1, hops - 1 :])  # each frame's last segment, spent
            for k in range(hops - 1):
                total += hop_terms[k : k + len(block)]
            del hop_terms
            if partial is not None:  # the last hop's segments but the last
                total += partial[hops - 1 :]
            return total

    return _blockwise(lambda block: np.fft.irfft(spectra(block), size, axis=1)[:, : tau_max + 1],
                      frames, tau_max + 1, _LAG_BLOCK)


def difference(frames: np.ndarray, tau_max: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """YIN difference d and its cumulative-mean normalization d' (d'(0) = 1).

    d(tau) = sum_{t<w} (x[t] - x[t+tau])^2 over the first half frame, for
    tau = 0..tau_max, formed as E_0 + E_tau - 2 c(tau). c sums, over the half
    frame's segments, the correlation of each segment S_k with the samples Y_k
    that start with it. When ``hop`` (the frames' spacing) is a proper divisor
    of w, the frames share segments of ``_segment_length`` samples, each
    transformed once at N = ``_fft_size``((M + 1) seg), M = ceil(tau_max / seg):
    Y_k covers M + 1 segments, and its spectrum is S_k + sum_m S_{k+m}
    e^(-2 pi i f m seg / N). Otherwise (e.g. ``hop`` = frame length) the half
    frame is one segment and Y_k its w + tau_max samples, each transformed at
    w + tau_max. E_tau runs from E_0 by one cumulative sum of tau_max terms per
    frame.
    """
    w = frames.shape[1] // 2
    if w % hop or hop == w:
        size = _fft_size(w + tau_max)

        def cross(block):
            s = np.fft.rfft(block[:, :w], size, axis=1)
            return _conj_times(s, np.fft.rfft(block[:, : w + tau_max], size, axis=1))
    else:
        seg = _segment_length(hop, tau_max)
        reach = -(-tau_max // seg)
        size = _fft_size((reach + 1) * seg)
        hops = w // hop + -(-reach * seg // hop)  # the half frame's, then those its lags reach

        def cross(block):
            s = _segment_spectra(block, hop, seg, hops, size)
            partial, hop_terms = _hop_sums(s, seg, reach, size, len(block) - 1 + w // hop)
            if partial is not None:
                hop_terms += partial
                del partial
            return _frame_sums(hop_terms, w // hop, s[0, : len(block)])  # s is spent

    def differences(block):
        total = cross(block)
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

    # the window (segments, E_0 and E_tau alike) starts at each frame's first sample
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
