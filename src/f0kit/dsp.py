"""Short-time Fourier analysis: framing, magnitude spectrogram, RMS envelope.

Conventions used throughout the package:

* frame ``j`` covers samples ``[j*hop, j*hop + window_size)``; trailing
  samples that do not fill a frame are dropped,
* frame count is ``floor((n_samples - window_size) / hop) + 1``,
* frame ``j`` is centred at ``(j*hop + window_size/2) / fs`` seconds,
* magnitudes are ``|one-sided DFT|`` of the windowed frame, with no log
  scaling and no normalization by the window sum. The tracker only compares
  magnitudes against per-clip maxima, so the absolute scale convention is
  free; this one keeps a full-scale bin-centred sine at magnitude N/2 under
  a rectangular window.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip, _freeze
from .errors import ClipTooShortError, ConfigError

_WINDOWS = {"hann": np.hanning, "hamming": np.hamming, "rectangular": np.ones}
WINDOW_FUNCTIONS = tuple(_WINDOWS)
# frames per FFT batch, so temporaries do not grow with clip length. Whether they
# are page-faulted in afresh each block depends on the allocator's history, at 32
# frames as at 64 and on any thread: glibc mmaps (and trims) buffers above a
# threshold that rises only once the process frees a larger one. So time block and
# allocation changes in a pool worker after a warm-up file, as a batch runs.
_BLOCK = 32

_pool: tuple[int, ThreadPoolExecutor] | None = None  # (its thread limit, the pool)
_pending: set = set()  # its futures; a callback drops each once it is done
_lock = threading.Lock()


@dataclass(frozen=True)
class SpectrogramConfig:
    """Window size, overlap and window function for short-time analysis.

    ``overlap`` is in samples; ``None`` means 50% (``window_size // 2``).
    Hop is derived as ``window_size - overlap``. The 1024/512 default gives
    23.2 ms frames and 43.07 Hz bins at 44.1 kHz, fine enough to separate
    syllables repeating at up to 30 Hz.
    """

    window_size: int = 1024
    overlap: int | None = None
    window_function: str = "hann"

    def __post_init__(self):
        ws = self.window_size
        if ws < 16 or ws & (ws - 1) != 0:
            raise ConfigError(f"window_size must be a power of two >= 16, got {ws}")
        if self.overlap is None:
            object.__setattr__(self, "overlap", ws // 2)
        if not 0 <= self.overlap < ws:
            raise ConfigError(f"overlap must satisfy 0 <= overlap < window_size, got {self.overlap}")
        if self.window_function not in WINDOW_FUNCTIONS:
            raise ConfigError(
                f"window_function must be one of {WINDOW_FUNCTIONS}, got {self.window_function!r}"
            )

    @property
    def hop(self) -> int:
        return self.window_size - self.overlap


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude matrix over (frequency bin x time frame) with axis vectors."""

    magnitudes: np.ndarray  # (n_freq_bins, n_frames), nonnegative
    freq_bins: np.ndarray  # Hz, ascending; bin k sits at k*fs/window_size
    frame_times: np.ndarray  # seconds, frame centres

    def __post_init__(self):
        _freeze(self, "magnitudes", "freq_bins", "frame_times")

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]

    @property
    def bin_width(self) -> float:
        """Frequency spacing of DFT bins in Hz."""
        return float(self.freq_bins[1] - self.freq_bins[0])


@dataclass(frozen=True)
class Envelope:
    """Per-frame RMS amplitude on the same frame grid as the spectrogram."""

    values: np.ndarray
    frame_times: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", "frame_times")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def _framed(clip: AudioClip, size: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """A clip's frames, a ``(n_frames, size)`` view, and their centre times in seconds.

    ``n_frames = (len(samples) - size) // hop + 1``; the tail that does not
    fill a frame is dropped rather than zero-padded, avoiding a biased
    low-energy trailing frame.
    """
    if len(clip.samples) < size:
        raise ClipTooShortError(f"clip has {len(clip.samples)} samples, need at least {size}")
    frames = sliding_window_view(clip.samples, size)[::hop]
    return frames, (np.arange(len(frames)) * hop + size / 2) / clip.sample_rate


def _blockwise(fn, frames: np.ndarray, width: int, block: int = _BLOCK) -> np.ndarray:
    """Row-wise ``fn`` over ``block`` frames at a time, into one ``(n_frames, width)`` array."""
    out = np.empty((len(frames), width))
    for start in range(0, len(frames), block):
        out[start : start + block] = fn(frames[start : start + block])
    return out


def _thread_limit() -> int:
    """Threads f0kit may keep busy: ``F0_NUM_THREADS``, else the CPUs it may run on."""
    raw = os.environ.get("F0_NUM_THREADS", "")
    if not raw.strip():
        return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    try:
        limit = int(raw)
    except ValueError:
        raise ConfigError(f"F0_NUM_THREADS must be an integer, got {raw!r}")
    if limit < 1:
        raise ConfigError("F0_NUM_THREADS must be at least 1")
    return limit


def _submit(fn, *args):
    """The future of ``fn(*args)`` on the process's one pool, made on first use.

    A cancelled task stays queued until a pool thread drops it, so the task
    reaches ``args`` through a box that is emptied once the future is done:
    the queue keeps no span of a clip's samples alive.
    """
    global _pool
    limit = _thread_limit()
    box = [args]
    with _lock:
        if _pool is None or _pool[0] != limit:  # a dropped pool's threads end when idle
            _pool = limit, ThreadPoolExecutor(limit)
        future = _pool[1].submit(lambda: fn(*box.pop()))
        _pending.add(future)
    future.add_done_callback(_pending.discard)
    future.add_done_callback(lambda _: box.clear())
    return future


def _spanwise(fn, frames: np.ndarray, unit: int) -> np.ndarray:
    """``fn`` over contiguous spans of whole ``unit``-frame blocks, concatenated.

    One span per thread the pool can spare, 1 + min(idle, limit - 1). The
    caller runs the first, and any other that no pool thread has started by
    the time the caller reaches it, so a call from a pool task cannot deadlock.
    """
    limit = _thread_limit()
    blocks = -(-len(frames) // unit)
    with _lock:  # a task counts from its submit; done comes before its waiter wakes
        idle = limit - sum(not future.done() for future in list(_pending))
    n = min(blocks, 1 + min(max(0, idle), limit - 1))
    spans = [frames[unit * (blocks * k // n) : unit * (blocks * (k + 1) // n)] for k in range(n)]
    futures = [_submit(fn, span) for span in spans[1:]]
    return np.concatenate([fn(spans[0])] + [fn(span) if f.cancel() else f.result()
                                            for span, f in zip(spans[1:], futures)])


def spectrogram(clip: AudioClip, config: SpectrogramConfig | None = None) -> Spectrogram:
    """Magnitude spectrogram of a mono clip.

    Each frame is multiplied by the window function and transformed; the
    result holds absolute values of the one-sided DFT, so there are
    ``window_size/2 + 1`` bins from 0 Hz up to the Nyquist frequency.

    Raises:
        ClipTooShortError: fewer samples than ``window_size``.
    """
    config = config or SpectrogramConfig()
    frames, times = _framed(clip, config.window_size, config.hop)
    window = _WINDOWS[config.window_function](config.window_size)
    mags = _blockwise(lambda block: np.abs(np.fft.rfft(block * window, axis=1)),
                      frames, config.window_size // 2 + 1).T
    return Spectrogram(
        magnitudes=mags,
        freq_bins=np.arange(mags.shape[0]) * (clip.sample_rate / config.window_size),
        frame_times=times,
    )


def envelope(clip: AudioClip, config: SpectrogramConfig | None = None) -> Envelope:
    """Per-frame RMS level of the raw (unwindowed) samples.

    Uses the identical frame grid as :func:`spectrogram` under the same
    config, so the tracker can gate spectrogram columns by envelope level
    without resampling.
    """
    config = config or SpectrogramConfig()
    frames, times = _framed(clip, config.window_size, config.hop)
    mean_square = _blockwise(lambda block: np.mean(np.square(block), axis=1, keepdims=True),
                             frames, 1)
    return Envelope(values=np.sqrt(mean_square).ravel(), frame_times=times)
