"""Slow, independent reference implementations used to pin down the fast code.

Everything here is written as literal summation loops or O(N^2) matrix
products so a bug in the library's FFT plumbing cannot hide in the tests.
Keep these dumb; speed does not matter at test sizes. The ``whole_clip_*``
expressions are the one exception: they are the analysis as it ran before
it moved to blocks of frames, kept so the blocked code is pinned to it bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np


def naive_dft_magnitudes(frame: np.ndarray) -> np.ndarray:
    """One-sided DFT magnitudes via an explicit O(N^2) outer product."""
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    basis = np.exp(-2j * math.pi * k * t / n)
    return np.abs(basis @ frame)


def naive_rms(frame: np.ndarray) -> float:
    total = 0.0
    for v in frame:
        total += float(v) * float(v)
    return math.sqrt(total / len(frame))


def brute_force_track(samples: np.ndarray, sample_rate: int, *,
                      window_size: int = 1024, hop: int = 512,
                      window: np.ndarray | None = None,
                      f_min: float = 800.0, f_max: float = 8000.0,
                      silence_db: float = -40.0, peak_db: float = -45.0):
    """Full pipeline reference: returns (argmax bins, voiced flags).

    Frames, magnitudes, envelope, gates and the band argmax are all computed
    with plain loops; the argmax keeps the first (lowest-frequency) maximum.
    """
    if window is None:
        window = np.hanning(window_size)
    n_frames = (len(samples) - window_size) // hop + 1
    mags = []
    env = []
    for j in range(n_frames):
        frame = samples[j * hop : j * hop + window_size]
        mags.append(naive_dft_magnitudes(frame * window))
        env.append(naive_rms(frame))
    mags = np.stack(mags, axis=1)
    env = np.array(env)

    freq = np.array([k * sample_rate / window_size for k in range(window_size // 2 + 1)])
    band = [k for k in range(len(freq)) if f_min <= freq[k] <= f_max]
    max_env = env.max()
    global_max = mags.max()
    silence_gate = max_env * 10.0 ** (silence_db / 20.0)
    peak_gate = global_max * 10.0 ** (peak_db / 20.0)

    bins = np.zeros(n_frames, dtype=int)
    voiced = np.zeros(n_frames, dtype=bool)
    for j in range(n_frames):
        best_bin, best_mag = band[0], mags[band[0], j]
        for k in band[1:]:
            if mags[k, j] > best_mag:
                best_bin, best_mag = k, mags[k, j]
        bins[j] = best_bin
        if max_env == 0.0 or global_max == 0.0:
            continue
        if env[j] < silence_gate:
            continue
        if best_mag < peak_gate:
            continue
        voiced[j] = True
    return bins, voiced


def acf_scan(frame: np.ndarray, tau_min: int, tau_max: int):
    """Exhaustive normalized autocorrelation; returns (values, r0)."""
    n = len(frame)
    r0 = 0.0
    for t in range(n):
        r0 += float(frame[t]) * float(frame[t])
    values = {}
    for tau in range(tau_min, tau_max + 1):
        acc = 0.0
        for t in range(n - tau):
            acc += float(frame[t]) * float(frame[t + tau])
        values[tau] = acc / r0 if r0 > 0 else 0.0
    return values, r0


def yin_scan(frame: np.ndarray, tau_max: int):
    """Exhaustive difference function and its cumulative-mean normalization."""
    w = len(frame) // 2
    d = [0.0]
    for tau in range(1, tau_max + 1):
        acc = 0.0
        for t in range(w):
            diff = float(frame[t]) - float(frame[t + tau])
            acc += diff * diff
        d.append(acc)
    dn = [1.0]
    running = 0.0
    for tau in range(1, tau_max + 1):
        running += d[tau]
        dn.append(d[tau] * tau / running if running > 0 else 1.0)
    return np.array(d), np.array(dn)


def cepstrum_scan(frame: np.ndarray, window: np.ndarray,
                  quefrencies: range) -> dict[int, float]:
    """Real cepstrum at selected quefrencies via naive DFT sums."""
    n = len(frame)
    log_mag = np.log(naive_dft_magnitudes(frame * window) + 1e-12)
    out = {}
    for q in quefrencies:
        acc = log_mag[0] + log_mag[n // 2] * math.cos(math.pi * q)
        for k in range(1, n // 2):
            acc += 2.0 * log_mag[k] * math.cos(2.0 * math.pi * k * q / n)
        out[q] = acc / n
    return out


def whole_clip_magnitudes(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Spectrogram magnitudes, (bins x frames), from one rfft over every frame."""
    return np.abs(np.fft.rfft(frames * window, axis=1)).T


def whole_clip_rms(frames: np.ndarray) -> np.ndarray:
    """Per-frame RMS from one mean over every frame."""
    return np.sqrt(np.mean(np.square(frames), axis=1))


def whole_clip_cepstrum_region(frames: np.ndarray, tau_min: int, tau_max: int) -> np.ndarray:
    """Real cepstra of Hamming-windowed frames at lags tau_min..tau_max."""
    spectra = np.abs(np.fft.rfft(frames * np.hamming(frames.shape[1]), axis=1))
    cepstra = np.fft.irfft(np.log(spectra + 1e-12), axis=1)
    return cepstra[:, tau_min : tau_max + 1]


def _parabola(left: float, center: float, right: float) -> float:
    """Vertex offset of a parabola through three equally spaced points, in [-0.5, 0.5]."""
    denom = left - 2.0 * center + right
    if denom == 0.0:
        return 0.0
    return min(0.5, max(-0.5, 0.5 * (left - right) / denom))


def acf_pick(norm: np.ndarray, r0: float, tau_min: int):
    """Per-frame autocorrelation rule on one row of normalized values.

    ``norm[i]`` is the normalized ACF at lag ``tau_min + i``. Takes the first
    maximum, voices it at >= 0.5 and refines it unless it sits on either end
    of the window. Returns (lag, sub-lag offset, strength, voiced).
    """
    if r0 <= 0.0:
        return tau_min, 0.0, 0.0, False
    best = 0
    for i in range(1, len(norm)):
        if norm[i] > norm[best]:
            best = i
    delta = 0.0
    if 0 < best < len(norm) - 1:
        delta = _parabola(norm[best - 1], norm[best], norm[best + 1])
    return tau_min + best, delta, float(norm[best]), bool(norm[best] >= 0.5)


def yin_pick(dn: np.ndarray, tau_min: int, tau_max: int, threshold: float):
    """Per-frame YIN rule on one row ``dn`` of d'(tau) for lags 0..tau_max.

    The first lag in [tau_min, tau_max] under ``threshold`` is walked
    downhill while d' keeps falling, then refined unless it is tau_max.
    Rows that never cross are unvoiced with strength 1 - min d' over the
    window. Returns (lag, sub-lag offset, strength, voiced).
    """
    for tau in range(tau_min, tau_max + 1):
        if dn[tau] < threshold:
            while tau + 1 <= tau_max and dn[tau + 1] < dn[tau]:
                tau += 1
            delta = 0.0
            if tau + 1 <= tau_max:
                delta = _parabola(dn[tau - 1], dn[tau], dn[tau + 1])
            return tau, delta, 1.0 - float(dn[tau]), True
    lowest = dn[tau_min]
    for tau in range(tau_min + 1, tau_max + 1):
        lowest = min(lowest, dn[tau])
    return tau_min, 0.0, 1.0 - float(lowest), False


def cepstrum_pick(region: np.ndarray, tau_min: int):
    """Per-frame cepstrum rule on one row of cepstral values over the lag window.

    Takes the first maximum and voices it when it exceeds four times the
    median absolute value of the row; refined unless on either end.
    Returns (lag, sub-lag offset, strength, voiced).
    """
    best = 0
    for i in range(1, len(region)):
        if region[i] > region[best]:
            best = i
    mags = sorted(abs(float(v)) for v in region)
    mid = len(mags) // 2
    floor = mags[mid] if len(mags) % 2 else (mags[mid - 1] + mags[mid]) / 2.0
    delta = 0.0
    if 0 < best < len(region) - 1:
        delta = _parabola(region[best - 1], region[best], region[best + 1])
    peak = float(region[best])
    return tau_min + best, delta, peak, peak > 4.0 * floor


def pool_max_reshape(a: np.ndarray, row_limit: int, col_limit: int,
                     floor: float = -80.0) -> np.ndarray:
    """Max-pool to at most row_limit x col_limit cells via a padded 4-D reshape."""
    rows, cols = a.shape
    fr = max(1, math.ceil(rows / row_limit))
    fc = max(1, math.ceil(cols / col_limit))
    if fr == 1 and fc == 1:
        return a
    pad_r = (-rows) % fr
    pad_c = (-cols) % fc
    padded = np.pad(a, ((0, pad_r), (0, pad_c)), constant_values=floor)
    shaped = padded.reshape(padded.shape[0] // fr, fr, padded.shape[1] // fc, fc)
    return shaped.max(axis=(1, 3))


def heatmap_runs(levels: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(col, first row, last row, level) of each vertical run of equal levels.

    Walks every column from row 0 up, one cell at a time, in drawing order.
    """
    n_rows, n_cols = levels.shape
    runs = []
    for col in range(n_cols):
        row = 0
        while row < n_rows:
            run = row
            level = levels[row, col]
            while run + 1 < n_rows and levels[run + 1, col] == level:
                run += 1
            runs.append((col, row, run, int(level)))
            row = run + 1
    return runs


def heatmap_rects(magnitudes: np.ndarray, palette: list[str], *,
                  left: float = 70.0, plot_width: float = 870.0,
                  bottom: float = 260.0, height: float = 240.0,
                  floor: float = -80.0, max_rows: int = 192,
                  max_cols: int = 384) -> list[str]:
    """The spectrogram panel's ``<rect>`` lines, one formatted run at a time.

    The defaults are the plot layout: a 960 px wide canvas with 70/20 px
    side margins and a 240 px spectrogram panel whose bottom sits at 260 px.
    """
    peak = magnitudes.max()
    if peak > 0:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(magnitudes / peak)
        db = np.maximum(db, floor)
    else:
        db = np.full(magnitudes.shape, floor)
    levels = np.rint(pool_max_reshape(db, max_rows, max_cols, floor) - floor).astype(int)
    n_rows, n_cols = levels.shape
    cell_w = plot_width / n_cols
    cell_h = height / n_rows
    lines = []
    for col, row, run, level in heatmap_runs(levels):
        x = left + col * cell_w
        y_top = bottom - (run + 1) * cell_h
        lines.append(
            f'<rect x="{x:.2f}" y="{y_top:.2f}" width="{cell_w + 0.05:.2f}" '
            f'height="{(run - row + 1) * cell_h + 0.05:.2f}" '
            f'fill="{palette[level]}"/>'
        )
    return lines
