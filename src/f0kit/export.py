"""Plain-text table export and dependency-free SVG plotting.

The plot path avoids any plotting library on purpose: output must be
byte-identical for identical inputs so rendered files can be diffed and
checked into golden tests. The heatmap is drawn as plain SVG rectangles
(run-length merged down each column) and every coordinate is written with a
fixed format string, so no compressor or font machinery can introduce
variation between runs.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

from .dsp import Envelope, Spectrogram
from .tracker import PitchTrack, db_to_ratio

_DB_FLOOR = -80.0
_MAX_COLS = 384
_MAX_ROWS = 192

# dark-violet-to-yellow anchors, linearly interpolated
_COLOR_ANCHORS = (
    (0.00, (0, 0, 4)),
    (0.25, (87, 16, 110)),
    (0.50, (188, 55, 84)),
    (0.75, (249, 142, 9)),
    (1.00, (252, 255, 164)),
)


def export_table(track: PitchTrack, stream: IO[str]) -> None:
    """Write one tab-separated row per frame to a text stream.

    Times are printed with microsecond precision, frequencies with three
    decimals, and unvoiced frames as the literal token ``nan``.
    """
    if track.n_frames == 0:
        raise ValueError("refusing to export an empty track")
    # PitchTrack holds NaN exactly on unvoiced frames, and NaN formats as "nan"
    rows = map("{:.6f}\t{:.3f}\n".format, track.times.tolist(), track.f0.tolist())
    stream.write("# time_s\tf0_hz\n" + "".join(rows))


def _pool_rows(a: np.ndarray, limit: int) -> np.ndarray:
    """Max over windows of ``ceil(rows / limit)`` rows; the last may be short."""
    width = max(1, math.ceil(a.shape[0] / limit))
    pooled = a[::width].copy()  # each window's first row
    for j in range(1, width):
        rows = a[j::width]  # one short when the last window has no row j
        np.maximum(pooled[:len(rows)], rows, out=pooled[:len(rows)])
    return pooled


def _pool_max(a: np.ndarray, row_limit: int, col_limit: int) -> np.ndarray:
    """Max-pool a 2D array down to at most row_limit x col_limit cells.

    Columns (time) are pooled first, so no intermediate has more than
    ``col_limit`` columns whatever the clip length, and nothing is padded.
    """
    return _pool_rows(_pool_rows(a.T, col_limit).T, row_limit)


def _heatmap_runs(levels: np.ndarray):
    """(column, first row, last row, level) arrays of the vertical runs of one level."""
    n_rows = levels.shape[0]
    flat = levels.T.ravel()  # column after column, each from row 0 up: drawing order
    # uint8 levels lie in 0..80, so a difference that wraps modulo 256 is still != 0
    starts = np.diff(flat, prepend=flat[0]) != 0
    starts[::n_rows] = True  # a run never continues into the next column
    first = np.flatnonzero(starts)
    last = np.append(first[1:], flat.size) - 1
    return first // n_rows, first % n_rows, last % n_rows, flat[first]


def _heatmap_rects(magnitudes: np.ndarray, left: float, plot_width: float,
                   bottom: float, height: float) -> str:
    """The spectrogram panel's ``<rect>`` lines, one per run of one dB level, in one string."""
    # pool first, as log10 is monotonic
    pooled = _pool_max(magnitudes, _MAX_ROWS, _MAX_COLS)
    # fmax takes -inf (a zero bin) and NaN (0/0: a silent clip) to the floor
    with np.errstate(divide="ignore", invalid="ignore"):
        pooled /= pooled.max()  # in place: pooled is _pool_max's own copy
        np.log10(pooled, out=pooled)
    pooled *= 20.0
    np.fmax(pooled, _DB_FLOOR, out=pooled)
    pooled -= _DB_FLOOR
    levels = np.rint(pooled, out=pooled).astype(np.uint8)  # 0 .. 80
    n_rows, n_cols = levels.shape
    cell_w = plot_width / n_cols
    cell_h = height / n_rows
    # row 0 is the lowest frequency, so it sits at the panel bottom; a run's
    # top edge depends only on its last row, its height only on its length
    cols, first, last, run_levels = _heatmap_runs(levels)
    stacked = np.arange(1, n_rows + 1) * cell_h
    pieces = np.empty((cols.size, 9), dtype=object)  # per rect: fixed text around 4 values
    pieces[:, ::2] = ('<rect x="', '" y="', f'" width="{cell_w + 0.05:.2f}" height="',
                      '" fill="', '"/>\n')
    pieces[:, 1] = _fixed2(left + np.arange(n_cols) * cell_w)[cols]
    pieces[:, 3] = _fixed2(bottom - stacked)[last]
    pieces[:, 5] = _fixed2(stacked + 0.05)[last - first]
    pieces[:, 7] = _PALETTE[run_levels]
    return "".join(pieces.ravel().tolist())[:-1]  # no newline after the last rect


def _fixed2(values: np.ndarray) -> np.ndarray:
    """Each value as a ``.2f`` string, in an object array for fancy indexing."""
    return np.array(list(map("{:.2f}".format, values.tolist())), dtype=object)


def _palette() -> list[str]:
    """One hex color per integer dB step from the floor up to 0."""
    positions = np.array([p for p, _ in _COLOR_ANCHORS])
    colors = np.array([c for _, c in _COLOR_ANCHORS], dtype=float)
    levels = np.linspace(0.0, 1.0, int(-_DB_FLOOR) + 1)
    rgb = np.stack(
        [np.rint(np.interp(levels, positions, colors[:, ch])) for ch in range(3)],
        axis=1,
    ).astype(int)
    return [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in rgb]


_PALETTE = np.array(_palette(), dtype=object)


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step."""
    span = hi - lo
    if span <= 0:
        return [lo]
    rough = span / target
    power = 10.0 ** math.floor(math.log10(rough))
    step = 10.0 * power
    for mult in (1.0, 2.0, 5.0):
        if mult * power >= rough:
            step = mult * power
            break
    ticks = []
    value = math.ceil(lo / step) * step
    while value <= hi + 1e-9 * span:
        ticks.append(round(value, 10))
        value += step
    return ticks


def _scale(lo: float, hi: float, px_lo: float, px_hi: float):
    """Affine map from data coordinates to pixel coordinates, elementwise on arrays."""
    gain = (px_hi - px_lo) / (hi - lo if hi != lo else 1.0)
    return lambda value: px_lo + (value - lo) * gain


def render_plot(spectrogram: Spectrogram, track: PitchTrack,
                envelope: Envelope, stream: IO[str]) -> None:
    """Write three stacked panels as SVG text to a text stream.

    Top: the spectrogram on a dB color scale with the search band marked
    when the track's config exposes one. Middle: f0 against time, one
    ``class="f0"`` marker per voiced frame. Bottom: the envelope with the
    silence-gate level drawn as a dashed line. Identical inputs produce
    identical bytes.
    """
    width = 960.0
    left, right = 70.0, 20.0
    top, gap, bottom = 20.0, 30.0, 48.0
    h_spec, h_f0, h_env = 240.0, 130.0, 90.0
    spec_top, spec_bot = top, top + h_spec
    f0_top = spec_bot + gap
    f0_bot = f0_top + h_f0
    env_top = f0_bot + gap
    env_bot = env_top + h_env
    height = env_bot + bottom

    times = spectrogram.frame_times
    t_lo, t_hi = float(times[0]), float(times[-1])
    if t_hi == t_lo:
        t_hi = t_lo + 1e-3
    f_lo, f_hi = 0.0, float(spectrogram.freq_bins[-1])
    sx = _scale(t_lo, t_hi, left, width - right)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>',
    ]

    def text(x, y, label, anchor="middle", size=12):
        parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size:g}" text-anchor="{anchor}" fill="#222222">{label}</text>'
        )

    def line(x1, y1, x2, y2, color="#222222", extra=""):
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="1"{extra}/>'
        )

    def y_axis(scale, lo, hi, panel_top, panel_bot, unit):
        for v in _nice_ticks(lo, hi, target=4):
            y = scale(v)
            line(left - 5, y, left, y)
            text(left - 8, y + 4, f"{v:g}", anchor="end", size=11)
        line(left, panel_top, left, panel_bot)
        line(left, panel_bot, width - right, panel_bot)
        text(left - 52, panel_top + 8, unit, anchor="start", size=11)

    # --- panel 1: spectrogram heatmap ------------------------------------
    parts.append(_heatmap_rects(spectrogram.magnitudes, left, width - left - right,
                                spec_bot, h_spec))
    sy_spec = _scale(f_lo, f_hi, spec_bot, spec_top)
    config = track.config
    for name in ("f_min", "f_max"):
        edge = getattr(config, name, None)
        if edge is not None and f_lo <= edge <= f_hi:
            y = sy_spec(float(edge))
            line(left, y, width - right, y, color="#ffffff",
                 extra=' stroke-dasharray="6 4" opacity="0.7"')
    y_axis(sy_spec, f_lo, f_hi, spec_top, spec_bot, "Hz (dB color)")

    # --- panel 2: f0 scatter ---------------------------------------------
    sy_f0 = _scale(f_lo, f_hi, f0_bot, f0_top)
    circle = ('<circle class="f0" cx="{:.2f}" cy="{:.2f}" r="2.2" fill="#00797f" '
              'stroke="#003344" stroke-width="0.4"/>')
    parts.extend(map(circle.format, sx(track.times[track.voiced]).tolist(),
                     sy_f0(track.f0[track.voiced]).tolist()))
    y_axis(sy_f0, f_lo, f_hi, f0_top, f0_bot, "f0 (Hz)")

    # --- panel 3: envelope with silence gate -------------------------------
    env = envelope.values
    env_peak = float(env.max()) if len(env) and float(env.max()) > 0 else 1.0
    sy_env = _scale(0.0, env_peak, env_bot, env_top)
    points = " ".join(map("{:.2f},{:.2f}".format,
                          sx(envelope.frame_times).tolist(), sy_env(env).tolist()))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#2266cc" '
        f'stroke-width="1.2"/>'
    )
    silence_db = getattr(config, "silence_threshold_db", None)
    if silence_db is not None:
        gate = env_peak * db_to_ratio(float(silence_db))
        line(left, sy_env(gate), width - right, sy_env(gate), color="#cc3322",
             extra=' stroke-dasharray="4 3"')
    y_axis(sy_env, 0.0, env_peak, env_top, env_bot, "rms")

    # --- shared time axis ---------------------------------------------------
    for t in _nice_ticks(t_lo, t_hi):
        x = sx(t)
        line(x, env_bot, x, env_bot + 5)
        text(x, env_bot + 18, f"{t:g}")
    text((left + width - right) / 2, env_bot + 38, "time (s)")
    parts.append("</svg>\n")
    stream.write("\n".join(parts))
