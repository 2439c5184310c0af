import io
import os
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f0kit import (
    AudioClip,
    Envelope,
    PitchTrack,
    Spectrogram,
    SpectrogramConfig,
    SynthSpec,
    TrackerConfig,
    envelope,
    export_table,
    render_plot,
    spectrogram,
    synthesize,
    track,
)
from f0kit.export import _DB_FLOOR, _heatmap_rects, _heatmap_runs, _palette, _pool_max
from conftest import GOLDEN_DIR
import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from songgen import SAMPLE_RATE, generate  # noqa: E402

# the plot's spectrogram panel: left edge, width, bottom edge and height in px,
# the layout that oracles.heatmap_rects defaults to
PANEL = (70.0, 870.0, 260.0, 240.0)


def analyzed_tone(f0=1000.0, duration=0.25, **tracker_kwargs):
    clip, _ = synthesize(SynthSpec.tone(f0, duration=duration), 44100)
    cfg = SpectrogramConfig()
    spec = spectrogram(clip, cfg)
    env = envelope(clip, cfg)
    return spec, env, track(spec, env, TrackerConfig(**tracker_kwargs))


class TestTable:
    def test_header_and_first_row(self):
        _, _, result = analyzed_tone()
        buf = io.StringIO()
        export_table(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# time_s\tf0_hz"
        assert lines[1] == "0.011610\t990.527"

    def test_one_row_per_frame(self):
        _, _, result = analyzed_tone()
        buf = io.StringIO()
        export_table(result, buf)
        assert len(buf.getvalue().splitlines()) == result.n_frames + 1

    def test_unvoiced_written_as_nan(self):
        result = PitchTrack(
            times=np.array([0.0]), f0=np.array([np.nan]), config=TrackerConfig())
        buf = io.StringIO()
        export_table(result, buf)
        assert buf.getvalue().splitlines()[1] == "0.000000\tnan"

    def test_empty_track_rejected(self):
        empty = PitchTrack(times=np.zeros(0), f0=np.zeros(0), config=TrackerConfig())
        buf = io.StringIO()
        with pytest.raises(ValueError):
            export_table(empty, buf)
        assert buf.getvalue() == ""

    def test_round_trip_parse(self):
        _, _, result = analyzed_tone()
        buf = io.StringIO()
        export_table(result, buf)
        rows = [line.split("\t") for line in buf.getvalue().splitlines()[1:]]
        times = np.array([float(t) for t, _ in rows])
        f0 = np.array([float(v) for _, v in rows])
        np.testing.assert_allclose(times, result.times, atol=5e-7)
        np.testing.assert_allclose(f0[~np.isnan(f0)], result.voiced_f0(), atol=5e-4)
        assert np.array_equal(np.isnan(f0), ~result.voiced)

    def test_rows_ascend_in_time(self):
        _, _, result = analyzed_tone(duration=1.0)
        buf = io.StringIO()
        export_table(result, buf)
        times = [float(line.split("\t")[0])
                 for line in buf.getvalue().splitlines()[1:]]
        assert times == sorted(times)

    def test_byte_determinism(self):
        _, _, result = analyzed_tone()
        a, b = io.StringIO(), io.StringIO()
        export_table(result, a)
        export_table(result, b)
        assert a.getvalue() == b.getvalue()


def svg_text(spec, result, env) -> str:
    buf = io.StringIO()
    render_plot(spec, result, env, buf)
    return buf.getvalue()


class TestPlot:
    def test_structure_and_marker_count(self):
        spec, env, result = analyzed_tone()
        content = svg_text(spec, result, env)
        assert content.startswith("<svg ")
        assert content.endswith("\n</svg>\n")
        assert content.count('class="f0"') == int(result.voiced.sum())
        assert len(content) > 1000

    def test_all_unvoiced_track_renders(self):
        clip, _ = synthesize(SynthSpec.silence(duration=0.5), 44100)
        cfg = SpectrogramConfig()
        spec = spectrogram(clip, cfg)
        env = envelope(clip, cfg)
        result = track(spec, env)
        content = svg_text(spec, result, env)
        assert content.count('class="f0"') == 0
        assert "</svg>" in content

    def test_byte_determinism(self):
        spec, env, result = analyzed_tone()
        assert svg_text(spec, result, env) == svg_text(spec, result, env)

    def test_one_bin_spectrogram_renders(self):
        # a 0 Hz-only axis has no span: one tick, and a scale that cannot divide by it
        times = (np.arange(6) + 0.5) / 100.0
        spec = Spectrogram(magnitudes=np.ones((1, 6)), freq_bins=np.array([0.0]),
                           frame_times=times)
        env = Envelope(values=np.full(6, 0.1), frame_times=times)
        result = PitchTrack(times=times, f0=np.array([0.0, np.nan, 0.0, 0.0, np.nan, 0.0]),
                            config=TrackerConfig())
        content = svg_text(spec, result, env)
        assert ElementTree.fromstring(content).tag == "{http://www.w3.org/2000/svg}svg"
        assert content.count('class="f0"') == 4
        assert "nan" not in content and "inf" not in content

    def test_inputs_not_mutated(self):
        spec, env, result = analyzed_tone()
        mags_before = spec.magnitudes.copy()
        f0_before = result.f0.copy()
        svg_text(spec, result, env)
        assert np.array_equal(spec.magnitudes, mags_before)
        assert np.array_equal(result.f0, f0_before, equal_nan=True)


def rich_clip():
    """A harmonic stack, a silent gap and a chirp under low-level noise."""
    clip, _ = synthesize(SynthSpec.concat(
        SynthSpec.harmonic_stack(1200.0, (1.0, 0.5, 0.25), duration=0.3, amplitude=0.6),
        SynthSpec.silence(duration=0.2),
        SynthSpec.linear_chirp(1500.0, 3000.0, duration=0.4, amplitude=0.5),
        noise_snr_db=60.0, seed=7), 44100)
    return clip


def analyzed(clip, cfg=None, **tracker_kwargs):
    cfg = cfg or SpectrogramConfig()
    spec = spectrogram(clip, cfg)
    env = envelope(clip, cfg)
    return spec, env, track(spec, env, TrackerConfig(**tracker_kwargs))


def test_rich_clip_goldens(tmp_path):
    # many heatmap runs, silent frames and refined f0 markers; the golden
    # files were written by the per-cell loop renderer
    spec, env, result = analyzed(rich_clip(), refine_peak=True)
    table_path = tmp_path / "rich.f0.txt"
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        export_table(result, fh)
    svg_path = tmp_path / "rich.f0.svg"
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        render_plot(spec, result, env, fh)
    golden_table = GOLDEN_DIR / "rich.f0.txt"
    golden_svg = GOLDEN_DIR / "rich.f0.svg"
    if os.environ.get("F0KIT_REGEN_GOLDEN"):
        golden_table.write_bytes(table_path.read_bytes())
        golden_svg.write_bytes(svg_path.read_bytes())
        return
    assert table_path.read_bytes() == golden_table.read_bytes()
    assert svg_path.read_bytes() == golden_svg.read_bytes()


def edge_case(name):
    """(clip, spectrogram config) for one of the pooling edge shapes."""
    if name == "no-pooling":  # 129 rows x 33 frames
        tone, _ = synthesize(SynthSpec.tone(1000.0, duration=0.1), 44100)
        return tone, SpectrogramConfig(window_size=256)
    if name == "uneven-pooling":  # 257 rows / 2 and 407 frames / 2 leave remainders
        stack, _ = synthesize(SynthSpec.harmonic_stack(
            700.0, (1.0, 0.6, 0.3), duration=0.601, amplitude=0.8,
            noise_snr_db=50.0, seed=3), 44100)
        return stack, SpectrogramConfig(window_size=512, overlap=448)
    if name == "all-floor":
        silent, _ = synthesize(SynthSpec.silence(duration=0.5), 44100)
        return silent, SpectrogramConfig()
    tone, _ = synthesize(SynthSpec.tone(1000.0, duration=1024 / 44100), 44100)
    return tone, SpectrogramConfig()  # single frame


EDGE_SHAPES = {"no-pooling": (129, 33), "uneven-pooling": (257, 407),
               "all-floor": (513, 42), "single-frame": (513, 1)}


@pytest.mark.parametrize("name", EDGE_SHAPES)
def test_heatmap_matches_per_cell_reference(name):
    spec, env, result = analyzed(*edge_case(name))
    assert spec.magnitudes.shape == EDGE_SHAPES[name]
    rects = [line for line in svg_text(spec, result, env).splitlines()
             if line.startswith("<rect x=")]
    assert rects == oracles.heatmap_rects(spec.magnitudes, _palette())


@pytest.mark.parametrize("shape", [
    (1, 1), (1, 385), (193, 1), (192, 384), (193, 385),
    (257, 769), (513, 515), (600, 1200), (1025, 97),
    (513, 5168),  # a 60 s clip: 14 frames per column, the last column of 2
    (1000, 1543),  # windows of 6 rows and 5 columns, the last of 4 rows and 3 columns
])
def test_pool_max_matches_reshape_reference(shape):
    rng = np.random.default_rng(sum(shape))
    a = np.maximum(rng.normal(-50.0, 20.0, shape), -80.0)
    got = _pool_max(a, 192, 384)
    want = oracles.pool_max_reshape(a, 192, 384)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape,high", [
    ((1, 1), 3), ((1, 7), 3), ((9, 1), 2), ((12, 5), 1), ((40, 30), 2), ((192, 384), 81),
])
def test_heatmap_runs_match_walk_reference(shape, high):
    levels = np.random.default_rng(shape[0] * 1000 + shape[1]).integers(0, high, shape)
    runs = list(zip(*(a.tolist() for a in _heatmap_runs(levels))))
    assert runs == oracles.heatmap_runs(levels)


@pytest.mark.parametrize("peak", [1.0, 0.37, 517.3, 3.1e-6])
def test_db_conversion_never_decreases_across_level_edges(peak):
    # the heatmap max-pools magnitudes before converting them to dB; that
    # picks the same cells as pooling the dB values only while
    # m -> 20*log10(m / peak) never decreases, so check every float64 near
    # the floor and near each edge where the rounded level steps up
    for db_edge in [_DB_FLOOR] + [_DB_FLOOR + k + 0.5 for k in range(80)]:
        edge = peak * 10.0 ** (db_edge / 20.0)
        m = (np.array([edge]).view(np.int64) + np.arange(-300, 301)).view(np.float64)
        assert np.all(np.diff(m) > 0)  # a run of adjacent floats
        db = 20.0 * np.log10(m / peak)
        assert np.all(np.diff(db) >= 0), db_edge
        levels = np.rint(np.fmax(db, _DB_FLOOR) - _DB_FLOOR)
        assert np.all(np.diff(levels) >= 0), db_edge
        assert levels[0] < levels[-1] or db_edge == _DB_FLOOR


def test_heatmap_text_matches_per_run_reference_on_a_song_clip():
    # the benchmark's shape: a 6 s song clip, pooled on both axes
    (clip,) = generate("song", 0, 1, 6.0)
    spec = spectrogram(AudioClip(samples=clip.samples / 32768.0, sample_rate=SAMPLE_RATE))
    assert spec.magnitudes.shape == (513, 515)
    want = oracles.heatmap_rects(spec.magnitudes, _palette())
    assert len(want) > 1000
    assert _heatmap_rects(spec.magnitudes, *PANEL) == "\n".join(want)


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 200), n_cols=st.integers(1, 400), n_levels=st.integers(1, 81),
       run=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_heatmap_text_matches_per_run_reference(n_rows, n_cols, n_levels, run, seed):
    # whole dB levels in vertical runs of up to `run` cells; past 192 rows or
    # 384 columns the panel pools, and one level makes one rect per column
    rng = np.random.default_rng(seed)
    levels = np.repeat(rng.integers(0, n_levels, (-(-n_rows // run), n_cols)), run, axis=0)
    magnitudes = 10.0 ** (levels[:n_rows] / 20.0)
    want = oracles.heatmap_rects(magnitudes, _palette())
    assert _heatmap_rects(magnitudes, *PANEL) == "\n".join(want)
