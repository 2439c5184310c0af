import os
import re
import stat
from dataclasses import fields
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from f0kit import (
    BaselineConfig,
    SpectrogramConfig,
    SynthSpec,
    TrackerConfig,
    cli,
    errors,
    synthesize,
    write_wav,
)
from f0kit.cli import build_parser, exit_code_for, main
from f0kit.errors import (
    ClipTooShortError,
    ConfigError,
    EmptyBandError,
    F0KitError,
    MalformedHeaderError,
    NonFiniteSamplesError,
)


@pytest.fixture
def tone_wav(tmp_path):
    clip, _ = synthesize(SynthSpec.tone(1000.0, duration=1.0), 44100)
    path = tmp_path / "tone.wav"
    write_wav(path, clip)
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# time_s\tf0_hz"
    return lines[1:]


class TestHappyPath:
    def test_default_run(self, tone_wav, capsys):
        out = tone_wav.parent / "table.txt"
        assert main(["track", str(tone_wav), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 85
        summary = capsys.readouterr().out.strip()
        assert "frames=85" in summary
        assert "voiced=100.0%" in summary
        assert "elapsed=" in summary and "ms" in summary

    def test_default_output_name(self, tone_wav, capsys):
        assert main(["track", str(tone_wav)]) == 0
        assert (tone_wav.parent / "tone.f0.txt").exists()

    def test_plot_output(self, tone_wav, capsys):
        out = tone_wav.parent / "t.txt"
        plot = tone_wav.parent / "p.svg"
        code = main(["track", str(tone_wav), "--out", str(out),
                     "--plot", str(plot)])
        assert code == 0
        assert plot.read_text().startswith("<svg ")

    def test_repeat_runs_byte_identical(self, tone_wav, capsys):
        a = tone_wav.parent / "a.txt"
        b = tone_wav.parent / "b.txt"
        assert main(["track", str(tone_wav), "--out", str(a)]) == 0
        assert main(["track", str(tone_wav), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("method", ["specmax", "acf", "yin", "cepstrum"])
    def test_all_methods_run(self, tone_wav, capsys, method, tmp_path):
        out = tmp_path / f"{method}.txt"
        assert main(["track", str(tone_wav), "--method", method,
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_multiple_inputs_to_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("F0_NUM_THREADS", "2")
        paths = []
        for i, f0 in enumerate([1000.0, 2000.0]):
            clip, _ = synthesize(SynthSpec.tone(f0, duration=0.5), 44100)
            p = tmp_path / f"in{i}.wav"
            write_wav(p, clip)
            paths.append(str(p))
        out_dir = tmp_path / "tables"
        assert main(["track", *paths, "--out", str(out_dir)]) == 0
        assert (out_dir / "in0.f0.txt").exists()
        assert (out_dir / "in1.f0.txt").exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(paths[0])  # summaries keep input order

    def test_refine_changes_values(self, tone_wav, capsys, tmp_path):
        coarse = tmp_path / "c.txt"
        fine = tmp_path / "f.txt"
        main(["track", str(tone_wav), "--out", str(coarse)])
        main(["track", str(tone_wav), "--refine", "--out", str(fine)])
        raw = float(read_rows(coarse)[0].split("\t")[1])
        refined = float(read_rows(fine)[0].split("\t")[1])
        assert abs(refined - 1000.0) < abs(raw - 1000.0)

    def test_dump_config(self, tone_wav, capsys, tmp_path):
        main(["track", str(tone_wav), "--method", "yin",
              "--yin-threshold", "0.2", "--out", str(tmp_path / "t.txt"),
              "--dump-config"])
        out = capsys.readouterr().out
        assert "method=yin" in out
        assert "baseline.yin_threshold=0.2" in out
        assert "tracker." not in out  # a yin run builds no TrackerConfig

    def test_verbose_reports_table_and_plot_on_stderr(self, tone_wav, capsys, tmp_path):
        out, plot = tmp_path / "t.txt", tmp_path / "p.svg"
        assert main(["track", str(tone_wav), "-v", "--out", str(out),
                     "--plot", str(plot)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"f0: {tone_wav} -> {out} + {plot}\n"
        assert re.fullmatch(rf"{re.escape(str(tone_wav))}: frames=85 voiced=100\.0% "
                            r"elapsed=\d+\.\d ms\n", captured.out)

    def test_single_file_destination_makes_its_directory(self, tone_wav, capsys, tmp_path):
        out = tmp_path / "missing" / "deeper" / "x.txt"
        assert main(["track", str(tone_wav), "--out", str(out)]) == 0
        assert len(read_rows(out)) == 85

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640), (0o002, 0o664)],
                             ids=["022", "027", "002"])
    def test_outputs_take_their_mode_from_the_umask(self, tone_wav, capsys, tmp_path,
                                                    umask, mode):
        out, plot = tmp_path / "t.txt", tmp_path / "t.svg"
        out.write_text("old\n")
        out.chmod(0o600)  # replaced, not kept
        previous = os.umask(umask)
        try:
            assert main(["track", str(tone_wav), "--out", str(out), "--plot", str(plot)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert stat.S_IMODE(plot.stat().st_mode) == mode
        assert not list(tmp_path.glob("*.tmp"))


class TestDiagnostics:
    def test_inverted_band_fails_validation(self, tone_wav, capsys, tmp_path):
        code = main(["track", str(tone_wav), "--fmin", "9000", "--fmax", "8000",
                     "--out", str(tmp_path / "t.txt")])
        assert code == exit_code_for(ConfigError(""))
        assert "f_min" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["track", str(tmp_path / "ghost.wav")])
        assert code == exit_code_for(OSError())
        assert "ghost.wav" in capsys.readouterr().err

    def test_malformed_wav(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"definitely not riff data")
        code = main(["track", str(bad)])
        assert code == exit_code_for(MalformedHeaderError(""))
        assert "bad.wav" in capsys.readouterr().err

    def test_empty_band_exit_code(self, tone_wav, capsys, tmp_path):
        code = main(["track", str(tone_wav), "--fmin", "100", "--fmax", "120",
                     "--out", str(tmp_path / "t.txt")])
        assert code == exit_code_for(EmptyBandError(""))

    def test_band_between_two_lags_exit_code(self, tmp_path, capsys):
        clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.5), 8000)
        path = tmp_path / "tone8k.wav"
        write_wav(path, clip)
        code = main(["track", str(path), "--method", "yin", "--fmin", "2100", "--fmax", "2600",
                     "--out", str(tmp_path / "t.txt")])
        assert code == 2 == exit_code_for(ConfigError(""))
        assert "spans no integer lag" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_too_short_clip_exit_code(self, tmp_path, capsys):
        clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.01), 44100)
        path = tmp_path / "short.wav"
        write_wav(path, clip)
        code = main(["track", str(path)])
        assert code == exit_code_for(ClipTooShortError(""))

    def test_failed_file_does_not_block_others(self, tone_wav, tmp_path, capsys):
        ghost = tmp_path / "ghost.wav"
        out_dir = tmp_path / "out"
        code = main(["track", str(ghost), str(tone_wav), "--out", str(out_dir)])
        assert code != 0
        assert (out_dir / "tone.f0.txt").exists()

    def test_no_artifact_left_on_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxWAVEgarbage!")
        out = tmp_path / "t.txt"
        main(["track", str(bad), "--out", str(out)])
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_plot_keeps_the_old_svg_and_leaves_no_temp_file(
            self, tone_wav, capsys, monkeypatch, tmp_path):
        out, plot = tmp_path / "t.txt", tmp_path / "t.svg"
        plot.write_bytes(b"<svg>old</svg>\n")

        def failing_plot(spectrogram, track, envelope, stream):
            stream.write("<svg ")
            raise RuntimeError("plot failed halfway")

        monkeypatch.setattr(cli, "render_plot", failing_plot)
        code = main(["track", str(tone_wav), "--out", str(out), "--plot", str(plot)])
        assert code == 1
        assert "plot failed halfway" in capsys.readouterr().err
        assert plot.read_bytes() == b"<svg>old</svg>\n"
        assert len(read_rows(out)) == 85
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_cleanup_still_reports_the_plot_error(
            self, tone_wav, capsys, monkeypatch, tmp_path):
        def failing_plot(spectrogram, track, envelope, stream):
            stream.write("<svg ")
            raise RuntimeError("plot failed halfway")

        def failing_unlink(path):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(cli, "render_plot", failing_plot)
        monkeypatch.setattr(cli.os, "unlink", failing_unlink)
        code = main(["track", str(tone_wav), "--out", str(tmp_path / "t.txt"),
                     "--plot", str(tmp_path / "t.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert "RuntimeError: plot failed halfway" in err
        assert "PermissionError" not in err

    def test_temp_name_collision_leaves_the_other_file_alone(
            self, tone_wav, capsys, monkeypatch, tmp_path):
        out = tmp_path / "t.txt"
        taken = tmp_path / "t.txt.00000000.tmp"
        taken.write_text("not ours\n")
        monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(n))
        code = main(["track", str(tone_wav), "--out", str(out)])
        assert code == exit_code_for(FileExistsError())
        assert taken.read_text() == "not ours\n"
        assert not out.exists()

    def test_bad_thread_env(self, tone_wav, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("F0_NUM_THREADS", "zero")
        code = main(["track", str(tone_wav), "--out", str(tmp_path / "t.txt")])
        assert code == exit_code_for(ConfigError(""))

    def test_readme_exit_code_table_matches_the_error_classes(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| code | condition |", 1)[1].split("\n\n", 1)[0]
        documented = [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.MULTILINE)]
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, F0KitError)]
        by_class = [c.exit_code for c in classes]
        assert len(set(by_class)) == len(by_class), "two error classes share an exit code"
        others = [exit_code_for(RuntimeError()), exit_code_for(OSError())]  # 1 and 13
        assert sorted(documented) == sorted(by_class + others)


class TestFlagScope:
    def test_irrelevant_flag_warns(self, tone_wav, capsys, tmp_path):
        main(["track", str(tone_wav), "--method", "yin",
              "--silence-db", "-30", "--out", str(tmp_path / "t.txt")])
        err = capsys.readouterr().err
        assert "warning" in err
        assert "--silence-db" in err

    def test_relevant_flag_silent(self, tone_wav, capsys, tmp_path):
        main(["track", str(tone_wav), "--silence-db", "-30",
              "--out", str(tmp_path / "t.txt")])
        assert "warning" not in capsys.readouterr().err

    def test_yin_threshold_warns_for_specmax(self, tone_wav, capsys, tmp_path):
        main(["track", str(tone_wav), "--yin-threshold", "0.3",
              "--out", str(tmp_path / "t.txt")])
        assert "--yin-threshold" in capsys.readouterr().err


# every config flag with a value valid for all methods and unlike its default
_FLAG_VALUES = {
    "--fmin": ["700"], "--fmax": ["7000"], "--window": ["512"],
    "--overlap": ["128"], "--window-fn": ["hamming"], "--silence-db": ["-30"],
    "--peak-db": ["-40"], "--refine": [], "--frame-size": ["1024"],
    "--hop": ["256"], "--yin-threshold": ["0.2"],
}


def _reads(method: str, plot: bool, flag: str) -> bool:
    """The rule: specmax reads the tracker flags, a baseline the baseline
    flags (--yin-threshold for yin only), and specmax or --plot the
    spectrogram flags."""
    band = flag in ("--fmin", "--fmax")
    if flag in ("--window", "--overlap", "--window-fn"):
        return method == "specmax" or plot
    if method == "specmax":
        return band or flag in ("--silence-db", "--peak-db", "--refine")
    return band or flag in ("--frame-size", "--hop") or (
        flag == "--yin-threshold" and method == "yin")


@pytest.fixture
def short_tone_wav(tmp_path):
    clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.3), 44100)
    path = tmp_path / "short.wav"
    write_wav(path, clip)
    return path


class TestReadConfigs:
    def _run(self, wav, capsys, *extra):
        code = main(["track", str(wav), "--out", str(wav.with_suffix(".txt")), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("plot", [False, True], ids=["table", "plot"])
    @pytest.mark.parametrize("flag", sorted(_FLAG_VALUES))
    @pytest.mark.parametrize("method", cli.METHODS)
    def test_warning_exactly_when_the_value_is_not_read(self, short_tone_wav, capsys,
                                                        method, flag, plot):
        common = ["--method", method, "--dump-config"]
        if plot:
            common += ["--plot", str(short_tone_wav.with_suffix(".svg"))]
        code, plain, plain_err = self._run(short_tone_wav, capsys, *common)
        assert (code, plain_err) == (0, "")
        code, out, err = self._run(short_tone_wav, capsys, *common, flag,
                                   *_FLAG_VALUES[flag])
        assert code == 0
        dumped, plain_dumped = out.splitlines()[:-1], plain.splitlines()[:-1]
        if _reads(method, plot, flag):
            assert err == ""
            assert dumped != plain_dumped  # the value reached a config
        else:
            assert err == f"f0: warning: {flag} has no effect with method {method}\n"
            assert dumped == plain_dumped

    def test_specmax_accepts_fmin_zero(self, short_tone_wav, capsys):
        code, out, err = self._run(short_tone_wav, capsys, "--fmin", "0")
        assert (code, err) == (0, "")
        assert "voiced=100.0%" in out

    def test_unread_window_is_not_checked(self, short_tone_wav, capsys):
        code, out, err = self._run(short_tone_wav, capsys, "--method", "acf",
                                   "--window", "1000")
        assert code == 0
        assert err == "f0: warning: --window has no effect with method acf\n"

    def test_window_read_by_the_plot_is_checked(self, short_tone_wav, capsys):
        plot = short_tone_wav.with_suffix(".svg")
        code, out, err = self._run(short_tone_wav, capsys, "--method", "acf",
                                   "--window", "1000", "--plot", str(plot))
        assert code == 2
        assert err.startswith("f0: error: window_size must be a power of two")
        assert "warning" not in err and out == "" and not plot.exists()

    def test_window_read_by_the_plot_changes_it(self, short_tone_wav, capsys):
        plot = short_tone_wav.with_suffix(".svg")
        assert self._run(short_tone_wav, capsys, "--method", "acf",
                         "--plot", str(plot))[0] == 0
        default_svg = plot.read_text()
        code, _, err = self._run(short_tone_wav, capsys, "--method", "acf",
                                 "--window", "2048", "--plot", str(plot))
        assert (code, err) == (0, "")
        assert plot.read_text().count("<rect ") < default_svg.count("<rect ")


def test_help_defaults_match_the_config_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["track", "--help"])
    options = capsys.readouterr().out.split("options:\n")[1]
    documented = {}
    for entry in re.split(r"\n  (?=-)", options):  # one entry per option
        default = re.search(r"\(default\s+([^)]+)\)", entry)
        if default:
            documented[re.search(r"--[\w-]+", entry).group()] = default.group(1)
    assert documented.pop("--overlap") == "window/2"
    assert SpectrogramConfig().overlap == SpectrogramConfig().window_size // 2
    assert sorted(documented) == sorted(
        ["--fmin", "--fmax", "--window", "--window-fn", "--silence-db", "--peak-db",
         "--frame-size", "--hop", "--yin-threshold"])
    for flag, text in documented.items():
        field = cli._FLAGS[flag][0]
        defaults = [f.default for cls in (SpectrogramConfig, TrackerConfig, BaselineConfig)
                    for f in fields(cls) if f.name == field]
        assert defaults, flag
        assert all(type(d)(text) == d for d in defaults), (flag, text, defaults)


def test_each_config_field_has_exactly_one_flag():
    flagged = [field for field, _ in cli._FLAGS.values()]
    configured = {f.name for cls in (SpectrogramConfig, TrackerConfig, BaselineConfig)
                  for f in fields(cls)}
    assert sorted(flagged) == sorted(configured)


def test_parser_rejects_unknown_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["track", "x.wav", "--method", "praat"])


def test_main_reuses_one_parser(capsys):
    hits = build_parser.cache_info().hits
    for _ in range(3):
        with pytest.raises(SystemExit):
            main(["track", "x.wav", "--method", "praat"])
    assert build_parser.cache_info().hits >= hits + 3
    assert "invalid choice" in capsys.readouterr().err
    assert build_parser() is build_parser()


def _float_wav(samples: np.ndarray, sample_rate: int = 44100) -> bytes:
    """Mono 32-bit float WAV bytes, written by hand so NaN gets through."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, sample_rate, sample_rate * 4, 4, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestGuards:
    def test_nan_sample_exits_14(self, tmp_path, capsys):
        clip, _ = synthesize(SynthSpec.tone(2000.0, duration=1.0), 44100)
        samples = np.array(clip.samples)
        samples[1000] = np.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(_float_wav(samples))
        out = tmp_path / "t.txt"
        code = main(["track", str(path), "--out", str(out)])
        assert code == 14 == exit_code_for(NonFiniteSamplesError(""))
        captured = capsys.readouterr()
        assert "voiced=" not in captured.out
        assert "NonFiniteSamplesError" in captured.err
        assert not out.exists()

    def _two_inputs_named_a(self, tmp_path):
        clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.5), 44100)
        paths = []
        for sub in ("x", "y"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "a.wav")
            write_wav(paths[-1], clip)
        return [str(p) for p in paths]

    def test_colliding_tables_fail_before_any_work(self, tmp_path, capsys):
        inputs = self._two_inputs_named_a(tmp_path)
        out_dir = tmp_path / "d"
        code = main(["track", *inputs, "--out", f"{out_dir}{os.sep}"])
        assert code == 2 == exit_code_for(ConfigError(""))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "would both write" in captured.err
        assert not list(tmp_path.rglob("*.f0.*"))

    def test_colliding_plots_fail(self, tmp_path, capsys):
        # tables go next to their inputs and differ; the plots collide
        inputs = self._two_inputs_named_a(tmp_path)
        code = main(["track", *inputs, "--plot", str(tmp_path / "p")])
        assert code == 2
        assert "a.f0.svg" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.f0.*"))

    def test_same_input_twice_collides(self, tone_wav, tmp_path, capsys):
        code = main(["track", str(tone_wav), str(tone_wav),
                     "--out", str(tmp_path / "d")])
        assert code == 2

    @pytest.mark.parametrize("method", ["acf", "yin", "cepstrum"])
    def test_baselines_skip_the_spectrogram(self, tone_wav, tmp_path, capsys,
                                            monkeypatch, method):
        def unused(*args):
            raise AssertionError("spectrogram/envelope computed but not used")

        monkeypatch.setattr(cli, "spectrogram", unused)
        monkeypatch.setattr(cli, "envelope", unused)
        assert main(["track", str(tone_wav), "--method", method,
                     "--out", str(tmp_path / "t.txt")]) == 0

    def test_baseline_plot_still_gets_the_spectrogram(self, tone_wav, tmp_path, capsys):
        plot = tmp_path / "p.svg"
        assert main(["track", str(tone_wav), "--method", "yin",
                     "--out", str(tmp_path / "t.txt"), "--plot", str(plot)]) == 0
        assert plot.read_text().count("<rect ") > 1

    @pytest.mark.parametrize("method", ["specmax", "yin"])
    def test_samples_are_freed_before_the_outputs(self, tone_wav, tmp_path, capsys,
                                                  monkeypatch, method):
        # each thread holds its file's peak, so the samples must not stay
        # alive through the table and plot writes
        samples, alive = [], []

        def load_wav(path):
            clip = real_load_wav(path)
            samples.append(weakref.ref(clip.samples))
            return clip

        def export_table(track, stream):
            alive.append(samples[0]() is not None)
            real_export_table(track, stream)

        real_load_wav, real_export_table = cli.load_wav, cli.export_table
        monkeypatch.setattr(cli, "load_wav", load_wav)
        monkeypatch.setattr(cli, "export_table", export_table)
        assert main(["track", str(tone_wav), "--method", method,
                     "--out", str(tmp_path / "t.txt"), "--plot", str(tmp_path / "p.svg")]) == 0
        assert alive == [False]

    @pytest.mark.parametrize("flag,via", [("--out", "."), ("--plot", "sub/..")])
    def test_output_over_the_input_fails_before_any_work(self, tone_wav, capsys,
                                                         flag, via):
        original = tone_wav.read_bytes()
        # the --plot case reaches the input through a detour in its path
        code = main(["track", str(tone_wav), flag, str(tone_wav.parent / via / tone_wav.name)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over an input" in captured.err
        assert tone_wav.read_bytes() == original
        assert not list(tone_wav.parent.glob("*.f0.*"))


class TestPlanningIsPure:
    """A run refused while planning exits 2 and leaves the file system as it was."""

    def _refused(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 == exit_code_for(ConfigError(""))
        assert captured.out == ""
        assert captured.err.startswith("f0: error: ")
        assert "Traceback" not in captured.err
        return captured.err

    def test_collision_creates_no_directory(self, tone_wav, tmp_path, capsys):
        new_dir = tmp_path / "newdir"
        err = self._refused(["track", str(tone_wav), str(tone_wav),
                             "--out", f"{new_dir}{os.sep}"], capsys)
        assert "would both write" in err
        assert not new_dir.exists()

    def test_output_directory_that_is_a_file(self, tone_wav, tmp_path, capsys):
        other = tmp_path / "other.wav"
        other.write_bytes(tone_wav.read_bytes())
        note = tmp_path / "note.txt"
        note.write_text("keep me\n")
        plots = tmp_path / "plots"
        err = self._refused(["track", str(tone_wav), str(other), "--plot", str(plots),
                             "--out", str(note)], capsys)
        assert "note.txt is a file" in err
        assert note.read_text() == "keep me\n"
        assert not plots.exists()
        assert not list(tmp_path.rglob("*.f0.*"))

    def test_file_further_up_the_output_path(self, tone_wav, tmp_path, capsys):
        note = tmp_path / "note.txt"
        note.write_text("keep me\n")
        err = self._refused(["track", str(tone_wav), "--plot",
                             f"{note / 'sub'}{os.sep}"], capsys)
        assert "note.txt is a file" in err
        assert note.read_text() == "keep me\n"

    def test_single_file_destination_under_a_file(self, tone_wav, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep me\n")
        err = self._refused(["track", str(tone_wav), "--out", str(afile / "x.txt")], capsys)
        assert "afile is a file" in err
        assert afile.read_text() == "keep me\n"
        assert not list(tmp_path.rglob("*.tmp"))


def test_batch_plots_on_two_workers_match_single_input_plots(tmp_path, capsys, monkeypatch):
    # every plot reads one module-level palette, whichever worker thread draws it
    monkeypatch.setenv("F0_NUM_THREADS", "2")
    paths = []
    for i, spec in enumerate([
        SynthSpec.tone(1000.0, duration=0.5),
        SynthSpec.linear_chirp(1500.0, 3000.0, duration=0.5, amplitude=0.5),
        SynthSpec.harmonic_stack(1200.0, (1.0, 0.5, 0.25), duration=0.5, amplitude=0.6),
        SynthSpec.concat(SynthSpec.tone(2500.0, duration=0.3, amplitude=0.5),
                         SynthSpec.silence(duration=0.2), noise_snr_db=40.0, seed=3),
    ]):
        clip, _ = synthesize(spec, 44100)
        paths.append(tmp_path / f"in{i}.wav")
        write_wav(paths[-1], clip)
    plots = tmp_path / "plots"
    assert main(["track", *map(str, paths), "--refine", "--out", str(tmp_path / "tables"),
                 "--plot", str(plots)]) == 0
    svgs = set()
    for path in paths:
        single = tmp_path / f"{path.stem}.single.svg"
        assert main(["track", str(path), "--refine", "--out", str(tmp_path / "t.txt"),
                     "--plot", str(single)]) == 0
        assert (plots / f"{path.stem}.f0.svg").read_bytes() == single.read_bytes()
        svgs.add(single.read_bytes())
    assert len(svgs) == 4
