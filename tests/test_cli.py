import os
import struct

import numpy as np
import pytest

from f0kit import SynthSpec, cli, synthesize, write_wav
from f0kit.cli import build_parser, exit_code_for, main
from f0kit.errors import (
    ClipTooShortError,
    ConfigError,
    EmptyBandError,
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
        assert "tracker.f_min=800.0" in out


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

    def test_bad_thread_env(self, tone_wav, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("F0_NUM_THREADS", "zero")
        code = main(["track", str(tone_wav), "--out", str(tmp_path / "t.txt")])
        assert code == exit_code_for(ConfigError(""))


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


def test_parser_rejects_unknown_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["track", "x.wav", "--method", "praat"])


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

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("F0_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._worker_count(8) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli._worker_count(8) == 3
        assert cli._worker_count(2) == 2

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("F0_NUM_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._worker_count(8) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._worker_count(8) == 1

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
