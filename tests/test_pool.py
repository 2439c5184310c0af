"""The process's one worker pool: its size, its span map, and outputs under it.

``F0_NUM_THREADS`` (else the CPU affinity) sizes the pool. A baseline call
splits its frames into spans of whole lag-product blocks over the threads
the pool can spare, and every track must come out bit for bit the same
whatever the thread count.
"""

import os
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from f0kit import (
    AudioClip,
    BaselineConfig,
    ConfigError,
    SpectrogramConfig,
    SynthSpec,
    TrackerConfig,
    autocorr_pitch,
    cepstrum_pitch,
    dsp,
    envelope,
    spectrogram,
    synthesize,
    track,
    write_wav,
    yin_pitch,
)
from f0kit.baselines import _LAG_BLOCK
from f0kit.cli import main

SR = 44100
# seconds a pool test may wait before it counts as a deadlock
TIMEOUT = 30.0


class TestThreadLimit:
    def test_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("F0_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert dsp._thread_limit() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert dsp._thread_limit() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("F0_NUM_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert dsp._thread_limit() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert dsp._thread_limit() == 1

    def test_environment_overrides_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("F0_NUM_THREADS", " 5 ")
        assert dsp._thread_limit() == 5

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", "1.5"])
    def test_bad_values_are_config_errors(self, monkeypatch, raw):
        monkeypatch.setenv("F0_NUM_THREADS", raw)
        with pytest.raises(ConfigError, match="F0_NUM_THREADS"):
            dsp._thread_limit()

    def test_library_calls_read_it_too(self, monkeypatch):
        monkeypatch.setenv("F0_NUM_THREADS", "zero")
        clip = AudioClip(samples=np.zeros(4096), sample_rate=SR)
        with pytest.raises(ConfigError, match="F0_NUM_THREADS"):
            yin_pitch(clip)


@pytest.fixture
def submits(monkeypatch):
    """Every span ``dsp._spanwise`` hands to the pool, with its future."""
    handed = []
    real = dsp._submit

    def spy(fn, *args):
        future = real(fn, *args)
        handed.extend((span, future) for span in args)
        return future

    monkeypatch.setattr(dsp, "_submit", spy)
    return handed


class TestSpanMap:
    def test_keeps_order_when_later_spans_finish_first(self, monkeypatch, submits):
        monkeypatch.setenv("F0_NUM_THREADS", "4")
        frames = np.arange(15 * 7 - 3)

        def fn(span):
            time.sleep(0.05 if span[0] == 0 else 0.0)
            return 2 * span

        assert np.array_equal(dsp._spanwise(fn, frames, 7), 2 * frames)
        assert len(submits) == 3
        # whole 7-frame blocks, so every span but the last starts and ends on a block edge
        assert all(span[0] % 7 == 0 and (span[-1] + 1) % 7 == 0 for span, _ in submits[:-1])

    @pytest.mark.parametrize("limit", ["1", "2", "3"])
    @pytest.mark.parametrize("n_frames", [1, 6, 7, 8, 20, 22])
    def test_covers_every_frame_once(self, monkeypatch, limit, n_frames):
        monkeypatch.setenv("F0_NUM_THREADS", limit)
        frames = np.arange(n_frames)
        assert np.array_equal(dsp._spanwise(lambda span: span + 0, frames, 7), frames)

    def test_one_thread_never_touches_the_pool(self, monkeypatch, submits):
        monkeypatch.setenv("F0_NUM_THREADS", "1")
        dsp._spanwise(lambda span: span, np.arange(100), 7)
        assert submits == []

    @pytest.mark.parametrize("bad", [0, 99])
    def test_an_exception_in_a_span_propagates(self, monkeypatch, bad):
        # frame 0 is in the caller's span, frame 99 in the last one the pool runs
        monkeypatch.setenv("F0_NUM_THREADS", "3")

        def fn(span):
            if bad in span:
                raise ValueError(f"span with frame {bad}")
            return span

        with pytest.raises(ValueError, match=f"frame {bad}"):
            dsp._spanwise(fn, np.arange(100), 7)

    def test_a_cancelled_task_keeps_no_span_alive(self, monkeypatch):
        # a span taken back from the queue is a view of the clip's samples; the
        # task left queued behind the busy thread must not hold it until the
        # thread gets to drop it
        monkeypatch.setenv("F0_NUM_THREADS", "1")
        gate = threading.Event()
        busy = dsp._submit(gate.wait, TIMEOUT)
        span = np.arange(7.0)
        alive = weakref.ref(span)
        queued = dsp._submit(lambda frames: frames, span)
        try:
            assert queued.cancel()
            del span
            assert alive() is None
        finally:
            gate.set()
            busy.result(timeout=TIMEOUT)

    @pytest.mark.parametrize("blind", [False, True])
    @pytest.mark.parametrize("limit", [1, 2])
    def test_a_call_from_a_saturated_pool_completes(self, monkeypatch, submits, limit,
                                                     blind):
        """Every pool thread runs a task that calls a baseline at once. Counted
        right, the pool has no idle thread, so each call runs whole on its
        caller. Told the pool is idle, each call's spans queue behind busy
        threads, and the callers must take them back rather than wait."""
        monkeypatch.setenv("F0_NUM_THREADS", "1")
        clip = _clip(4 * _LAG_BLOCK + 1)
        expected = yin_pitch(clip).f0

        class Blind(set):
            def __iter__(self):
                return iter(())

        monkeypatch.setenv("F0_NUM_THREADS", str(limit))
        if blind:
            monkeypatch.setattr(dsp, "_pending", Blind())
        gate = threading.Barrier(limit, timeout=TIMEOUT)

        def task():
            gate.wait()
            return yin_pitch(clip).f0

        futures = [dsp._submit(task) for _ in range(limit)]
        try:
            for future in futures:
                assert np.array_equal(future.result(timeout=TIMEOUT), expected, equal_nan=True)
        finally:
            # on a deadlock, free the threads by cancelling the spans they wait on,
            # so that the run can still end
            for _, future in submits:
                future.cancel()
        # a blind call cuts one span per thread
        assert len(submits) == (limit * (limit - 1) if blind else 0)


def test_many_callers_share_one_pool(monkeypatch):
    """More callers than cores race to make the pool and cut spans: one pool is
    made, every track is right, and no task is left counted as running."""
    monkeypatch.setenv("F0_NUM_THREADS", "1")
    clip = _clip(3 * _LAG_BLOCK + 1)
    expected = yin_pitch(clip).f0
    made = []

    class Counted(dsp.ThreadPoolExecutor):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setenv("F0_NUM_THREADS", "3")
    monkeypatch.setattr(dsp, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(dsp, "_pool", None)
    results = [None] * 8
    start = threading.Barrier(len(results), timeout=TIMEOUT)

    def caller(i):
        start.wait()
        results[i] = yin_pitch(clip).f0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(results))]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert all(np.array_equal(f0, expected, equal_nan=True) for f0 in results)
    assert len(made) == 1
    assert all(future.done() for future in list(dsp._pending))


def _clip(n_frames: int, frame: int = 2048, hop: int = 512) -> AudioClip:
    """A glide, a stack, a gap and noise, cut to exactly ``n_frames`` baseline frames."""
    parts = [SynthSpec.linear_chirp(600.0, 3000.0, duration=1.2, amplitude=0.6),
             SynthSpec.silence(0.3),
             SynthSpec.harmonic_stack(180.0, (1.0, 0.6, 0.4), duration=2.0, amplitude=0.5)]
    clip, _ = synthesize(SynthSpec.concat(*parts, noise_snr_db=30.0, seed=11), SR)
    n = frame + (n_frames - 1) * hop
    assert len(clip.samples) >= n
    return AudioClip(samples=clip.samples[:n], sample_rate=SR)


def _specmax(clip, f_min):
    cfg = SpectrogramConfig()
    return track(spectrogram(clip, cfg), envelope(clip, cfg),
                 TrackerConfig(f_min=f_min, refine_peak=True))


METHODS = {
    "specmax": _specmax,
    "acf": lambda clip, f_min: autocorr_pitch(clip, BaselineConfig(f_min=f_min)),
    "yin": lambda clip, f_min: yin_pitch(clip, BaselineConfig(f_min=f_min)),
    "cepstrum": lambda clip, f_min: cepstrum_pitch(clip, BaselineConfig(f_min=f_min)),
}


# frame counts that put the last span edge one frame either side of a block edge
@pytest.mark.parametrize("n_frames", [2 * _LAG_BLOCK - 1, 2 * _LAG_BLOCK + 1,
                                      3 * _LAG_BLOCK - 1, 3 * _LAG_BLOCK + 1])
@pytest.mark.parametrize("f_min", [800.0, 100.0])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_tracks_do_not_depend_on_the_thread_count(monkeypatch, submits, method, f_min,
                                                  n_frames):
    clip = _clip(n_frames)
    tracks = []
    for limit in ("1", "2", "3"):
        monkeypatch.setenv("F0_NUM_THREADS", limit)
        tracks.append(METHODS[method](clip, f_min))
    for other in tracks[1:]:
        assert np.array_equal(other.f0, tracks[0].f0, equal_nan=True)
        assert np.array_equal(other.times, tracks[0].times)
    assert np.isfinite(tracks[0].f0).any()
    # spans were cut and handed to the pool: one at two threads, up to two at three
    blocks = -(-n_frames // _LAG_BLOCK)
    assert len(submits) == (0 if method == "specmax" else min(blocks, 3))


def _mask(stdout: str) -> str:
    return re.sub(r"elapsed=[0-9.]+ ms", "elapsed=* ms", stdout)


@pytest.mark.parametrize("method", ["acf", "yin", "cepstrum", "specmax"])
def test_cli_outputs_do_not_depend_on_the_thread_count(tmp_path, capsys, monkeypatch,
                                                       method):
    inputs = []
    for i, n_frames in enumerate([2 * _LAG_BLOCK + 1, 3 * _LAG_BLOCK - 1, 40, 70]):
        inputs.append(tmp_path / f"in{i}.wav")
        write_wav(inputs[-1], _clip(n_frames))
    flags = ["--method", method, "--fmin", "100"]
    runs = []
    for limit in ("1", "2"):
        monkeypatch.setenv("F0_NUM_THREADS", limit)
        batch = tmp_path / f"batch{limit}"
        assert main(["track", *map(str, inputs), *flags, "--out", str(batch)]) == 0
        lines = _mask(capsys.readouterr().out).splitlines()
        tables = [(batch / f"{path.stem}.f0.txt").read_bytes() for path in inputs]
        for path, line, table in zip(inputs, lines, tables):
            single = tmp_path / f"{path.stem}.{limit}.txt"
            assert main(["track", str(path), *flags, "--out", str(single)]) == 0
            assert _mask(capsys.readouterr().out).splitlines() == [line]
            assert single.read_bytes() == table
        runs.append((lines, tables))
    assert runs[0] == runs[1]
