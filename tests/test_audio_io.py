import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from f0kit import (
    AudioClip,
    EmptyAudioError,
    F0KitError,
    MalformedHeaderError,
    NonFiniteSamplesError,
    NonMonoError,
    UnsupportedEncodingError,
    downmix,
    load_wav,
    require_mono,
    write_wav,
)


def build_wav(frames: np.ndarray, sample_rate=44100, format_tag=1,
              bits=16, junk_chunk: bytes | None = None) -> bytes:
    """Assemble RIFF bytes by hand, independent of the library's writer."""
    channels = 1 if frames.ndim == 1 else frames.shape[1]
    data = frames.tobytes()
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if junk_chunk is not None:
        body += b"LIST" + struct.pack("<I", len(junk_chunk)) + junk_chunk
        if len(junk_chunk) % 2:
            body += b"\x00"
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_load_pcm16_header_fields(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(build_wav(np.zeros(44100, dtype="<i2")))
    clip = load_wav(path)
    assert clip.sample_rate == 44100
    assert clip.channels == 1
    assert clip.duration == pytest.approx(1.0)
    assert clip.is_mono()


def test_pcm16_scaling_is_exact(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(build_wav(np.array([-32768, 16384, 0, 32767], dtype="<i2")))
    clip = load_wav(path)
    assert clip.samples.tolist() == [-1.0, 0.5, 0.0, 32767 / 32768]


def test_load_float32(tmp_path):
    path = tmp_path / "a.wav"
    values = np.array([0.25, -0.75, 1.0], dtype="<f4")
    path.write_bytes(build_wav(values, format_tag=3, bits=32))
    clip = load_wav(path)
    assert clip.samples.tolist() == [0.25, -0.75, 1.0]


def test_load_float32_clamps_overrange(tmp_path):
    path = tmp_path / "a.wav"
    values = np.array([1.5, -2.0], dtype="<f4")
    path.write_bytes(build_wav(values, format_tag=3, bits=32))
    clip = load_wav(path)
    assert clip.samples.tolist() == [1.0, -1.0]


def test_unknown_chunks_are_skipped(tmp_path):
    path = tmp_path / "a.wav"
    frames = np.array([100, -100], dtype="<i2")
    path.write_bytes(build_wav(frames, junk_chunk=b"odd"))  # 3 bytes, padded
    clip = load_wav(path)
    assert clip.samples.tolist() == [100 / 32768, -100 / 32768]


def test_stereo_load_and_downmix(tmp_path):
    path = tmp_path / "a.wav"
    frames = np.array([[100, 300], [-200, 200]], dtype="<i2")
    path.write_bytes(build_wav(frames))
    clip = load_wav(path)
    assert clip.channels == 2
    assert not clip.is_mono()
    with pytest.raises(NonMonoError):
        require_mono(clip)
    mono = downmix(clip)
    assert mono.is_mono()
    assert mono.samples.tolist() == [200 / 32768, 0.0]


def test_downmix_keeps_mono_identical(tone_1khz):
    clip, _ = tone_1khz
    mono = downmix(clip)
    assert mono.is_mono()
    assert np.array_equal(mono.samples, clip.samples)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 64)
    with pytest.raises(MalformedHeaderError):
        load_wav(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "a.wav"
    good = build_wav(np.zeros(100, dtype="<i2"))
    path.write_bytes(good[: len(good) - 50])
    with pytest.raises(MalformedHeaderError):
        load_wav(path)


@pytest.mark.parametrize("format_tag,bits", [(2, 16), (6, 16), (1, 8), (1, 24), (3, 64)])
def test_unsupported_encodings_rejected(tmp_path, format_tag, bits):
    path = tmp_path / "a.wav"
    raw = np.zeros(64, dtype="<i2")
    path.write_bytes(build_wav(raw, format_tag=format_tag, bits=bits))
    with pytest.raises(UnsupportedEncodingError):
        load_wav(path)


def test_zero_frames_rejected(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(build_wav(np.zeros(0, dtype="<i2")))
    with pytest.raises(EmptyAudioError):
        load_wav(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_wav(tmp_path / "nope.wav")


def test_clip_rejects_overrange():
    with pytest.raises(ValueError):
        AudioClip(samples=np.array([0.0, 1.5]), sample_rate=44100, channels=1)


def test_clip_samples_are_read_only(tone_1khz):
    clip, _ = tone_1khz
    with pytest.raises(ValueError):
        clip.samples[0] = 0.5


def test_write_read_round_trip_fixed(tmp_path, tone_1khz):
    clip, _ = tone_1khz
    path = tmp_path / "out.wav"
    write_wav(path, clip)
    again = load_wav(path)
    assert again.sample_rate == clip.sample_rate
    assert np.array_equal(again.samples, clip.samples)


@settings(max_examples=30, deadline=None)
@given(
    samples=arrays(
        np.float32,
        st.integers(min_value=1, max_value=256),
        elements=st.floats(-1.0, 1.0, width=32),
    ),
    sample_rate=st.sampled_from([8000, 22050, 44100, 48000]),
)
def test_write_read_round_trip_property(tmp_path_factory, samples, sample_rate):
    clip = AudioClip(samples=samples.astype(np.float64),
                     sample_rate=sample_rate, channels=1)
    path = tmp_path_factory.mktemp("wav") / "rt.wav"
    write_wav(path, clip)
    again = load_wav(path)
    assert again.sample_rate == sample_rate
    assert np.array_equal(again.samples, clip.samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_rejects_non_finite(bad):
    samples = np.zeros(64)
    samples[10] = bad
    with pytest.raises(NonFiniteSamplesError):
        AudioClip(samples=samples, sample_rate=8000, channels=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_wav_with_non_finite_sample_rejected(tmp_path, bad):
    samples = np.full(256, 0.25, dtype="<f4")
    samples[100] = bad
    path = tmp_path / "nan.wav"
    path.write_bytes(build_wav(samples, format_tag=3, bits=32))
    with pytest.raises(NonFiniteSamplesError):
        load_wav(path)


def test_signalling_nan_rejected_without_a_warning(tmp_path, recwarn):
    # a quiet NaN casts silently; a signalling one (0x7f800001) warns as it
    # is cast to float64, before the clip rejects it
    samples = np.full(256, 0.25, dtype="<f4")
    samples.view("<u4")[100] = 0x7F800001
    path = tmp_path / "snan.wav"
    path.write_bytes(build_wav(samples, format_tag=3, bits=32))
    with pytest.raises(NonFiniteSamplesError):
        load_wav(path)
    assert not recwarn.list


def load_or_typed_error(path):
    """load_wav's result, or None when it raised an F0KitError; anything else propagates."""
    try:
        clip = load_wav(path)
    except F0KitError:
        return None
    assert isinstance(clip, AudioClip)
    return clip


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=256))
def test_load_wav_arbitrary_bytes_decode_or_raise_typed(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "any.wav"
    path.write_bytes(raw)
    load_or_typed_error(path)


_fmt_bodies = st.builds(
    lambda encoding, channels, rate, tail: struct.pack(
        "<HHIIHH", encoding[0], channels, rate, 0, 0, encoding[1]) + tail,
    st.sampled_from([(1, 16), (3, 32)]) | st.tuples(st.integers(0, 0xFFFF),
                                                     st.integers(0, 0xFFFF)),
    st.integers(1, 3) | st.integers(0, 0xFFFF),
    st.sampled_from([8000, 44100]) | st.integers(0, 0xFFFFFFFF),
    st.binary(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    fmt=_fmt_bodies,
    extra=st.lists(st.tuples(st.binary(min_size=4, max_size=4), st.binary(max_size=16)),
                   max_size=2),
    data=st.binary(min_size=1, max_size=64),
    tail=st.binary(max_size=12),
    order=st.permutations(range(3)),
    bad_size=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 0xFFFFFFFF)),
)
def test_load_wav_arbitrary_chunks_decode_or_raise_typed(tmp_path_factory, fmt, extra,
                                                         data, tail, order, bad_size):
    # a RIFF/WAVE header, then fmt, data and unknown chunks in any order, each
    # padded to an even length, with at most one size field overwritten
    groups = [[(b"fmt ", fmt)], extra, [(b"data", data)]]
    chunks = [chunk for g in order for chunk in groups[g]]
    sizes = [len(body) for _, body in chunks]
    if bad_size is not None:
        index, size = bad_size
        sizes[index % len(sizes)] = size
    body = b"WAVE" + b"".join(
        chunk_id + struct.pack("<I", size) + body + b"\x00" * (len(body) & 1)
        for (chunk_id, body), size in zip(chunks, sizes)) + tail
    path = tmp_path_factory.mktemp("fuzz") / "chunks.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    clip = load_or_typed_error(path)
    if clip is not None:
        assert clip.n_frames >= 1 and clip.sample_rate >= 1
        assert np.all(np.abs(clip.samples) <= 1.0)
