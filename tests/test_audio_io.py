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
    SynthSpec,
    UnsupportedEncodingError,
    load_wav,
    synthesize,
    write_wav,
)
from f0kit import audio_io, synth
from f0kit.cli import main


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
    assert clip.samples.ndim == 1
    assert len(clip.samples) == 44100


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
    clip = load_wav(path)  # a stereo file loads as the mean of its channels
    assert clip.samples.ndim == 1
    assert clip.samples.tolist() == [200 / 32768, 0.0]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 64), channels=st.integers(1, 8),
       float32=st.booleans())
def test_load_wav_is_the_channel_mean(tmp_path_factory, data, n, channels, float32):
    if float32:  # over-range values too: the decoder clips before it averages
        frames = data.draw(arrays(np.float32, (n, channels),
                                  elements=st.floats(-2.0, 2.0, width=32)))
        raw = build_wav(frames.astype("<f4"), format_tag=3, bits=32)
        decoded = np.clip(frames.astype(np.float64), -1.0, 1.0)
    else:
        frames = data.draw(arrays(np.int16, (n, channels)))
        raw = build_wav(frames.astype("<i2"))
        decoded = frames.astype(np.float64) / 32768
    path = tmp_path_factory.mktemp("wav") / "multi.wav"
    path.write_bytes(raw)
    # one channel passes through as decoded: mean() would turn -0.0 into +0.0
    expected = decoded.ravel() if channels == 1 else decoded.reshape(n, channels).mean(axis=1)
    assert load_wav(path).samples.tobytes() == expected.tobytes()


def test_stereo_inf_and_minus_inf_rejected_without_a_warning(tmp_path, recwarn):
    # the frame's mean is NaN, which the clip rejects; the mean must not warn
    frames = np.full((64, 2), 0.25, dtype="<f4")
    frames[10] = [np.inf, -np.inf]
    path = tmp_path / "infs.wav"
    path.write_bytes(build_wav(frames, format_tag=3, bits=32))
    with pytest.raises(NonFiniteSamplesError):
        load_wav(path)
    assert not recwarn.list


def test_clip_rejects_two_dimensional_samples():
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros((64, 2)), sample_rate=8000)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 64)
    with pytest.raises(MalformedHeaderError):
        load_wav(path)


@pytest.mark.parametrize("missing", [b"fmt ", b"data"])
def test_missing_fmt_or_data_chunk_rejected(tmp_path, capsys, missing):
    # a well-formed RIFF/WAVE file that lacks one of the two chunks a clip needs
    chunks = {b"fmt ": struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16), b"data": bytes(200)}
    body = b"WAVE" + b"".join(name + struct.pack("<I", len(chunk)) + chunk
                              for name, chunk in chunks.items() if name != missing)
    path = tmp_path / "a.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(MalformedHeaderError, match=f"no {missing.decode().strip()} chunk"):
        load_wav(path)
    assert main(["track", str(path), "--out", str(tmp_path / "t.txt")]) == 3
    assert not (tmp_path / "t.txt").exists()


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


def test_clip_rejects_a_sample_rate_of_zero():
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        AudioClip(samples=np.zeros(10), sample_rate=0)


def test_clip_rejects_overrange():
    with pytest.raises(ValueError):
        AudioClip(samples=np.array([0.0, 1.5]), sample_rate=44100)


def test_clip_samples_are_read_only(tone_1khz):
    clip, _ = tone_1khz
    with pytest.raises(ValueError):
        clip.samples[0] = 0.5


def test_clip_copies_a_writable_array():
    # else a write by the caller after the checks would reach the clip
    x = np.full(44100, 0.1)
    clip = AudioClip(samples=x, sample_rate=44100)
    x[100], x[200] = np.nan, 5.0
    assert not np.shares_memory(x, clip.samples)
    assert np.all(clip.samples == 0.1)
    assert not clip.samples.flags.writeable


def test_clip_keeps_a_read_only_array():
    x = np.zeros(10)
    x.setflags(write=False)
    assert np.shares_memory(x, AudioClip(samples=x, sample_rate=8000).samples)


def test_clip_copies_a_read_only_view_of_a_writable_array():
    # the view is read-only, but a write through its base would still reach it
    x = np.full(44100, 0.1)
    v = x.view()
    v.setflags(write=False)
    clip = AudioClip(samples=v, sample_rate=44100)
    x[100] = np.nan
    assert not np.shares_memory(x, clip.samples)
    assert np.all(clip.samples == 0.1)


def test_loaders_hand_over_arrays_the_clip_need_not_copy(tmp_path, monkeypatch):
    given = []

    def spy(samples, sample_rate):
        given.append(samples)
        return AudioClip(samples=samples, sample_rate=sample_rate)

    monkeypatch.setattr(audio_io, "AudioClip", spy)
    monkeypatch.setattr(synth, "AudioClip", spy)
    clip, _ = synthesize(SynthSpec.tone(1000.0, duration=0.1), 44100)
    write_wav(tmp_path / "tone.wav", clip)
    loaded = load_wav(tmp_path / "tone.wav")
    assert len(given) == 2
    for samples, made in zip(given, (clip, loaded)):
        assert not samples.flags.writeable
        assert np.shares_memory(samples, made.samples)


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
                     sample_rate=sample_rate)
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
        AudioClip(samples=samples, sample_rate=8000)


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
        assert len(clip.samples) >= 1 and clip.sample_rate >= 1
        assert np.all(np.abs(clip.samples) <= 1.0)


# WAVE_FORMAT_EXTENSIBLE: the KSDATAFORMAT_SUBTYPE GUIDs share these last 14 bytes
KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def build_extensible_wav(frames: np.ndarray, sub_tag: int, bits: int, cb_size: int = 22,
                         guid_tail: bytes = KSDATAFORMAT_TAIL) -> bytes:
    """Mono RIFF bytes under tag 0xFFFE; ``cb_size`` below 22 cuts the extension short."""
    data = frames.tobytes()
    block_align = bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 44100, 44100 * block_align, block_align, bits)
    extension = struct.pack("<HIH", bits, 0x4, sub_tag) + guid_tail  # valid bits, mask, GUID
    fmt += struct.pack("<H", cb_size) + extension[:cb_size]
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("sub_tag,bits,dtype,scale", [(1, 16, "<i2", 32767), (3, 32, "<f4", 0.5)])
def test_extensible_decodes_as_its_plain_subformat(tmp_path, sub_tag, bits, dtype, scale):
    tone = np.sin(2 * np.pi * 1000.0 * np.arange(22050) / 44100)  # 0.5 s at 1 kHz
    frames = (tone * scale).astype(dtype)
    plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
    plain.write_bytes(build_wav(frames, format_tag=sub_tag, bits=bits))
    extensible.write_bytes(build_extensible_wav(frames, sub_tag, bits))
    clip = load_wav(extensible)
    assert clip.sample_rate == 44100 and len(clip.samples) == 22050
    assert np.array_equal(clip.samples, load_wav(plain).samples)


@pytest.mark.parametrize("sub_tag,bits,kwargs", [
    (1, 16, {"guid_tail": bytes(14)}),  # not a KSDATAFORMAT GUID
    (1, 16, {"cb_size": 0}),  # no extension: the subformat is unknown
    (1, 16, {"cb_size": 10}),  # an extension cut before its GUID
    (2, 16, {}),  # ADPCM under the extensible tag
    (1, 24, {}),  # the plain tags' bit-depth rules still hold
    (3, 64, {}),
])
def test_extensible_other_subformats_rejected(tmp_path, sub_tag, bits, kwargs):
    path = tmp_path / "a.wav"
    path.write_bytes(build_extensible_wav(np.zeros(64, dtype="<i2"), sub_tag, bits, **kwargs))
    with pytest.raises(UnsupportedEncodingError) as caught:
        load_wav(path)
    assert caught.value.exit_code == 4
