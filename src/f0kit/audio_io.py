"""WAV decoding into a canonical in-memory clip.

Only RIFF/WAVE containers with 16-bit PCM or 32-bit IEEE-float payloads are
accepted. Unknown chunks are skipped, so files with LIST/INFO/cue metadata
load fine. No resampling is performed anywhere in the package; all analysis
runs at the file's native rate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyAudioError,
    MalformedHeaderError,
    NonFiniteSamplesError,
    NonMonoError,
    UnsupportedEncodingError,
)

# WAVE format tags we decode. Anything else (ADPCM, a-law, 24-bit
# WAVE_FORMAT_EXTENSIBLE, ...) is rejected as unsupported.
_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3

# 16-bit codes are scaled by 1/32768 so -32768 maps exactly to -1.0;
# +32767 lands just shy of +1.0. Standard asymmetry, accepted.
_PCM16_SCALE = 1.0 / 32768.0


@dataclass(frozen=True)
class AudioClip:
    """Decoded PCM audio held as float64 amplitudes in [-1, 1].

    ``samples`` is 1-D with shape ``(n_frames,)`` for mono and 2-D with shape
    ``(n_frames, channels)`` otherwise. Instances are immutable and safe to
    share across threads.
    """

    samples: np.ndarray
    sample_rate: int
    channels: int = field(default=0)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.channels == 0:
            inferred = 1 if samples.ndim == 1 else samples.shape[1]
            object.__setattr__(self, "channels", inferred)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        expected_ndim = 1 if self.channels == 1 else 2
        if samples.ndim != expected_ndim:
            raise ValueError(
                f"samples shape {samples.shape} inconsistent with "
                f"{self.channels} channel(s)"
            )
        peak = np.abs(samples).max() if samples.size else 0.0
        if not np.isfinite(peak):  # max() propagates NaN
            raise NonFiniteSamplesError("samples must be finite (found NaN or inf)")
        if peak > 1.0:
            raise ValueError("samples must lie in [-1.0, 1.0]")

    @property
    def n_frames(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Clip length in seconds."""
        return self.n_frames / self.sample_rate

    def is_mono(self) -> bool:
        return self.channels == 1


def _read_exact(buf: bytes, offset: int, size: int, what: str) -> bytes:
    if offset + size > len(buf):
        raise MalformedHeaderError(f"truncated {what} (need {size} bytes at offset {offset})")
    return buf[offset : offset + size]


def load_wav(path: str | Path) -> AudioClip:
    """Decode a WAV file into an :class:`AudioClip`.

    Accepts canonical 44-byte headers as well as files carrying extra chunks
    before or after ``data``. 16-bit PCM is scaled by 1/32768; 32-bit float
    is passed through (finite values clamped to [-1, 1] for out-of-range
    foreign files).

    Raises:
        MalformedHeaderError: not a RIFF/WAVE file, or a chunk's declared
            size runs past the end of the file.
        UnsupportedEncodingError: format tag other than PCM/IEEE-float, or
            an unsupported bit depth for those tags.
        EmptyAudioError: the data chunk holds zero frames.
        NonFiniteSamplesError: float data holds NaN or infinite samples.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise MalformedHeaderError(f"{path}: too short to be a WAV file")
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: missing RIFF/WAVE magic")

    fmt: tuple[int, int, int, int] | None = None  # (tag, channels, rate, bits)
    data: bytes | None = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = _read_exact(raw, pos + 8, chunk_size, f"'{chunk_id.decode('latin-1')}' chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedHeaderError(f"{path}: fmt chunk too small ({chunk_size} bytes)")
            tag, channels, rate, _byte_rate, _align, bits = struct.unpack_from("<HHIIHH", body, 0)
            fmt = (tag, channels, rate, bits)
        elif chunk_id == b"data":
            data = body
        # all other chunks are skipped
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedHeaderError(f"{path}: no fmt chunk")
    if data is None:
        raise MalformedHeaderError(f"{path}: no data chunk")

    tag, channels, rate, bits = fmt
    if channels < 1 or rate <= 0:
        raise MalformedHeaderError(f"{path}: fmt declares {channels} channels at {rate} Hz")
    if tag == _FORMAT_PCM:
        if bits != 16:
            raise UnsupportedEncodingError(f"{path}: {bits}-bit PCM not supported (16-bit only)")
        codes = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
        samples = codes.astype(np.float64) * _PCM16_SCALE
    elif tag == _FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncodingError(f"{path}: {bits}-bit float not supported (32-bit only)")
        values = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4")
        with np.errstate(invalid="ignore"):  # a signalling NaN warns as it is cast
            samples = values.astype(np.float64)  # NaN and inf stay, for AudioClip to reject
        np.clip(samples, -1.0, 1.0, out=samples, where=np.isfinite(samples))
    else:
        raise UnsupportedEncodingError(f"{path}: WAVE format tag {tag} not supported")

    n_frames = samples.size // channels
    if n_frames == 0:
        raise EmptyAudioError(f"{path}: data chunk holds zero frames")
    samples = samples[: n_frames * channels]
    if channels > 1:
        samples = samples.reshape(n_frames, channels)
    return AudioClip(samples=samples, sample_rate=rate, channels=channels)


def downmix(clip: AudioClip) -> AudioClip:
    """Collapse a clip to mono by averaging channels per frame.

    Mono input is returned unchanged. The unweighted mean keeps each output
    sample inside the per-frame [min, max] channel range, so the amplitude
    invariant is preserved.
    """
    if clip.is_mono():
        return clip
    mono = clip.samples.mean(axis=1)
    return AudioClip(samples=mono, sample_rate=clip.sample_rate, channels=1)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as a canonical 32-bit IEEE-float WAV.

    Samples are stored as float32; loading the file back yields those float32
    values exactly. Clips whose samples already carry only float32 precision
    (everything produced by :func:`load_wav` or the synthesizer) round-trip
    bit-exactly.
    """
    frames = np.asarray(clip.samples, dtype="<f4")
    payload = frames.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        _FORMAT_IEEE_FLOAT,
        clip.channels,
        clip.sample_rate,
        clip.sample_rate * clip.channels * 4,
        clip.channels * 4,
        32,
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def require_mono(clip: AudioClip) -> AudioClip:
    """Return the clip if mono, else raise :class:`NonMonoError`."""
    if not clip.is_mono():
        raise NonMonoError(f"expected mono input, got {clip.channels} channels")
    return clip
