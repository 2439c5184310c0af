"""WAV decoding into a canonical in-memory clip.

Only RIFF/WAVE containers with 16-bit PCM or 32-bit IEEE-float payloads are
accepted, plain or as WAVE_FORMAT_EXTENSIBLE. Unknown chunks are skipped, so
files with LIST/INFO/cue metadata load fine. No resampling is performed
anywhere in the package; all analysis runs at the file's native rate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyAudioError,
    MalformedHeaderError,
    NonFiniteSamplesError,
    UnsupportedEncodingError,
)

# WAVE format tags we decode; anything else (ADPCM, a-law, ...) is unsupported.
# An extensible file's real tag is the first two bytes of its subformat GUID,
# whose other 14 bytes are the same for every KSDATAFORMAT subtype.
_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")

# 16-bit codes are scaled by 1/32768 so -32768 maps exactly to -1.0;
# +32767 lands just shy of +1.0. Standard asymmetry, accepted.
_PCM16_SCALE = 1.0 / 32768.0


def _freeze(obj, *names: str) -> None:
    """Replace each named array field of a frozen dataclass by a read-only
    view of it; the caller's own array stays writable and nothing is copied."""
    for name in names:
        view = getattr(obj, name).view()
        view.setflags(write=False)
        object.__setattr__(obj, name, view)


@dataclass(frozen=True)
class AudioClip:
    """Decoded mono audio held as float64 amplitudes in [-1, 1].

    ``samples`` is 1-D; :func:`load_wav` averages a multichannel file down
    to it. Instances are immutable and safe to share across threads. The
    array passed in is copied, so that a later write by the caller cannot
    bypass the checks, unless it is a read-only float64 array that owns its
    data (``base is None``), as ``load_wav`` and ``synthesize`` hand over.
    Such an array has no base to write through, but a writable view taken
    of it before it was made read-only must not be written either.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        given = self.samples
        sealed = (isinstance(given, np.ndarray) and not given.flags.writeable
                  and given.base is None)
        object.__setattr__(self, "samples",
                           (np.asarray if sealed else np.array)(given, dtype=np.float64))
        _freeze(self, "samples")
        samples = self.samples
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D (mono), got shape {samples.shape}")
        peak = np.maximum(samples.max(), -samples.min()) if samples.size else 0.0
        if not np.isfinite(peak):  # max() and min() propagate NaN
            raise NonFiniteSamplesError("samples must be finite (found NaN or inf)")
        if peak > 1.0:
            raise ValueError("samples must lie in [-1.0, 1.0]")


def load_wav(path: str | Path) -> AudioClip:
    """Decode a WAV file into a mono :class:`AudioClip`.

    Accepts canonical 44-byte headers as well as files carrying extra chunks
    before or after ``data``, and WAVE_FORMAT_EXTENSIBLE with a PCM or float
    subformat. 16-bit PCM is scaled by 1/32768; 32-bit float is passed
    through (finite values clamped to [-1, 1] for out-of-range foreign
    files). A multichannel file loads as the per-frame mean of its channels.

    Raises:
        MalformedHeaderError: not a RIFF/WAVE file, or a chunk's declared
            size runs past the end of the file.
        UnsupportedEncodingError: format tag (or extensible subformat) other
            than PCM/IEEE-float, or an unsupported bit depth for those tags.
        EmptyAudioError: the data chunk holds zero frames.
        NonFiniteSamplesError: float data holds NaN or infinite samples.
    """
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < 12:
        raise MalformedHeaderError(f"{path}: too short to be a WAV file")
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: missing RIFF/WAVE magic")

    fmt: tuple[int, int, int, int] | None = None  # (tag, channels, rate, bits)
    data: memoryview | None = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = bytes(raw[pos : pos + 4])
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise MalformedHeaderError(f"truncated '{chunk_id.decode('latin-1')}' chunk "
                                       f"(need {chunk_size} bytes at offset {pos + 8})")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedHeaderError(f"{path}: fmt chunk too small ({chunk_size} bytes)")
            tag, channels, rate, _byte_rate, _align, bits = struct.unpack_from("<HHIIHH", body, 0)
            if tag == _FORMAT_EXTENSIBLE and chunk_size >= 40 and body[26:40] == _SUBFORMAT_TAIL:
                cb_size, sub_tag = struct.unpack_from("<H6xH", body, 16)
                tag = sub_tag if cb_size >= 22 else tag  # a short extension stays unsupported
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
        samples = np.frombuffer(data, dtype="<i2", count=len(data) // 2) * _PCM16_SCALE
    elif tag == _FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncodingError(f"{path}: {bits}-bit float not supported (32-bit only)")
        values = np.frombuffer(data, dtype="<f4", count=len(data) // 4)
        with np.errstate(invalid="ignore"):  # a signalling NaN warns as it is cast
            samples = values.astype(np.float64)  # NaN and inf stay, for AudioClip to reject
        np.clip(samples, -1.0, 1.0, out=samples, where=np.isfinite(samples))
    else:
        raise UnsupportedEncodingError(f"{path}: WAVE format tag {tag} not supported")

    n_frames = samples.size // channels
    if n_frames == 0:
        raise EmptyAudioError(f"{path}: data chunk holds zero frames")
    if channels > 1:
        with np.errstate(invalid="ignore"):  # inf and -inf in one frame average to NaN
            samples = samples[: n_frames * channels].reshape(n_frames, channels).mean(axis=1)
    samples.setflags(write=False)  # nothing else holds it, so AudioClip need not copy it
    return AudioClip(samples=samples, sample_rate=rate)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as a canonical mono 32-bit IEEE-float WAV.

    Samples are stored as float32; loading the file back yields those float32
    values exactly. Clips whose samples already carry only float32 precision
    (everything produced by :func:`load_wav` or the synthesizer) round-trip
    bit-exactly.
    """
    frames = np.asarray(clip.samples, dtype="<f4")
    payload = frames.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _FORMAT_IEEE_FLOAT, 1, clip.sample_rate,
                                    clip.sample_rate * 4, 4, 32)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)

