"""f0kit: fundamental-frequency estimation for tonal sounds.

The core pipeline is spectrogram -> per-frame band-limited argmax ->
envelope/peak gating, with classic autocorrelation, YIN and cepstrum
detectors for comparison and a synthetic-signal generator for verification.
"""

from .audio_io import AudioClip, load_wav, write_wav
from .baselines import BaselineConfig, autocorr_pitch, cepstrum_pitch, yin_pitch
from .dsp import Envelope, Spectrogram, SpectrogramConfig, envelope, spectrogram
from .errors import (
    AliasingError,
    AmplitudeOverflowError,
    ClipTooShortError,
    ConfigError,
    EmptyAudioError,
    EmptyBandError,
    F0KitError,
    FrameGridMismatchError,
    MalformedHeaderError,
    NonFiniteSamplesError,
    UnsupportedEncodingError,
)
from .export import export_table, render_plot
from .synth import GroundTruth, SynthSpec, synthesize
from .tracker import PitchTrack, TrackerConfig, track

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "AmplitudeOverflowError",
    "AudioClip",
    "BaselineConfig",
    "ClipTooShortError",
    "ConfigError",
    "EmptyAudioError",
    "EmptyBandError",
    "Envelope",
    "F0KitError",
    "FrameGridMismatchError",
    "GroundTruth",
    "MalformedHeaderError",
    "NonFiniteSamplesError",
    "PitchTrack",
    "Spectrogram",
    "SpectrogramConfig",
    "SynthSpec",
    "TrackerConfig",
    "UnsupportedEncodingError",
    "autocorr_pitch",
    "cepstrum_pitch",
    "envelope",
    "export_table",
    "load_wav",
    "render_plot",
    "spectrogram",
    "synthesize",
    "track",
    "write_wav",
    "yin_pitch",
]
