"""Exception types raised across the toolkit.

Everything derives from :class:`F0KitError` so callers can catch one base
class; each class carries its own exit code for the command line.
"""


class F0KitError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 12


class MalformedHeaderError(F0KitError):
    """File is not a well-formed RIFF/WAVE container (bad magic, truncated chunks)."""
    exit_code = 3


class UnsupportedEncodingError(F0KitError):
    """WAV encoding other than 16-bit PCM or 32-bit IEEE float."""
    exit_code = 4


class EmptyAudioError(F0KitError):
    """Audio file decodes to zero frames."""
    exit_code = 5


class ClipTooShortError(F0KitError):
    """Clip has fewer samples than one analysis frame."""
    exit_code = 6


class NonFiniteSamplesError(F0KitError):
    """Audio holds NaN or infinite samples."""
    exit_code = 14


class FrameGridMismatchError(F0KitError):
    """Spectrogram and envelope were computed on different frame grids."""
    exit_code = 8


class EmptyBandError(F0KitError):
    """No frequency bins fall inside the configured [f_min, f_max] band."""
    exit_code = 9


class AliasingError(F0KitError):
    """A synthesis spec requests a frequency at or above the Nyquist limit."""
    exit_code = 10


class AmplitudeOverflowError(F0KitError):
    """Synthesized signal exceeds full scale after mixing."""
    exit_code = 11


class ConfigError(F0KitError):
    """Configuration values violate an invariant (e.g. f_min >= f_max)."""
    exit_code = 2
