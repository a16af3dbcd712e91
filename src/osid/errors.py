"""Exception types shared across the toolkit."""


class OsidError(Exception):
    """Base class for all toolkit-specific errors."""


class WavFormatError(OsidError):
    """Raised when a file is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(OsidError):
    """Raised for WAV files that are not PCM 16-bit mono at the expected rate."""


class DegenerateSplitError(OsidError):
    """Raised when a train/test split would leave one side empty."""


class TooShortError(OsidError):
    """Raised when a signal is shorter than a single analysis frame."""


class NoSpeechError(OsidError):
    """Raised when voice activity detection retains no frames."""


class EnrollmentError(OsidError):
    """Raised when a speaker cannot be enrolled (e.g. has no training frames)."""


class BankConfigError(OsidError):
    """Raised when a speaker bank is missing a required component."""


class DegenerateScoreError(OsidError):
    """Raised when a set of trial scores admits no rates: it holds no trial,
    or no enrolled or no impostor trial."""


class CorruptArtifactError(OsidError, ValueError):
    """Raised when a stored artifact is cut, padded, of another kind or malformed."""


class TrainingDivergedError(OsidError):
    """Raised when network training reaches a non-finite loss or parameters."""
