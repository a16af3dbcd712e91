"""Cepstral front-end: pre-emphasis, framing, energy VAD, MFCC, and CMS.

The pipeline turns an AudioClip into an N x 24 matrix of mel-frequency
cepstral coefficients with per-utterance cepstral mean subtraction.  All
stages are pure functions of their inputs, so extraction is reproducible
bit-for-bit and trivially parallel across utterances.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import NoSpeechError, TooShortError

FEATURE_MAGIC = b"OSIDFEAT"
FEATURE_VERSION = 1

LOG_ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    """Front-end parameters; the defaults are the working configuration."""

    pre_emphasis_mu: float = 0.98
    window_ms: float = 20.0
    overlap_fraction: float = 0.5
    num_mel_filters: int = 26
    num_ceps: int = 24
    vad_threshold_db: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.pre_emphasis_mu < 1.0:
            raise ValueError("pre_emphasis_mu must lie in [0, 1)")
        if not 0.0 < self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must lie strictly between 0 and 1")
        if self.num_ceps >= self.num_mel_filters:
            raise ValueError("num_ceps must be strictly less than num_mel_filters")


@dataclass(frozen=True)
class FeatureSet:
    """Per-utterance feature matrix; one row per retained frame."""

    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise ValueError("vectors must be a non-empty 2-D matrix")
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite")
        object.__setattr__(self, "vectors", vectors)

    def __len__(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


def pre_emphasize(samples, mu):
    """First-order high-pass: y[n] = x[n] - mu * x[n-1], with y[0] = x[0]."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot pre-emphasize an empty signal")
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - mu * x[:-1]
    return y


def frame_and_window(samples, sample_rate, window_ms, overlap_fraction):
    """Slice a signal into overlapping Hamming-windowed frames.

    Frame length is round(window_ms * sample_rate / 1000) and the hop is
    round(length * (1 - overlap_fraction)).  Trailing samples that do not
    fill a frame are dropped.
    """
    x = np.asarray(samples, dtype=np.float64)
    length = int(round(window_ms * sample_rate / 1000.0))
    hop = int(round(length * (1.0 - overlap_fraction)))
    if length < 1 or hop < 1:
        raise ValueError("window and hop must each cover at least one sample")
    if x.size < length:
        raise TooShortError(
            f"signal of {x.size} samples is shorter than one {length}-sample frame")
    n_frames = (x.size - length) // hop + 1
    idx = hop * np.arange(n_frames)[:, None] + np.arange(length)[None, :]
    return x[idx] * _hamming(length)


@functools.lru_cache(maxsize=16)
def _hamming(length):
    """np.hamming(length), built once per length, read-only."""
    return _read_only(np.hamming(length))


def _read_only(a):
    a.flags.writeable = False
    return a


def vad_filter(frames, threshold_db):
    """Energy-based voice activity detection over windowed frames.

    A frame survives when its energy is within threshold_db of the loudest
    frame.  The comparison runs in the linear domain (energy >= max_energy *
    10^(-threshold_db/10), the same inequality as in dB) so silent frames
    never hit log-of-zero.  The maximum-energy frame is always retained.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError("frames must be a non-empty 2-D array")
    energies = np.sum(frames * frames, axis=1)
    peak = float(np.max(energies))
    if peak <= 0.0:
        raise NoSpeechError("all frames are silent; nothing to retain")
    if np.isinf(threshold_db):
        keep = np.ones(len(energies), dtype=bool)
    else:
        keep = energies >= peak * 10.0 ** (-threshold_db / 10.0)
        keep[int(np.argmax(energies))] = True
    return np.flatnonzero(keep)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(num_filters, nfft, sample_rate):
    """Triangular mel filterbank spanning 0 Hz to Nyquist.

    Returns a (num_filters, nfft//2 + 1) weight matrix whose rows are unit-peak
    triangles with edges uniformly spaced on the mel scale, evaluated at the
    FFT bin frequencies.
    """
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), num_filters + 2))
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    weights = np.zeros((num_filters, bin_hz.size))
    for j in range(num_filters):
        lo, mid, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        weights[j] = np.clip(np.minimum(up, down), 0.0, None)
    return weights


def dct_matrix(n):
    """Orthonormal DCT-II matrix of size n x n (rows are basis vectors)."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n)) * np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return basis


def _mfcc_batch(frames, sample_rate, num_mel_filters, num_ceps):
    """MFCC rows of a stack of windowed frames.

    Magnitude spectrum (FFT zero-padded to the next power of two), triangular
    mel filterbank from 0 Hz to Nyquist, natural log of the floored filter
    energies, orthonormal DCT-II, coefficients c1..c_num_ceps.
    """
    if num_ceps >= num_mel_filters:
        raise ValueError("num_ceps must be strictly less than num_mel_filters")
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[1] < 2:
        raise ValueError("frames must hold at least 2 samples")
    nfft = 1 << (frames.shape[1] - 1).bit_length()  # the next power of two
    spectrum = np.abs(np.fft.rfft(frames, n=nfft, axis=1))
    fbank, dct = _mfcc_matrices(num_mel_filters, num_ceps, nfft, sample_rate)
    energies = np.maximum(spectrum @ fbank.T, LOG_ENERGY_FLOOR)
    return np.log(energies) @ dct.T


@functools.lru_cache(maxsize=16)
def _mfcc_matrices(num_mel_filters, num_ceps, nfft, sample_rate):
    """The mel filterbank and the kept DCT rows, built once per shape, read-only."""
    # c0 carries overall loudness, which the VAD already gates on; keep c1..c_num_ceps.
    return (_read_only(mel_filterbank(num_mel_filters, nfft, sample_rate)),
            _read_only(dct_matrix(num_mel_filters)[1:num_ceps + 1]))


def cepstral_mean_subtract(vectors):
    """Zero-center every cepstral coefficient over the utterance."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("vectors must be a non-empty 2-D matrix")
    return vectors - np.mean(vectors, axis=0, keepdims=True)


def extract_features(clip, cfg=FeatureConfig()):
    """Full front-end: pre-emphasis, framing, VAD, MFCC, CMS."""
    emphasized = pre_emphasize(clip.samples, cfg.pre_emphasis_mu)
    frames = frame_and_window(emphasized, clip.sample_rate,
                              cfg.window_ms, cfg.overlap_fraction)
    kept = vad_filter(frames, cfg.vad_threshold_db)
    coeffs = _mfcc_batch(frames[kept], clip.sample_rate,
                         cfg.num_mel_filters, cfg.num_ceps)
    return FeatureSet(vectors=cepstral_mean_subtract(coeffs))


def save_features(path, feature_set):
    """Write a FeatureSet matrix as a little-endian binary cache file."""
    n, d = feature_set.vectors.shape
    artifact.write_binary(path, FEATURE_MAGIC,
                          [((FEATURE_VERSION, n, d), (feature_set.vectors,))])


def load_features(path):
    with artifact.BinaryReader(path, FEATURE_MAGIC) as r:
        version, n, d = r.ints(3)
        if version != FEATURE_VERSION:
            raise r.error(f"unsupported cache version {version}")
        return FeatureSet(vectors=r.floats(n, d))
