"""Corpus handling: WAV ingest, manifest files, and speaker/utterance splits.

Audio is restricted to PCM 16-bit mono WAV.  Anything else is rejected at
ingest rather than silently converted, so the DSP front-end stays single-path.
"""

import wave
from dataclasses import dataclass, field

import numpy as np

from . import artifact
from .errors import (CorruptArtifactError, DegenerateSplitError,
                     UnsupportedWavError, WavFormatError)
from .metrics import IMPOSTOR

PCM_SCALE = 32768.0

PARTITION_ROLES = ("ubm", "impostor", "enrolled")

MANIFEST_COLUMNS = ("speaker_id", "utterance_id", "path", "duration_s")
PARTITION_COLUMNS = ("speaker_id", "role")


@dataclass(frozen=True)
class AudioClip:
    """One utterance: normalized samples in [-1, 1] plus identifying metadata."""

    samples: np.ndarray
    sample_rate: int
    speaker_id: str = ""
    utterance_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if np.max(np.abs(samples)) > 1.0:
            raise ValueError("samples must lie in [-1, 1]")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_seconds(self):
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class ManifestEntry:
    speaker_id: str
    utterance_id: str
    path: str
    duration_seconds: float


@dataclass(frozen=True)
class CorpusManifest:
    """Ordered list of corpus entries with unique (speaker, utterance) pairs."""

    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        entries = tuple(self.entries)
        seen = set()
        for e in entries:
            key = (e.speaker_id, e.utterance_id)
            if key in seen:
                raise ValueError(f"duplicate manifest entry {key}")
            if e.duration_seconds <= 0:
                raise ValueError(f"non-positive duration for {key}")
            seen.add(key)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class SpeakerPartition:
    """Disjoint speaker roles: background-model, impostor, and enrolled sets."""

    ubm_speakers: frozenset
    impostor_speakers: frozenset
    enrolled_speakers: frozenset

    def __post_init__(self):
        ubm = frozenset(self.ubm_speakers)
        imp = frozenset(self.impostor_speakers)
        enr = frozenset(self.enrolled_speakers)
        if ubm & imp or ubm & enr or imp & enr:
            raise ValueError("partition roles must be pairwise disjoint")
        if not enr:
            raise ValueError("enrolled speaker set must be non-empty")
        object.__setattr__(self, "ubm_speakers", ubm)
        object.__setattr__(self, "impostor_speakers", imp)
        object.__setattr__(self, "enrolled_speakers", enr)


def load_wav(path, speaker_id="", utterance_id=""):
    """Read a PCM 16-bit mono WAV file into an AudioClip.

    Raw 16-bit values are scaled by 1/32768.  Stereo or non-16-bit files are
    rejected outright; there is no downmixing or requantization path.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            comptype = wf.getcomptype()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise WavFormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if comptype != "NONE":
        raise UnsupportedWavError(f"{path}: compressed WAV ({comptype}) not supported")
    if channels != 1:
        raise UnsupportedWavError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise UnsupportedWavError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    if samples.size == 0:
        raise WavFormatError(f"{path}: empty data chunk")
    return AudioClip(samples=samples, sample_rate=rate,
                     speaker_id=speaker_id, utterance_id=utterance_id)


def split_utterances(speaker_utterances, train_fraction, seed):
    """Split one speaker's utterances into train/test lists.

    Train size is round(train_fraction * total) with half-up rounding; the
    remainder goes to test.  A split that would leave either side empty is an
    error rather than a silent degenerate set.
    """
    utterances = list(speaker_utterances)
    if not utterances:
        raise ValueError("utterance list must be non-empty")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = len(utterances)
    n_train = int(np.floor(train_fraction * n + 0.5))
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(
            f"{n} utterances at fraction {train_fraction} leaves an empty side")
    order = np.random.default_rng(seed).permutation(n)
    train = [utterances[i] for i in sorted(order[:n_train])]
    test = [utterances[i] for i in sorted(order[n_train:])]
    return train, test


def read_manifest(path):
    return CorpusManifest(entries=tuple(
        ManifestEntry(speaker_id=row["speaker_id"],
                      utterance_id=row["utterance_id"],
                      path=row["path"],
                      duration_seconds=float(row["duration_s"]))
        for row in artifact.read_table(path, MANIFEST_COLUMNS)))


def read_partition(path):
    roles = {role: set() for role in PARTITION_ROLES}
    for row in artifact.read_table(path, PARTITION_COLUMNS):
        role = row["role"]
        if role not in roles:
            raise CorruptArtifactError(f"{path}: unknown role {role!r}")
        if row["speaker_id"] in ("", IMPOSTOR):
            raise CorruptArtifactError(
                f"{path}: speaker id {row['speaker_id']!r} is reserved")
        roles[role].add(row["speaker_id"])
    return SpeakerPartition(
        ubm_speakers=frozenset(roles["ubm"]),
        impostor_speakers=frozenset(roles["impostor"]),
        enrolled_speakers=frozenset(roles["enrolled"]),
    )
