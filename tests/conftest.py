"""Shared synthetic-corpus helpers for the test suite.

Speaker generators are diagonal GMMs built directly from numpy draws (never
via the fitting code under test) with means inside a ball of configurable
radius and unit variances.  Utterances are frame matrices sampled from a
generator with the test's own sampling code, independent of the package's
sampler.  The WAV corpus builder synthesizes non-stationary tone complexes,
since only within-utterance spectral variation survives cepstral mean
subtraction.
"""

import csv

import numpy as np
import pytest

from osid import artifact
from osid.cli import _config_lines, main
from osid.dataset import (MANIFEST_COLUMNS, PARTITION_COLUMNS, AudioClip,
                          SpeakerPartition, write_wav)
from osid.gmm import DiagGmm


def make_generator(rng, num_components, dim, radius):
    """Random diagonal-GMM speaker generator with means in a ball."""
    directions = rng.standard_normal((num_components, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=num_components) ** (1.0 / dim)
    weights = rng.uniform(0.5, 1.5, size=num_components)
    return DiagGmm(weights=weights / weights.sum(),
                   means=directions * radii[:, None],
                   variances=np.ones((num_components, dim)))


def make_population(seed, num_speakers, num_components=4, dim=24, radius=10.0):
    rng = np.random.default_rng(seed)
    return [make_generator(rng, num_components, dim, radius)
            for _ in range(num_speakers)]


def draw_frames(generator, count, rng):
    """Sample from a generator with test-local code (not the package sampler)."""
    picks = rng.choice(len(generator.weights), size=count, p=generator.weights)
    noise = rng.standard_normal((count, generator.dim))
    return generator.means[picks] + noise * np.sqrt(generator.variances[picks])


def draw_utterances(generator, num_utterances, frames_per_utterance, rng):
    return [draw_frames(generator, frames_per_utterance, rng)
            for _ in range(num_utterances)]


# --- synthetic WAV corpus for pipeline-level tests ---

CORPUS_ROLES = {
    "spk0": "ubm", "spk1": "ubm",
    "spk2": "impostor", "spk3": "impostor", "spk4": "impostor",
    "spk5": "enrolled", "spk6": "enrolled", "spk7": "enrolled",
}
CORPUS_UTTS_PER_SPEAKER = 6
CORPUS_SAMPLE_RATE = 16000


def speaker_signal(speaker_index, utterance_index, duration_s=0.5):
    """Two alternating speaker-specific tone complexes per utterance."""
    rng = np.random.default_rng(9000 + 100 * speaker_index + utterance_index)
    t = np.arange(int(duration_s * CORPUS_SAMPLE_RATE)) / CORPUS_SAMPLE_RATE
    base = 160.0 + 55.0 * speaker_index
    complexes = (
        ((1.0, 1.0), (2.1, 0.5), (3.7, 0.4)),
        ((1.6, 0.9), (2.9, 0.7), (5.3, 0.3)),
    )
    segment = (t * 1000 // 60).astype(int) % 2  # swap complexes every 60 ms
    signal = np.zeros_like(t)
    for which, parts in enumerate(complexes):
        tone = np.zeros_like(t)
        for ratio, gain in parts:
            tone += gain * np.sin(2 * np.pi * base * ratio * t
                                  + rng.uniform(0, 2 * np.pi))
        signal += np.where(segment == which, tone, 0.0)
    signal += 0.02 * rng.standard_normal(t.size)
    return 0.5 * signal / np.max(np.abs(signal))


def build_corpus(root):
    """Write WAVs, manifest, partition, and a config file; returns config path."""
    wav_dir = root / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for s, (speaker, _) in enumerate(sorted(CORPUS_ROLES.items())):
        for u in range(CORPUS_UTTS_PER_SPEAKER):
            utt = f"utt{u}"
            path = wav_dir / f"{speaker}_{utt}.wav"
            clip = AudioClip(samples=speaker_signal(s, u),
                             sample_rate=CORPUS_SAMPLE_RATE)
            write_wav(path, clip)
            manifest_rows.append((speaker, utt, str(path), 0.5))
    manifest_path = root / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["speaker_id", "utterance_id", "path", "duration_s"])
        writer.writerows(manifest_rows)
    partition_path = root / "partition.csv"
    with open(partition_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["speaker_id", "role"])
        for speaker, role in sorted(CORPUS_ROLES.items()):
            writer.writerow([speaker, role])
    config_path = root / "run.cfg"
    config_path.write_text(
        f"manifest_path = {manifest_path}\n"
        f"partition_path = {partition_path}\n"
        "seed = 42\n"
        "# small models keep the smoke corpus fast\n"
        "ubm_components = 4\n"
        "speaker_gmm_components = 2\n"
        "subnn_hidden = 6,6\n"
        "subnn_epochs = 3\n"
        "subnn_batch_size = 128\n"
        "multiclass_hidden = 8,8\n"
        "multiclass_epochs = 10\n"
        "multiclass_batch_size = 256\n"
        "population_sizes = 2,3\n",
        encoding="utf-8")
    return config_path


def write_manifest(path, manifest):
    """Write a CorpusManifest as the CSV that dataset.read_manifest reads."""
    artifact.write_table(path, MANIFEST_COLUMNS, (
        (e.speaker_id, e.utterance_id, e.path, repr(float(e.duration_seconds)))
        for e in manifest.entries))


def write_partition(path, partition):
    """Write a SpeakerPartition as the CSV that dataset.read_partition reads,
    rows sorted by (role, speaker_id)."""
    rows = [(spk, role) for role, ids in (("ubm", partition.ubm_speakers),
                                          ("impostor", partition.impostor_speakers),
                                          ("enrolled", partition.enrolled_speakers))
            for spk in ids]
    artifact.write_table(path, PARTITION_COLUMNS,
                         sorted(rows, key=lambda r: (r[1], r[0])))


def split_speakers(all_speakers, ubm_count, impostor_count, enrolled_count, seed):
    """Partition speaker ids into disjoint UBM/impostor/enrolled sets.

    The input is canonicalized by sorting before the seeded shuffle, so the
    result depends only on the set membership and the seed.
    """
    speakers = sorted(all_speakers)
    total = ubm_count + impostor_count + enrolled_count
    if total > len(speakers):
        raise ValueError(
            f"requested {total} speakers but only {len(speakers)} available")
    order = np.random.default_rng(seed).permutation(len(speakers))
    picked = [speakers[i] for i in order]
    return SpeakerPartition(
        ubm_speakers=frozenset(picked[:ubm_count]),
        impostor_speakers=frozenset(picked[ubm_count:ubm_count + impostor_count]),
        enrolled_speakers=frozenset(picked[ubm_count + impostor_count:total]),
    )


def write_config(path, cfg):
    """Write a RunConfig as the key = value file that cli.load_config reads."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_config_lines(cfg))


def run_pipeline(config_path, out_dir, architectures=("gmm", "subnn", "multiclass"),
                 flags=()):
    common = ["--config", str(config_path), "--out", str(out_dir), *flags]
    assert main(["extract", *common]) == 0
    assert main(["train-ubm", *common]) == 0
    for arch in architectures:
        assert main(["train", *common, "--arch", arch]) == 0
        assert main(["evaluate", *common, "--arch", arch]) == 0


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
