"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of the workload seed and the requested
shape.  The package only ever sees what these functions produce: WAV files
with their manifest, partition and config, model banks built from random
parameters, and feature matrices for the identify stream.
"""

import csv
import os
import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
FEATURE_DIM = 24


# --- WAV corpus ---------------------------------------------------------------

# Voices share one pair of tone complexes and differ by a perturbation of
# pitch, partial ratios and gains, so that speakers are confusable enough for
# the open-set error rates to leave zero.
BASE_RATIOS = ((1.0, 2.1, 3.7), (1.6, 2.9, 5.3))


def _speaker_voice(rng):
    """Per-speaker constants: pitch, two tone complexes and a switching rate."""
    base = rng.uniform(140.0, 200.0)
    complexes = [(np.asarray(ratios) * rng.uniform(0.9, 1.1, size=3),
                  rng.uniform(0.3, 1.0, size=3)) for ratios in BASE_RATIOS]
    switch_ms = rng.uniform(40.0, 90.0)
    return base, complexes, switch_ms


def speaker_signal(voice, rng, duration_s):
    """One utterance: alternating tone complexes in bursts separated by pauses.

    Only within-utterance spectral variation survives cepstral mean
    subtraction, so the two complexes alternate; the pauses sit well below
    the VAD threshold, so the front-end drops a seed-dependent share of
    frames as it would on read speech.
    """
    base, complexes, switch_ms = voice
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    pitch = base * rng.uniform(0.95, 1.05)
    segment = (t * 1000.0 // switch_ms).astype(np.int64) % 2
    signal = np.zeros(n)
    for which, (ratios, gains) in enumerate(complexes):
        mask = segment == which
        phase = 2.0 * np.pi * pitch * t[mask]
        for ratio, gain in zip(ratios, gains):
            signal[mask] += gain * np.sin(ratio * phase + rng.uniform(0.0, 2.0 * np.pi))
    envelope = np.ones(n)
    pos = int(rng.uniform(0.2, 0.6) * SAMPLE_RATE)
    while pos < n:
        gap = int(rng.uniform(0.08, 0.25) * SAMPLE_RATE)
        envelope[pos:pos + gap] = 0.0
        pos += gap + int(rng.uniform(0.4, 0.9) * SAMPLE_RATE)
    # Breath noise inside the bursts keeps frames from collapsing onto a few
    # points; a low floor fills the pauses.
    signal = (signal + 0.15 * rng.standard_normal(n)) * envelope
    signal += 0.005 * rng.standard_normal(n)
    return 0.5 * signal / np.max(np.abs(signal))


def _write_pcm16(path, samples):
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


@dataclass(frozen=True)
class RoleShape:
    """Speakers of one partition role: count, utterances each, clip length."""

    role: str
    speakers: int
    utterances: int
    duration_s: float


def build_corpus(root, seed, roles, config):
    """Write WAVs, manifest.csv, partition.csv and run.cfg under root.

    roles is a sequence of RoleShape.  config maps RunConfig keys to values;
    manifest and partition paths and the seed are added here.  Returns the
    config file path.
    """
    rng = np.random.default_rng([seed, 1])
    wav_dir = os.path.join(root, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    plan = [(r.role, r.utterances, r.duration_s) for r in roles for _ in range(r.speakers)]
    plan = [plan[i] for i in rng.permutation(len(plan))]
    manifest, partition = [], []
    for s, (role, utterances, duration_s) in enumerate(plan):
        spk = f"spk{s:03d}"
        partition.append((spk, role))
        voice = _speaker_voice(rng)
        for u in range(utterances):
            duration = duration_s * rng.uniform(0.8, 1.2)
            path = os.path.join(wav_dir, f"{spk}_u{u}.wav")
            _write_pcm16(path, speaker_signal(voice, rng, duration))
            manifest.append((spk, f"u{u}", path, repr(duration)))
    manifest_path = os.path.join(root, "manifest.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["speaker_id", "utterance_id", "path", "duration_s"])
        writer.writerows(manifest)
    partition_path = os.path.join(root, "partition.csv")
    with open(partition_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["speaker_id", "role"])
        writer.writerows(partition)
    values = {"manifest_path": manifest_path, "partition_path": partition_path,
              "seed": seed, **config}
    config_path = os.path.join(root, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as f:
        for key, value in values.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            f.write(f"{key} = {value}\n")
    return config_path


# --- identify banks and stream ------------------------------------------------

def random_gmm(rng, num_components, dim=FEATURE_DIM):
    """Mixture parameters drawn directly, never fitted."""
    from osid.gmm import DiagGmm
    weights = rng.uniform(0.5, 1.5, size=num_components)
    return DiagGmm(weights=weights / weights.sum(),
                   means=rng.normal(0.0, 3.0, size=(num_components, dim)),
                   variances=rng.uniform(0.5, 2.0, size=(num_components, dim)))


def build_banks(seed, num_speakers, speaker_components, ubm_components,
                subnn_hidden, multiclass_hidden):
    """Speaker GMMs, UBM, 2-class nets and one multi-class net at random weights."""
    from osid.mlp import initialize_network
    from osid.openset import SpeakerBank
    rng = np.random.default_rng([seed, 2])
    ids = tuple(f"spk{i:04d}" for i in range(num_speakers))
    ubm = random_gmm(rng, ubm_components)
    gmm_bank = SpeakerBank(
        speaker_ids=ids, ubm=ubm,
        models=tuple(random_gmm(rng, speaker_components) for _ in ids))
    net_seeds = rng.integers(0, 2**31, size=num_speakers + 1)
    subnn_bank = SpeakerBank(
        speaker_ids=ids, ubm=ubm,
        models=tuple(initialize_network((FEATURE_DIM, *subnn_hidden, 2),
                                        seed=int(s)) for s in net_seeds[:-1]))
    multiclass = initialize_network(
        (FEATURE_DIM, *multiclass_hidden, num_speakers), seed=int(net_seeds[-1]))
    return gmm_bank, subnn_bank, multiclass, ids


def identify_lengths(low, high, count):
    """Evenly spaced frame counts; one round of the stream uses each once."""
    return np.linspace(low, high, count).round().astype(int)


def identify_round(seed, round_index, gmm_bank, lengths):
    """One shuffled round of N x 24 utterances, half from enrolled speaker models.

    Frames are drawn with this module's own sampling code; the other half
    come from fresh random mixtures, as impostors.
    """
    rng = np.random.default_rng([seed, 3, round_index])
    out = []
    for length in rng.permutation(lengths):
        if rng.random() < 0.5:
            model = gmm_bank.models[int(rng.integers(len(gmm_bank)))]
        else:
            model = random_gmm(rng, 8)
        picks = rng.choice(model.num_components, size=int(length), p=model.weights)
        noise = rng.standard_normal((int(length), model.dim))
        out.append(model.means[picks] + noise * np.sqrt(model.variances[picks]))
    return out
