"""Tests for WAV ingest and corpus splitting."""

import struct
import wave

import numpy as np
import pytest

from osid.dataset import (
    AudioClip,
    CorpusManifest,
    ManifestEntry,
    SpeakerPartition,
    load_wav,
    read_manifest,
    read_partition,
    split_utterances,
    write_wav,
)
from osid.errors import (CorruptArtifactError, DegenerateSplitError,
                         UnsupportedWavError, WavFormatError)
from osid.metrics import IMPOSTOR
from conftest import split_speakers, write_manifest, write_partition


def write_raw_wav(path, pcm_bytes, sample_rate=16000, channels=1, bits=16):
    """Handcrafted canonical RIFF writer, independent of the package."""
    byte_rate = sample_rate * channels * bits // 8
    block_align = channels * bits // 8
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(pcm_bytes)))
        f.write(b"WAVE")
        f.write(b"fmt ")
        f.write(struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                            byte_rate, block_align, bits))
        f.write(b"data")
        f.write(struct.pack("<I", len(pcm_bytes)))
        f.write(pcm_bytes)


class TestLoadWav:
    def test_fixed_point_scaling(self, tmp_path):
        path = tmp_path / "scale.wav"
        write_raw_wav(path, struct.pack("<3h", 0, 16384, -32768))
        clip = load_wav(path)
        np.testing.assert_array_equal(clip.samples, [0.0, 0.5, -1.0])
        assert clip.sample_rate == 16000

    def test_one_second_sample_count(self, tmp_path):
        path = tmp_path / "one_second.wav"
        write_raw_wav(path, b"\x01\x00" * 16000)
        clip = load_wav(path)
        assert clip.samples.size == 16000
        assert clip.duration_seconds == pytest.approx(1.0)

    def test_round_trip_data_chunk(self, tmp_path, rng):
        pcm = (rng.integers(-32768, 32768, size=4000)).astype("<i2").tobytes()
        original = tmp_path / "orig.wav"
        rewritten = tmp_path / "rt.wav"
        write_raw_wav(original, pcm, sample_rate=8000)
        write_wav(rewritten, load_wav(original))
        with wave.open(str(rewritten), "rb") as wf:
            assert wf.getframerate() == 8000
            assert wf.readframes(wf.getnframes()) == pcm

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_raw_wav(path, b"\x00\x00" * 8, channels=2)
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "eight.wav"
        write_raw_wav(path, b"\x80" * 8, bits=8)
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(WavFormatError):
            load_wav(path)


class TestAudioClip:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([0.0, 1.5]), sample_rate=16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([]), sample_rate=16000)


class TestSplitSpeakers:
    def test_large_corpus_partition(self):
        speakers = {f"spk{i:04d}" for i in range(2483)}
        part = split_speakers(speakers, 383, 1400, 700, seed=7)
        assert len(part.ubm_speakers) == 383
        assert len(part.impostor_speakers) == 1400
        assert len(part.enrolled_speakers) == 700
        assert not part.ubm_speakers & part.impostor_speakers
        assert not part.ubm_speakers & part.enrolled_speakers
        assert not part.impostor_speakers & part.enrolled_speakers

    def test_exhaustive_three_way(self):
        speakers = {"a", "b", "c"}
        part = split_speakers(speakers, 1, 1, 1, seed=99)
        singles = [part.ubm_speakers, part.impostor_speakers, part.enrolled_speakers]
        assert all(len(s) == 1 for s in singles)
        assert set().union(*singles) == speakers

    def test_deterministic(self):
        speakers = {f"s{i}" for i in range(50)}
        first = split_speakers(speakers, 10, 20, 15, seed=3)
        second = split_speakers(speakers, 10, 20, 15, seed=3)
        assert first == second

    def test_seed_changes_partition(self):
        speakers = {f"s{i}" for i in range(50)}
        first = split_speakers(speakers, 10, 20, 15, seed=3)
        second = split_speakers(speakers, 10, 20, 15, seed=4)
        assert first != second

    def test_oversubscribed_rejected(self):
        with pytest.raises(ValueError):
            split_speakers({"a", "b"}, 1, 1, 1, seed=0)


class TestSplitUtterances:
    def test_seventy_thirty(self):
        train, test = split_utterances([f"u{i}" for i in range(10)], 0.7, seed=0)
        assert len(train) == 7 and len(test) == 3

    def test_exact_half(self):
        train, test = split_utterances(["u0", "u1"], 0.5, seed=0)
        assert len(train) == 1 and len(test) == 1

    def test_two_seeds_same_sizes_different_membership(self):
        utterances = [f"u{i}" for i in range(100)]
        train_a, test_a = split_utterances(utterances, 0.7, seed=1)
        train_b, test_b = split_utterances(utterances, 0.7, seed=2)
        assert len(train_a) == len(train_b) == 70
        assert set(train_a) != set(train_b)

    def test_disjoint_union(self):
        utterances = [f"u{i}" for i in range(13)]
        train, test = split_utterances(utterances, 0.7, seed=5)
        assert not set(train) & set(test)
        assert set(train) | set(test) == set(utterances)

    def test_deterministic(self):
        utterances = [f"u{i}" for i in range(20)]
        assert split_utterances(utterances, 0.7, seed=8) == \
               split_utterances(utterances, 0.7, seed=8)

    def test_single_utterance_degenerate(self):
        with pytest.raises(DegenerateSplitError):
            split_utterances(["only"], 0.7, seed=0)

    def test_empty_side_degenerate(self):
        with pytest.raises(DegenerateSplitError):
            split_utterances([f"u{i}" for i in range(10)], 0.99, seed=0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            split_utterances([], 0.7, seed=0)


class TestTypes:
    def test_manifest_rejects_duplicates(self):
        entry = ManifestEntry("s", "u", "p.wav", 1.0)
        with pytest.raises(ValueError):
            CorpusManifest(entries=(entry, entry))

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValueError):
            SpeakerPartition(ubm_speakers=frozenset({"a"}),
                             impostor_speakers=frozenset({"a"}),
                             enrolled_speakers=frozenset({"b"}))

    def test_partition_requires_enrolled(self):
        with pytest.raises(ValueError):
            SpeakerPartition(ubm_speakers=frozenset({"a"}),
                             impostor_speakers=frozenset({"b"}),
                             enrolled_speakers=frozenset())


class TestCsvFormats:
    def test_manifest_round_trip(self, tmp_path):
        manifest = CorpusManifest(entries=(
            ManifestEntry("spk1", "utt1", "a/b.wav", 2.5),
            ManifestEntry("spk2", "utt1", "c.wav", 0.75),
        ))
        path = tmp_path / "manifest.csv"
        write_manifest(path, manifest)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "speaker_id,utterance_id,path,duration_s"
        assert read_manifest(path) == manifest

    def test_partition_round_trip(self, tmp_path):
        part = SpeakerPartition(ubm_speakers=frozenset({"u1", "u2"}),
                                impostor_speakers=frozenset({"i1"}),
                                enrolled_speakers=frozenset({"e1", "e2"}))
        path = tmp_path / "partition.csv"
        write_partition(path, part)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "speaker_id,role"
        assert read_partition(path) == part

    @pytest.mark.parametrize("speaker", [IMPOSTOR, ""])
    def test_partition_refuses_ids_trial_files_reserve(self, tmp_path, speaker):
        # Trial files mark impostors with IMPOSTOR and need a non-empty
        # predicted speaker.
        path = tmp_path / "partition.csv"
        path.write_text(f"speaker_id,role\ne1,enrolled\n{speaker},impostor\n",
                        encoding="utf-8")
        message = f"partition.csv: speaker id '{speaker}' is reserved"
        with pytest.raises(CorruptArtifactError, match=message):
            read_partition(path)
