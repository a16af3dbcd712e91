"""Tests for the cepstral front-end against independent reference code."""

import numpy as np
import pytest
import scipy.fftpack

from osid.dataset import AudioClip
from osid.errors import CorruptArtifactError, NoSpeechError, TooShortError
from osid.features import (
    FeatureConfig,
    FeatureSet,
    cepstral_mean_subtract,
    dct_matrix,
    extract_features,
    frame_and_window,
    load_features,
    mel_filterbank,
    pre_emphasize,
    save_features,
    vad_filter,
)
from oracles import compute_mfcc


def reference_mfcc(frame, sample_rate, num_filters, num_ceps):
    """Independently coded MFCC: loop-built filterbank, scipy DCT, full FFT."""
    frame = np.asarray(frame, dtype=np.float64)
    nfft = 1
    while nfft < frame.size:
        nfft *= 2
    spectrum = np.abs(np.fft.fft(frame, nfft))[:nfft // 2 + 1]
    mel_max = 2595.0 * np.log10(1.0 + (sample_rate / 2.0) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, mel_max, num_filters + 2) / 2595.0) - 1.0)
    energies = np.zeros(num_filters)
    for j in range(num_filters):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        for k in range(nfft // 2 + 1):
            freq = k * sample_rate / nfft
            if lo <= freq <= mid:
                energies[j] += spectrum[k] * (freq - lo) / (mid - lo)
            elif mid < freq <= hi:
                energies[j] += spectrum[k] * (hi - freq) / (hi - mid)
    log_energies = np.log(np.maximum(energies, 1e-10))
    ceps = scipy.fftpack.dct(log_energies, type=2, norm="ortho")
    return ceps[1:num_ceps + 1]


def speechlike_signal(duration_s=1.0, sample_rate=16000, seed=0):
    """Synthetic voiced-ish signal: harmonic stack with noisy amplitude."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    signal = np.zeros_like(t)
    for harmonic in range(1, 6):
        signal += np.sin(2 * np.pi * 120.0 * harmonic * t + rng.uniform(0, 2 * np.pi)) / harmonic
    signal *= 0.5 + 0.5 * np.abs(np.sin(2 * np.pi * 3.0 * t))
    signal += 0.01 * rng.standard_normal(t.size)
    return 0.5 * signal / np.max(np.abs(signal))


class TestPreEmphasis:
    def test_constant_signal(self):
        np.testing.assert_allclose(pre_emphasize([1.0, 1.0, 1.0], 0.98),
                                   [1.0, 0.02, 0.02], atol=1e-15)

    def test_zeros(self):
        np.testing.assert_array_equal(pre_emphasize(np.zeros(10), 0.98), np.zeros(10))

    def test_matches_direct_convolution(self, rng):
        x = rng.standard_normal(1000)
        expected = np.array([x[0]] + [x[n] - 0.98 * x[n - 1] for n in range(1, 1000)])
        np.testing.assert_allclose(pre_emphasize(x, 0.98), expected, atol=1e-15)

    def test_mu_zero_is_identity(self, rng):
        x = rng.standard_normal(64)
        np.testing.assert_array_equal(pre_emphasize(x, 0.0), x)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pre_emphasize([], 0.98)


class TestFraming:
    def test_framing_arithmetic(self):
        frames = frame_and_window(np.ones(16000), 16000, 20.0, 0.5)
        assert frames.shape == (99, 320)

    def test_single_frame_boundary(self):
        frames = frame_and_window(np.ones(320), 16000, 20.0, 0.5)
        assert frames.shape == (1, 320)

    def test_constant_signal_yields_window_table(self):
        # Hamming from its defining formula, not the library call.
        n = np.arange(320)
        window = 0.54 - 0.46 * np.cos(2 * np.pi * n / 319)
        frames = frame_and_window(np.ones(16000), 16000, 20.0, 0.5)
        for frame in frames[:5]:
            np.testing.assert_allclose(frame, window, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            frame_and_window(np.ones(100), 16000, 20.0, 0.5)


class TestVad:
    def test_uniform_energy_keeps_all(self):
        frames = np.ones((3, 8))
        np.testing.assert_array_equal(vad_filter(frames, 0.0), [0, 1, 2])
        np.testing.assert_array_equal(vad_filter(frames, 30.0), [0, 1, 2])

    def test_sixty_db_below_peak_dropped(self):
        frames = np.zeros((2, 4))
        frames[0, 0] = 1.0      # energy 1.0
        frames[1, 0] = 1e-3     # energy 1e-6
        np.testing.assert_array_equal(vad_filter(frames, 30.0), [0])

    def test_matches_per_frame_oracle(self, rng):
        loud = rng.standard_normal((10, 32))
        quiet = 1e-4 * rng.standard_normal((10, 32))
        frames = np.empty((20, 32))
        frames[0::2] = loud
        frames[1::2] = quiet
        threshold = 25.0
        energies = np.array([np.sum(f**2) for f in frames])
        peak_db = 10 * np.log10(energies.max())
        expected = [i for i, e in enumerate(energies)
                    if 10 * np.log10(e) >= peak_db - threshold]
        np.testing.assert_array_equal(vad_filter(frames, threshold), expected)

    def test_all_zero_is_no_speech(self):
        with pytest.raises(NoSpeechError):
            vad_filter(np.zeros((4, 16)), 30.0)

    def test_infinite_threshold_keeps_every_frame(self, rng):
        frames = rng.standard_normal((7, 16))
        frames[3] = 0.0
        np.testing.assert_array_equal(vad_filter(frames, np.inf), np.arange(7))

    def test_max_energy_frame_always_kept(self, rng):
        frames = rng.standard_normal((5, 16))
        kept = vad_filter(frames, 0.0)
        assert int(np.argmax(np.sum(frames**2, axis=1))) in kept


class TestMfcc:
    def test_sinusoid_peaks_at_its_filter(self):
        sample_rate, nfft = 16000, 512
        weights = mel_filterbank(26, nfft, sample_rate)
        mel_max = 2595.0 * np.log10(1.0 + 8000.0 / 700.0)
        centers = 700.0 * (10.0 ** (np.linspace(0.0, mel_max, 28) / 2595.0) - 1.0)[1:-1]
        for j in (5, 10, 15, 20):
            t = np.arange(320) / sample_rate
            frame = np.sin(2 * np.pi * centers[j] * t) * np.hamming(320)
            spectrum = np.abs(np.fft.rfft(frame, nfft))
            response = weights @ spectrum
            assert int(np.argmax(response)) == j

    def test_dct_orthonormal(self):
        basis = dct_matrix(26)
        np.testing.assert_allclose(basis @ basis.T, np.eye(26), atol=1e-9)

    def test_white_noise_matches_reference(self, rng):
        frame = rng.standard_normal(320) * np.hamming(320)
        ours = compute_mfcc(frame, 16000, 26, 24)
        reference = reference_mfcc(frame, 16000, 26, 24)
        assert ours.shape == (24,)
        np.testing.assert_allclose(ours, reference, atol=1e-6)

    def test_num_ceps_must_be_less_than_filters(self):
        with pytest.raises(ValueError):
            compute_mfcc(np.ones(320), 16000, num_mel_filters=24, num_ceps=24)

    def test_config_rejects_num_ceps_not_below_filters(self):
        assert FeatureConfig(num_mel_filters=26, num_ceps=25).num_ceps == 25
        with pytest.raises(ValueError):
            FeatureConfig(num_mel_filters=26, num_ceps=26)


class TestCms:
    def test_single_frame_becomes_zero(self, rng):
        row = rng.standard_normal((1, 24))
        np.testing.assert_array_equal(cepstral_mean_subtract(row), np.zeros((1, 24)))

    def test_column_means_vanish(self, rng):
        matrix = rng.standard_normal((50, 24)) + 3.0
        out = cepstral_mean_subtract(matrix)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-9

    def test_two_frames(self, rng):
        a, b = rng.standard_normal(24), rng.standard_normal(24)
        out = cepstral_mean_subtract(np.vstack([a, b]))
        np.testing.assert_allclose(out[0], (a - b) / 2, atol=1e-12)
        np.testing.assert_allclose(out[1], (b - a) / 2, atol=1e-12)


class TestExtractFeatures:
    def test_shape_contract(self):
        clip = AudioClip(samples=speechlike_signal(), sample_rate=16000)
        feats = extract_features(clip, FeatureConfig())
        assert feats.vectors.shape[1] == 24
        assert 1 <= feats.vectors.shape[0] <= 99
        assert np.max(np.abs(feats.vectors.mean(axis=0))) < 1e-9

    def test_deterministic(self):
        clip = AudioClip(samples=speechlike_signal(), sample_rate=16000)
        first = extract_features(clip, FeatureConfig())
        second = extract_features(clip, FeatureConfig())
        assert np.array_equal(first.vectors, second.vectors)

    def test_matches_hand_chained_stages(self):
        cfg = FeatureConfig()
        clip = AudioClip(samples=speechlike_signal(seed=3), sample_rate=16000)
        emphasized = pre_emphasize(clip.samples, cfg.pre_emphasis_mu)
        frames = frame_and_window(emphasized, 16000, cfg.window_ms,
                                  cfg.overlap_fraction)
        kept = vad_filter(frames, cfg.vad_threshold_db)
        rows = [compute_mfcc(frames[i], 16000, cfg.num_mel_filters, cfg.num_ceps)
                for i in kept]
        expected = cepstral_mean_subtract(np.vstack(rows))
        got = extract_features(clip, cfg)
        np.testing.assert_allclose(got.vectors, expected, atol=1e-10)

    def test_vad_never_increases_frames(self):
        clip = AudioClip(samples=speechlike_signal(seed=4), sample_rate=16000)
        strict = extract_features(clip, FeatureConfig(vad_threshold_db=10.0))
        lenient = extract_features(clip, FeatureConfig(vad_threshold_db=np.inf))
        assert len(strict) <= len(lenient) == 99

    @pytest.mark.parametrize("window_ms, overlap, hop", [
        (20.0, 0.5, 160), (25.0, 0.6, 160), (23.0, 0.3, 258)])
    def test_frame_count_follows_the_hop(self, window_ms, overlap, hop):
        # hop = round(round(window_ms * 16) * (1 - overlap)) samples at 16 kHz
        clip = AudioClip(samples=speechlike_signal(seed=5), sample_rate=16000)
        cfg = FeatureConfig(window_ms=window_ms, overlap_fraction=overlap,
                            vad_threshold_db=np.inf)
        feats = extract_features(clip, cfg)
        length = int(round(window_ms * 16))
        assert len(feats) == (clip.samples.size - length) // hop + 1

    def test_silence_propagates_no_speech(self):
        clip = AudioClip(samples=np.zeros(16000), sample_rate=16000)
        with pytest.raises(NoSpeechError):
            extract_features(clip, FeatureConfig())


class TestFeatureCache:
    def test_round_trip(self, tmp_path, rng):
        feats = FeatureSet(vectors=rng.standard_normal((17, 24)))
        path = tmp_path / "utt.feat"
        save_features(path, feats)
        loaded = load_features(path)
        assert np.array_equal(loaded.vectors, feats.vectors)

    def test_header_layout(self, tmp_path, rng):
        feats = FeatureSet(vectors=rng.standard_normal((3, 24)))
        path = tmp_path / "utt.feat"
        save_features(path, feats)
        blob = path.read_bytes()
        assert blob[:8] == b"OSIDFEAT"
        assert int.from_bytes(blob[8:12], "little") == 1
        assert int.from_bytes(blob[12:16], "little") == 3
        assert int.from_bytes(blob[16:20], "little") == 24
        assert len(blob) == 20 + 3 * 24 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.feat"
        path.write_bytes(b"NOTAFEAT" + b"\x00" * 12)
        with pytest.raises(ValueError):
            load_features(path)

    def test_every_truncation_rejected(self, tmp_path, rng):
        path = tmp_path / "utt.feat"
        save_features(path, FeatureSet(vectors=rng.standard_normal((3, 2))))
        blob = path.read_bytes()
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises(CorruptArtifactError):
                load_features(path)
