"""Tests for the three open-set systems on small synthetic populations."""

import functools
import inspect
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osid import artifact
from osid import gmm as gmm_mod
from osid import mlp as mlp_mod
from osid import openset as openset_mod
from osid.artifact import write_table
from osid.errors import BankConfigError, CorruptArtifactError, EnrollmentError
from osid.gmm import (SCORE_BLOCK_ROWS, DiagGmm, EmConfig, em_fit, pack_models,
                      sample, score_packed)
from osid.mlp import (LOSS_FLOOR, MlpNetwork, TrainConfig, forward_batch,
                      initialize_network, train)
from osid.openset import (
    EvalCounter,
    SpeakerBank,
    decide,
    gmm_closed_set,
    gmm_scores,
    gmm_verify,
    load_bank,
    load_multiclass,
    multiclass_open_set,
    multiclass_scores,
    read_speaker_ids,
    save_bank,
    save_multiclass,
    subnn_open_set,
    subnn_scores,
    train_subnn_bank,
)
from conftest import draw_frames, make_population
from oracles import log_density_batch, mean_log_likelihood
from test_gmm import random_model
from test_mlp import loop_scores, random_bank
from oracles import augmented_scores, forward, multiclass_forward_scores


def assert_same_model(got, want):
    """Two GMMs or two networks whose parameters are equal bit for bit."""
    assert type(got) is type(want)
    arrays = ((lambda m: (m.weights, m.means, m.variances))
              if isinstance(want, DiagGmm) else (lambda m: m.layers))
    assert len(arrays(got)) == len(arrays(want))
    for a, b in zip(arrays(got), arrays(want)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def quick_subnn_cfg(seed=0):
    return TrainConfig(epochs=3, batch_size=64, seed=seed)


@pytest.fixture(scope="module")
def synthetic_world():
    """Five well-separated synthetic speakers with fitted GMM bank and UBM."""
    generators = make_population(seed=101, num_speakers=5, num_components=2,
                                 dim=8, radius=12.0)
    rng = np.random.default_rng(202)
    train = [draw_frames(g, 600, rng) for g in generators]
    test = [[draw_frames(g, 50, rng) for _ in range(4)] for g in generators]
    ubm = em_fit(np.vstack(train), 8, EmConfig(seed=1))
    models = [em_fit(frames, 2, EmConfig(seed=2)) for frames in train]
    ids = tuple(f"spk{i}" for i in range(5))
    bank = SpeakerBank(speaker_ids=ids, models=tuple(models), ubm=ubm)
    return {"generators": generators, "train": train, "test": test,
            "bank": bank, "ubm": ubm}


class TestDecide:
    def test_ties_go_to_the_lowest_index(self):
        decision = decide(np.array([0.1, 0.7, 0.3, 0.7]), theta=0.5)
        assert (decision.best_index, decision.score, decision.accepted) == (1, 0.7, True)

    def test_offset_shifts_the_score_not_the_pick(self):
        decision = decide(np.array([-3.0, -2.0, -2.5]), theta=0.5, offset=-2.25)
        assert (decision.best_index, decision.score) == (1, 0.25)
        assert not decision.accepted

    def test_accepted_iff_score_reaches_theta(self):
        scores = np.array([0.2, 0.6])
        assert decide(scores, 0.6).accepted
        assert not decide(scores, np.nextafter(0.6, 1.0)).accepted
        assert type(decide(scores, 0.6).accepted) is bool

    def test_gmm_scores_give_the_two_call_decision(self, synthetic_world):
        bank = synthetic_world["bank"]
        for X in synthetic_world["test"][3]:
            best, best_ll = gmm_closed_set(bank, X)
            scores, ubm_ll = gmm_scores(bank, X)
            for theta in (-np.inf, 0.0, 2.0):
                assert decide(scores, theta, ubm_ll) == gmm_verify(
                    bank, X, best, best_ll, theta)

    def test_gmm_scores_need_a_background_model(self, synthetic_world):
        bank = synthetic_world["bank"]
        no_ubm = SpeakerBank(speaker_ids=bank.speaker_ids, models=bank.models)
        with pytest.raises(BankConfigError):
            gmm_scores(no_ubm, synthetic_world["test"][0][0])


class TestGmmClosedSet:
    def test_single_speaker_always_wins(self, synthetic_world, rng):
        bank = synthetic_world["bank"]
        solo = SpeakerBank(speaker_ids=bank.speaker_ids[:1],
                           models=bank.models[:1], ubm=bank.ubm)
        for _ in range(3):
            X = rng.standard_normal((20, 8))
            assert gmm_closed_set(solo, X)[0] == 0

    def test_identifies_true_speaker(self, synthetic_world):
        bank = synthetic_world["bank"]
        for j, utterances in enumerate(synthetic_world["test"]):
            for X in utterances:
                best, _ = gmm_closed_set(bank, X)
                assert best == j

    def test_matches_exhaustive_loop(self, synthetic_world, rng):
        bank = synthetic_world["bank"]
        for _ in range(5):
            X = rng.standard_normal((30, 8)) * 3
            best, best_score = gmm_closed_set(bank, X)
            scores = [mean_log_likelihood(m, X) for m in bank.models]
            assert best == int(np.argmax(scores))
            assert best_score == pytest.approx(max(scores), abs=1e-12)

    def test_offset_frames_still_match_oracle(self, synthetic_world):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][2][0] + 5.0
        best, _ = gmm_closed_set(bank, X)
        scores = [mean_log_likelihood(m, X) for m in bank.models]
        assert best == int(np.argmax(scores))

    def test_permutation_invariant(self, synthetic_world, rng):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][1][0]
        shuffled = X[rng.permutation(len(X))]
        assert gmm_closed_set(bank, X)[0] == gmm_closed_set(bank, shuffled)[0]

    def test_ties_break_to_lowest_index(self, synthetic_world):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][0][0]
        strong, weak = bank.models[0], bank.models[1]
        per_block = SCORE_BLOCK_ROWS // strong.num_components
        # equal models in one block and across a block boundary
        for models, expected in (
                ((weak, strong, weak, strong, strong), 1),
                ((weak,) * (per_block + 2) + (strong,) * 3, per_block + 2)):
            tied = SpeakerBank(speaker_ids=tuple(f"s{i}" for i in range(len(models))),
                               models=models, ubm=bank.ubm)
            best, score = gmm_closed_set(tied, X)
            assert best == expected
            assert score == pytest.approx(mean_log_likelihood(strong, X), rel=1e-9)

    def test_empty_bank_unconstructible(self):
        with pytest.raises(ValueError):
            SpeakerBank(speaker_ids=(), models=())


class TestGmmVerify:
    def test_speaker_equal_to_background_scores_zero(self, synthetic_world, rng):
        ubm = synthetic_world["ubm"]
        bank = SpeakerBank(speaker_ids=("same",), models=(ubm,), ubm=ubm)
        X = rng.standard_normal((25, 8))
        best, score = gmm_closed_set(bank, X)
        decision = gmm_verify(bank, X, best, score, theta=0.0)
        assert decision.score == pytest.approx(0.0, abs=1e-12)

    def test_minus_infinity_threshold_accepts(self, synthetic_world):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][0][0]
        best, score = gmm_closed_set(bank, X)
        decision = gmm_verify(bank, X, best, score, theta=-np.inf)
        assert decision.accepted

    def test_matches_two_call_oracle(self, synthetic_world):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][3][1]
        best, score = gmm_closed_set(bank, X)
        decision = gmm_verify(bank, X, best, score, theta=1.0)
        expected = (mean_log_likelihood(bank.models[best], X)
                    - mean_log_likelihood(bank.ubm, X))
        assert decision.score == pytest.approx(expected, abs=1e-12)

    def test_missing_background_model(self, synthetic_world):
        bank = synthetic_world["bank"]
        no_ubm = SpeakerBank(speaker_ids=bank.speaker_ids, models=bank.models)
        X = synthetic_world["test"][0][0]
        with pytest.raises(BankConfigError):
            gmm_verify(no_ubm, X, 0, -1.0, theta=0.0)

    def test_accepted_iff_score_meets_threshold(self, synthetic_world):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][0][0]
        best, score = gmm_closed_set(bank, X)
        delta = gmm_verify(bank, X, best, score, theta=0.0).score
        assert gmm_verify(bank, X, best, score, theta=delta).accepted
        assert not gmm_verify(bank, X, best, score, theta=delta + 1e-9).accepted


class TestPackedGmmBank:
    """A GMM bank packs its scoring rows once and scores bit-equal to the kernel."""

    @pytest.fixture
    def bank(self, rng):
        # 37 models of 64 components: blocks of 16, 16 and 5 models.
        models = [random_model(rng, 64, 8) for _ in range(37)]
        weights = models[20].weights.copy()
        weights[3] = 0.0
        models[20] = DiagGmm(weights=weights / weights.sum(),
                             means=models[20].means, variances=models[20].variances)
        return SpeakerBank(speaker_ids=tuple(f"s{k}" for k in range(37)),
                           models=tuple(models),
                           ubm=random_model(rng, SCORE_BLOCK_ROWS, 8))

    def test_scores_bit_equal_to_per_model_kernel(self, bank, rng):
        X = rng.standard_normal((60, 8)) * 2.0
        scores, ubm_ll = gmm_scores(bank, X)
        assert np.array_equal(scores, [score_packed(pack_models((m,)), X)[0]
                                       for m in bank.models])
        assert np.array_equal(ubm_ll, score_packed(pack_models((bank.ubm,)), X)[0])
        assert np.isfinite(scores[20])

    def test_packs_models_and_background_once(self, bank, rng, monkeypatch):
        packed = []

        def counting(models, real=gmm_mod.pack_models):
            packed.append(len(models))
            return real(models)
        monkeypatch.setattr(gmm_mod, "pack_models", counting)
        for frames in (30, 45, 60):
            X = rng.standard_normal((frames, 8))
            scores, ubm_ll = gmm_scores(bank, X)
            best, best_ll = gmm_closed_set(bank, X)
            assert decide(scores, 0.0, ubm_ll) == gmm_verify(bank, X, best,
                                                             best_ll, 0.0)
        assert sorted(packed) == [1, 37]
        assert [len(b) for b in bank.gmm_rows] == [16, 16, 5]
        assert not any(b.flags.writeable for b in bank.gmm_rows + bank.ubm_rows)

    def test_prefix_rows_are_views_of_the_parent_rows(self, bank, rng):
        X = rng.standard_normal((40, 8)) * 2.0
        assert "gmm_rows" not in vars(bank.prefix(20))
        scores, ubm_ll = gmm_scores(bank, X)
        for count, sizes in ((1, [1]), (16, [16]), (20, [16, 4]), (37, [16, 16, 5])):
            prefix = bank.prefix(count)
            assert [len(rows) for rows in vars(prefix)["gmm_rows"]] == sizes
            for rows, whole in zip(prefix.gmm_rows, bank.gmm_rows):
                assert np.shares_memory(rows, whole)
            got, got_ubm = gmm_scores(prefix, X)
            assert np.array_equal(got, scores[:count]) and got_ubm == ubm_ll

    @pytest.mark.parametrize("shape", [(0, 8), (10, 7)],
                             ids=["no-frames", "wrong-width"])
    def test_scored_bank_still_rejects_bad_frames(self, bank, rng, shape):
        X = rng.standard_normal((12, 8))
        best, best_ll = gmm_closed_set(bank, X)
        gmm_verify(bank, X, best, best_ll, 0.0)
        bad = np.zeros(shape)
        with pytest.raises(ValueError):
            gmm_scores(bank, bad)
        with pytest.raises(ValueError):
            gmm_closed_set(bank, bad)
        with pytest.raises(ValueError):
            gmm_verify(bank, bad, best, best_ll, 0.0)


def _usable_cpus(monkeypatch, count, blas_threads=1):
    """Make the process see count CPUs it may run on, and a BLAS on
    blas_threads threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))


class TestScoringFanOut:
    """Bank blocks scored in runs on one thread per CPU, bit-equal to one CPU."""

    @pytest.fixture(scope="class")
    def banks(self):
        # 163 speakers: 11 blocks, 10 of 16 models or networks and one of 3,
        # which 4 and 5 runs do not divide evenly; at most 163 // 32 = 5 runs.
        rng = np.random.default_rng(31)
        ids = tuple(f"s{k}" for k in range(163))
        gmms = tuple(random_model(rng, 64, 24) for _ in ids)
        return (SpeakerBank(ids, gmms, ubm=random_model(rng, SCORE_BLOCK_ROWS, 24)),
                SpeakerBank(ids, tuple(random_bank(163))))

    @staticmethod
    def scores(banks, X):
        gmm_bank, net_bank = banks
        return (*gmm_scores(gmm_bank, X), subnn_scores(net_bank, X),
                mlp_mod.score_packed(net_bank.net_blocks, X))

    @staticmethod
    def counted(monkeypatch):
        """The thread count of every thread_map call from now on."""
        pools = []

        def counting(fn, items, threads, real=artifact.thread_map):
            pools.append(threads)
            return real(fn, items, threads)
        monkeypatch.setattr(artifact, "thread_map", counting)
        return pools

    # 250 and 400 frames fall on both sides of OpenBLAS's small-matrix limit
    # for a 64 x 49 block of GMM rows.
    @pytest.mark.parametrize("frames", [250, 400])
    def test_threads_score_bit_equal_to_one_cpu(self, banks, frames, monkeypatch):
        X = np.random.default_rng(frames).standard_normal((frames, 24)) * 2.0
        _usable_cpus(monkeypatch, 1)
        serial = self.scores(banks, X)
        pools = self.counted(monkeypatch)
        for cpus in (2, 4, 5, 8):
            _usable_cpus(monkeypatch, cpus)
            for got, want in zip(self.scores(banks, X), serial):
                assert np.array_equal(got, want)
            runs = min(cpus, 5)
            # GMM bank bounds, its scores (nothing is ruled out here), UBM,
            # 2-class and all classes
            assert pools == [runs, runs, 1, runs, runs]
            pools.clear()

    def test_runs_leave_the_blas_threads_their_cpus(self, banks, monkeypatch):
        X = np.random.default_rng(4).standard_normal((40, 24))
        _usable_cpus(monkeypatch, 1)
        serial = self.scores(banks, X)
        pools = self.counted(monkeypatch)
        for blas_threads, runs in ((2, 4), (3, 2), (8, 1), (0, 1)):
            _usable_cpus(monkeypatch, 8, blas_threads)
            for got, want in zip(self.scores(banks, X), serial):
                assert np.array_equal(got, want)
            assert pools == [runs, runs, 1, runs, runs]
            pools.clear()
        # Unset, OpenBLAS takes every CPU; OMP_NUM_THREADS stands in for it.
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        self.scores(banks, X)
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        self.scores(banks, X)
        assert pools == [1, 1, 1, 1, 1] + [2, 2, 1, 2, 2]

    def test_a_system_without_affinity_counts_every_cpu(self, banks, monkeypatch):
        X = np.random.default_rng(6).standard_normal((40, 24))
        _usable_cpus(monkeypatch, 1)
        serial = self.scores(banks, X)
        pools = self.counted(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for got, want in zip(self.scores(banks, X), serial):
            assert np.array_equal(got, want)
        assert pools == [4, 4, 1, 4, 4]

    @pytest.mark.parametrize("kind", ["gmm", "mlp"])
    def test_worker_errors_reach_the_caller_unchanged(self, kind, monkeypatch):
        # The last of 7 blocks, in the last of 3 runs, takes 20-dimensional
        # frames, not 24.
        rng = np.random.default_rng(5)
        if kind == "gmm":
            blocks = (pack_models([random_model(rng, 64, 24) for _ in range(96)])
                      + pack_models([random_model(rng, 64, 20)]))
            score = gmm_mod.score_packed
        else:
            blocks = mlp_mod.pack_networks(random_bank(96)
                                           + random_bank(1, dims=(20, 8, 2)))
            score = mlp_mod.score_packed
        assert len(blocks) == 7
        X = rng.standard_normal((30, 24))
        _usable_cpus(monkeypatch, 1)
        with pytest.raises(ValueError) as serial:
            score(blocks, X)
        pools = self.counted(monkeypatch)
        _usable_cpus(monkeypatch, 3)
        with pytest.raises(ValueError) as threaded:
            score(blocks, X)
        assert pools == [3]
        assert type(threaded.value) is type(serial.value)
        assert str(threaded.value) == str(serial.value)

    def test_small_banks_or_one_cpu_make_no_pool(self, banks, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("no pool or CPU count expected")
        monkeypatch.setattr(artifact, "_executor", refused)
        monkeypatch.setattr(os, "sched_getaffinity", refused)
        gmm_bank, net_bank = banks
        X = np.random.default_rng(2).standard_normal((50, 24))
        net = initialize_network((24, 12, 12, 5), seed=1)
        alone = SpeakerBank(("a",), (gmm_bank.models[0],), ubm=gmm_bank.ubm)
        # One block: the UBM, a one-block bank, a multi-class network.
        gmm_scores(alone, X)
        subnn_scores(net_bank.prefix(16), X)
        multiclass_scores(net, X)
        # 4 blocks, under two runs of two blocks' worth of models: one run,
        # found with no system call.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        gmm_scores(gmm_bank.prefix(63), X)
        subnn_scores(net_bank.prefix(63), X)
        _usable_cpus(monkeypatch, 1)
        gmm_scores(gmm_bank, X)
        subnn_scores(net_bank, X)

    def test_runs_hold_two_blocks_worth_of_items(self, monkeypatch):
        # Blocks close early where network shapes change, so four blocks may
        # hold under two blocks' worth of items.
        _usable_cpus(monkeypatch, 8)
        sizes = dict(zip("abcdefg", (16, 1, 1, 1, 16, 16, 16)))
        assert artifact.cpu_runs(tuple("abcd"), sizes.get) == [
            (tuple("abcd"), slice(0, 19))]
        assert artifact.cpu_runs(tuple("abcdefg"), sizes.get) == [
            (tuple("abc"), slice(0, 18)), (tuple("defg"), slice(18, 67))]

    def test_workers_call_no_public_function(self, banks, monkeypatch):
        off_main, runs = [], []

        def watched(name, fn, seen):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    seen.append(name)
                return fn(*args, **kwargs)
            return call

        def run_watched(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                runs.append(threading.current_thread() is threading.main_thread())
                return fn(*args, **kwargs)
            return call

        for module in (gmm_mod, mlp_mod, openset_mod):
            for name, fn in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    monkeypatch.setattr(module, name, watched(name, fn, off_main))
        for module in (gmm_mod, mlp_mod):
            monkeypatch.setattr(module, "_score_run", run_watched(module._score_run))
        monkeypatch.setattr(gmm_mod, "_bound_run", run_watched(gmm_mod._bound_run))
        _usable_cpus(monkeypatch, 4)
        gmm_bank, net_bank = banks
        X = np.random.default_rng(3).standard_normal((60, 24))
        net = initialize_network((24, 12, 12, 163), seed=1)
        best, best_ll = openset_mod.gmm_closed_set(gmm_bank, X)
        openset_mod.subnn_open_set(net_bank, X, 0.5)
        # 4 runs of GMM bounds, 4 of GMM scores (nothing is ruled out here)
        # and 4 of 2-class blocks; the caller runs the first of each call.
        assert len(runs) == 12 and runs.count(False) == 9
        openset_mod.gmm_verify(gmm_bank, X, best, best_ll, 0.0)
        openset_mod.multiclass_open_set(net, gmm_bank.speaker_ids, X, 0.5)
        assert off_main == []


class TestFrameRuns:
    """A lone large network scored in runs of frame rows, each through every
    layer, cut by its shape and frame count alone."""

    @pytest.fixture(scope="class")
    def net(self):
        return random_bank(1, dims=(24, 1200, 1200, 700), seed=17)[0]

    @staticmethod
    def frames(count):
        return np.random.default_rng(count).standard_normal((count, 24)) * 2.0

    def test_cuts_follow_the_shape_and_the_frame_count(self, net):
        blocks = (tuple(net.layers),)
        counts = {frames: mlp_mod._frame_runs(blocks, frames)
                  for frames in (1, 239, 240, 479, 480, 719, 720, 1680)}
        assert counts == {1: 1, 239: 1, 240: 2, 479: 2, 480: 2, 719: 2,
                          720: 4, 1680: 8}
        # The multiply-adds bound: the hidden layers of 24-32-32-16 take 1,856
        # per frame.
        small = (tuple(initialize_network((24, 32, 32, 16), seed=0).layers),)
        assert mlp_mod._frame_runs(small, 100_000) == 1
        assert mlp_mod._frame_runs(small, 110_000) == 2
        # A block of several networks, or several blocks, keep the block path.
        assert mlp_mod._frame_runs(mlp_mod.pack_networks([net, net]), 720) == 1
        assert mlp_mod._frame_runs(blocks * 2, 720) == 1

    @staticmethod
    def oracle(net, X):
        posteriors = np.array([forward(net, x)[0] for x in X])
        return np.exp(np.mean(np.log(np.maximum(posteriors, LOSS_FLOOR)), axis=0))

    def check_runs(self, net, X, monkeypatch):
        """Cut into runs, within 1e-12 of the per-frame oracle on one CPU,
        and bit-equal to that on 2 and 4."""
        assert mlp_mod._frame_runs((tuple(net.layers),), len(X)) > 1
        _usable_cpus(monkeypatch, 1)
        serial = multiclass_scores(net, X)
        np.testing.assert_allclose(serial, self.oracle(net, X), rtol=1e-12, atol=0.0)
        for cpus in (2, 4):
            _usable_cpus(monkeypatch, cpus)
            for _ in range(3):
                assert np.array_equal(multiclass_scores(net, X), serial)

    # 250 and 400 frames make 2 runs, 720 make 4, which 3 CPUs share unevenly.
    # Rows of a 1201 x 1200 product cut anywhere round alike on some BLAS
    # kernels; of a 1101 x 1100 one they need not, which shows a cut that
    # followed the CPU count.
    @pytest.mark.parametrize("hidden", [1200, 1100])
    @pytest.mark.parametrize("count", [250, 400, 720])
    def test_bit_equal_whatever_the_cpu_count(self, net, hidden, count, monkeypatch):
        if hidden != 1200:
            net = random_bank(1, dims=(24, hidden, hidden, 700), seed=17)[0]
        X = self.frames(count)
        runs = mlp_mod._frame_runs((tuple(net.layers),), count)
        _usable_cpus(monkeypatch, 1)
        serial = multiclass_scores(net, X)
        pools = TestScoringFanOut.counted(monkeypatch)
        for cpus, blas_threads in ((2, 1), (3, 1), (4, 1), (8, 1), (8, 2), (8, 4),
                                   (8, 8)):
            _usable_cpus(monkeypatch, cpus, blas_threads)
            assert np.array_equal(multiclass_scores(net, X), serial)
            # block, then frame runs
            assert pools == [1, min(runs, cpus // blas_threads)]
            pools.clear()

    # Hidden layers of unequal widths: the runs' rows of layers d and d + 2
    # share a buffer, laid out at one stride so that no run writes another's.
    @pytest.mark.parametrize("dims", [(24, 1200, 1200, 600, 700),
                                      (24, 600, 1200, 1200, 700)])
    @pytest.mark.parametrize("count", [480, 720])
    def test_deeper_networks_of_unequal_widths(self, dims, count, monkeypatch):
        self.check_runs(random_bank(1, dims=dims, seed=19)[0], self.frames(count),
                        monkeypatch)

    # An output wider than every hidden layer: a run's logits share a buffer
    # with the first hidden layer's rows of the next run, so they take the
    # same stride, the output layer's.  1,200 frames make 2 runs.
    @pytest.mark.parametrize("dims", [(24, 400, 400, 2000), (24, 600, 300, 2000)])
    def test_outputs_wider_than_every_hidden_layer(self, dims, monkeypatch):
        self.check_runs(random_bank(1, dims=dims, seed=23)[0], self.frames(1200),
                        monkeypatch)

    def test_one_class_bit_equal_whatever_the_cpu_count(self, net, monkeypatch):
        blocks = (tuple(net.layers),)
        X = self.frames(400)
        _usable_cpus(monkeypatch, 1)
        serial = mlp_mod.score_packed(blocks, X, 5)
        _usable_cpus(monkeypatch, 2)
        assert np.array_equal(mlp_mod.score_packed(blocks, X, 5), serial)
        # The class column averages in the other reduction order.
        np.testing.assert_allclose(serial, mlp_mod.score_packed(blocks, X)[:, 5],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("count", [250, 400])
    def test_close_to_the_per_frame_oracle(self, net, count, monkeypatch):
        X = self.frames(count)
        _usable_cpus(monkeypatch, 2)
        scores = multiclass_scores(net, X)
        oracle = self.oracle(net, X)
        np.testing.assert_allclose(scores, oracle, rtol=1e-12, atol=0.0)
        top = np.sort(oracle)[-2:]
        assert top[1] - top[0] > 1e-9 * top[1]  # a pick that rounding cannot move
        for theta in (0.0, float(oracle.max()) * (1 - 1e-9), 1.0):
            got, want = decide(scores, theta), decide(oracle, theta)
            assert (got.best_index, got.accepted) == (want.best_index, want.accepted)
            assert got.score == pytest.approx(want.score, rel=1e-12, abs=0.0)

    def test_small_networks_and_short_utterances_make_no_pool(self, net,
                                                              monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("no pool or CPU count expected")
        monkeypatch.setattr(artifact, "_executor", refused)
        monkeypatch.setattr(os, "sched_getaffinity", refused)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        pipeline_net = initialize_network((24, 32, 32, 16), seed=2)
        for count in (60, 150, 400, 2000):
            multiclass_scores(pipeline_net, self.frames(count))
        multiclass_scores(net, self.frames(100))
        multiclass_scores(net, self.frames(mlp_mod.FRAME_RUN_FRAMES - 1))

    @pytest.mark.parametrize("cpus, blas_threads", [(1, 1), (2, 2), (8, 8)])
    def test_one_cpu_thread_makes_no_pool(self, net, cpus, blas_threads,
                                          monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("no pool expected")
        monkeypatch.setattr(artifact, "_executor", refused)
        _usable_cpus(monkeypatch, cpus, blas_threads)
        for count in (250, 400, 720):
            assert mlp_mod._frame_runs((tuple(net.layers),), count) > 1
            multiclass_scores(net, self.frames(count))

    def test_worker_errors_reach_the_caller_unchanged(self, net, monkeypatch):
        X = np.random.default_rng(8).standard_normal((400, 20))
        _usable_cpus(monkeypatch, 1)
        with pytest.raises(ValueError) as serial:
            multiclass_scores(net, X)
        pools = TestScoringFanOut.counted(monkeypatch)
        _usable_cpus(monkeypatch, 2)
        with pytest.raises(ValueError) as threaded:
            multiclass_scores(net, X)
        assert pools == [1, 2]
        assert type(threaded.value) is type(serial.value)
        assert str(threaded.value) == str(serial.value)


class TestOutputParts:
    """A lone large network's packed log scores, every frame run's output
    through every layer, whatever the CPU and BLAS thread counts."""

    # 100 frames make 1 run, 250 and 400 make 2, 720 make 4; a 701-wide
    # output has an odd width, and 1100-wide hidden layers round differently
    # under other cuts.
    @pytest.mark.parametrize("dims", [(24, 1200, 1200, 700), (24, 1200, 1200, 701),
                                      (24, 1100, 1100, 700)])
    @pytest.mark.parametrize("count", [100, 250, 400, 720])
    def test_bit_equal_whatever_the_cpu_count(self, dims, count, monkeypatch):
        net = random_bank(1, dims=dims, seed=29)[0]
        blocks = (tuple(net.layers),)
        X = TestFrameRuns.frames(count)
        runs = mlp_mod._frame_runs(blocks, count)
        _usable_cpus(monkeypatch, 1)
        serial = mlp_mod.score_packed(blocks, X)
        np.testing.assert_allclose(serial, augmented_scores([net], X),
                                   rtol=1e-12, atol=0.0)
        pools = TestScoringFanOut.counted(monkeypatch)
        for cpus, blas_threads in ((2, 1), (3, 1), (4, 1), (8, 1), (8, 2), (8, 4),
                                   (8, 8)):
            _usable_cpus(monkeypatch, cpus, blas_threads)
            assert np.array_equal(mlp_mod.score_packed(blocks, X), serial)
            # block, then frame runs if cut
            assert pools == [1] + [min(runs, cpus // blas_threads)] * (runs > 1)
            pools.clear()

    @pytest.mark.parametrize("cpus, blas_threads", [(1, 1), (2, 2), (8, 8)])
    def test_one_cpu_thread_makes_no_pool(self, cpus, blas_threads, monkeypatch):
        net = random_bank(1, dims=(24, 1200, 1200, 700), seed=29)[0]
        def refused(*args, **kwargs):
            raise AssertionError("no pool expected")
        monkeypatch.setattr(artifact, "_executor", refused)
        _usable_cpus(monkeypatch, cpus, blas_threads)
        for count in (250, 400, 720):
            assert mlp_mod._frame_runs((tuple(net.layers),), count) > 1
            multiclass_scores(net, TestFrameRuns.frames(count))


class TestFrameChunks:
    """Block products cut into frame chunks within OpenBLAS's small-matrix
    limit (artifact.SMALL_GEMM_MACS), by the block's shape and frame count."""

    # 80 models: 5 blocks, which 2 and 4 CPUs split into 2 runs; model 70
    # repeats model 20, in another block and another run.
    @pytest.fixture(scope="class")
    def banks(self):
        rng = np.random.default_rng(23)
        ids = tuple(f"s{k}" for k in range(80))
        gmms = [random_model(rng, 64, 24) for _ in ids]
        nets = random_bank(80, seed=5)
        gmms[70], nets[70] = gmms[20], nets[20]
        return (SpeakerBank(ids, tuple(gmms), ubm=random_model(rng, SCORE_BLOCK_ROWS, 24)),
                SpeakerBank(ids, tuple(nets)))

    @staticmethod
    def frames(count):
        return np.random.default_rng(count).standard_normal((count, 24)) * 2.0

    @staticmethod
    def scores(banks, X):
        gmm_bank, net_bank = banks
        return gmm_mod.score_packed(gmm_bank.gmm_rows, X), subnn_scores(net_bank, X)

    def test_caps_follow_the_block_shapes(self, banks):
        gmm_bank, net_bank = banks
        # 64 x 49 GMM rows reach 10^6 multiply-adds past 318 frames, a
        # 51 x 50 hidden layer past 392.
        rows, block = gmm_bank.gmm_rows[0], net_bank.net_blocks[0][:-1]
        cuts = {count: [(c.start, c.stop) for c in artifact.frame_chunks(count, (rows,))]
                for count in (318, 319, 636, 637)}
        assert cuts == {318: [(0, 318)], 319: [(0, 159), (159, 319)],
                        636: [(0, 318), (318, 636)],
                        637: [(0, 212), (212, 424), (424, 637)]}
        assert len(artifact.frame_chunks(392, block)) == 1
        assert artifact.frame_chunks(400, block, 7) == [slice(7, 207), slice(207, 407)]

    # 392 frames pass the GMM cap, not the 2-class one.
    @pytest.mark.parametrize("count, kernels", [(100, 2), (318, 2), (392, 1)])
    def test_byte_equal_to_one_product_at_or_under_the_cap(self, banks, count,
                                                           kernels, monkeypatch):
        X = self.frames(count)
        chunked = self.scores(banks, X)[-kernels:]
        monkeypatch.setattr(artifact, "frame_chunks",
                            lambda frames, matrices, start=0: [slice(start, start + frames)])
        for got, want in zip(chunked, self.scores(banks, X)[-kernels:]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [319, 393, 400])
    def test_close_to_the_per_frame_oracle_past_the_cap(self, banks, count):
        gmm_bank, net_bank = banks
        X = self.frames(count)
        gmm_scores_, subnn = self.scores(banks, X)
        want = [np.mean(log_density_batch(g, X)) for g in gmm_bank.models]
        np.testing.assert_allclose(gmm_scores_, want, rtol=1e-12, atol=0.0)
        want = [np.exp(np.mean(np.log(np.maximum(
            [forward(net, x)[0][1] for x in X], LOSS_FLOOR)))) for net in net_bank.models]
        np.testing.assert_allclose(subnn, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("count", [400, 700])
    def test_equal_models_tie_to_the_lowest_index(self, banks, count):
        for scores in self.scores(banks, self.frames(count)):
            assert scores[70] == scores[20]
            scores[20] = scores[70] = scores.max()
            assert decide(scores, -np.inf).best_index == 20

    @pytest.mark.parametrize("count", [400, 700])
    def test_bit_equal_on_any_cpu_count(self, banks, count, monkeypatch):
        X = self.frames(count)
        _usable_cpus(monkeypatch, 1)
        serial = self.scores(banks, X)
        pools = TestScoringFanOut.counted(monkeypatch)
        for cpus in (2, 4):
            _usable_cpus(monkeypatch, cpus)
            for got, want in zip(self.scores(banks, X), serial):
                assert np.array_equal(got, want)
        # GMM bounds, GMM scores (nothing is ruled out here) and 2-class blocks
        assert pools == [2, 2, 2] * 2

    def test_background_model_and_wide_layers_stay_whole(self, banks, monkeypatch):
        cuts = []

        def recorded(*args, real=artifact.frame_chunks):
            chunks = real(*args)
            cuts.append(len(chunks))
            return chunks
        monkeypatch.setattr(artifact, "frame_chunks", recorded)
        gmm_bank = banks[0]
        net = random_bank(1, dims=(24, 1200, 1200, 700), seed=3)[0]
        for count in (20, 400, 1000):
            gmm_mod.score_packed(gmm_bank.ubm_rows, self.frames(count))
            multiclass_scores(net, self.frames(count))
        # One UBM block, and one multi-class network in 1, 2 and 4 frame runs.
        assert cuts == [1] * (3 + 1 + 2 + 4)


@st.composite
def _bounded_banks(draw):
    """64-component models in 2-5 blocks, an utterance and a CPU count.

    Model means are shifted by a drawn spread, so that some banks rule
    nothing out and others most of their models.  Drawn models repeat an
    earlier one, sit a hair (one unit in the last place) from it, or drop
    components to zero weight; utterances run past the 318-frame chunk cap,
    and some hold a NaN frame.
    """
    per_block = SCORE_BLOCK_ROWS // 64
    blocks = draw(st.integers(2, 5))
    count = draw(st.integers(per_block * (blocks - 1) + 1, per_block * blocks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 1.0, 4.0]))
    models = []
    for _ in range(count):
        g = random_model(rng, 64, 24)
        models.append(DiagGmm(g.weights, g.means + rng.normal(0.0, spread, 24),
                              g.variances))
    for k in draw(st.lists(st.integers(1, count - 1), max_size=6)):
        source = models[draw(st.integers(0, k - 1))]
        kind = draw(st.sampled_from(["repeat", "hair", "zero weights"]))
        if kind == "repeat":
            models[k] = source
        elif kind == "hair":
            models[k] = DiagGmm(source.weights, np.nextafter(source.means, np.inf),
                                source.variances)
        else:
            weights = models[k].weights.copy()
            weights[rng.permutation(64)[:draw(st.integers(1, 63))]] = 0.0
            models[k] = DiagGmm(weights / weights.sum(), models[k].means,
                                models[k].variances)
    X = rng.standard_normal((draw(st.sampled_from([1, 40, 318, 319, 400])), 24)) * 2.0
    if draw(st.booleans()) and draw(st.booleans()):
        X[rng.integers(len(X)), rng.integers(24)] = np.nan
    return models, X, draw(st.sampled_from([1, 2, 4]))


class TestBoundedBankScores:
    """A pack of several blocks rules out, as -inf, each model whose bounds
    show that an earlier model scores higher, and scores the rest exactly."""

    @staticmethod
    def decisions_agree(got, want):
        return got.best_index == want.best_index and (
            got.score == want.score or np.isnan(got.score) and np.isnan(want.score))

    @settings(max_examples=40, deadline=None)
    @given(case=_bounded_banks())
    def test_decisions_exact_on_every_prefix(self, case):
        models, X, cpus = case
        # The kernel as it scores one block, which takes no bounds.
        exact = np.array([score_packed(pack_models((g,)), X)[0] for g in models])
        blocks = pack_models(models)
        per_block = len(blocks[0])
        with pytest.MonkeyPatch.context() as patch:
            _usable_cpus(patch, cpus)
            scores = score_packed(blocks, X)
            prefixes = {c: score_packed(gmm_mod.first_models(blocks, c), X)
                        for c in {1, per_block, per_block + 1, len(models) - 1}}
        ruled = np.isneginf(scores)
        assert np.array_equal(scores[~ruled], exact[~ruled], equal_nan=True)
        for k in np.flatnonzero(ruled):
            assert np.any(exact[:k] > exact[k])
        for c in range(1, len(models) + 1):
            assert self.decisions_agree(decide(scores[:c], -np.inf),
                                        decide(exact[:c], -np.inf))
        for c, got in prefixes.items():
            # A prefix of one block takes no bounds; one of several rules
            # out what the whole pack does.
            want = exact[:c] if c <= per_block else scores[:c]
            assert np.array_equal(got, want, equal_nan=True)

    def test_non_finite_bounds_keep_their_model(self, rng, monkeypatch):
        # A frame so far out that every component of the narrow model 17
        # overflows to -inf: one block scores that model NaN, and its
        # bounds, -inf, must not rule it out.  On one CPU the overflow and
        # NaN warnings, as one block takes them too, stay silenced here.
        _usable_cpus(monkeypatch, 1)
        models = [random_model(rng, 64, 24) for _ in range(20)]
        models[17] = DiagGmm(models[17].weights, models[17].means,
                             models[17].variances * 1e-3)
        X = rng.standard_normal((30, 24))
        X[4] = 1e153
        with np.errstate(invalid="ignore", over="ignore"):
            exact = np.array([score_packed(pack_models((g,)), X)[0] for g in models])
            scores = score_packed(pack_models(models), X)
        assert np.isnan(exact[17]) and np.isnan(scores[17])
        assert np.array_equal(scores[17:], exact[17:], equal_nan=True)
        assert decide(scores, -np.inf).best_index == 17

    def test_one_block_takes_no_bounds(self, rng, monkeypatch):
        def refused(*args):
            raise AssertionError("one block takes no bounds")
        monkeypatch.setattr(gmm_mod, "_bound_run", refused)
        # Model 5, far off the data, would be ruled out by a pack of two.
        models = [random_model(rng, 64, 24) for _ in range(16)]
        models[5] = DiagGmm(models[5].weights, models[5].means + 20.0,
                            models[5].variances)
        X = rng.standard_normal((50, 24))
        ubm = random_model(rng, SCORE_BLOCK_ROWS, 24)
        bank = SpeakerBank(tuple(f"s{k}" for k in range(16)), tuple(models), ubm=ubm)
        scores, ubm_ll = gmm_scores(bank, X)
        assert np.isfinite(scores).all() and np.isfinite(ubm_ll)
        assert np.isfinite(score_packed(pack_models(models[5:6]), X)).all()
        assert gmm_closed_set(bank.prefix(1), X)[0] == 0

    def test_far_models_rule_out_and_still_count(self, rng):
        # Model 0 lies on the data; models 1-47, 3 blocks' worth, far off it.
        near = random_model(rng, 64, 24)
        models = [near] + [DiagGmm(g.weights, g.means + 10.0, g.variances)
                           for g in (random_model(rng, 64, 24) for _ in range(47))]
        bank = SpeakerBank(tuple(f"s{k}" for k in range(48)), tuple(models),
                           ubm=random_model(rng, SCORE_BLOCK_ROWS, 24))
        X = rng.standard_normal((120, 24))
        scores, _ = gmm_scores(bank, X)
        assert np.isneginf(scores[1:]).all()
        assert scores[0] == score_packed(pack_models((near,)), X)[0]
        counter = EvalCounter()
        best, best_ll = gmm_closed_set(bank, X, counter=counter)
        gmm_verify(bank, X, best, best_ll, 0.0, counter=counter)
        assert (best, best_ll) == (0, scores[0])
        assert counter.model_evaluations == len(bank) + 1


class TestPackedNetworkBank:
    """A loaded 2-class bank keeps one copy of its weights: the block stacks."""

    @pytest.fixture
    def saved(self, tmp_path):
        # 37 networks: scoring blocks of 16, 16 and 5.
        bank = SpeakerBank(speaker_ids=tuple(f"s{k}" for k in range(37)),
                           models=tuple(random_bank(37, dims=(8, 10, 10, 2))))
        save_bank(tmp_path / "bank", bank, "mlp")
        return bank, load_bank(tmp_path / "bank", "mlp")

    def test_networks_are_views_of_the_block_stacks(self, saved):
        bank, loaded = saved
        blocks = loaded.net_blocks
        assert [[stack.shape for stack in block] for block in blocks] == [
            [(n, 9, 10), (n, 11, 10), (n, 11, 2)] for n in (16, 16, 5)]
        for k, net in enumerate(loaded.models):
            block = blocks[k // 16]
            for layer in range(3):
                assert np.shares_memory(net.layers[layer], block[layer])
                assert np.shares_memory(net.weights[layer], block[layer])
                assert np.shares_memory(net.biases[layer], block[layer])
                assert np.array_equal(net.layers[layer], block[layer][k % 16])
                assert np.array_equal(net.layers[layer], bank.models[k].layers[layer])

    def test_prefix_blocks_are_views_of_the_parent_blocks(self, saved):
        _, loaded = saved
        prefix = loaded.prefix(20)
        assert [len(block[0]) for block in prefix.net_blocks] == [16, 4]
        for block, parent in zip(prefix.net_blocks, loaded.net_blocks):
            for stack, whole in zip(block, parent):
                assert np.shares_memory(stack, whole)

    def test_scores_pack_without_a_copy(self, saved, rng, monkeypatch):
        bank, loaded = saved
        stacked = []

        def counting(arrays, *args, real=np.stack, **kwargs):
            stacked.append(len(arrays))
            return real(arrays, *args, **kwargs)
        monkeypatch.setattr(np, "stack", counting)
        X = rng.standard_normal((30, 8)) * 2.0
        first = subnn_scores(loaded, X)
        assert stacked == []
        assert np.array_equal(subnn_scores(loaded, X), first)
        assert np.array_equal(subnn_scores(loaded.prefix(20), X), first[:20])
        assert stacked == []
        # An in-memory bank stacks its 3 blocks x 3 layers once, then keeps them.
        assert np.array_equal(subnn_scores(bank, X), first)
        assert np.array_equal(subnn_scores(bank, X), first)
        assert stacked == [16] * 6 + [5] * 3

    def test_scores_bit_equal_to_the_saved_bank(self, saved, rng):
        bank, loaded = saved
        for frames in (1, 40):
            X = rng.standard_normal((frames, 8)) * 3.0
            assert np.array_equal(subnn_scores(loaded, X), subnn_scores(bank, X))
            assert np.array_equal(subnn_scores(loaded, X),
                                  np.exp(loop_scores(bank.models, X)))

    def test_mixed_shape_bank_matches_the_per_network_oracle(self, rng, tmp_path):
        shapes = ([(8, 6, 2)] * 3 + [(8, 10, 10, 2)] * 20 + [(8, 6, 2)]
                  + [(8, 5, 2)] * 2 + [(8, 6, 2)] * 17)
        nets = [random_bank(1, dims, seed=k)[0] for k, dims in enumerate(shapes)]
        bank = SpeakerBank(speaker_ids=tuple(range(len(nets))), models=tuple(nets))
        save_bank(tmp_path / "bank", bank, "mlp")
        loaded = load_bank(tmp_path / "bank", "mlp")
        # Blocks close at each shape change and after 16 networks.
        assert [len(block[0]) for block in loaded.net_blocks] == [3, 16, 4, 1, 2, 16, 1]
        for frames in (1, 25):
            X = rng.standard_normal((frames, 8))
            expected = np.exp(loop_scores(nets, X))
            assert np.array_equal(subnn_scores(bank, X), expected)
            assert np.array_equal(subnn_scores(loaded, X), expected)
            assert np.array_equal(subnn_scores(loaded.prefix(30), X), expected[:30])


class TestSubnnBank:
    def test_bank_size_matches_speakers(self, synthetic_world):
        bank = train_subnn_bank(
            ["a", "b", "c"], synthetic_world["train"][:3], synthetic_world["ubm"],
            cfg=quick_subnn_cfg(5), hidden_dims=(8, 8))
        assert len(bank) == 3
        assert bank.speaker_ids == ("a", "b", "c")
        assert all(net.layer_dims == (8, 8, 8, 2) for net in bank.models)

    def test_separates_speaker_from_background(self, synthetic_world, rng):
        ubm = synthetic_world["ubm"]
        bank = train_subnn_bank(
            ["spk0"], [synthetic_world["train"][0]], ubm,
            cfg=quick_subnn_cfg(6), hidden_dims=(8, 8))
        own = synthetic_world["test"][0][0]
        background = sample(ubm, 200, seed=9)
        blocks = mlp_mod.pack_networks((bank.models[0],))
        own_score = np.exp(mlp_mod.score_packed(blocks, own, 1)[0])
        bg_score = np.exp(mlp_mod.score_packed(blocks, background, 1)[0])
        assert own_score > bg_score

    def test_deterministic_at_serialization_level(self, synthetic_world, tmp_path):
        kwargs = dict(cfg=quick_subnn_cfg(7), hidden_dims=(8, 8))
        first = train_subnn_bank(["a", "b"], synthetic_world["train"][:2],
                                 synthetic_world["ubm"], **kwargs)
        second = train_subnn_bank(["a", "b"], synthetic_world["train"][:2],
                                  synthetic_world["ubm"], **kwargs)
        dir_a, dir_b = tmp_path / "one", tmp_path / "two"
        save_bank(dir_a, first, "mlp")
        save_bank(dir_b, second, "mlp")
        assert read_speaker_ids(dir_a) == ("a", "b")
        names = ["models.mlp", "speakers.csv"]
        assert sorted(p.name for p in dir_a.iterdir()) == names
        assert sorted(p.name for p in dir_b.iterdir()) == names
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_network_k_trains_from_cfg_seed_plus_k(self, synthetic_world):
        ubm, frames = synthetic_world["ubm"], synthetic_world["train"][:2]
        bank = train_subnn_bank(["a", "b"], frames, ubm, cfg=quick_subnn_cfg(5),
                                hidden_dims=(8, 8))
        other = train_subnn_bank(["a", "b"], frames, ubm, cfg=quick_subnn_cfg(6),
                                 hidden_dims=(8, 8))
        for net, other_net in zip(bank.models, other.models):
            assert not np.array_equal(net.weights[0], other_net.weights[0])
        for k, positives in enumerate(frames):
            negatives = sample(ubm, positives.shape[0], seed=5 + k)
            labels = np.repeat([1, 0], [positives.shape[0], negatives.shape[0]])
            expected, _ = train(initialize_network((8, 8, 8, 2), seed=5 + k),
                                np.vstack([positives, negatives]), labels,
                                quick_subnn_cfg(5 + k))
            for got, want in zip(bank.models[k].layers, expected.layers):
                assert np.array_equal(got, want)

    def test_empty_speaker_named_in_error(self, synthetic_world):
        with pytest.raises(EnrollmentError, match="ghost"):
            train_subnn_bank(["ghost"], [np.zeros((0, 8))],
                             synthetic_world["ubm"], cfg=quick_subnn_cfg())


class TestMeanLogPosterior:
    """A single network's score, through the bank kernel."""

    def test_constant_network(self):
        net = MlpNetwork([np.zeros((5, 2))])
        X = np.random.default_rng(0).standard_normal((15, 4))
        score = mlp_mod.score_packed(mlp_mod.pack_networks((net,)), X, 1)[0]
        assert score == pytest.approx(np.log(0.5), abs=1e-12)

    def test_single_frame(self, rng):
        net = initialize_network((4, 6, 2), seed=0)
        x = rng.standard_normal(4)
        posterior, _ = forward(net, x)
        score = mlp_mod.score_packed(mlp_mod.pack_networks((net,)), x[None, :], 1)[0]
        assert score == pytest.approx(np.log(posterior[1]), abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        net = initialize_network((4, 6, 2), seed=1)
        X = rng.standard_normal((20, 4))
        expected = np.mean([np.log(forward(net, x)[0][1]) for x in X])
        score = mlp_mod.score_packed(mlp_mod.pack_networks((net,)), X, 1)[0]
        assert score == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self, rng):
        net = initialize_network((4, 6, 2), seed=2)
        with pytest.raises(ValueError):
            mlp_mod.score_packed(mlp_mod.pack_networks((net,)), np.zeros((0, 4)), 1)


@pytest.fixture(scope="module")
def nn_bank(synthetic_world):
    return train_subnn_bank(
        [f"spk{i}" for i in range(5)], synthetic_world["train"],
        synthetic_world["ubm"], cfg=quick_subnn_cfg(8), hidden_dims=(8, 8))


class TestSubnnOpenSet:
    def test_single_network_vacuous_threshold(self, nn_bank, synthetic_world):
        solo = SpeakerBank(speaker_ids=nn_bank.speaker_ids[:1],
                           models=nn_bank.models[:1])
        decision = subnn_open_set(solo, synthetic_world["test"][0][0], theta=0.0)
        assert decision.best_index == 0 and decision.accepted

    def test_matches_exhaustive_loop(self, nn_bank, synthetic_world):
        for j in (0, 2, 4):
            X = synthetic_world["test"][j][0]
            decision = subnn_open_set(nn_bank, X, theta=0.5)
            scores = [np.exp(np.mean(np.log(np.maximum(
                forward_batch(net, X)[0][:, 1], LOSS_FLOOR))))
                for net in nn_bank.models]
            assert decision.best_index == int(np.argmax(scores))
            assert decision.score == pytest.approx(max(scores), abs=1e-12)

    def test_score_is_probability(self, nn_bank, rng):
        X = rng.standard_normal((30, 8)) * 4
        decision = subnn_open_set(nn_bank, X, theta=0.5)
        assert 0.0 <= decision.score <= 1.0

    def test_threshold_monotone_in_acceptance(self, nn_bank, synthetic_world):
        X = synthetic_world["test"][1][1]
        decision = subnn_open_set(nn_bank, X, theta=0.9)
        for theta in (0.5, 0.1, -1.0):
            lowered = subnn_open_set(nn_bank, X, theta=theta)
            if decision.accepted:
                assert lowered.accepted

    def test_permutation_invariant(self, nn_bank, synthetic_world, rng):
        X = synthetic_world["test"][2][1]
        shuffled = X[rng.permutation(len(X))]
        assert (subnn_open_set(nn_bank, X, 0.5).best_index
                == subnn_open_set(nn_bank, shuffled, 0.5).best_index)


class TestMulticlassOpenSet:
    def test_uniform_network_tie_breaks_low(self, rng):
        k = 4
        net = MlpNetwork([np.zeros((7, k))])
        X = rng.standard_normal((10, 6))
        ids = [f"s{i}" for i in range(k)]
        decision = multiclass_open_set(net, ids, X, theta=1.0 / k)
        assert decision.best_index == 0
        assert decision.score == pytest.approx(1.0 / k, abs=1e-12)
        assert decision.accepted
        assert not multiclass_open_set(net, ids, X, theta=1.0 / k + 1e-9).accepted

    def test_single_frame_reduces_to_forward_argmax(self, rng):
        net = initialize_network((6, 10, 3), seed=4)
        x = rng.standard_normal(6)
        posterior, _ = forward(net, x)
        decision = multiclass_open_set(net, ["a", "b", "c"], x[None, :], theta=0.0)
        assert decision.best_index == int(np.argmax(posterior))
        assert decision.score == pytest.approx(np.max(posterior), abs=1e-12)

    def test_matches_per_frame_pipeline_oracle(self, rng):
        net = initialize_network((6, 10, 3), seed=5)
        X = rng.standard_normal((12, 6))
        per_frame = np.array([np.log(forward(net, x)[0]) for x in X])
        scores = np.exp(per_frame.mean(axis=0))
        decision = multiclass_open_set(net, ["a", "b", "c"], X, theta=0.2)
        assert decision.best_index == int(np.argmax(scores))
        assert decision.score == pytest.approx(scores.max(), abs=1e-12)

    def test_scores_are_the_decision_inputs(self, rng):
        net = initialize_network((6, 10, 3), seed=8)
        X = rng.standard_normal((9, 6))
        scores = multiclass_scores(net, X)
        assert scores.shape == (3,)
        assert decide(scores, 0.3) == multiclass_open_set(net, ["a", "b", "c"], X, 0.3)

    @pytest.mark.parametrize("outputs, frames", [(3, 9), (40, 200), (5, 1)])
    def test_scores_bit_equal_to_the_augmented_oracle(self, rng, outputs, frames):
        net = random_bank(1, dims=(6, 10, outputs), seed=outputs)[0]
        X = rng.standard_normal((frames, 6)) * 3
        scores = multiclass_scores(net, X)
        assert np.array_equal(scores, np.exp(augmented_scores((net,), X)[0]))
        np.testing.assert_allclose(scores, multiclass_forward_scores(net, X),
                                   rtol=1e-12, atol=0.0)

    def test_empty_input_rejected(self):
        net = initialize_network((6, 10, 3), seed=8)
        with pytest.raises(ValueError):
            multiclass_scores(net, np.zeros((0, 6)))

    def test_dimension_mismatch_with_speakers(self, rng):
        net = initialize_network((6, 10, 3), seed=6)
        with pytest.raises(BankConfigError):
            multiclass_open_set(net, ["a", "b"], rng.standard_normal((5, 6)), 0.0)


class TestEvaluationCounters:
    def test_gmm_trial_costs_k_plus_one(self, synthetic_world):
        bank = synthetic_world["bank"]
        X = synthetic_world["test"][0][0]
        counter = EvalCounter()
        best, score = gmm_closed_set(bank, X, counter=counter)
        gmm_verify(bank, X, best, score, theta=0.0, counter=counter)
        assert counter.model_evaluations == len(bank) + 1

    def test_subnn_trial_costs_k(self, synthetic_world):
        bank = train_subnn_bank(
            ["a", "b", "c"], synthetic_world["train"][:3], synthetic_world["ubm"],
            cfg=quick_subnn_cfg(3), hidden_dims=(8, 8))
        counter = EvalCounter()
        subnn_open_set(bank, synthetic_world["test"][0][0], theta=0.5,
                       counter=counter)
        assert counter.model_evaluations == 3

    def test_multiclass_trial_costs_one(self, rng):
        net = initialize_network((8, 10, 5), seed=7)
        counter = EvalCounter()
        multiclass_open_set(net, [f"s{i}" for i in range(5)],
                            rng.standard_normal((9, 8)), 0.1, counter=counter)
        assert counter.model_evaluations == 1


# Speaker ids with separators, dots, spaces, CSV-hostile characters and
# unicode, plus the case-swapped twin of each.
_odd_ids = st.lists(
    st.one_of(st.sampled_from(["a/b", "../x", "..", "a b", " ", "", "a,b",
                               'say "hi"', "line\nbreak", "cr\rlf", "größe",
                               "説話者"]),
              st.text(max_size=8)),
    min_size=1, max_size=6,
).map(lambda ids: tuple(dict.fromkeys(ids + [i.swapcase() for i in ids])))


class TestBankPersistence:
    def test_gmm_bank_round_trip(self, synthetic_world, tmp_path):
        bank = synthetic_world["bank"]
        directory = tmp_path / "bank"
        save_bank(directory, bank, "gmm")
        assert sorted(p.name for p in directory.iterdir()) == [
            "models.gmm", "speakers.csv", "ubm.gmm"]
        loaded = load_bank(directory, "gmm")
        assert loaded.speaker_ids == bank.speaker_ids
        X = synthetic_world["test"][1][0]
        assert gmm_closed_set(loaded, X) == gmm_closed_set(bank, X)

    def test_gmm_bank_requires_background(self, synthetic_world, tmp_path):
        bank = synthetic_world["bank"]
        stripped = SpeakerBank(speaker_ids=bank.speaker_ids, models=bank.models)
        directory = tmp_path / "nope"
        directory.mkdir()
        with pytest.raises(BankConfigError):
            save_bank(directory, stripped, "gmm")
        assert list(directory.iterdir()) == []

    def test_multiclass_round_trip(self, tmp_path, rng):
        net = initialize_network((6, 10, 3), seed=9)
        ids = ("x", "y", "z")
        save_multiclass(tmp_path / "mc", net, ids)
        loaded, loaded_ids = load_multiclass(tmp_path / "mc")
        assert loaded_ids == ids
        X = rng.standard_normal((7, 6))
        first = multiclass_open_set(net, ids, X, 0.0)
        second = multiclass_open_set(loaded, ids, X, 0.0)
        assert first == second

    def test_multiclass_speaker_count_checked_on_load(self, tmp_path):
        save_multiclass(tmp_path / "mc", initialize_network((6, 10, 3), seed=9),
                        ("x", "y", "z"))
        write_table(tmp_path / "mc" / "speakers.csv", ("speaker_id",),
                    [("x",), ("y",)])
        with pytest.raises(CorruptArtifactError, match="3 outputs for 2 speakers"):
            load_multiclass(tmp_path / "mc")

    @pytest.mark.parametrize("outputs", [1, 3])
    def test_networks_of_other_than_two_outputs_rejected(self, tmp_path, outputs):
        # Read as a 2-class bank, 1 output fails on the class index and 3
        # would score class 1 of 3.
        ids = ("a", "b", "c")
        for nets, bad in ((random_bank(3, dims=(24, 4, outputs)), 0),
                          (random_bank(2, dims=(24, 4, 2))
                           + random_bank(1, dims=(24, 4, outputs)), 2)):
            directory = tmp_path / str(bad)
            save_bank(directory, SpeakerBank(ids, tuple(nets)), "mlp")
            with pytest.raises(CorruptArtifactError) as error:
                load_bank(directory, "mlp")
            assert str(error.value) == (f"{directory / 'models.mlp'}: record {bad}: "
                                        f"{outputs} outputs, expected 2")

    def test_speaker_ids_read_without_models(self, synthetic_world, tmp_path):
        bank = synthetic_world["bank"]
        save_multiclass(tmp_path / "mc", initialize_network((8, 4, 5), seed=0),
                        bank.speaker_ids)
        (tmp_path / "mc" / "multiclass.mlp").unlink()
        assert read_speaker_ids(tmp_path / "mc") == bank.speaker_ids
        (tmp_path / "mc" / "speakers.csv").write_text("speaker\n")
        with pytest.raises(ValueError):
            read_speaker_ids(tmp_path / "mc")

    @pytest.mark.parametrize("kind", ["gmm", "mlp"])
    def test_odd_speaker_ids_stay_inside_the_bank(self, synthetic_world,
                                                  nn_bank, tmp_path, kind):
        ids = ("a/b", "../x", "a b", "spk", "Spk", "größe-説話者")
        source = synthetic_world["bank"] if kind == "gmm" else nn_bank
        bank = SpeakerBank(speaker_ids=ids, models=source.models[:1] * len(ids),
                           ubm=source.ubm)
        directory = tmp_path / "bank"
        save_bank(directory, bank, kind)
        assert [p.name for p in tmp_path.iterdir()] == ["bank"]
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            [f"models.{kind}", "speakers.csv"] + ["ubm.gmm"] * (kind == "gmm"))
        assert read_speaker_ids(directory) == ids
        loaded = load_bank(directory, kind)
        assert loaded.speaker_ids == ids
        X = synthetic_world["test"][0][0]
        if kind == "gmm":
            assert gmm_closed_set(loaded, X) == gmm_closed_set(bank, X)
        else:
            assert subnn_open_set(loaded, X, 0.5) == subnn_open_set(bank, X, 0.5)

    @pytest.mark.parametrize("kind", ["gmm", "mlp"])
    def test_old_layout_is_refused(self, synthetic_world, nn_bank, tmp_path, kind):
        # One model file per speaker, named by bank position, and a manifest
        # naming them, as older versions saved a bank.
        bank = synthetic_world["bank"] if kind == "gmm" else nn_bank
        directory = tmp_path / "old"
        directory.mkdir()
        save = gmm_mod.save_gmm if kind == "gmm" else mlp_mod.save_mlp
        rows = [(spk, f"{k:06d}.{kind}") for k, spk in enumerate(bank.speaker_ids)]
        for (_, name), model in zip(rows, bank.models):
            save(directory / name, model)
        if kind == "gmm":
            gmm_mod.save_gmm(directory / "ubm.gmm", bank.ubm)
        write_table(directory / "manifest.csv", ("speaker_id", "model_file"), rows)
        with pytest.raises(CorruptArtifactError, match="saved incompletely"):
            load_bank(directory, kind)

    @pytest.mark.parametrize("kind", ["GMM", "nn", ""])
    def test_unknown_kind_rejected_before_any_io(self, synthetic_world,
                                                 tmp_path, kind):
        bank = synthetic_world["bank"]
        directory = tmp_path / "bank"
        save_bank(directory, bank, "gmm")
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        with pytest.raises(ValueError, match=f"unknown bank kind '{kind}'"):
            save_bank(directory, bank, kind)
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
        with pytest.raises(ValueError, match=f"unknown bank kind '{kind}'"):
            save_bank(tmp_path / "new", bank, kind)
        assert not (tmp_path / "new").exists()
        for target in (directory, tmp_path / "missing"):
            with pytest.raises(ValueError, match=f"unknown bank kind '{kind}'"):
                load_bank(target, kind)

    @pytest.mark.parametrize("kind", ["gmm", "mlp"])
    @settings(max_examples=40, deadline=None)
    @given(ids=_odd_ids)
    def test_odd_ids_round_trip(self, synthetic_world, kind, ids):
        if kind == "gmm":
            source = synthetic_world["bank"]
            models = source.models[:1] * len(ids)
        else:
            models = random_bank(len(ids), dims=(8, 6, 2), seed=len(ids))
        bank = SpeakerBank(speaker_ids=ids, models=tuple(models),
                           ubm=synthetic_world["ubm"])
        with tempfile.TemporaryDirectory() as root:
            directory = os.path.join(root, "bank")
            save_bank(directory, bank, kind)
            assert os.listdir(root) == ["bank"]
            loaded = load_bank(directory, kind)
            assert loaded.speaker_ids == ids
        for got, want in zip(loaded.models, bank.models):
            assert_same_model(got, want)
        if kind == "mlp":
            X = synthetic_world["test"][0][0]
            assert np.array_equal(subnn_scores(loaded, X), subnn_scores(bank, X))

    def test_prefix_bank(self, synthetic_world):
        bank = synthetic_world["bank"]
        sub = bank.prefix(3)
        assert sub.speaker_ids == bank.speaker_ids[:3]
        assert sub.ubm is bank.ubm
        with pytest.raises(ValueError):
            bank.prefix(99)


def _random_bank(kind, size, seed):
    """A seeded bank of 4-component GMMs with a background model, or of 6-4-2
    networks."""
    rng = np.random.default_rng(seed)
    ids = tuple(f"s{k}" for k in range(size))
    if kind == "gmm":
        return SpeakerBank(ids, tuple(random_model(rng, 4, 6) for _ in ids),
                           ubm=random_model(rng, 8, 6))
    return SpeakerBank(ids, tuple(random_bank(size, dims=(6, 4, 2), seed=seed)))


class TestBankFile:
    """A bank directory holds one file of model records, whatever its size."""

    @pytest.mark.parametrize("kind, files", [
        ("gmm", ["models.gmm", "ubm.gmm", "speakers.csv"]),
        ("mlp", ["models.mlp", "speakers.csv"])])
    def test_every_bank_size_writes_the_same_files(self, tmp_path, monkeypatch,
                                                   kind, files):
        replaced = []

        def counting(src, dst, real=os.replace):
            replaced.append(os.path.basename(dst))
            real(src, dst)
        monkeypatch.setattr(os, "replace", counting)
        for size in (3, 40):
            save_bank(tmp_path / str(size), _random_bank(kind, size, size), kind)
        assert replaced == files * 2

    @pytest.mark.parametrize("kind", ["gmm", "mlp"])
    def test_corrupt_records_name_the_file_and_the_record(self, tmp_path, kind):
        bank = _random_bank(kind, 5, 1)
        directory = tmp_path / "bank"
        save_bank(directory, bank, kind)
        path = directory / f"models.{kind}"
        whole = path.read_bytes()
        record = (len(whole) - 8) // 5  # five records of one shape
        header = 8 if kind == "gmm" else 16  # (M, D) or (3, 6, 4, 2)
        nan_at = 8 + 3 * record + header  # record 3's first weight
        cases = [
            (whole[:8 + 2 * record + 10], "record 2: truncated"),
            (whole[:8 + 4 * record], "record 4: truncated"),
            (whole[:nan_at] + np.array([np.nan]).tobytes() + whole[nan_at + 8:],
             "record 3: "),
            (b"OSIDXXX1" + whole[8:], "bad magic b'OSIDXXX1'"),
            (whole + bytes(8), "8 trailing bytes"),
        ]
        for data, message in cases:
            path.write_bytes(data)
            with pytest.raises(CorruptArtifactError) as error:
                load_bank(directory, kind)
            assert str(error.value).startswith(f"{path}: {message}"), message
        path.write_bytes(whole)
        for got, want in zip(load_bank(directory, kind).models, bank.models):
            assert_same_model(got, want)

    def test_mixed_shape_gmm_bank_round_trips(self, tmp_path):
        rng = np.random.default_rng(8)
        models = tuple(random_model(rng, m, 5) for m in (4, 4, 8, 4, 2, 2))
        bank = SpeakerBank(tuple(range(6)), models, ubm=random_model(rng, 16, 5))
        save_bank(tmp_path, bank, "gmm")
        loaded = load_bank(tmp_path, "gmm")
        for got, want in zip(loaded.models + (loaded.ubm,), models + (bank.ubm,)):
            assert_same_model(got, want)

    def test_mixed_shape_network_bank_loads_into_the_packed_blocks(self, tmp_path):
        shapes = [(5, 6, 2)] * 18 + [(5, 3, 3, 2)] + [(5, 6, 2)] * 2
        nets = tuple(random_bank(1, dims, seed=k)[0] for k, dims in enumerate(shapes))
        save_bank(tmp_path, SpeakerBank(tuple(range(len(nets))), nets), "mlp")
        loaded = load_bank(tmp_path, "mlp")
        for got, want in zip(loaded.models, nets):
            assert_same_model(got, want)
        # Blocks of 16, 2, 1 and 2 networks, as pack_networks builds them,
        # the one-network block as a stack of one.
        packed = mlp_mod.pack_networks(nets)
        assert [len(block[0]) for block in loaded.net_blocks] == [16, 2, 1, 2]
        assert len(loaded.net_blocks) == len(packed)
        for block, want in zip(loaded.net_blocks, packed):
            assert len(block) == len(want)
            for stack, layer in zip(block, want):
                assert stack.shape[-2:] == layer.shape[-2:]
                assert stack.dtype == layer.dtype
                assert stack.tobytes() == layer.tobytes()
