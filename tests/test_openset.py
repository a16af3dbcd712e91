"""Tests for the three open-set systems on small synthetic populations."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osid import gmm as gmm_mod
from osid.artifact import read_table, write_table
from osid.errors import BankConfigError, CorruptArtifactError, EnrollmentError
from osid.gmm import (SCORE_BLOCK_ROWS, DiagGmm, EmConfig, em_fit, pack_models,
                      sample, score_packed)
from osid.mlp import (LOSS_FLOOR, MlpNetwork, TrainConfig, forward_batch,
                      initialize_network, mean_log_posteriors, train)
from osid.openset import (
    BANK_COLUMNS,
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
from oracles import mean_log_likelihood
from test_gmm import random_model
from test_mlp import loop_scores, random_bank
from oracles import forward, multiclass_forward_scores


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


class TestPackedNetworkBank:
    """A loaded 2-class bank keeps one copy of its weights: the block stacks."""

    @pytest.fixture
    def saved(self, tmp_path):
        # 37 networks: load slices and scoring blocks of 16, 16 and 5.
        bank = SpeakerBank(speaker_ids=tuple(f"s{k}" for k in range(37)),
                           models=tuple(random_bank(37, dims=(8, 10, 10, 2))))
        save_bank(tmp_path / "bank", bank, "mlp")
        return bank, load_bank(tmp_path / "bank", "mlp")

    def test_networks_are_views_of_the_block_stacks(self, saved):
        bank, loaded = saved
        blocks = loaded.net_blocks
        assert [len(weights[0]) for weights, _ in blocks] == [16, 16, 5]
        for k, net in enumerate(loaded.models):
            weights, biases = blocks[k // 16]
            for layer in range(3):
                assert np.shares_memory(net.weights[layer], weights[layer])
                assert np.shares_memory(net.biases[layer], biases[layer])
                assert np.array_equal(net.weights[layer], bank.models[k].weights[layer])
                assert np.array_equal(net.biases[layer], bank.models[k].biases[layer])

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
        # An in-memory bank stacks its 3 blocks x 6 arrays once, then keeps them.
        assert np.array_equal(subnn_scores(bank, X), first)
        assert np.array_equal(subnn_scores(bank, X), first)
        assert stacked == [16] * 12 + [5] * 6

    def test_scores_bit_equal_to_the_saved_bank(self, saved, rng):
        bank, loaded = saved
        for frames in (1, 40):
            X = rng.standard_normal((frames, 8)) * 3.0
            assert np.array_equal(subnn_scores(loaded, X), subnn_scores(bank, X))
            assert np.array_equal(subnn_scores(loaded, X),
                                  np.exp(loop_scores(bank.models, X)))

    def test_mixed_shape_bank_matches_the_per_network_oracle(self, rng, tmp_path):
        shapes = ([(8, 6, 2)] * 3 + [(8, 10, 10, 2)] * 20 + [(8, 6, 2)]
                  + [(8, 5, 7)] * 2 + [(8, 6, 2)] * 17)
        nets = [random_bank(1, dims, seed=k)[0] for k, dims in enumerate(shapes)]
        bank = SpeakerBank(speaker_ids=tuple(range(len(nets))), models=tuple(nets))
        save_bank(tmp_path / "bank", bank, "mlp")
        loaded = load_bank(tmp_path / "bank", "mlp")
        X = rng.standard_normal((25, 8))
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
        own_score = np.exp(mean_log_posteriors((bank.models[0],), own, 1)[0])
        bg_score = np.exp(mean_log_posteriors((bank.models[0],), background, 1)[0])
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
        rows = read_table(dir_a / "manifest.csv", BANK_COLUMNS)
        assert [row["speaker_id"] for row in rows] == ["a", "b"]
        names = sorted([row["model_file"] for row in rows] + ["manifest.csv"])
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
            for got, want in zip(bank.models[k].parameters(),
                                 expected.parameters()):
                assert np.array_equal(got, want)

    def test_empty_speaker_named_in_error(self, synthetic_world):
        with pytest.raises(EnrollmentError, match="ghost"):
            train_subnn_bank(["ghost"], [np.zeros((0, 8))],
                             synthetic_world["ubm"], cfg=quick_subnn_cfg())


class TestMeanLogPosterior:
    """A single network's score, through the bank kernel."""

    def test_constant_network(self):
        net = MlpNetwork(weights=[np.zeros((4, 2))], biases=[np.zeros(2)])
        X = np.random.default_rng(0).standard_normal((15, 4))
        score = mean_log_posteriors((net,), X, 1)[0]
        assert score == pytest.approx(np.log(0.5), abs=1e-12)

    def test_single_frame(self, rng):
        net = initialize_network((4, 6, 2), seed=0)
        x = rng.standard_normal(4)
        posterior, _ = forward(net, x)
        assert mean_log_posteriors((net,), x[None, :], 1)[0] == pytest.approx(
            np.log(posterior[1]), abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        net = initialize_network((4, 6, 2), seed=1)
        X = rng.standard_normal((20, 4))
        expected = np.mean([np.log(forward(net, x)[0][1]) for x in X])
        score = mean_log_posteriors((net,), X, 1)[0]
        assert score == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self, rng):
        net = initialize_network((4, 6, 2), seed=2)
        with pytest.raises(ValueError):
            mean_log_posteriors((net,), np.zeros((0, 4)), 1)


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
        net = MlpNetwork(weights=[np.zeros((6, k))], biases=[np.zeros(k)])
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

    @pytest.mark.parametrize("outputs, frames", [(3, 9), (40, 200)])
    def test_scores_bit_equal_to_forward_batch(self, rng, outputs, frames):
        net = initialize_network((6, 10, outputs), seed=outputs)
        X = rng.standard_normal((frames, 6)) * 3
        assert np.array_equal(multiclass_scores(net, X),
                              multiclass_forward_scores(net, X))

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
        assert (directory / "manifest.csv").exists()
        assert (directory / "ubm.gmm").exists()
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

    def test_speaker_ids_read_without_models(self, synthetic_world, tmp_path):
        bank = synthetic_world["bank"]
        save_bank(tmp_path / "bank", bank, "gmm")
        save_multiclass(tmp_path / "mc", initialize_network((8, 4, 5), seed=0),
                        bank.speaker_ids)
        assert read_speaker_ids(tmp_path / "bank") == bank.speaker_ids
        assert read_speaker_ids(tmp_path / "mc") == bank.speaker_ids
        (tmp_path / "bank" / "manifest.csv").write_text("speaker,model_file\n")
        with pytest.raises(ValueError):
            read_speaker_ids(tmp_path / "bank")

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
        assert all(p.is_file() for p in directory.iterdir())
        rows = read_table(directory / "manifest.csv", BANK_COLUMNS)
        assert tuple(row["speaker_id"] for row in rows) == ids
        assert [row["model_file"] for row in rows] == [
            f"{k:06d}.{kind}" for k in range(len(ids))]
        loaded = load_bank(directory, kind)
        assert loaded.speaker_ids == ids
        assert read_speaker_ids(directory) == ids
        X = synthetic_world["test"][0][0]
        if kind == "gmm":
            assert gmm_closed_set(loaded, X) == gmm_closed_set(bank, X)
        else:
            assert subnn_open_set(loaded, X, 0.5) == subnn_open_set(bank, X, 0.5)

    def test_bank_with_id_named_files_still_loads(self, nn_bank, tmp_path):
        directory = tmp_path / "old"
        save_bank(directory, nn_bank, "mlp")
        rows = read_table(directory / "manifest.csv", BANK_COLUMNS)
        for row in rows:
            (directory / row["model_file"]).rename(
                directory / f"{row['speaker_id']}.mlp")
        write_table(directory / "manifest.csv", BANK_COLUMNS,
                    [(row["speaker_id"], f"{row['speaker_id']}.mlp")
                     for row in rows])
        loaded = load_bank(directory, "mlp")
        assert loaded.speaker_ids == nn_bank.speaker_ids
        X = np.random.default_rng(4).standard_normal((12, 8))
        assert np.array_equal(subnn_scores(loaded, X), subnn_scores(nn_bank, X))

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
            assert read_speaker_ids(directory) == ids
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
