"""Tests for the network engine: forward math, gradients, optimizer, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osid.cli import RunConfig
from osid.errors import CorruptArtifactError
from osid.openset import SpeakerBank, subnn_open_set
from osid import mlp
from osid.mlp import (
    LOSS_FLOOR,
    SCORE_BLOCK_NETS,
    MlpNetwork,
    TrainConfig,
    backward_batch,
    forward_batch,
    initialize_network,
    load_mlp,
    mean_log_posteriors,
    mean_nll,
    optimizer_step,
    save_mlp,
    train,
)
from oracles import (backward, forward, multiclass_forward_scores, nll_loss,
                     softmax_reduce)


def zero_network(dims):
    return MlpNetwork(weights=[np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])],
                      biases=[np.zeros(b) for b in dims[1:]])


def flat_grads(grad_w, grad_b):
    out = []
    for gw, gb in zip(grad_w, grad_b):
        out.extend((gw, gb))
    return out


class TestForward:
    def test_zero_network_is_uniform(self):
        for k in (2, 5, 9):
            net = zero_network((6, 4, k))
            posteriors, _ = forward(net, np.ones(6))
            np.testing.assert_allclose(posteriors, np.full(k, 1.0 / k), atol=1e-15)

    def test_hand_computed_2_2_2(self):
        net = MlpNetwork(
            weights=[np.array([[1.0, -1.0], [0.5, 2.0]]),
                     np.array([[1.0, 0.0], [-1.0, 1.0]])],
            biases=[np.array([0.1, -0.2]), np.array([0.0, 0.3])])
        x = np.array([1.0, 2.0])
        # hidden pre-activation: [1*1+2*0.5+0.1, 1*(-1)+2*2-0.2] = [2.1, 2.8]
        # relu keeps both; logits: [2.1*1+2.8*(-1), 2.8*1+0.3] = [-0.7, 3.1]
        logits = np.array([-0.7, 3.1])
        expected = np.exp(logits) / np.exp(logits).sum()
        posteriors, cache = forward(net, x)
        np.testing.assert_allclose(posteriors, expected, atol=1e-12)
        np.testing.assert_allclose(cache["activations"][1][0], [2.1, 2.8],
                                   atol=1e-12)

    def test_relu_clamps_negative_hidden(self):
        net = MlpNetwork(weights=[np.array([[-1.0]]), np.array([[2.0]])],
                         biases=[np.zeros(1), np.zeros(1)])
        _, cache = forward(net, np.array([3.0]))
        assert cache["activations"][1][0, 0] == 0.0

    def test_posteriors_sum_to_one(self, rng):
        net = initialize_network((24, 50, 50, 2), seed=0)
        X = rng.standard_normal((100, 24)) * 10
        posteriors, _ = forward_batch(net, X)
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(posteriors > 0)

    def test_dimension_mismatch(self):
        net = initialize_network((4, 3, 2), seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))

    def test_argmax_invariant_to_logit_shift(self, rng):
        net = initialize_network((6, 8, 4), seed=2)
        shifted = MlpNetwork(weights=[w.copy() for w in net.weights],
                             biases=[b.copy() for b in net.biases])
        shifted.biases[-1] += 7.5
        X = rng.standard_normal((20, 6))
        base, _ = forward_batch(net, X)
        moved, _ = forward_batch(shifted, X)
        np.testing.assert_array_equal(base.argmax(axis=1), moved.argmax(axis=1))


# Logits with ties (few distinct values) and magnitudes from 1e-3 to 1e6.
_logits = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-3, -1e-3, 1.0, -1.0, 1e6, -1e6]),
    st.floats(1e-3, 1e6),
    st.floats(-1e6, -1e-3),
    st.floats(-1.0, 1.0),
)
_two_column_shapes = st.one_of(
    st.just((2,)),
    st.tuples(st.integers(1, 9), st.just(2)),
    st.tuples(st.integers(1, 4), st.integers(1, 9), st.just(2)),
)


class TestSoftmax:
    """The column-wise 2-way softmax against numpy's last-axis reductions."""

    @settings(max_examples=300, deadline=None)
    @given(logits=_two_column_shapes.flatmap(
        lambda shape: arrays(np.float64, shape, elements=_logits)))
    def test_two_columns_bit_equal_to_the_reductions(self, logits):
        assert np.array_equal(mlp._softmax(logits), softmax_reduce(logits))

    @settings(max_examples=50, deadline=None)
    @given(logits=arrays(np.float64, (6, 3), elements=_logits))
    def test_three_columns_take_the_reductions(self, logits):
        assert np.array_equal(mlp._softmax(logits), softmax_reduce(logits))


def loop_scores(nets, X, class_index=1):
    """Independent oracle: one forward_batch per network."""
    return np.array([
        np.mean(np.log(np.maximum(forward_batch(net, X)[0][:, class_index],
                                  LOSS_FLOOR)))
        for net in nets])


def random_bank(count, dims=(24, 50, 50, 2), seed=0):
    """Seeded networks with nonzero biases."""
    rng = np.random.default_rng(seed)
    nets = [initialize_network(dims, seed=seed + k) for k in range(count)]
    for net in nets:
        for b in net.biases:
            b += rng.standard_normal(b.shape)
    return nets


class TestMeanLogPosteriors:
    @pytest.mark.parametrize("count", [1, 16, 17, 700])
    def test_bit_equal_to_per_network_loop(self, count, rng):
        nets = random_bank(count, seed=count)
        X = rng.standard_normal((40, 24)) * 3
        assert np.array_equal(mean_log_posteriors(nets, X, 1), loop_scores(nets, X))

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_size_changes_no_bit(self, block, rng, monkeypatch):
        nets = random_bank(40, dims=(6, 9, 2), seed=3)
        X = rng.standard_normal((25, 6))
        monkeypatch.setattr(mlp, "SCORE_BLOCK_NETS", block)
        assert np.array_equal(mean_log_posteriors(nets, X, 1), loop_scores(nets, X))

    def test_single_frame(self, rng):
        nets = random_bank(20, seed=5)
        X = rng.standard_normal((1, 24))
        assert np.array_equal(mean_log_posteriors(nets, X, 1), loop_scores(nets, X))
        assert np.array_equal(mean_log_posteriors(nets, X[0], 1), loop_scores(nets, X))

    def test_mixed_shapes_close_blocks(self, rng):
        shapes = ([(24, 8, 2)] * 3 + [(24, 50, 50, 2)] * 20 + [(24, 8, 2)]
                  + [(24, 5, 7)] * 2)
        nets = [random_bank(1, dims, seed=k)[0] for k, dims in enumerate(shapes)]
        X = rng.standard_normal((30, 24))
        for c in (0, 1):
            assert np.array_equal(mean_log_posteriors(nets, X, c),
                                  loop_scores(nets, X, c))

    def test_saturated_posterior_floors(self, rng):
        nets = random_bank(20, dims=(4, 6, 2), seed=7)
        nets[16] = MlpNetwork(weights=[np.zeros((4, 6)), np.zeros((6, 2))],
                              biases=[np.zeros(6), np.array([0.0, -1e4])])
        X = rng.standard_normal((12, 4))
        scores = mean_log_posteriors(nets, X, 1)
        assert scores[16] == pytest.approx(np.log(LOSS_FLOOR), rel=1e-14)
        assert np.array_equal(scores, loop_scores(nets, X))

    def test_equal_networks_across_a_block_boundary(self, rng):
        nets = random_bank(2 * SCORE_BLOCK_NETS, dims=(8, 10, 2), seed=11)
        for net in nets:
            net.biases[-1][1] -= 3.0
        lo, hi = SCORE_BLOCK_NETS - 1, SCORE_BLOCK_NETS
        nets[lo].biases[-1][1] += 6.0
        nets[hi] = MlpNetwork(weights=[w.copy() for w in nets[lo].weights],
                              biases=[b.copy() for b in nets[lo].biases])
        X = rng.standard_normal((50, 8))
        scores = mean_log_posteriors(nets, X, 1)
        assert scores[lo] == scores[hi]
        assert int(np.argmax(scores)) == lo
        bank = SpeakerBank(speaker_ids=tuple(range(len(nets))), models=tuple(nets))
        assert subnn_open_set(bank, X, theta=0.5).best_index == lo

    def test_all_classes_bit_equal_to_forward_batch(self, rng):
        nets = random_bank(SCORE_BLOCK_NETS + 3, dims=(24, 30, 30, 7), seed=4)
        X = rng.standard_normal((60, 24)) * 3
        got = np.exp(mean_log_posteriors(nets, X))
        assert got.shape == (len(nets), 7)
        assert np.array_equal(got, [multiclass_forward_scores(n, X) for n in nets])

    def test_class_column_matches_class_index(self, rng):
        # Equal up to the frame-mean reduction order: pairwise over one
        # contiguous column, sequential over the rows of the full matrix.
        nets = random_bank(SCORE_BLOCK_NETS + 3, seed=9)
        X = rng.standard_normal((40, 24)) * 3
        full = mean_log_posteriors(nets, X)
        assert full.shape == (len(nets), 2)
        np.testing.assert_allclose(full[:, 1], mean_log_posteriors(nets, X, 1),
                                   rtol=1e-14, atol=0.0)

    def test_bad_input_rejected(self, rng):
        nets = random_bank(3, dims=(4, 6, 2)) + random_bank(2, dims=(5, 6, 2))
        with pytest.raises(ValueError):
            mean_log_posteriors(nets[:3], np.zeros((0, 4)), 1)
        with pytest.raises(ValueError):
            mean_log_posteriors(nets[:3], rng.standard_normal((3, 5)), 1)
        with pytest.raises(ValueError, match="input dimension 4"):
            mean_log_posteriors(nets, rng.standard_normal((3, 4)), 1)
        with pytest.raises(ValueError):
            mean_log_posteriors([], rng.standard_normal((3, 4)), 1)
        with pytest.raises(ValueError):     # unequal output widths
            mean_log_posteriors(nets[:3] + random_bank(1, dims=(4, 6, 3)),
                                rng.standard_normal((3, 4)))


class TestNllLoss:
    def test_perfect_prediction(self):
        assert nll_loss(np.array([0.0, 1.0]), 1) == 0.0

    def test_uniform_two_class(self):
        assert nll_loss(np.array([0.5, 0.5]), 0) == pytest.approx(np.log(2.0))
        assert nll_loss(np.array([0.5, 0.5]), 1) == pytest.approx(np.log(2.0))

    def test_zero_posterior_clamped(self):
        assert nll_loss(np.array([1.0, 0.0]), 1) == pytest.approx(-np.log(1e-30))

    def test_batch_matches_loop(self, rng):
        posteriors = rng.dirichlet(np.ones(4), size=32)
        labels = rng.integers(0, 4, size=32)
        expected = np.mean([nll_loss(p, l) for p, l in zip(posteriors, labels)])
        assert mean_nll(posteriors, labels) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            nll_loss(np.array([0.5, 0.5]), 2)


class TestBackward:
    def test_saturated_posterior_gives_zero_gradients(self):
        # A logit gap beyond exp's underflow range saturates the softmax to an
        # exact one-hot in float64.
        net = zero_network((3, 2, 2))
        net.biases[-1][:] = [400.0, -400.0]
        x = np.array([0.5, -0.5, 1.0])
        posteriors, cache = forward(net, x)
        np.testing.assert_array_equal(posteriors, [1.0, 0.0])
        grad_w, grad_b = backward(net, x, 0, cache)
        for g in flat_grads(grad_w, grad_b):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self, rng):
        net = initialize_network((4, 3, 2), seed=7)
        x = rng.standard_normal(4)
        label = 1
        _, cache = forward(net, x)
        grads = flat_grads(*backward(net, x, label, cache))
        h = 1e-5
        for param, grad in zip(net.parameters(), grads):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = param[idx]
                param[idx] = saved + h
                up = nll_loss(forward(net, x)[0], label)
                param[idx] = saved - h
                down = nll_loss(forward(net, x)[0], label)
                param[idx] = saved
                numeric = (up - down) / (2 * h)
                if abs(grad[idx]) > 1e-8:
                    assert abs(numeric - grad[idx]) / abs(grad[idx]) < 1e-4
                else:
                    assert abs(numeric - grad[idx]) < 1e-7

    def test_batch_gradient_is_mean_of_examples(self, rng):
        net = initialize_network((5, 4, 3), seed=3)
        X = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, size=8)
        _, cache = forward_batch(net, X)
        batch = flat_grads(*backward_batch(net, labels, cache))
        per_example = None
        for x, label in zip(X, labels):
            _, single_cache = forward(net, x)
            grads = flat_grads(*backward(net, x, int(label), single_cache))
            if per_example is None:
                per_example = [g / 8 for g in grads]
            else:
                per_example = [acc + g / 8 for acc, g in zip(per_example, grads)]
        for got, expected in zip(batch, per_example):
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_stale_cache_rejected(self, rng):
        net = initialize_network((4, 3, 2), seed=1)
        x = rng.standard_normal(4)
        _, cache = forward(net, x)
        with pytest.raises(ValueError):
            backward(net, x + 1.0, 0, cache)


def step_cfg(learning_rate=1e-4, momentum=0.95):
    return TrainConfig(epochs=1, batch_size=1, learning_rate=learning_rate,
                       momentum=momentum, rms_decay=0.99, rms_epsilon=1e-8)


class TestOptimizerStep:
    def test_zero_gradient_fixed_point(self):
        theta = np.array([2.0, -3.0])
        velocity, rms_accum = [np.zeros(2)], [np.full(2, 0.5)]
        optimizer_step([theta], [np.zeros(2)], velocity, rms_accum, step_cfg())
        np.testing.assert_array_equal(theta, [2.0, -3.0])
        np.testing.assert_allclose(rms_accum[0], 0.495, atol=1e-15)

    def test_hand_evaluated_first_step(self):
        theta = np.array([1.0])
        velocity, rms_accum = [np.zeros(1)], [np.zeros(1)]
        optimizer_step([theta], [np.ones(1)], velocity, rms_accum, step_cfg())
        rate = 1e-4 / (0.1 + 1e-8)
        assert rms_accum[0][0] == pytest.approx(0.01, abs=1e-15)
        assert velocity[0][0] == pytest.approx(-rate, abs=1e-15)
        assert theta[0] == pytest.approx(1.0 - 1.95 * rate, abs=1e-12)

    def test_two_steps_accumulator_recurrence(self):
        theta = np.array([0.0])
        velocity, rms_accum = [np.zeros(1)], [np.zeros(1)]
        optimizer_step([theta], [np.ones(1)], velocity, rms_accum, step_cfg())
        optimizer_step([theta], [np.ones(1)], velocity, rms_accum, step_cfg())
        assert rms_accum[0][0] == pytest.approx(0.0199, abs=1e-15)

    def test_zero_momentum_is_rms_scaled_sgd(self):
        theta = np.array([1.0, 1.0, 1.0])
        grad = np.full(3, 2.0)
        optimizer_step([theta], [grad], [np.zeros(3)], [np.zeros(3)],
                       step_cfg(learning_rate=0.01, momentum=0.0))
        rate = 0.01 / (np.sqrt(0.01 * 4.0) + 1e-8)
        np.testing.assert_allclose(theta, 1.0 - rate * 2.0, atol=1e-12)
        assert np.ptp(theta) == 0.0


class TestTrain:
    def test_separable_blobs_loss_decreases(self, rng):
        X = np.vstack([rng.standard_normal((50, 2)) - 3,
                       rng.standard_normal((50, 2)) + 3])
        labels = np.repeat([0, 1], 50)
        net = initialize_network((2, 8, 2), seed=0)
        _, losses = train(net, X, labels, TrainConfig(epochs=5, batch_size=20,
                                                      learning_rate=0.01))
        assert losses[-1] < losses[0]

    def test_deterministic(self, rng):
        X = rng.standard_normal((60, 3))
        labels = rng.integers(0, 2, size=60)
        nets = []
        for _ in range(2):
            net = initialize_network((3, 6, 2), seed=5)
            net, _ = train(net, X, labels, TrainConfig(epochs=3, batch_size=16,
                                                       seed=9, learning_rate=0.01))
            nets.append(net)
        for a, b in zip(nets[0].parameters(), nets[1].parameters()):
            np.testing.assert_array_equal(a, b)

    def test_constant_label_converges(self, rng):
        X = rng.standard_normal((10, 2))
        labels = np.ones(10, dtype=int)
        net = initialize_network((2, 4, 2), seed=1)
        _, losses = train(net, X, labels, TrainConfig(epochs=50, batch_size=10,
                                                      learning_rate=0.05))
        assert losses[-1] < 0.05

    def test_oversized_batch_is_single_batch(self, rng):
        X = rng.standard_normal((10, 2))
        labels = rng.integers(0, 2, size=10)
        net = initialize_network((2, 3, 2), seed=2)
        _, losses = train(net, X, labels, TrainConfig(epochs=2, batch_size=1000))
        assert losses.shape == (2,)

    def test_schedule_constructors(self):
        cfg = RunConfig()
        assert ((cfg.subnn_epochs, cfg.subnn_batch_size)
                == (mlp.SUBNN_EPOCHS, mlp.SUBNN_BATCH_SIZE) == (5, 800))
        assert ((cfg.multiclass_epochs, cfg.multiclass_batch_size)
                == (mlp.MULTICLASS_EPOCHS, mlp.MULTICLASS_BATCH_SIZE)
                == (20, 15000))
        assert (cfg.num_ceps, *cfg.subnn_hidden, 2) == (24, 50, 50, 2)
        assert (cfg.num_ceps, *cfg.multiclass_hidden, 700) == (24, 1200, 1200, 700)

    def test_bad_labels_rejected(self, rng):
        net = initialize_network((2, 3, 2), seed=0)
        with pytest.raises(ValueError):
            train(net, rng.standard_normal((4, 2)), [0, 1, 2, 0],
                  TrainConfig(epochs=1, batch_size=2))


class TestInitialization:
    def test_scaled_uniform_bounds_and_zero_biases(self):
        net = initialize_network((24, 50, 50, 2), seed=6)
        for w, b in zip(net.weights, net.biases):
            limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= limit)
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_seeded(self):
        a = initialize_network((4, 5, 2), seed=3)
        b = initialize_network((4, 5, 2), seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = initialize_network((24, 50, 50, 2), seed=8)
        path = tmp_path / "net.mlp"
        save_mlp(path, net)
        loaded = load_mlp(path)
        assert loaded.layer_dims == (24, 50, 50, 2)
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)
        resaved = tmp_path / "resaved.mlp"
        save_mlp(resaved, loaded)
        assert path.read_bytes() == resaved.read_bytes()

    def test_header_layout(self, tmp_path):
        net = initialize_network((3, 4, 2), seed=0)
        path = tmp_path / "net.mlp"
        save_mlp(path, net)
        blob = path.read_bytes()
        assert blob[:8] == b"OSIDMLP1"
        assert int.from_bytes(blob[8:12], "little") == 3
        dims = [int.from_bytes(blob[12 + 4 * i:16 + 4 * i], "little")
                for i in range(3)]
        assert dims == [3, 4, 2]
        payload = (3 * 4 + 4) + (4 * 2 + 2)
        assert len(blob) == 24 + payload * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.mlp"
        path.write_bytes(b"NOTANET!" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_mlp(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "net.mlp"
        save_mlp(path, initialize_network((3, 4, 2), seed=0))
        blob = path.read_bytes()
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises(CorruptArtifactError):
                load_mlp(path)
