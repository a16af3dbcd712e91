"""Tests for the network engine: forward math, gradients, optimizer, training."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osid.cli import RunConfig
from osid.errors import CorruptArtifactError, OsidError, TrainingDivergedError
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
    mean_nll,
    optimizer_step,
    pack_networks,
    save_mlp,
    score_packed,
    train,
)
from oracles import (augmented_scores, backward, forward, multiclass_forward_scores,
                     nll_loss, softmax_reduce, train_reference)


def make_network(weights, biases):
    """A network from separate weight matrices and bias vectors."""
    return MlpNetwork([np.vstack((w, b)) for w, b in zip(weights, biases)])


def zero_network(dims):
    return make_network([np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])],
                        [np.zeros(b) for b in dims[1:]])


class TestForward:
    def test_zero_network_is_uniform(self):
        for k in (2, 5, 9):
            net = zero_network((6, 4, k))
            posteriors, _ = forward(net, np.ones(6))
            np.testing.assert_allclose(posteriors, np.full(k, 1.0 / k), atol=1e-15)

    def test_hand_computed_2_2_2(self):
        net = make_network(
            [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0, 0.0], [-1.0, 1.0]])],
            [np.array([0.1, -0.2]), np.array([0.0, 0.3])])
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
        net = make_network([np.array([[-1.0]]), np.array([[2.0]])],
                           [np.zeros(1), np.zeros(1)])
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
        shifted = MlpNetwork([layer.copy() for layer in net.layers])
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

    @settings(max_examples=300, deadline=None)
    @given(logits=st.tuples(st.integers(1, 6), st.integers(1, 24)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_logits)))
    def test_wider_outputs_bit_equal_to_the_reductions(self, logits):
        # A few rows take np.max.  Tiled to COLUMN_PEAK_ROWS rows per output
        # or more, outputs up to COLUMN_PEAK_WIDTH wide take the column peak;
        # ties and signed zeros change no bit either way.
        tall = np.tile(logits, (mlp.COLUMN_PEAK_ROWS * mlp.COLUMN_PEAK_WIDTH, 1))
        for x in (logits, tall, tall.reshape(2, -1, logits.shape[-1])):
            want = softmax_reduce(x)
            assert np.array_equal(mlp._softmax(x), want)
            row = np.empty(x.shape[:-1] + (1,))
            assert np.array_equal(mlp._softmax(x.copy(), out=x, row=row), want)


def loop_scores(nets, X, class_index=1):
    """Bit-exact oracle: the kernel's [x, 1] @ [W; b] products, network by network."""
    return augmented_scores(nets, X, class_index)


def forward_scores(nets, X, class_index=1):
    """Training-side oracle: one forward_batch per network, x @ W + b."""
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
        assert np.array_equal(score_packed(pack_networks(nets), X, 1),
                              loop_scores(nets, X))

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_size_changes_no_bit(self, block, rng, monkeypatch):
        nets = random_bank(40, dims=(6, 9, 2), seed=3)
        X = rng.standard_normal((25, 6))
        monkeypatch.setattr(mlp, "SCORE_BLOCK_NETS", block)
        assert np.array_equal(score_packed(pack_networks(nets), X, 1),
                              loop_scores(nets, X))

    def test_single_frame(self, rng):
        nets = random_bank(20, seed=5)
        X = rng.standard_normal((1, 24))
        assert np.array_equal(score_packed(pack_networks(nets), X, 1),
                              loop_scores(nets, X))
        assert np.array_equal(score_packed(pack_networks(nets), X[0], 1),
                              loop_scores(nets, X))

    def test_mixed_shapes_close_blocks(self, rng):
        shapes = ([(24, 8, 2)] * 3 + [(24, 50, 50, 2)] * 20 + [(24, 8, 2)]
                  + [(24, 5, 7)] * 2)
        nets = [random_bank(1, dims, seed=k)[0] for k, dims in enumerate(shapes)]
        X = rng.standard_normal((30, 24))
        for c in (0, 1):
            assert np.array_equal(score_packed(pack_networks(nets), X, c),
                                  loop_scores(nets, X, c))

    def test_saturated_posterior_floors(self, rng):
        nets = random_bank(20, dims=(4, 6, 2), seed=7)
        nets[16] = make_network([np.zeros((4, 6)), np.zeros((6, 2))],
                                [np.zeros(6), np.array([0.0, -1e4])])
        X = rng.standard_normal((12, 4))
        scores = score_packed(pack_networks(nets), X, 1)
        assert scores[16] == pytest.approx(np.log(LOSS_FLOOR), rel=1e-14)
        assert np.array_equal(scores, loop_scores(nets, X))

    def test_equal_networks_across_a_block_boundary(self, rng):
        nets = random_bank(2 * SCORE_BLOCK_NETS, dims=(8, 10, 2), seed=11)
        for net in nets:
            net.biases[-1][1] -= 3.0
        lo, hi = SCORE_BLOCK_NETS - 1, SCORE_BLOCK_NETS
        nets[lo].biases[-1][1] += 6.0
        nets[hi] = MlpNetwork([layer.copy() for layer in nets[lo].layers])
        X = rng.standard_normal((50, 8))
        scores = score_packed(pack_networks(nets), X, 1)
        assert scores[lo] == scores[hi]
        assert int(np.argmax(scores)) == lo
        bank = SpeakerBank(speaker_ids=tuple(range(len(nets))), models=tuple(nets))
        assert subnn_open_set(bank, X, theta=0.5).best_index == lo

    def test_all_classes_bit_equal_to_the_augmented_oracle(self, rng):
        nets = random_bank(SCORE_BLOCK_NETS + 3, dims=(24, 30, 30, 7), seed=4)
        X = rng.standard_normal((60, 24)) * 3
        got = score_packed(pack_networks(nets), X)
        assert got.shape == (len(nets), 7)
        assert np.array_equal(got, augmented_scores(nets, X))
        np.testing.assert_allclose(
            np.exp(got), [multiclass_forward_scores(n, X) for n in nets],
            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dims", [(24, 50, 50, 2), (6, 9, 2), (24, 30, 30, 7)])
    @pytest.mark.parametrize("frames", [1, 7, 250])
    def test_close_to_forward_batch(self, dims, frames, rng):
        # The bias is added inside the GEMM instead of after it, so the
        # scores move off x @ W + b in the last bits only.
        nets = random_bank(SCORE_BLOCK_NETS + 2, dims=dims, seed=frames)
        X = rng.standard_normal((frames, dims[0])) * 3
        for c in (0, 1):
            np.testing.assert_allclose(score_packed(pack_networks(nets), X, c),
                                       forward_scores(nets, X, c), rtol=1e-12, atol=0.0)

    def test_every_bias_row_counts(self, rng):
        # random_bank gives every layer nonzero biases; moving any one
        # layer's bias row moves the kernel's score with the oracle's.
        nets = random_bank(SCORE_BLOCK_NETS + 1, dims=(8, 10, 10, 2), seed=13)
        X = rng.standard_normal((20, 8))
        base = score_packed(pack_networks(nets), X, 1)
        for layer in range(3):
            moved = [MlpNetwork([array.copy() for array in net.layers]) for net in nets]
            for net in moved:
                net.biases[layer][:] += np.linspace(0.25, 1.0, net.biases[layer].size)
            scores = score_packed(pack_networks(moved), X, 1)
            assert np.array_equal(scores, loop_scores(moved, X))
            assert np.all(scores != base)

    @pytest.mark.parametrize("frames", [1, 30])
    def test_a_network_scores_alike_at_every_block_position(self, frames, rng):
        # Blocks of 16, 16 and 5: positions 0 and 15 open and close the
        # first block, 16 opens the second and 34 sits in the tail block.
        net = random_bank(1, dims=(8, 10, 10, 2), seed=21)[0]
        nets = random_bank(37, dims=(8, 10, 10, 2), seed=22)
        for position in (0, 15, 16, 34):
            nets[position] = MlpNetwork([layer.copy() for layer in net.layers])
        X = rng.standard_normal((frames, 8)) * 2
        alone = score_packed(pack_networks((net,)), X, 1)[0]
        scores = score_packed(pack_networks(nets), X, 1)
        assert alone == loop_scores((net,), X)[0]
        assert [scores[p] for p in (0, 15, 16, 34)] == [alone] * 4

    def test_class_column_matches_class_index(self, rng):
        # Equal up to the frame-mean reduction order: pairwise over one
        # contiguous column, sequential over the rows of the full matrix.
        nets = random_bank(SCORE_BLOCK_NETS + 3, seed=9)
        X = rng.standard_normal((40, 24)) * 3
        full = score_packed(pack_networks(nets), X)
        assert full.shape == (len(nets), 2)
        np.testing.assert_allclose(full[:, 1], score_packed(pack_networks(nets), X, 1),
                                   rtol=1e-14, atol=0.0)

    def test_bad_input_rejected(self, rng):
        nets = random_bank(3, dims=(4, 6, 2)) + random_bank(2, dims=(5, 6, 2))
        with pytest.raises(ValueError):
            score_packed(pack_networks(nets[:3]), np.zeros((0, 4)), 1)
        with pytest.raises(ValueError):
            score_packed(pack_networks(nets[:3]), rng.standard_normal((3, 5)), 1)
        with pytest.raises(ValueError, match="input dimension 4"):
            score_packed(pack_networks(nets), rng.standard_normal((3, 4)), 1)
        with pytest.raises(ValueError):
            score_packed(pack_networks([]), rng.standard_normal((3, 4)), 1)
        with pytest.raises(ValueError):     # unequal output widths
            score_packed(pack_networks(nets[:3] + random_bank(1, dims=(4, 6, 3))),
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
        for g in backward(net, x, 0, cache):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self, rng):
        net = initialize_network((4, 3, 2), seed=7)
        x = rng.standard_normal(4)
        label = 1
        _, cache = forward(net, x)
        grads = backward(net, x, label, cache)
        h = 1e-5
        for param, grad in zip(net.layers, grads):
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
        batch = backward_batch(net, labels, cache)
        per_example = None
        for x, label in zip(X, labels):
            _, single_cache = forward(net, x)
            grads = backward(net, x, int(label), single_cache)
            if per_example is None:
                per_example = [g / 8 for g in grads]
            else:
                per_example = [acc + g / 8 for acc, g in zip(per_example, grads)]
        for got, expected in zip(batch, per_example):
            np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("dims, rows, batch", [
        ((24, 32, 32, 8), 300, 300), ((24, 16, 40, 12, 3), 300, 217),
        ((5, 2), 40, 33)])
    def test_workspace_gradients_bit_equal_to_the_allocating_path(self, dims, rows,
                                                                  batch, rng):
        # The workspace path writes its deltas over the cache it is given; the
        # other leaves its cache as it was.
        net = initialize_network(dims, seed=2)
        X = rng.standard_normal((batch, dims[0])) * 3.0
        labels = rng.integers(0, dims[-1], size=batch)
        _, cache = forward_batch(net, X)
        kept = [a.copy() for a in cache["activations"]] + [cache["posteriors"].copy()]
        want = backward_batch(net, labels, cache)
        for a, b in zip(cache["activations"] + [cache["posteriors"]], kept):
            assert np.array_equal(a, b)
        workspace = mlp._StepWorkspace(net, rows)
        _, cache = forward_batch(net, X, workspace)
        got = backward_batch(net, labels, cache, workspace)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

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
        for a, b in zip(nets[0].layers, nets[1].layers):
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

    @pytest.mark.parametrize("dims", [(6, 8, 8, 2), (6, 12, 12, 5)],
                             ids=["two-class", "multi-class"])
    def test_divergence_raises_naming_the_epoch(self, dims, rng):
        X = rng.standard_normal((120, 6))
        labels = rng.integers(0, dims[-1], size=120)
        net = initialize_network(dims, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d"):
            train(net, X, labels, TrainConfig(3, 50, learning_rate=1e200))
        assert issubclass(TrainingDivergedError, OsidError)

    def test_bad_labels_rejected(self, rng):
        net = initialize_network((2, 3, 2), seed=0)
        with pytest.raises(ValueError):
            train(net, rng.standard_normal((4, 2)), [0, 1, 2, 0],
                  TrainConfig(epochs=1, batch_size=2))

    @pytest.mark.parametrize("dims, frames, cfg", [
        ((24, 16, 16, 2), 1000, TrainConfig(3, 300, seed=4, learning_rate=0.01)),
        ((24, 32, 32, 8), 600, TrainConfig(4, 15000, seed=5, learning_rate=0.001)),
        ((6, 5, 3), 30, TrainConfig(2, 1, seed=6, learning_rate=0.01)),
        ((24, 16, 16, 16), 700, TrainConfig(2, 256, seed=7, learning_rate=0.01)),
    ], ids=["two-class-short-last-batch", "multi-class-one-batch", "batch-of-one",
            "sixteen-way-short-last-batch"])
    def test_bit_equal_to_the_reference_loop(self, dims, frames, cfg, rng):
        X = rng.standard_normal((frames, dims[0]))
        labels = rng.integers(0, dims[-1], size=frames)
        X_copy, labels_copy = X.copy(), labels.copy()
        X.flags.writeable = labels.flags.writeable = False
        net, losses = train(initialize_network(dims, seed=3), X, labels, cfg)
        ref, ref_losses = train_reference(initialize_network(dims, seed=3),
                                          X, labels, cfg)
        for got, want in zip(net.layers, ref.layers):
            assert np.array_equal(got, want)
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(X, X_copy) and np.array_equal(labels, labels_copy)

    def test_memory_peak_does_not_grow_with_epochs(self, rng):
        X = rng.standard_normal((2000, 24))
        labels = rng.integers(0, 8, size=2000)
        peaks = []
        for epochs in (1, 10):
            net = initialize_network((24, 32, 32, 8), seed=0)
            tracemalloc.start()
            try:
                train(net, X, labels, TrainConfig(epochs, 15000))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4096, peaks

    def test_workspace_holds_no_delta_buffers(self, rng, monkeypatch):
        # The deltas overwrite the layer outputs, so a step's peak lies at
        # least two rows x widest float64 buffers below a workspace that
        # still holds them, and within one such buffer of the batch, labels,
        # outputs, row scratch and mask plus six arrays per parameter (the
        # network, its gradients, velocity, RMS and two optimizer scratches).
        rows, dims = 2000, (24, 32, 32, 8)
        widest = max(dims[1:])
        params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        listed = (8 * (rows * (dims[0] + 2 + sum(dims[1:])) + 6 * params)
                  + rows * widest)
        X = rng.standard_normal((rows, dims[0]))
        labels = rng.integers(0, dims[-1], size=rows)

        class WithDeltas(mlp._StepWorkspace):
            def __init__(self, net, rows):
                super().__init__(net, rows)
                self.deltas = np.empty((2, rows * widest))

        # A first call outside the trace makes numpy's one-time allocations,
        # and with the collector off no other test's garbage is freed inside.
        train(initialize_network(dims, seed=0), X, labels, TrainConfig(1, 15000))
        peaks, nets = [], []
        for workspace in (mlp._StepWorkspace, WithDeltas):
            monkeypatch.setattr(mlp, "_StepWorkspace", workspace)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                nets.append(train(initialize_network(dims, seed=0), X, labels,
                                  TrainConfig(2, 15000))[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
        assert peaks[1] - peaks[0] >= 2 * rows * widest * 8, peaks
        assert peaks[0] - listed < rows * widest * 8, (peaks, listed)
        for got, want in zip(*(net.layers for net in nets)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("labels", [
        np.zeros(9, dtype=int), np.zeros(11, dtype=int),
        np.zeros((10, 1), dtype=int),
    ], ids=["nine-for-ten", "eleven-for-ten", "column"])
    def test_one_label_per_frame(self, labels, rng):
        net = initialize_network((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="one label per frame"):
            train(net, rng.standard_normal((10, 3)), labels, TrainConfig(1, 4))

    def test_labels_must_be_integers(self, rng):
        net = initialize_network((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="integer"):
            train(net, rng.standard_normal((10, 3)), np.zeros(10),
                  TrainConfig(1, 4))

    @pytest.mark.parametrize("shape", [(10,), (10, 4), (0, 3)],
                             ids=["one-dimensional", "wrong-width", "empty"])
    def test_frames_must_fit_the_network(self, shape):
        net = initialize_network((3, 4, 2), seed=0)
        with pytest.raises(ValueError):
            train(net, np.zeros(shape), np.zeros(shape[0], dtype=int),
                  TrainConfig(1, 4))

    def test_non_finite_frames_counted(self, rng):
        X = rng.standard_normal((10, 3))
        X[2, 1] = np.nan
        X[7, 0] = np.inf
        X[7, 2] = np.nan
        net = initialize_network((3, 4, 2), seed=0)
        with pytest.raises(ValueError, match="2 of 10 training frames are non-finite"):
            train(net, X, np.zeros(10, dtype=int), TrainConfig(1, 4))


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
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a, b)
        resaved = tmp_path / "resaved.mlp"
        save_mlp(resaved, loaded)
        assert path.read_bytes() == resaved.read_bytes()

    def test_layer_records_are_the_layers(self, tmp_path):
        # After the header, the file is each [W; b] array's bytes in turn.
        net = random_bank(1, dims=(5, 4, 3, 2), seed=2)[0]
        path = tmp_path / "net.mlp"
        save_mlp(path, net)
        blob = path.read_bytes()
        assert blob[12 + 4 * 4:] == b"".join(layer.tobytes() for layer in net.layers)
        loaded = load_mlp(path)
        assert [layer.shape for layer in loaded.layers] == [(6, 4), (5, 3), (4, 2)]

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
