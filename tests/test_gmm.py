"""Tests for the diagonal-GMM engine against brute-force oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osid import gmm as gmm_mod
from osid.errors import CorruptArtifactError
from osid.gmm import (
    SCORE_BLOCK_ROWS,
    DiagGmm,
    EmConfig,
    em_fit,
    kmeans_init,
    load_gmm,
    pack_models,
    sample,
    save_gmm,
    score_packed,
)
from oracles import (em_fit_reference, kmeans_reference, log_density,
                     mean_log_likelihood)


def brute_force_log_density(model, x):
    """Direct probability-space mixture sum, no log-sum-exp."""
    total = 0.0
    for w, mu, var in zip(model.weights, model.means, model.variances):
        gauss = np.prod(np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var))
        total += w * gauss
    return np.log(total)


def random_model(rng, num_components, dim):
    weights = rng.uniform(0.2, 1.0, size=num_components)
    return DiagGmm(weights=weights / weights.sum(),
                   means=rng.uniform(-2, 2, size=(num_components, dim)),
                   variances=rng.uniform(0.5, 2.0, size=(num_components, dim)))


class TestKmeans:
    def test_single_cluster_is_mean(self, rng):
        data = rng.standard_normal((200, 5)) + 3.0
        centroids, assignments = kmeans_init(data, 1, iterations=10, seed=0)
        np.testing.assert_allclose(centroids[0], data.mean(axis=0), atol=1e-12)
        assert np.all(assignments == 0)

    def test_two_separated_blobs(self, rng):
        blob_a = rng.standard_normal((300, 3)) - 10.0
        blob_b = rng.standard_normal((300, 3)) + 10.0
        data = np.vstack([blob_a, blob_b])
        centroids, _ = kmeans_init(data, 2, iterations=20, seed=1)
        centroids = centroids[np.argsort(centroids[:, 0])]
        assert np.linalg.norm(centroids[0] - blob_a.mean(axis=0)) < 0.5
        assert np.linalg.norm(centroids[1] - blob_b.mean(axis=0)) < 0.5

    def test_deterministic(self, rng):
        data = rng.standard_normal((100, 4))
        first, _ = kmeans_init(data, 5, iterations=15, seed=42)
        second, _ = kmeans_init(data, 5, iterations=15, seed=42)
        np.testing.assert_array_equal(first, second)

    def test_too_few_points(self, rng):
        with pytest.raises(ValueError):
            kmeans_init(rng.standard_normal((3, 2)), 4, iterations=20, seed=0)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_needs_an_iteration(self, rng, iterations):
        with pytest.raises(ValueError, match="1 iteration"):
            kmeans_init(rng.standard_normal((10, 2)), 2, iterations, seed=0)
        with pytest.raises(ValueError, match="kmeans_iterations must be at least 1"):
            EmConfig(kmeans_iterations=iterations)


@st.composite
def clumped_data(draw):
    """A few distinct rows, each repeated, so k-means clusters fall empty.

    Two or three columns: numpy sums a one-column slice pairwise, not in row
    order, so a one-dimensional fit may differ from the loop in last bits.
    """
    dim = draw(st.integers(2, 3))
    pool = draw(st.lists(st.lists(st.integers(-40, 40), min_size=dim,
                                  max_size=dim), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=4, max_size=30))
    data = np.array(pool, dtype=np.float64)[picks] / 10.0
    return data, draw(st.integers(1, min(len(picks), 6))), draw(st.integers(0, 999))


class TestEmptyClusterReseed:
    """k-means and the EM start against the per-cluster loop forms."""

    @settings(max_examples=200, deadline=None)
    @given(clumped_data())
    def test_matches_loop_oracle(self, case):
        data, k, seed = case
        centroids, assignments = kmeans_init(data, k, iterations=4, seed=seed)
        want_centroids, want_assignments = kmeans_reference(data, k, 4, seed)
        assert np.array_equal(centroids, want_centroids)
        assert np.array_equal(assignments, want_assignments)
        cfg = EmConfig(max_iterations=3, kmeans_iterations=3, seed=seed)
        model, want = em_fit(data, k, cfg), em_fit_reference(data, k, cfg)
        for field in ("weights", "means", "variances"):
            assert np.array_equal(getattr(model, field), getattr(want, field)), field

    # Four points, three clusters, one iteration; the seed fixes which rows
    # start as centroids.  Among equally far points, the highest index is
    # taken first.
    @pytest.mark.parametrize("rows, seed, picks, centroids, assignments", [
        # Clusters 1 and 2 both fall empty and steal from cluster 0, whose
        # mean still counts the stolen points.
        ([[0, 0], [0, 0], [0, 0], [4, 0]], 5, [2, 1, 0],
         [[1, 0], [4, 0], [0, 0]], [0, 0, 2, 1]),
        # Cluster 1 steals cluster 2's only point; cluster 2, empty at its
        # turn, steals from cluster 0.
        ([[0, 0], [0, 0], [0, 0], [4, 0]], 1, [1, 0, 3],
         [[0, 0], [4, 0], [0, 0]], [0, 0, 2, 1]),
        # Cluster 1 steals one of cluster 2's two points; cluster 2's mean
        # leaves it out.
        ([[0, 0], [0, 0], [3, 0], [5, 0]], 1, [1, 0, 3],
         [[0, 0], [3, 0], [5, 0]], [0, 0, 1, 2]),
    ], ids=["lower-index-keeps-point", "steal-empties-higher",
            "steal-thins-higher"])
    def test_hand_built_steals(self, rows, seed, picks, centroids, assignments):
        data = np.array(rows, dtype=np.float64)
        assert list(np.random.default_rng(seed).choice(4, size=3,
                                                       replace=False)) == picks
        got = kmeans_init(data, 3, iterations=1, seed=seed)
        np.testing.assert_array_equal(got[0], centroids)
        np.testing.assert_array_equal(got[1], assignments)
        want = kmeans_reference(data, 3, 1, seed)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestEmFit:
    def test_single_component_closed_form(self, rng):
        data = rng.standard_normal((500, 4)) * 1.7 + 2.0
        model = em_fit(data, 1)
        np.testing.assert_allclose(model.weights, [1.0], atol=1e-12)
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.variances[0], data.var(axis=0), atol=1e-9)

    def test_recovers_known_mixture(self):
        # samples drawn with the test's own generator code
        rng = np.random.default_rng(777)
        n = 5000
        picks = rng.uniform(size=n) < 0.3
        data = np.where(picks, rng.normal(-5.0, 1.0, n),
                        rng.normal(5.0, 1.0, n))[:, None]
        model = em_fit(data, 2, EmConfig(seed=1))
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.weights[order], [0.3, 0.7], atol=0.05)
        np.testing.assert_allclose(model.means[order, 0], [-5.0, 5.0], atol=0.2)

    def test_mean_ll_trace_non_decreasing(self, rng):
        data = rng.standard_normal((400, 3)) + rng.integers(0, 3, (400, 1))
        _, trace = em_fit(data, 4, EmConfig(seed=9), return_trace=True)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) >= -1e-8)

    def test_last_trace_entry_is_the_fitted_models_likelihood(self, rng):
        # A fit that stops by rel_tol scores its returned model last, so the
        # E-step's density must agree with the brute-force one.
        data = rng.standard_normal((600, 3)) + rng.integers(0, 4, (600, 1))
        cfg = EmConfig(seed=4)
        model, trace = em_fit(data, 5, cfg, return_trace=True)
        assert 1 < len(trace) < cfg.max_iterations
        assert trace[-1] == pytest.approx(mean_log_likelihood(model, data),
                                          abs=1e-9)

    def test_non_finite_frames_rejected_up_front(self, rng, monkeypatch):
        data = rng.standard_normal((40, 3))
        data[5, 1] = np.nan
        data[17, 0] = -np.inf
        monkeypatch.setattr(gmm_mod, "kmeans_init", None)  # never reached
        with pytest.raises(ValueError, match="^2 of 40 frames are not finite$"):
            em_fit(data, 2)

    def test_degenerate_data_hits_floor(self):
        data = np.ones((50, 3)) * 4.2
        cfg = EmConfig(variance_floor=1e-4, seed=0)
        model = em_fit(data, 2, cfg)
        assert np.all(model.variances == 1e-4)
        np.testing.assert_allclose(model.weights.sum(), 1.0, atol=1e-12)

    def test_post_conditions(self, rng):
        data = rng.standard_normal((300, 2))
        cfg = EmConfig(variance_floor=1e-4)
        model = em_fit(data, 3, cfg)
        np.testing.assert_allclose(model.weights.sum(), 1.0, atol=1e-9)
        assert np.all(model.weights >= 0)
        assert np.all(model.variances >= 1e-4)

    def test_sample_then_refit_recovers(self):
        generator = DiagGmm(weights=np.array([0.4, 0.6]),
                            means=np.array([[-6.0, 0.0], [6.0, 1.0]]),
                            variances=np.ones((2, 2)))
        data = sample(generator, 6000, seed=11)
        model = em_fit(data, 2, EmConfig(seed=2))
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.weights[order], [0.4, 0.6], atol=0.05)
        np.testing.assert_allclose(model.means[order], generator.means, atol=0.2)


class TestLogDensity:
    def test_standard_normal_closed_form(self):
        model = DiagGmm(weights=np.ones(1), means=np.zeros((1, 24)),
                        variances=np.ones((1, 24)))
        assert log_density(model, np.zeros(24)) == pytest.approx(
            -12.0 * np.log(2.0 * np.pi), abs=1e-12)

    def test_duplicate_components_collapse(self, rng):
        mu = rng.standard_normal(4)
        var = rng.uniform(0.5, 1.5, 4)
        single = DiagGmm(weights=np.ones(1), means=mu[None], variances=var[None])
        double = DiagGmm(weights=np.array([0.5, 0.5]),
                         means=np.vstack([mu, mu]), variances=np.vstack([var, var]))
        x = rng.standard_normal(4)
        assert log_density(double, x) == pytest.approx(log_density(single, x),
                                                       abs=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            model = random_model(rng, m, d)
            x = rng.uniform(-3, 3, size=d)
            assert log_density(model, x) == pytest.approx(
                brute_force_log_density(model, x), abs=1e-9)

    def test_finite_everywhere(self, rng):
        model = random_model(rng, 3, 6)
        assert np.isfinite(log_density(model, np.full(6, 1e3)))

    def test_dimension_mismatch(self, rng):
        model = random_model(rng, 2, 3)
        with pytest.raises(ValueError):
            log_density(model, np.zeros(4))


class TestMeanLogLikelihood:
    def test_single_frame(self, rng):
        model = random_model(rng, 3, 4)
        x = rng.standard_normal(4)
        assert mean_log_likelihood(model, x[None, :]) == pytest.approx(
            log_density(model, x), abs=1e-12)

    def test_identical_frames(self, rng):
        model = random_model(rng, 2, 3)
        x = rng.standard_normal(3)
        stacked = np.tile(x, (7, 1))
        assert mean_log_likelihood(model, stacked) == pytest.approx(
            log_density(model, x), abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        model = random_model(rng, 4, 5)
        X = rng.standard_normal((40, 5))
        expected = sum(log_density(model, row) for row in X) / 40
        assert mean_log_likelihood(model, X) == pytest.approx(expected, abs=1e-9)

    def test_permutation_invariant(self, rng):
        model = random_model(rng, 3, 4)
        X = rng.standard_normal((25, 4))
        shuffled = X[rng.permutation(25)]
        assert mean_log_likelihood(model, X) == pytest.approx(
            mean_log_likelihood(model, shuffled), abs=1e-12)

    def test_empty_rejected(self, rng):
        model = random_model(rng, 2, 3)
        with pytest.raises(ValueError):
            mean_log_likelihood(model, np.zeros((0, 3)))


def mean_log_likelihoods(models, X):
    return score_packed(pack_models(models), X)


class TestMeanLogLikelihoods:
    """The blocked bank kernel against the per-model scoring oracle."""

    @pytest.mark.parametrize("num_models, num_components", [
        (1, 4),
        (1, SCORE_BLOCK_ROWS),                 # a background-sized model
        (SCORE_BLOCK_ROWS // 64, 64),          # exactly one block
        (2 * SCORE_BLOCK_ROWS // 64, 64),      # ends on a block boundary
        (SCORE_BLOCK_ROWS // 64 + 3, 64),      # partial last block
        (3, SCORE_BLOCK_ROWS + 5),             # model wider than a block
        (7, 1),
    ])
    def test_matches_per_model_oracle(self, rng, num_models, num_components):
        models = [random_model(rng, num_components, 6) for _ in range(num_models)]
        X = rng.standard_normal((37, 6)) * 2.0
        expected = [mean_log_likelihood(m, X) for m in models]
        np.testing.assert_allclose(mean_log_likelihoods(models, X), expected,
                                   rtol=1e-9, atol=0.0)

    def test_zero_weight_component(self, rng):
        model = random_model(rng, 3, 4)
        pruned = DiagGmm(weights=np.array([0.7, 0.0, 0.3]), means=model.means,
                         variances=model.variances)
        X = rng.standard_normal((11, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mean_log_likelihoods([model, pruned], X)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, [mean_log_likelihood(model, X), mean_log_likelihood(pruned, X)],
            rtol=1e-9, atol=0.0)

    def test_single_frame(self, rng):
        models = [random_model(rng, 2, 3) for _ in range(4)]
        x = rng.standard_normal(3)
        np.testing.assert_allclose(mean_log_likelihoods(models, x[None, :]),
                                   [log_density(m, x) for m in models],
                                   rtol=1e-9, atol=0.0)

    def test_one_model_scores_as_it_does_in_a_bank(self, rng):
        models = [random_model(rng, 64, 6) for _ in range(SCORE_BLOCK_ROWS // 64 + 5)]
        X = rng.standard_normal((9, 6))
        assert gmm_mod.mean_log_likelihood(models[-1], X) == mean_log_likelihoods(
            models, X)[-1]

    def test_rejects_bad_input(self, rng):
        models = [random_model(rng, 2, 3), random_model(rng, 3, 3)]
        X = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            mean_log_likelihoods(models, X)          # unequal component counts
        with pytest.raises(ValueError):
            mean_log_likelihoods(models[:1], np.zeros((5, 4)))
        with pytest.raises(ValueError):
            mean_log_likelihoods(models[:1], np.zeros((0, 3)))
        with pytest.raises(ValueError):
            mean_log_likelihoods([], X)


class TestSample:
    def test_degenerate_weights(self):
        model = DiagGmm(weights=np.array([1.0, 0.0]),
                        means=np.array([[0.0], [100.0]]),
                        variances=np.ones((2, 1)))
        draws = sample(model, 200, seed=0)
        assert np.all(np.abs(draws) < 10.0)

    def test_floor_variance_concentrates(self):
        eps = 1e-4
        model = DiagGmm(weights=np.ones(1), means=np.full((1, 3), 2.0),
                        variances=np.full((1, 3), eps))
        draws = sample(model, 100, seed=1)
        assert np.all(np.abs(draws - 2.0) < 5 * np.sqrt(eps))

    def test_empirical_mean_matches_analytic(self):
        model = DiagGmm(weights=np.array([0.25, 0.75]),
                        means=np.array([[-4.0, 1.0], [4.0, -1.0]]),
                        variances=np.array([[1.0, 2.0], [2.0, 1.0]]))
        n = 50000
        draws = sample(model, n, seed=5)
        analytic_mean = model.weights @ model.means
        second_moment = model.weights @ (model.variances + model.means**2)
        mix_std = np.sqrt(second_moment - analytic_mean**2)
        stderr = mix_std / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - analytic_mean) < 3 * stderr)

    def test_deterministic(self, rng):
        model = random_model(rng, 3, 4)
        np.testing.assert_array_equal(sample(model, 50, seed=3),
                                      sample(model, 50, seed=3))

    def test_count_validated(self, rng):
        with pytest.raises(ValueError):
            sample(random_model(rng, 2, 2), 0)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = random_model(rng, 5, 7)
        path = tmp_path / "model.gmm"
        save_gmm(path, model)
        loaded = load_gmm(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.means, model.means)
        assert np.array_equal(loaded.variances, model.variances)
        resaved = tmp_path / "resaved.gmm"
        save_gmm(resaved, loaded)
        assert path.read_bytes() == resaved.read_bytes()

    def test_header_layout(self, tmp_path, rng):
        model = random_model(rng, 2, 3)
        path = tmp_path / "model.gmm"
        save_gmm(path, model)
        blob = path.read_bytes()
        assert blob[:8] == b"OSIDGMM1"
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert len(blob) == 16 + (2 + 2 * 6) * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.gmm"
        path.write_bytes(b"NOTAGMM!" + b"\x00" * 8)
        with pytest.raises(ValueError):
            load_gmm(path)

    def test_every_truncation_rejected(self, tmp_path, rng):
        path = tmp_path / "model.gmm"
        save_gmm(path, random_model(rng, 2, 3))
        blob = path.read_bytes()
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises(CorruptArtifactError):
                load_gmm(path)


class TestTypeInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiagGmm(weights=np.array([0.5, 0.6]), means=np.zeros((2, 2)),
                    variances=np.ones((2, 2)))

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            DiagGmm(weights=np.array([1.0]), means=np.zeros((1, 2)),
                    variances=np.array([[1.0, 0.0]]))
