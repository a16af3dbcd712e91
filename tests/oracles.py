"""Reference implementations the tests compare the package against.

Each one is the plain, per-vector or per-threshold form of a computation the
package runs in a faster batched form; none of them is on a production path.
"""

import numpy as np

from osid import gmm as gmm_mod
from osid import mlp as mlp_mod
from osid.features import FeatureConfig, _mfcc_batch
from osid.metrics import rates_at_threshold


def log_density_batch(model, X):
    """Per-row mixture log-density for an N x D matrix."""
    X = np.asarray(getattr(X, "vectors", X), dtype=np.float64)
    if X.shape[1] != model.dim:
        raise ValueError(f"expected dimension {model.dim}, got {X.shape[1]}")
    return gmm_mod._logsumexp(gmm_mod._component_log_densities(model, X), axis=1)


def log_density(model, x):
    """log sum_m w_m N(x; mu_m, diag sigma^2_m) for a single vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"expected a vector of dimension {model.dim}")
    return float(log_density_batch(model, x[None, :])[0])


def forward(net, x):
    """Class posteriors for a single input vector, plus the backprop cache."""
    posteriors, cache = mlp_mod.forward_batch(
        net, np.asarray(x, dtype=np.float64)[None, :])
    return posteriors[0], cache


def backward(net, x, label, cache):
    """Gradients for a single example; cache must come from forward(net, x)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.array_equal(cache["activations"][0], x[None, :]):
        raise ValueError("cache does not match the given input")
    return mlp_mod.backward_batch(net, [label], cache)


def nll_loss(posteriors, label):
    """Negative log posterior of the true class, floored to avoid -inf."""
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 1:
        raise ValueError("nll_loss expects a single posterior vector")
    if not 0 <= label < posteriors.size:
        raise ValueError(f"label {label} out of range for {posteriors.size} classes")
    return float(-np.log(max(float(posteriors[label]), mlp_mod.LOSS_FLOOR)))


def multiclass_forward_scores(net, X):
    """Per-class utterance score from one training-side forward_batch pass."""
    posteriors, _ = mlp_mod.forward_batch(net, X)
    return np.exp(np.mean(np.log(np.maximum(posteriors, mlp_mod.LOSS_FLOOR)),
                          axis=0))


def compute_mfcc(frame, sample_rate,
                 num_mel_filters=FeatureConfig.num_mel_filters,
                 num_ceps=FeatureConfig.num_ceps):
    """MFCC vector of one windowed frame."""
    return _mfcc_batch(frame, sample_rate, num_mel_filters, num_ceps)[0]


def det_sweep(trials, speaker_ids, num_points):
    """Operating curve: rates at evenly spaced thresholds over the score range.

    The lowest threshold is the accept-all corner; the highest sits at the
    maximum score, where only top-scoring trials remain accepted.
    """
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
    trials = list(trials)
    scores = [t.score for t in trials]
    thresholds = np.linspace(min(scores), max(scores), num_points)
    return [rates_at_threshold(trials, speaker_ids, th) for th in thresholds]
