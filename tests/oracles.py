"""Reference implementations the tests compare the package against.

Each one is the plain, per-vector or per-threshold form of a computation the
package runs in a faster batched form; none of them is on a production path.
"""

from dataclasses import dataclass

import numpy as np

from osid import gmm as gmm_mod
from osid import mlp as mlp_mod
from osid.features import FeatureConfig, _mfcc_batch


def _logsumexp(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.squeeze(peak, axis=axis) + np.log(
        np.sum(np.exp(a - peak), axis=axis))


def _component_log_densities(model, X):
    """N x M matrix of log w_m + log N(x_n; mu_m, diag sigma^2_m).

    The Mahalanobis term is expanded into three matrix products so memory
    stays O(N*M) even for a 1024-component background model.
    """
    inv_var = 1.0 / model.variances
    quad = (X * X) @ inv_var.T
    quad -= 2.0 * (X @ (model.means * inv_var).T)
    quad += np.sum(model.means**2 * inv_var, axis=1)
    log_norm = -0.5 * (model.dim * gmm_mod.LOG_2PI
                       + np.sum(np.log(model.variances), axis=1))
    with np.errstate(divide="ignore"):
        log_weights = np.log(model.weights)
    return log_weights + log_norm - 0.5 * quad


def log_density_batch(model, X):
    """Per-row mixture log-density for an N x D matrix."""
    X = np.asarray(getattr(X, "vectors", X), dtype=np.float64)
    if X.shape[1] != model.dim:
        raise ValueError(f"expected dimension {model.dim}, got {X.shape[1]}")
    return _logsumexp(_component_log_densities(model, X), axis=1)


def log_density(model, x):
    """log sum_m w_m N(x; mu_m, diag sigma^2_m) for a single vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"expected a vector of dimension {model.dim}")
    return float(log_density_batch(model, x[None, :])[0])


def mean_log_likelihood(model, X):
    """Average per-frame log-density of an utterance under one model."""
    X = np.asarray(getattr(X, "vectors", X), dtype=np.float64)
    if X.shape[0] < 1:
        raise ValueError("feature set must contain at least one frame")
    return float(np.mean(log_density_batch(model, X)))


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


def softmax_reduce(logits):
    """Softmax through numpy's max and sum reductions over the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


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


@dataclass(frozen=True)
class ErrorRates:
    far: float
    frr: float
    mlr: float
    threshold: float


def rates_at_threshold(trials, speaker_ids, theta):
    """Error rates with acceptance defined as score >= theta.

    Over impostor trials: false acceptance.  Over enrolled trials, mutually
    exclusively: false rejection (score below theta, regardless of the
    predicted identity) or mislabeling (accepted but attributed to the wrong
    enrolled speaker).
    """
    speaker_ids = list(speaker_ids)
    n_imp = n_enr = false_accept = false_reject = mislabel = 0
    for t in trials:
        if t.is_impostor:
            n_imp += 1
            false_accept += t.score >= theta
        else:
            n_enr += 1
            if t.score < theta:
                false_reject += 1
            elif speaker_ids[t.predicted_index] != t.true_speaker:
                mislabel += 1
    if n_imp == 0 or n_enr == 0:
        raise ValueError("need at least one enrolled and one impostor trial")
    return ErrorRates(far=false_accept / n_imp, frr=false_reject / n_enr,
                      mlr=mislabel / n_enr, threshold=float(theta))


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
