"""Reference implementations the tests compare the package against.

Each one is the plain, per-vector, per-cluster or per-threshold form of a
computation the package runs in a faster batched form; none of them is on a
production path.
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


def kmeans_update(data, centroids, assignments, point_dists):
    """One k-means update as a loop over clusters, in place.

    A cluster with members takes their mean.  A cluster that is empty when
    its turn comes takes the farthest point (by point_dists) not yet taken
    and claims it, so a higher-index cluster can be emptied in time for its
    own turn, while a lower-index one keeps the stolen point in its mean.
    """
    taken = set()
    for k in range(centroids.shape[0]):
        members = assignments == k
        if np.any(members):
            centroids[k] = np.mean(data[members], axis=0)
        else:
            order = np.argsort(point_dists)[::-1]
            far = next(int(i) for i in order if int(i) not in taken)
            taken.add(far)
            centroids[k] = data[far]
            assignments[far] = k


def kmeans_reference(data, num_clusters, iterations, seed):
    """Lloyd's algorithm with the loop update, from the same seeded start."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(n, size=num_clusters, replace=False)].copy()
    sq_norms = np.sum(data * data, axis=1)
    assignments = np.zeros(n, dtype=np.intp)
    for _ in range(iterations):
        dists = sq_norms[:, None] - 2.0 * (data @ centroids.T) + np.sum(
            centroids * centroids, axis=1)
        new_assignments = np.argmin(dists, axis=1)
        kmeans_update(data, centroids, new_assignments,
                      dists[np.arange(n), new_assignments])
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids, assignments


def variance_seed(X, means, assignments, variance_floor):
    """Per-component variance of its k-means members, floored; the floor
    alone for a component with no members."""
    variances = np.full(means.shape, variance_floor)
    for k in range(means.shape[0]):
        members = assignments == k
        if np.any(members):
            diff = X[members] - means[k]
            variances[k] = np.maximum(np.mean(diff * diff, axis=0),
                                      variance_floor)
    return variances


def em_fit_reference(data, num_components, cfg):
    """EM from the loop k-means and variance seed, one DiagGmm per iteration."""
    X = np.asarray(data, dtype=np.float64)
    n, dim = X.shape
    means, assignments = kmeans_reference(X, num_components,
                                          cfg.kmeans_iterations, cfg.seed)
    counts = np.bincount(assignments, minlength=num_components).astype(np.float64)
    model = gmm_mod.DiagGmm(
        weights=counts / n, means=means,
        variances=variance_seed(X, means, assignments, cfg.variance_floor))
    frames = gmm_mod._frame_matrix(X)
    prev_ll = -np.inf
    for _ in range(cfg.max_iterations):
        resp = gmm_mod.pack_models((model,))[0][0] @ frames
        total, per_frame = gmm_mod._shifted_exp(resp)
        mean_ll = float(np.mean(per_frame))
        if mean_ll - prev_ll < cfg.rel_tol * abs(prev_ll):
            break
        prev_ll = mean_ll
        resp /= total
        stats = resp @ frames.T
        occupancy = stats[:, 2 * dim]
        safe = np.maximum(occupancy, np.finfo(np.float64).tiny)
        new_means = stats[:, dim:2 * dim] / safe[:, None]
        new_vars = stats[:, :dim] / safe[:, None] - new_means**2
        dead = occupancy <= 0.0
        new_means[dead] = model.means[dead]
        model = gmm_mod.DiagGmm(
            weights=occupancy / n, means=new_means,
            variances=np.maximum(new_vars, cfg.variance_floor))
    return model


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


def train_reference(net, X, labels, cfg):
    """Mini-batch training with a fresh array for every step's temporaries.

    The loop mlp.train runs, calling the three step functions with no
    workspace: each batch is gathered by fancy indexing, and the forward
    pass, gradients and optimizer temporaries are allocated per step.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    velocity = [np.zeros_like(layer) for layer in net.layers]
    rms_accum = [np.zeros_like(layer) for layer in net.layers]
    epoch_losses = np.zeros(cfg.epochs)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                posteriors, cache = mlp_mod.forward_batch(net, X[batch])
                total_loss += mlp_mod.mean_nll(posteriors, labels[batch]) * batch.size
                mlp_mod.optimizer_step(
                    net.layers, mlp_mod.backward_batch(net, labels[batch], cache),
                    velocity, rms_accum, cfg)
            epoch_losses[epoch] = total_loss / n
    return net, epoch_losses


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


def augmented_scores(nets, X, class_index=None):
    """Frame-averaged floored log posteriors from [x, 1] @ [W; b], per network.

    The scoring kernel's own products, taken one network and one layer at a
    time with the ones column appended by np.hstack: a (networks,) vector
    for an integer class_index, else a (networks, classes) matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows = []
    for net in nets:
        a = X
        for depth, layer in enumerate(net.layers):
            a = np.hstack([a, np.ones((a.shape[0], 1))]) @ layer
            if depth < len(net.layers) - 1:
                a = np.maximum(a, 0.0)
        posteriors = softmax_reduce(a)
        if class_index is not None:
            posteriors = posteriors[:, class_index]
        rows.append(np.mean(np.log(np.maximum(posteriors, mlp_mod.LOSS_FLOOR)),
                            axis=0))
    return np.array(rows)


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


def rates_at_threshold(trials, theta):
    """Error rates with acceptance defined as score >= theta.

    Over impostor trials: false acceptance.  Over enrolled trials, mutually
    exclusively: false rejection (score below theta, regardless of the
    predicted identity) or mislabeling (accepted but attributed to the wrong
    enrolled speaker).
    """
    n_imp = n_enr = false_accept = false_reject = mislabel = 0
    for t in trials:
        if t.is_impostor:
            n_imp += 1
            false_accept += t.score >= theta
        else:
            n_enr += 1
            if t.score < theta:
                false_reject += 1
            elif t.predicted_speaker != t.true_speaker:
                mislabel += 1
    if n_imp == 0 or n_enr == 0:
        raise ValueError("need at least one enrolled and one impostor trial")
    return ErrorRates(far=false_accept / n_imp, frr=false_reject / n_enr,
                      mlr=mislabel / n_enr, threshold=float(theta))


def det_sweep(trials, num_points):
    """Operating curve: rates at evenly spaced thresholds over the score range.

    The lowest threshold is the accept-all corner; the highest sits at the
    maximum score, where only top-scoring trials remain accepted.
    """
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
    trials = list(trials)
    scores = [t.score for t in trials]
    thresholds = np.linspace(min(scores), max(scores), num_points)
    return [rates_at_threshold(trials, th) for th in thresholds]
