"""Diagonal-covariance Gaussian mixture models.

Provides k-means initialization, EM fitting, log-density evaluation,
utterance scoring, and stochastic sampling.  The same type serves as a
per-speaker model and as the universal background model; only the component
count differs.  All probability work happens in log space.
"""

from dataclasses import dataclass

import numpy as np

from . import artifact

LOG_2PI = np.log(2.0 * np.pi)

GMM_MAGIC = b"OSIDGMM1"

# Component rows per block in pack_models: 16 speaker models of 64
# components, or one 1024-component background model.  On a K = 700 bank,
# 512 to 2048 rows timed alike in median; 256 and 4096 were slower.
SCORE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class EmConfig:
    max_iterations: int = 100
    rel_tol: float = 1e-5
    variance_floor: float = 1e-4
    kmeans_iterations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.variance_floor <= 0.0:
            raise ValueError("variance_floor must be positive")


@dataclass(frozen=True)
class DiagGmm:
    """Mixture weights, means, and per-dimension variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 2 or variances.shape != means.shape:
            raise ValueError("means and variances must be matching M x D matrices")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights must have one entry per component")
        if not all(np.isfinite(a).all() for a in (weights, means, variances)):
            raise ValueError("weights, means and variances must be finite")
        if np.any(weights < 0.0) or abs(float(np.sum(weights)) - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def num_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def _as_matrix(X):
    """Accept a FeatureSet or a plain array of row vectors."""
    return np.asarray(getattr(X, "vectors", X), dtype=np.float64)


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
    log_norm = -0.5 * (model.dim * LOG_2PI + np.sum(np.log(model.variances), axis=1))
    with np.errstate(divide="ignore"):
        log_weights = np.log(model.weights)
    return log_weights + log_norm - 0.5 * quad


def mean_log_likelihood(model, X):
    """Average per-frame log-density of an utterance under one model.

    The benchmark's span recorder annotates calls by this name; banks score
    through pack_models and score_packed.
    """
    return float(score_packed(pack_models((model,)), X)[0])


def pack_models(models):
    """Equal-shape GMMs as read-only (n, M, 2D+1) blocks of scoring rows.

    A block of SCORE_BLOCK_ROWS // M models (at least one) holds the rows
    [-1/2 sigma^-2, mu sigma^-2, log w + log norm - 1/2 sum mu^2 sigma^-2],
    so one stacked product rows @ [x^2; x; 1] gives its log-densities.
    """
    models = tuple(models)
    if not models:
        raise ValueError("need at least one model")
    m, d = models[0].means.shape
    if any(g.means.shape != (m, d) for g in models):
        raise ValueError("models must share component count and dimension")
    per_block = max(1, SCORE_BLOCK_ROWS // m)
    blocks = []
    for lo in range(0, len(models), per_block):
        block = models[lo:lo + per_block]
        means = np.stack([g.means for g in block])
        variances = np.stack([g.variances for g in block])
        with np.errstate(divide="ignore"):
            log_weights = np.log(np.stack([g.weights for g in block]))
        # A zero weight enters the GEMM as a finite floor, not -inf, which
        # BLAS tile padding would multiply by 0; exp() still gives exactly 0.
        np.maximum(log_weights, -1e300, out=log_weights)
        rows = np.empty((len(block), m, 2 * d + 1))
        np.divide(-0.5, variances, out=rows[..., :d])
        np.divide(means, variances, out=rows[..., d:2 * d])
        rows[..., 2 * d] = log_weights - 0.5 * (d * LOG_2PI + np.sum(
            np.log(variances) + means * rows[..., d:2 * d], axis=2))
        rows.flags.writeable = False
        blocks.append(rows)
    return tuple(blocks)


def score_packed(blocks, X):
    """Mean log-likelihood of one utterance under each model of pack_models."""
    X = _as_matrix(X)
    if X.shape[0] < 1:
        raise ValueError("feature set must contain at least one frame")
    d = blocks[0].shape[2] // 2
    if X.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {X.shape[1]}")
    frames = np.empty((2 * d + 1, X.shape[0]))
    np.square(X.T, out=frames[:d])
    frames[d:2 * d] = X.T
    frames[2 * d] = 1.0
    out = []
    for rows in blocks:
        # One GEMM per model of the block, all of the same shape, so equal
        # models score bit-equal wherever they sit and ties keep their order.
        dens = rows @ frames
        peak = np.max(dens, axis=1, keepdims=True)
        dens -= peak
        np.exp(dens, out=dens)
        per_frame = np.sum(dens, axis=1)
        np.log(per_frame, out=per_frame)
        per_frame += peak[:, 0, :]
        out.append(np.mean(per_frame, axis=1))
    return np.concatenate(out)


def kmeans_init(data, num_clusters, iterations=20, seed=0):
    """Lloyd's algorithm from a seeded choice of distinct starting points.

    Clusters that fall empty are re-seeded to the point farthest from its
    currently assigned centroid.  Returns (centroids, assignments).
    """
    data = _as_matrix(data)
    n = data.shape[0]
    if n < num_clusters:
        raise ValueError(f"need at least {num_clusters} points, got {n}")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(n, size=num_clusters, replace=False)].copy()
    sq_norms = np.sum(data * data, axis=1)
    assignments = np.zeros(n, dtype=np.intp)
    for _ in range(max(iterations, 1)):
        dists = sq_norms[:, None] - 2.0 * (data @ centroids.T) + np.sum(
            centroids * centroids, axis=1)
        new_assignments = np.argmin(dists, axis=1)
        point_dists = dists[np.arange(n), new_assignments]
        taken = set()
        for k in range(num_clusters):
            members = new_assignments == k
            if np.any(members):
                centroids[k] = np.mean(data[members], axis=0)
            else:
                order = np.argsort(point_dists)[::-1]
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                centroids[k] = data[far]
                new_assignments[far] = k
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids, assignments


def em_fit(data, num_components, cfg=EmConfig(), return_trace=False):
    """Fit a diagonal GMM by EM from a k-means start.

    Iterates until the relative improvement of the mean log-likelihood drops
    below cfg.rel_tol or cfg.max_iterations is reached.  Variances are floored
    after every M-step.  With return_trace=True also returns the per-iteration
    mean log-likelihood sequence, which is non-decreasing up to float noise.
    """
    X = _as_matrix(data)
    n, dim = X.shape
    if n < num_components:
        raise ValueError(f"need at least {num_components} points, got {n}")

    centroids, assignments = kmeans_init(
        X, num_components, cfg.kmeans_iterations, cfg.seed)
    counts = np.bincount(assignments, minlength=num_components).astype(np.float64)
    weights = counts / n
    means = centroids.copy()
    variances = np.full((num_components, dim), cfg.variance_floor)
    for k in range(num_components):
        members = assignments == k
        if np.any(members):
            diff = X[members] - means[k]
            variances[k] = np.maximum(np.mean(diff * diff, axis=0),
                                      cfg.variance_floor)

    model = DiagGmm(weights=weights, means=means, variances=variances)
    xsq = X * X
    trace = []
    prev_ll = -np.inf
    for _ in range(cfg.max_iterations):
        log_joint = _component_log_densities(model, X)
        per_point = _logsumexp(log_joint, axis=1)
        mean_ll = float(np.mean(per_point))
        trace.append(mean_ll)
        if mean_ll - prev_ll < cfg.rel_tol * abs(prev_ll):
            break
        prev_ll = mean_ll

        resp = np.exp(log_joint - per_point[:, None])
        occupancy = np.sum(resp, axis=0)
        safe = np.maximum(occupancy, np.finfo(np.float64).tiny)
        new_means = (resp.T @ X) / safe[:, None]
        new_vars = (resp.T @ xsq) / safe[:, None] - new_means**2
        dead = occupancy <= 0.0
        new_means[dead] = model.means[dead]
        model = DiagGmm(
            weights=occupancy / n,
            means=new_means,
            variances=np.maximum(new_vars, cfg.variance_floor),
        )
    if return_trace:
        return model, np.asarray(trace)
    return model


def sample(model, count, seed=0):
    """Draw count independent vectors from the mixture, seeded."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    weights = model.weights / np.sum(model.weights)
    picks = rng.choice(model.num_components, size=count, p=weights)
    noise = rng.standard_normal((count, model.dim))
    return model.means[picks] + noise * np.sqrt(model.variances[picks])


def save_gmm(path, model):
    """Serialize to the binary model format; round-trips are bit-exact."""
    artifact.write_binary(path, GMM_MAGIC, (model.num_components, model.dim),
                          (model.weights, model.means, model.variances))


def load_gmm(path):
    with artifact.BinaryReader(path, GMM_MAGIC) as r:
        m, d = r.ints(2)
        return DiagGmm(weights=r.floats(m), means=r.floats(m, d),
                       variances=r.floats(m, d))
