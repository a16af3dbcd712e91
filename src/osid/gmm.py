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
        for name in ("max_iterations", "kmeans_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("rel_tol", "variance_floor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DiagGmm:
    """Mixture weights, means, and per-dimension variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.float64))
        weights, means, variances = self.weights, self.means, self.variances
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

    @property
    def num_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def _as_matrix(X):
    """Accept a FeatureSet or a plain array of row vectors."""
    return np.asarray(getattr(X, "vectors", X), dtype=np.float64)


def mean_log_likelihood(model, X):
    """Average per-frame log-density of an utterance under one model; banks
    score through pack_models and score_packed, benchmark spans by this name."""
    return float(score_packed(pack_models((model,)), X)[0])


def _scoring_rows(weights, means, variances):
    """Read-only (..., M, 2D+1) rows of stacked GMM parameters; see pack_models."""
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    # A zero weight enters the GEMM as a finite floor, not -inf, which
    # BLAS tile padding would multiply by 0; exp() still gives exactly 0.
    np.maximum(log_weights, -1e300, out=log_weights)
    d = means.shape[-1]
    rows = np.empty(means.shape[:-1] + (2 * d + 1,))
    np.divide(-0.5, variances, out=rows[..., :d])
    np.divide(means, variances, out=rows[..., d:2 * d])
    rows[..., 2 * d] = log_weights - 0.5 * (d * LOG_2PI + np.sum(
        np.log(variances) + means * rows[..., d:2 * d], axis=-1))
    rows.flags.writeable = False
    return rows


def _frame_matrix(X):
    """The (2D+1) x N matrix [x^2; x; 1] of N x D frames X."""
    d = X.shape[1]
    frames = np.empty((2 * d + 1, X.shape[0]))
    np.square(X.T, out=frames[:d])
    frames[d:2 * d] = X.T
    frames[2 * d] = 1.0
    return frames


def _shifted_exp(dens):
    """Overwrite dens with exp(dens - per-frame peak over components, axis -2);
    return the per-frame sums and log-likelihoods log(sum) + peak."""
    peak = np.max(dens, axis=-2, keepdims=True)
    dens -= peak
    np.exp(dens, out=dens)
    total = np.sum(dens, axis=-2)
    return total, np.log(total) + peak[..., 0, :]


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
    blocks = (models[lo:lo + per_block] for lo in range(0, len(models), per_block))
    return tuple(_scoring_rows(*(np.stack([getattr(g, f) for g in block])
                                 for f in ("weights", "means", "variances")))
                 for block in blocks)


def first_models(blocks, count):
    """The blocks of the first count models, as views of the given blocks."""
    out = []
    for rows in blocks:
        if count > 0:
            out.append(rows[:count])
        count -= len(rows)
    return tuple(out)


def score_packed(blocks, X):
    """Mean log-likelihood of one utterance under each model of pack_models.

    The blocks are scored in contiguous runs (artifact.cpu_runs), each run on
    a thread of its own when there are several; a block's arithmetic is the
    same on every run, so the scores are bit-equal whatever the run count.
    """
    X = _as_matrix(X)
    if X.shape[0] < 1:
        raise ValueError("feature set must contain at least one frame")
    d = blocks[0].shape[2] // 2
    if X.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {X.shape[1]}")
    frames = _frame_matrix(X)
    # Each run's density buffer and share of the scores are allocated here:
    # allocated on the workers, they come from fresh per-thread malloc arenas.
    scores = np.empty(sum(map(len, blocks)))
    jobs = [(run, np.empty(max(len(rows) * rows.shape[1] for rows in run)
                           * frames.shape[1]), scores[models])
            for run, models in artifact.cpu_runs(blocks, len)]
    artifact.thread_map(lambda job: _score_run(frames, *job), jobs, len(jobs))
    return scores


def _score_run(frames, blocks, dens, scores):
    """Into scores, the mean log-likelihoods under a run of blocks; each
    block's densities go to the leading elements of the flat buffer dens.

    One GEMM per model of a block, all of the same shape, so equal models
    score bit-equal wherever they sit and ties keep their order.
    """
    lo = 0
    for rows in blocks:
        count, m = rows.shape[:2]
        block = dens[:count * m * frames.shape[1]].reshape(count, m, -1)
        np.mean(_shifted_exp(np.matmul(rows, frames, out=block))[1], axis=1,
                out=scores[lo:lo + count])
        lo += count


def _cluster_means(data, assignments, counts, out):
    """Into out, the mean of each cluster with members.  Every sum runs in row
    order, as np.sum(data[members], axis=0) does for D > 1."""
    sums = np.stack([np.bincount(assignments, weights=col, minlength=len(counts))
                     for col in data.T], axis=1)
    return np.divide(sums, counts[:, None], out=out, where=counts[:, None] > 0)


def _reseed_empty(data, centroids, assignments, counts, point_dists):
    """From the first empty cluster on, in index order, one empty at its turn
    takes the farthest point not yet taken; a thinned one re-takes its mean."""
    order, robbed = iter(np.argsort(point_dists)[::-1]), set()
    for k in range(int(np.argmin(counts)), len(counts)):
        if counts[k] == 0:
            far = next(order)
            counts[assignments[far]] -= 1
            robbed.add(assignments[far])
            assignments[far], centroids[k] = k, data[far]
        elif k in robbed:
            centroids[k] = np.mean(data[assignments == k], axis=0)


def kmeans_init(data, num_clusters, iterations, seed):
    """Lloyd's algorithm from a seeded choice of distinct starting points.

    Clusters that fall empty are re-seeded to the point farthest from its
    currently assigned centroid.  Returns (centroids, assignments).
    """
    data = _as_matrix(data)
    n = data.shape[0]
    if n < num_clusters or iterations < 1:
        raise ValueError(f"need at least {num_clusters} points and 1 iteration, "
                         f"got {n} and {iterations}")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(n, size=num_clusters, replace=False)].copy()
    sq_norms = np.sum(data * data, axis=1)
    assignments = np.zeros(n, dtype=np.intp)
    for _ in range(iterations):
        # |x|^2 - 2 x.c + |c|^2; scaling c by -2 commutes with rounding.
        dists = data @ (-2.0 * centroids).T
        dists += sq_norms[:, None]
        dists += np.sum(centroids * centroids, axis=1)
        new_assignments = np.argmin(dists, axis=1)
        counts = np.bincount(new_assignments, minlength=num_clusters)
        _cluster_means(data, new_assignments, counts, out=centroids)
        if not counts.all():
            _reseed_empty(data, centroids, new_assignments, counts,
                          dists[np.arange(n), new_assignments])
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids, assignments


def _converged(trace, rel_tol):
    """Stop rule: the last mean log-likelihood rose under rel_tol of the one before."""
    return len(trace) > 1 and trace[-1] - trace[-2] < rel_tol * abs(trace[-2])


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
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"{n - np.count_nonzero(finite)} of {n} frames are not finite")

    means, assignments = kmeans_init(
        X, num_components, cfg.kmeans_iterations, cfg.seed)
    counts = np.bincount(assignments, minlength=num_components)
    weights = counts / n
    sq = means[assignments]  # each frame's squared residual to its centroid
    np.square(np.subtract(X, sq, out=sq), out=sq)
    variances = _cluster_means(sq, assignments, counts,
                               out=np.full(means.shape, cfg.variance_floor))
    np.maximum(variances, cfg.variance_floor, out=variances)
    frames = _frame_matrix(X)
    trace = []
    for _ in range(cfg.max_iterations):
        resp = _scoring_rows(weights, means, variances) @ frames
        total, per_frame = _shifted_exp(resp)
        trace.append(float(np.mean(per_frame)))
        if _converged(trace, cfg.rel_tol):
            break

        resp /= total
        # One product gives sum(gamma x^2), sum(gamma x) and the occupancy.
        stats = resp @ frames.T
        occupancy = stats[:, 2 * dim]
        safe = np.maximum(occupancy, np.finfo(np.float64).tiny)
        new_means = stats[:, dim:2 * dim] / safe[:, None]
        variances = np.maximum(stats[:, :dim] / safe[:, None] - new_means**2,
                               cfg.variance_floor)
        dead = occupancy <= 0.0
        new_means[dead] = means[dead]
        weights, means = occupancy / n, new_means
    model = DiagGmm(weights=weights, means=means, variances=variances)
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
