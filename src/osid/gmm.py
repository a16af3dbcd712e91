"""Diagonal-covariance Gaussian mixture models.

Provides k-means initialization, EM fitting, log-density evaluation,
utterance scoring, and stochastic sampling.  The same type serves as a
per-speaker model and as the universal background model; only the component
count differs.  All probability work happens in log space.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import artifact

LOG_2PI = np.log(2.0 * np.pi)

GMM_MAGIC = b"OSIDGMM1"

# Component rows per block in pack_models: 16 speaker models of 64
# components, or one 1024-component background model.  On a K = 700 bank,
# 512 to 2048 rows timed alike in median; 256 and 4096 were slower.  They
# still did with frame chunks (artifact.frame_chunks): each model of a
# block is a GEMM of its own, so the models per block do not move the cap.
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


def _shifted_exp(dens, out=None):
    """Overwrite dens with exp(dens - per-frame peak over components, axis -2);
    return the per-frame sums and log-likelihoods log(sum) + peak (into out)."""
    peak = np.max(dens, axis=-2, keepdims=True)
    dens -= peak
    np.exp(dens, out=dens)
    total = np.sum(dens, axis=-2)
    return total, np.add(np.log(total), peak[..., 0, :], out=out)


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
    """Mean log-likelihood of one utterance under each model of pack_models,
    or -inf for a model that no prefix of the models can pick as its best.

    A pack of one block, as the background model, is scored in one pass.  A
    pack of several is scored in two.  The first takes each model's
    products only as far as each frame's peak over the components, which
    bounds the model's score (_bound_run).  A model whose upper bound is
    under the lower bound of a model at or before it scores lower than that
    model, so it is the best of no prefix: it scores -inf, with no
    exponentials taken.  The second pass scores the other models, stacked
    into blocks again, as one pass would, so their scores are bit-equal to
    one pass's.  The rule for a model reads only the models up to it, so a
    prefix of several blocks scores as the head of the whole pack does.

    The blocks are scored in contiguous runs (artifact.cpu_runs), each run
    on a thread of its own when there are several; a block's arithmetic,
    its frame chunks included, is the same on every run, so the scores are
    bit-equal whatever the run count.
    """
    X = _as_matrix(X)
    if X.shape[0] < 1:
        raise ValueError("feature set must contain at least one frame")
    d = blocks[0].shape[2] // 2
    if X.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {X.shape[1]}")
    frames = _frame_matrix(X)
    if len(blocks) == 1:
        return _in_runs(_score_run, blocks, frames)[0]
    lower, upper = _in_runs(_bound_run, blocks, frames, outputs=2)
    # A bound that is not finite comes from a frame whose score is NaN; as
    # NaN it keeps its model and every model after it.  NaN compares and
    # accumulates with no warning.
    lower[~np.isfinite(lower)] = np.nan
    ruled = upper < np.maximum.accumulate(lower)
    if not ruled.any():  # every model kept: the blocks as they are, uncopied
        return _in_runs(_score_run, blocks, frames)[0]
    kept = np.concatenate([rows[~ruled[lo:lo + len(rows)]] for rows, lo in zip(
        blocks, itertools.accumulate(map(len, blocks), initial=0))])
    per_block = max(1, SCORE_BLOCK_ROWS // kept.shape[1])
    scores = np.full(len(ruled), -np.inf)
    scores[~ruled] = _in_runs(_score_run, [
        kept[lo:lo + per_block] for lo in range(0, len(kept), per_block)], frames)[0]
    return scores


def _in_runs(worker, blocks, frames, outputs=1):
    """Call worker(frames, run, dens, *slices) on each run of the blocks
    (artifact.cpu_runs), with a density buffer dens of its own and its
    slices of `outputs` arrays of one float per model; return the arrays."""
    # Each run's density buffer and share of the outputs are allocated here:
    # allocated on the workers, they come from fresh per-thread malloc arenas.
    out = [np.empty(sum(map(len, blocks))) for _ in range(outputs)]
    jobs = [(run, np.empty(max(len(rows) * rows.shape[1] for rows in run)
                           * frames.shape[1]), *(o[models] for o in out))
            for run, models in artifact.cpu_runs(blocks, len)]
    artifact.thread_map(lambda job: worker(frames, *job), jobs, len(jobs))
    return out


def _products(frames, rows, dens):
    """(chunk, rows @ frames[:, chunk]) for each frame chunk of a block
    (artifact.frame_chunks, on the BLAS's small-matrix kernel), the product
    a (models, M, chunk) view of the front of the flat buffer dens.  One
    GEMM per model and chunk, all of one shape, so equal models get
    bit-equal densities wherever they sit."""
    count, m = rows.shape[:2]
    for chunk in artifact.frame_chunks(frames.shape[1], (rows,)):
        block = dens[:count * m * (chunk.stop - chunk.start)].reshape(count, m, -1)
        yield chunk, np.matmul(rows, frames[:, chunk], out=block)


def _score_run(frames, blocks, dens, scores):
    """Into scores, the mean log-likelihoods under a run of blocks.

    Each chunk's log-likelihoods go to its columns of one (models, frames)
    array, averaged once over all the frames, so equal models score
    bit-equal wherever they sit and ties keep their order.
    """
    lo = 0
    for rows in blocks:
        per_frame = np.empty((len(rows), frames.shape[1]))
        for chunk, dens_chunk in _products(frames, rows, dens):
            _shifted_exp(dens_chunk, out=per_frame[:, chunk])
        np.mean(per_frame, axis=1, out=scores[lo:lo + len(rows)])
        lo += len(rows)


def _bound_run(frames, blocks, dens, lower, upper):
    """Into lower and upper, bounds on the mean log-likelihoods under a run
    of blocks, from the densities _score_run takes.

    Its per-frame log-likelihood is fl(p + fl(log s)), with p the frame's
    peak over the M components and s the sum of exp(density - p): terms in
    [0, 1], one of them exp(0) = 1, so s is in [1, M] as rounded too.  So
    fl(log s) lies in [0, log M] up to the error of np.log (and of np.exp,
    should a term round above 1), a few units in the last place; log M
    widened by 2^-40 of itself covers it, and M = 1 needs no margin, s
    being 1.  Rounding is monotone, so each frame's value lies in
    [p, fl(p + the widened log M)] whatever the peaks' magnitude, and the
    means here run over (models, frames) arrays as _score_run's does, by
    the same summation, so the order holds for the means too.
    """
    lo = 0
    for rows in blocks:
        peaks = np.empty((len(rows), frames.shape[1]))
        for chunk, dens_chunk in _products(frames, rows, dens):
            np.max(dens_chunk, axis=1, out=peaks[:, chunk])
        np.mean(peaks, axis=1, out=lower[lo:lo + len(rows)])
        peaks += np.log(rows.shape[1]) * (1.0 + 2.0**-40)
        np.mean(peaks, axis=1, out=upper[lo:lo + len(rows)])
        lo += len(rows)


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


def save_gmm(path, *models):
    """Serialize to the binary model format, one record per model (a bank
    file holds many); round-trips are bit-exact."""
    artifact.write_binary(path, GMM_MAGIC, (
        (g.means.shape, (g.weights, g.means, g.variances)) for g in models))


def read_gmm(reader):
    """The model of the next record of an artifact.BinaryReader."""
    m, d = reader.ints(2)
    return DiagGmm(reader.floats(m), reader.floats(m, d), reader.floats(m, d))


def load_gmm(path):
    with artifact.BinaryReader(path, GMM_MAGIC) as r:
        return read_gmm(r)
