"""Feedforward network engine used by both discriminative classifiers.

Fully connected layers with ReLU hidden activations and a softmax output,
trained by mini-batch gradient descent that combines Nesterov-style momentum
with a per-weight RMS-scaled learning rate.  The per-speaker 2-class networks
and the single multi-class network share this code; they differ only in layer
sizes and training schedule.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import artifact

MLP_MAGIC = b"OSIDMLP1"

LOSS_FLOOR = 1e-30

# Networks per block in mean_log_posteriors.  On a K = 700 bank of 24-50-50-2
# networks, blocks of 8 to 32 timed alike.
SCORE_BLOCK_NETS = 16

# Training-schedule defaults for the two network roles.  The 2-class networks
# use a 2-unit softmax output: it is mathematically equivalent to a single
# sigmoid unit while keeping one code path for both architectures.
SUBNN_HIDDEN = (50, 50)
MULTICLASS_HIDDEN = (1200, 1200)
SUBNN_EPOCHS = 5
SUBNN_BATCH_SIZE = 800
MULTICLASS_EPOCHS = 20
MULTICLASS_BATCH_SIZE = 15000


@dataclass(frozen=True)
class TrainConfig:
    """One network training run: its schedule, seed and optimizer step sizes."""

    epochs: int
    batch_size: int
    seed: int = 0
    learning_rate: float = 0.0001
    momentum: float = 0.95
    rms_decay: float = 0.99
    rms_epsilon: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class MlpNetwork:
    """Layer weights and biases; weights[l] has shape (dims[l], dims[l+1])."""

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be parallel non-empty lists")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("bias shape must match the layer output width")
        for prev, nxt in zip(self.weights[:-1], self.weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValueError("consecutive layer shapes are inconsistent")
        if not all(np.isfinite(p).all() for p in self.parameters()):
            raise ValueError("weights and biases must be finite")

    @property
    def layer_dims(self):
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def output_dim(self):
        return self.weights[-1].shape[1]

    def parameters(self):
        """Flat list of parameter arrays, weights and biases interleaved."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def initialize_network(layer_dims, seed=0):
    """Seeded scaled-uniform weight init (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpNetwork(weights=weights, biases=biases)


def _softmax(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def forward_batch(net, X):
    """Posteriors and cached layer inputs for a batch of row vectors."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"input dimension {X.shape[1]} != network input {net.layer_dims[0]}")
    activations = [X]
    a = X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        activations.append(a)
    posteriors = _softmax(a @ net.weights[-1] + net.biases[-1])
    return posteriors, {"activations": activations, "posteriors": posteriors}


def _stack(arrays):
    """One block's parameters, stacked; a lone network's are used as they are."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def mean_log_posteriors(nets, X, class_index=None):
    """Frame-averaged floored log posteriors of an utterance under each network.

    Returns a (len(nets), output_dim) matrix over every class, for networks
    of one output width, or with an integer class_index the (len(nets),)
    scores of that class.  Consecutive networks of equal layer_dims are taken
    in blocks of up to SCORE_BLOCK_NETS.  Each layer of a block is one
    stacked product, one same-shape GEMM per network, so every score is
    bit-equal to forward_batch on that network alone, wherever it sits in
    the list.  The two forms average over frames in numpy's two reduction
    orders (pairwise along a contiguous column, sequential across the rows
    of a matrix), so a column of the matrix may differ from the class_index
    result in the last bits.
    """
    X = np.atleast_2d(np.asarray(getattr(X, "vectors", X), dtype=np.float64))
    frames = X.shape[0]
    if frames < 1:
        raise ValueError("feature set must contain at least one frame")
    nets = tuple(nets)
    if not nets:
        raise ValueError("need at least one network")
    # Two activation buffers shared by all blocks: activations allocated per
    # block go back to the OS and fault in again every block until the
    # process has freed a larger chunk (about 57,000 minor faults per
    # K = 700, 400-frame call in a new process).
    buffers = np.empty((2, 0))
    out = np.empty((len(nets),) if class_index is not None
                   else (len(nets), nets[0].output_dim))
    lo = 0
    while lo < len(nets):
        dims = nets[lo].layer_dims
        if X.shape[1] != dims[0]:
            raise ValueError(
                f"input dimension {X.shape[1]} != network input {dims[0]}")
        hi = lo + 1
        while (hi < min(len(nets), lo + SCORE_BLOCK_NETS)
               and nets[hi].layer_dims == dims):
            hi += 1
        block = nets[lo:hi]
        size = len(block) * frames * max(dims[1:])
        if buffers.shape[1] < size:
            buffers = np.empty((2, size))
        # Activations are (networks, frames, width), or (frames, width) for a
        # one-network block, whose products are then forward_batch's own.
        a = X
        for layer in range(len(dims) - 1):
            weights = _stack([net.weights[layer] for net in block])
            shape = weights.shape[:-2] + (frames, dims[layer + 1])
            a = np.matmul(a, weights,
                          out=buffers[layer % 2, :math.prod(shape)].reshape(shape))
            a += _stack([net.biases[layer] for net in block])[..., None, :]
            if layer < len(dims) - 2:
                np.maximum(a, 0.0, out=a)
        posteriors = _softmax(a)
        picked = np.maximum(posteriors if class_index is None
                            else posteriors[..., class_index], LOSS_FLOOR)
        out[lo:hi] = np.mean(np.log(picked, out=picked),
                             axis=-2 if class_index is None else -1)
        lo = hi
    return out


def mean_nll(posteriors, labels):
    """Mean negative log posterior over a batch."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    picked = np.maximum(posteriors[np.arange(len(labels)), labels], LOSS_FLOOR)
    return float(np.mean(-np.log(picked)))


def backward_batch(net, labels, cache):
    """Mean gradients of the batch NLL for every weight and bias.

    The softmax and the loss differentiate jointly to (posterior - one_hot)
    at the output layer, so no separate loss gradient is needed.
    """
    labels = np.asarray(labels, dtype=np.intp)
    activations = cache["activations"]
    posteriors = cache["posteriors"]
    batch = posteriors.shape[0]
    delta = posteriors.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = np.sum(delta, axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (activations[layer] > 0.0)
    return grad_w, grad_b


def optimizer_step(params, grads, velocity, rms_accum, cfg):
    """One momentum + RMS-scaled update, in place.

    Per parameter with gradient g, where eta, mu, alpha and epsilon are
    cfg.learning_rate, cfg.momentum, cfg.rms_decay and cfg.rms_epsilon:
        r <- alpha*r + (1-alpha)*g^2
        rate = eta / (sqrt(r) + epsilon)
        v <- mu*v - rate*g
        theta <- theta + mu*v - rate*g
    the look-ahead form of the momentum update with the RMS-scaled step inside.
    """
    for theta, g, v, r in zip(params, grads, velocity, rms_accum):
        r *= cfg.rms_decay
        r += (1.0 - cfg.rms_decay) * g * g
        rate = cfg.learning_rate / (np.sqrt(r) + cfg.rms_epsilon)
        scaled = rate * g
        v *= cfg.momentum
        v -= scaled
        theta += cfg.momentum * v - scaled


def train(net, X, labels, cfg):
    """Mini-batch training; returns the network and the per-epoch mean loss.

    Each epoch applies a seeded shuffle, splits into batches (the last one
    may be short), and takes one optimizer step per batch on the mean batch
    gradient, from zeroed momentum and RMS buffers.  A batch size beyond the
    dataset just means one batch per epoch.  The run is a pure function of
    (net, data, cfg).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if X.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if np.any(labels < 0) or np.any(labels >= net.output_dim):
        raise ValueError("labels must be valid output class indices")
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    params = net.parameters()
    velocity = [np.zeros_like(p) for p in params]
    rms_accum = [np.zeros_like(p) for p in params]
    epoch_losses = np.zeros(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            posteriors, cache = forward_batch(net, X[batch])
            total_loss += mean_nll(posteriors, labels[batch]) * batch.size
            grad_w, grad_b = backward_batch(net, labels[batch], cache)
            grads = []
            for gw, gb in zip(grad_w, grad_b):
                grads.extend((gw, gb))
            optimizer_step(params, grads, velocity, rms_accum, cfg)
        epoch_losses[epoch] = total_loss / n
    return net, epoch_losses


def save_mlp(path, net):
    """Serialize to the binary model format; round-trips are bit-exact."""
    dims = net.layer_dims
    artifact.write_binary(path, MLP_MAGIC, (len(dims), *dims), net.parameters())


def load_mlp(path):
    with artifact.BinaryReader(path, MLP_MAGIC) as r:
        (num_layers,) = r.ints(1)
        dims = r.ints(num_layers)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(r.floats(fan_in, fan_out))
            biases.append(r.floats(fan_out))
        return MlpNetwork(weights=weights, biases=biases)
