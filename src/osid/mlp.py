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
DEFAULT_LEARNING_RATE = 0.0001
DEFAULT_MOMENTUM = 0.95
DEFAULT_RMS_DECAY = 0.99
DEFAULT_RMS_EPSILON = 1e-8
SUBNN_EPOCHS = 5
SUBNN_BATCH_SIZE = 800
MULTICLASS_EPOCHS = 20
MULTICLASS_BATCH_SIZE = 15000


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def subnn_train_config(seed=0):
    return TrainConfig(epochs=SUBNN_EPOCHS, batch_size=SUBNN_BATCH_SIZE, seed=seed)


def multiclass_train_config(seed=0):
    return TrainConfig(epochs=MULTICLASS_EPOCHS, batch_size=MULTICLASS_BATCH_SIZE,
                       seed=seed)


def subnn_dims(input_dim=24):
    return (input_dim, *SUBNN_HIDDEN, 2)


def multiclass_dims(num_speakers, input_dim=24):
    return (input_dim, *MULTICLASS_HIDDEN, num_speakers)


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


def mean_log_posteriors(nets, X, class_index):
    """Frame-averaged floored log posterior of one class under each network.

    Consecutive networks of equal layer_dims are taken in blocks of up to
    SCORE_BLOCK_NETS.  Each layer of a block is one stacked product, one
    same-shape GEMM per network, so every score is bit-equal to forward_batch
    on that network alone, wherever it sits in the list.
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
    out = np.empty(len(nets))
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
        a = X
        for layer in range(len(dims) - 1):
            shape = (len(block), frames, dims[layer + 1])
            a = np.matmul(a, np.stack([net.weights[layer] for net in block]),
                          out=buffers[layer % 2, :math.prod(shape)].reshape(shape))
            a += np.stack([net.biases[layer] for net in block])[:, None, :]
            if layer < len(dims) - 2:
                np.maximum(a, 0.0, out=a)
        picked = np.maximum(_softmax(a)[..., class_index], LOSS_FLOOR)
        out[lo:hi] = np.mean(np.log(picked, out=picked), axis=1)
        lo = hi
    return out


def forward(net, x):
    """Class posteriors for a single input vector, plus the backprop cache."""
    posteriors, cache = forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])
    return posteriors[0], cache


def nll_loss(posteriors, label):
    """Negative log posterior of the true class, floored to avoid -inf."""
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 1:
        raise ValueError("nll_loss expects a single posterior vector")
    if not 0 <= label < posteriors.size:
        raise ValueError(f"label {label} out of range for {posteriors.size} classes")
    return float(-np.log(max(float(posteriors[label]), LOSS_FLOOR)))


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


def backward(net, x, label, cache):
    """Gradients for a single example; cache must come from forward(net, x)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.array_equal(cache["activations"][0], x[None, :]):
        raise ValueError("cache does not match the given input")
    return backward_batch(net, [label], cache)


@dataclass
class OptimizerState:
    """Momentum and squared-gradient buffers plus the step hyperparameters."""

    velocity: list
    rms_accum: list
    eta: float = DEFAULT_LEARNING_RATE
    mu: float = DEFAULT_MOMENTUM
    alpha: float = DEFAULT_RMS_DECAY
    epsilon: float = DEFAULT_RMS_EPSILON

    @classmethod
    def for_network(cls, net, eta=DEFAULT_LEARNING_RATE, mu=DEFAULT_MOMENTUM,
                    alpha=DEFAULT_RMS_DECAY, epsilon=DEFAULT_RMS_EPSILON):
        params = net.parameters()
        return cls(velocity=[np.zeros_like(p) for p in params],
                   rms_accum=[np.zeros_like(p) for p in params],
                   eta=eta, mu=mu, alpha=alpha, epsilon=epsilon)


def optimizer_step(params, grads, state):
    """One momentum + RMS-scaled update, in place.

    Per parameter with gradient g:
        r <- alpha*r + (1-alpha)*g^2
        rate = eta / (sqrt(r) + epsilon)
        v <- mu*v - rate*g
        theta <- theta + mu*v - rate*g
    the look-ahead form of the momentum update with the RMS-scaled step inside.
    """
    for theta, g, v, r in zip(params, grads, state.velocity, state.rms_accum):
        r *= state.alpha
        r += (1.0 - state.alpha) * g * g
        rate = state.eta / (np.sqrt(r) + state.epsilon)
        scaled = rate * g
        v *= state.mu
        v -= scaled
        theta += state.mu * v - scaled
    return params, state


def train(net, X, labels, cfg, opt=None):
    """Mini-batch training; returns the network and the per-epoch mean loss.

    Each epoch applies a seeded shuffle (when enabled), splits into batches
    (the last one may be short), and takes one optimizer step per batch on the
    mean batch gradient.  A batch size beyond the dataset just means one batch
    per epoch.  The run is a pure function of (net, data, cfg, opt) states.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if X.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if np.any(labels < 0) or np.any(labels >= net.output_dim):
        raise ValueError("labels must be valid output class indices")
    if opt is None:
        opt = OptimizerState.for_network(net)
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    params = net.parameters()
    epoch_losses = np.zeros(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        total_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            posteriors, cache = forward_batch(net, X[batch])
            total_loss += mean_nll(posteriors, labels[batch]) * batch.size
            grad_w, grad_b = backward_batch(net, labels[batch], cache)
            grads = []
            for gw, gb in zip(grad_w, grad_b):
                grads.extend((gw, gb))
            optimizer_step(params, grads, opt)
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
