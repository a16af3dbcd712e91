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
from .errors import OsidError, TrainingDivergedError

MLP_MAGIC = b"OSIDMLP1"

LOSS_FLOOR = 1e-30

# Networks per block in pack_networks, and per weight stack of a loaded
# 2-class bank.  On a K = 700 bank of 24-50-50-2 networks, blocks of 8 to 32
# timed alike.
SCORE_BLOCK_NETS = 16

# _softmax takes the peak of outputs up to COLUMN_PEAK_WIDTH wide column by
# column when there are at least COLUMN_PEAK_ROWS rows per output.  One
# np.maximum per column pays a fixed cost of about 1 us, np.max about 0.08 us
# per row: on 5,818 rows of 4 to 16 outputs the columns took 17-147 us
# against np.max's 463-607 us, while at 60 x 16 they were 37% slower and the
# two broke even near 10 rows per output, from 3 to 16 outputs.
COLUMN_PEAK_WIDTH = 16
COLUMN_PEAK_ROWS = 10

# score_packed runs a lone network in runs of frame rows on threads, each
# run through every layer.  A product cut into row runs costs more per row,
# as each run packs every weight matrix again: on one CPU, 2 runs made a
# 24-1200-1200-700 network at 250 frames about 15% slower than uncut.  So
# every run after the first needs FRAME_RUN_FRAMES frames of its own.  A
# run also holds FRAME_RUN_MACS hidden-layer multiply-adds: at 2 x 10^7
# two threads were 14% slower than one, at 10^8 6% faster (24-400-400-200
# and 24-900-900-500 networks at 240 frames, 2 vCPUs).  Those probe shapes
# run in no benchmark workload, where the bound only tells small networks
# (24-32-32-16) from paper-sized ones; any value from about 10^7 to 10^9
# would split them alike.
FRAME_RUN_FRAMES = 240
FRAME_RUN_MACS = 10**8

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
    """One [W; b] array per layer: layers[l] has shape (dims[l] + 1, dims[l+1]).

    Its last row holds the biases, as in a .mlp layer record; weights[l] and
    biases[l] are views of its rows, so updating them updates the layer.
    """

    layers: list

    def __post_init__(self):
        if not self.layers or any(layer.ndim != 2 or not layer.shape[0]
                                  for layer in self.layers):
            raise ValueError("need one or more (inputs + 1) x outputs layer arrays")
        for prev, nxt in zip(self.layers[:-1], self.layers[1:]):
            if prev.shape[1] + 1 != nxt.shape[0]:
                raise ValueError("consecutive layer shapes are inconsistent")
        if not all(np.isfinite(layer).all() for layer in self.layers):
            raise ValueError("weights and biases must be finite")

    @property
    def weights(self):
        return [layer[:-1] for layer in self.layers]

    @property
    def biases(self):
        return [layer[-1] for layer in self.layers]

    @property
    def layer_dims(self):
        return ((self.layers[0].shape[0] - 1,)
                + tuple(layer.shape[1] for layer in self.layers))

    @property
    def output_dim(self):
        return self.layers[-1].shape[1]


def initialize_network(layer_dims, seed=0):
    """Seeded scaled-uniform weight init (+-sqrt(6/(fan_in+fan_out))), zero biases.

    Each layer grows a zero bias row in place, with no second weight copy.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        layers[-1].resize((fan_in + 1, fan_out), refcheck=False)
    return MlpNetwork(layers)


def _softmax(logits, out=None, row=None):
    """Softmax over the last axis, into out (which may be logits itself).

    row, if given, is a logits.shape[:-1] + (1,) array that holds the
    per-row peak and then the per-row total.
    A 2-wide axis takes its peak and sum column by column: np.maximum(l0, l1)
    and e0 + e1 are bit-equal to numpy's reductions over a last axis of 2,
    whose per-row overhead dominates at that width.  Up to COLUMN_PEAK_WIDTH
    outputs, with COLUMN_PEAK_ROWS rows or more per output, the peak is a
    running np.maximum over the columns, which gives np.max's value (a tie
    of 0.0 and -0.0 may keep the other zero, and exp(l - peak) is the same
    for both).
    """
    exp = np.empty_like(logits) if out is None else out
    width = logits.shape[-1]
    if width == 2:
        l0, l1 = logits[..., 0], logits[..., 1]
        slot = None if row is None else row[..., 0]
        peak = np.maximum(l0, l1, out=slot)
        np.subtract(l0, peak, out=exp[..., 0])
        np.subtract(l1, peak, out=exp[..., 1])
        np.exp(exp, out=exp)
        total = np.add(exp[..., 0], exp[..., 1], out=slot)
        exp[..., 0] /= total
        exp[..., 1] /= total
        return exp
    if width <= COLUMN_PEAK_WIDTH and logits.size >= COLUMN_PEAK_ROWS * width**2:
        peak = np.empty(logits.shape[:-1] + (1,)) if row is None else row
        # Transposed, a column is a plain index and the running peak one view.
        top, columns = peak[..., 0].T, logits.T
        np.maximum(columns[0], columns[-1], out=top)
        for column in columns[1:-1]:
            np.maximum(top, column, out=top)
    else:
        peak = np.max(logits, axis=-1, keepdims=True, out=row)
    np.subtract(logits, peak, out=exp)
    np.exp(exp, out=exp)
    return np.divide(exp, np.sum(exp, axis=-1, keepdims=True, out=peak), out=exp)


class _StepWorkspace:
    """Buffers for one training step of up to `rows` rows, allocated once per fit.

    A step of m rows writes into the leading m rows of each buffer: the
    gathered batch and its labels, each layer's output (hidden activations,
    then the logits that become the posteriors), one row scratch for the
    softmax, one ReLU mask of the widest layer, the [dW; db] gradients and
    two optimizer scratch arrays of the largest layer.  It holds no delta
    buffers: backward_batch writes each layer's delta over that layer's
    output, so a step's backward pass consumes its forward cache.
    """

    def __init__(self, net, rows):
        dims = net.layer_dims
        self.batch = np.empty((rows, dims[0]))
        self.labels = np.empty(rows, dtype=np.intp)
        self.outputs = [np.empty((rows, width)) for width in dims[1:]]
        self.row = np.empty((rows, 1))
        self.mask = np.empty(rows * max(dims[1:]), dtype=bool)
        self.grads = [np.empty_like(layer) for layer in net.layers]
        self.scratch = np.empty((2, max(layer.size for layer in net.layers)))


def _view(flat, shape):
    """The leading elements of a flat buffer as a C-contiguous array of shape."""
    return flat[:math.prod(shape)].reshape(shape)


def forward_batch(net, X, workspace=None):
    """Posteriors and cached layer inputs for a batch of row vectors.

    With a _StepWorkspace, each layer writes into the leading rows of its
    output buffer, and the posteriors and cached activations are views of it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"input dimension {X.shape[1]} != network input {net.layer_dims[0]}")
    rows = X.shape[0]
    outputs = ([None] * len(net.layers) if workspace is None
               else [out[:rows] for out in workspace.outputs])
    activations = [X]
    for layer, out in zip(net.layers, outputs):
        z = np.matmul(activations[-1], layer[:-1], out=out)
        z += layer[-1]
        if len(activations) < len(net.layers):  # a hidden layer: ReLU
            activations.append(np.maximum(z, 0.0, out=z))
    posteriors = _softmax(z, out=z, row=None if workspace is None
                          else workspace.row[:rows])
    return posteriors, {"activations": activations, "posteriors": posteriors}


def pack_networks(nets):
    """Per-layer [W; b] stacks for blocks of equal-shape networks.

    Consecutive networks of equal layer_dims are taken in blocks of up to
    SCORE_BLOCK_NETS (a block closes where the shape changes).  A block is a
    tuple over layers of (n, dims[l] + 1, dims[l + 1]) stacks; a one-network
    block is that network's own layers.
    """
    nets = tuple(nets)
    blocks = []
    lo = 0
    while lo < len(nets):
        dims = nets[lo].layer_dims
        hi = lo + 1
        while (hi < min(len(nets), lo + SCORE_BLOCK_NETS)
               and nets[hi].layer_dims == dims):
            hi += 1
        blocks.append(tuple(nets[lo].layers) if hi - lo == 1 else tuple(
            np.stack([net.layers[layer] for net in nets[lo:hi]])
            for layer in range(len(dims) - 1)))
        lo = hi
    return tuple(blocks)


def first_networks(blocks, count):
    """The blocks of the first count networks, as views of the given blocks."""
    out = []
    for block in blocks:
        size = _block_size(block)
        if count > 0:
            out.append(block if size <= count else tuple(s[:count] for s in block))
        count -= size
    return tuple(out)


def _block_size(block):
    """Networks in a block; a one-network block may hold 2-D layers."""
    return len(block[0]) if block[0].ndim == 3 else 1


def score_packed(blocks, X, class_index=None):
    """Frame-averaged floored log posteriors under each network of the blocks.

    Returns a (networks, output_dim) matrix over every class, for networks
    of one output width, or with an integer class_index the (networks,)
    scores of that class.  The frames and each hidden activation carry a
    trailing ones column, so a layer is one product with its [W; b] stack
    (one same-shape GEMM per network) that adds the bias too, and a score
    is bit-equal wherever its network sits.  The two forms average over
    frames in numpy's two reduction orders (pairwise along a contiguous
    column, sequential across the rows of a matrix), so a column of the
    matrix may differ from the class_index result in the last bits.  The
    blocks are scored in contiguous runs (artifact.cpu_runs), each run on a
    thread of its own when there are several, so the scores are bit-equal
    whatever the run count.  A lone network with frames enough
    (_frame_runs) is cut instead into runs of frame rows, each taken
    through every layer on a thread of its own, and every block's hidden
    layers take the frames in chunks within the BLAS's small-matrix limit
    (artifact.frame_chunks); both cuts follow from the shape and the frame
    count alone, so the scores are bit-equal whatever the CPU count too.
    """
    X = np.atleast_2d(np.asarray(getattr(X, "vectors", X), dtype=np.float64))
    frames = X.shape[0]
    if frames < 1:
        raise ValueError("feature set must contain at least one frame")
    if not blocks:
        raise ValueError("need at least one network")
    inputs = np.ones((frames, X.shape[1] + 1))
    inputs[:, :-1] = X
    frame_runs = _frame_runs(blocks, frames)
    counts = [_block_size(block) for block in blocks]
    out = np.empty((sum(counts),) if class_index is not None
                   else (sum(counts), blocks[0][-1].shape[-1]))
    # Each run's activation buffers and share of the scores are allocated
    # here: allocated on the workers, they come from fresh per-thread malloc
    # arenas.
    jobs = [(run, np.empty((2, max(_activation_size(block, frames) for block in run))),
             out[networks]) for run, networks in artifact.cpu_runs(blocks, _block_size)]
    artifact.thread_map(lambda job: _score_run(inputs, class_index, frame_runs, *job),
                        jobs, len(jobs))
    return out


def _frame_runs(blocks, frames):
    """Runs of frame rows that a lone network is cut into.

    The largest power of two, for 2 and 4 CPUs alike, of at most one run
    per FRAME_RUN_FRAMES frames beyond the first and per FRAME_RUN_MACS
    multiply-adds of the hidden layers; 1 for several blocks, a block of
    several networks or under FRAME_RUN_FRAMES frames, checked first.  The
    count follows from the network's shape and the frame count alone:
    products cut elsewhere may go through other BLAS kernels and round
    differently.
    """
    if frames < FRAME_RUN_FRAMES or len(blocks) != 1 or blocks[0][0].ndim != 2:
        return 1
    runs = min(1 + frames // FRAME_RUN_FRAMES,
               frames * sum(layer.size for layer in blocks[0][:-1]) // FRAME_RUN_MACS)
    return 1 << max(runs.bit_length() - 1, 0)


def _activation_size(block, frames):
    """Elements of the widest activation of a block, ones column included."""
    return _block_size(block) * frames * (max(layer.shape[-1] for layer in block) + 1)


def _score_run(inputs, class_index, frame_runs, blocks, buffers, out):
    """Into out, the scores of a run of blocks (see score_packed).

    The activations ping-pong between the two rows of buffers, each as wide
    as the widest activation of the run.  Two buffers shared by all blocks:
    activations allocated per block go back to the OS and fault in again
    every block until the process has freed a larger chunk (about 57,000
    minor faults per K = 700, 400-frame call in a new process).  A block's
    hidden layers take the frames in chunks (artifact.frame_chunks) whose
    products stay on the BLAS's small-matrix kernel.  A lone block cut into
    frame_runs runs of rows takes each run through every layer, on as many
    threads as artifact.cpu_threads allows (_forward); the frame average
    sees all the frames.
    """
    frames = inputs.shape[0]
    logged = class_index is None
    lo = 0
    for block in blocks:
        if frame_runs > 1:
            posteriors = artifact.thread_map(
                lambda run: _forward(block, inputs, buffers, logged, run),
                artifact.frame_slices(frames, frame_runs),
                min(frame_runs, artifact.cpu_threads()))[0]
        else:
            posteriors = _forward(block, inputs, buffers, logged, slice(0, frames))
        if not logged:
            picked = np.maximum(posteriors[..., class_index], LOSS_FLOOR)
            posteriors = np.log(picked, out=picked)
        count = _block_size(block)
        out[lo:lo + count] = np.mean(posteriors, axis=-2 if logged else -1)
        lo += count


def _forward(block, inputs, buffers, logged, run):
    """The posteriors of a block for every frame, in the buffers, floored
    at LOSS_FLOOR and logged too if logged; this call computes the frame
    rows of the slice run only: each hidden layer in chunks
    (artifact.frame_chunks), one product per chunk, and the output layer
    in one product, then the softmax, floor and log in place.

    Activations are (networks, frames, width + 1), or (frames, width + 1)
    for 2-D layers; ReLU keeps the ones column at 1.  Layer d writes into
    buffers[d % 2].  A run of some of the frames lays every layer's rows
    out at one stride, the widest layer's plus one, the output layer
    included, so that at any depth it writes only buffer elements that no
    other run reads; a run of all of them lays each layer out compactly.
    """
    if inputs.shape[1] != block[0].shape[-2]:
        raise ValueError(f"input dimension {inputs.shape[1] - 1} != network "
                         f"input {block[0].shape[-2] - 1}")
    lead, frames = block[0].shape[:-2], inputs.shape[0]
    chunks = artifact.frame_chunks(run.stop - run.start, block[:-1], run.start)
    stride = (max(layer.shape[-1] for layer in block) + 1
              if run.stop - run.start < frames else None)
    a = inputs
    for depth, layer in enumerate(block):
        hidden = depth < len(block) - 1
        width = layer.shape[-1]
        columns = width + 1 if hidden else width
        shape = lead + (frames, stride or columns)
        full = out = buffers[depth % 2, :math.prod(shape)].reshape(shape)
        if stride or (hidden and len(chunks) > 1):
            full = full[..., :columns]
            for rows in chunks if hidden else [run]:
                np.matmul(a[..., rows, :], layer, out=full[..., rows, :width])
            out = full[..., run, :]
        else:  # every frame in one product
            np.matmul(a, layer, out=out[..., :width])
        if hidden:
            out[..., width] = 1.0
            np.maximum(out, 0.0, out=out)
        a = full
    _softmax(out, out=out)
    if logged:
        np.maximum(out, LOSS_FLOOR, out=out)
        np.log(out, out=out)
    return a


def mean_nll(posteriors, labels):
    """Mean negative log posterior over a batch."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    picked = np.maximum(posteriors[np.arange(len(labels)), labels], LOSS_FLOOR)
    return float(np.mean(-np.log(picked)))


def backward_batch(net, labels, cache, workspace=None):
    """Mean gradients of the batch NLL, one [dW; db] array per layer.

    The softmax and the loss differentiate jointly to (posterior - one_hot)
    at the output layer, so no separate loss gradient is needed.  With a
    _StepWorkspace, the ReLU masks and gradients are its buffers, and the
    deltas overwrite the cache: the output delta the posteriors, each
    hidden delta that layer's activations once its ReLU mask is taken, so
    the cache is consumed.  Without one, the cache is left as it was.
    """
    labels = np.asarray(labels, dtype=np.intp)
    activations = cache["activations"]
    posteriors = cache["posteriors"]
    batch = posteriors.shape[0]
    if workspace is None:
        grads = [np.empty_like(layer) for layer in net.layers]
        delta = posteriors.copy()
    else:
        grads = workspace.grads
        delta = posteriors
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    for layer in range(len(net.layers) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=grads[layer][:-1])
        np.sum(delta, axis=0, out=grads[layer][-1])
        if layer > 0:
            hidden = activations[layer]
            if workspace is None:
                below = None
                mask = np.greater(hidden, 0.0)
            else:
                below = hidden
                mask = np.greater(hidden, 0.0, out=_view(workspace.mask, hidden.shape))
            delta = np.matmul(delta, net.layers[layer][:-1].T, out=below)
            np.multiply(delta, mask, out=delta)
    return grads


def optimizer_step(params, grads, velocity, rms_accum, cfg, workspace=None):
    """One momentum + RMS-scaled update, in place.

    Per parameter with gradient g, where eta, mu, alpha and epsilon are
    cfg.learning_rate, cfg.momentum, cfg.rms_decay and cfg.rms_epsilon:
        r <- alpha*r + (1-alpha)*g^2
        rate = eta / (sqrt(r) + epsilon)
        v <- mu*v - rate*g
        theta <- theta + mu*v - rate*g
    the look-ahead form of the momentum update with the RMS-scaled step
    inside.  A _StepWorkspace's scratch arrays hold the temporaries.
    """
    for theta, g, v, r in zip(params, grads, velocity, rms_accum):
        if workspace is None:
            square = step = None
        else:
            square, step = (_view(flat, theta.shape) for flat in workspace.scratch)
        r *= cfg.rms_decay
        square = np.multiply(g, 1.0 - cfg.rms_decay, out=square)
        square *= g
        r += square
        scaled = np.sqrt(r, out=step)
        scaled += cfg.rms_epsilon
        np.divide(cfg.learning_rate, scaled, out=scaled)
        scaled *= g
        v *= cfg.momentum
        v -= scaled
        step = np.multiply(v, cfg.momentum, out=square)
        step -= scaled
        theta += step


def train(net, X, labels, cfg):
    """Mini-batch training; returns the network and the per-epoch mean loss.

    Each epoch applies a seeded shuffle, splits into batches (the last one
    may be short), and takes one optimizer step per batch on the mean batch
    gradient, from zeroed momentum and RMS buffers.  A batch size beyond the
    dataset just means one batch per epoch.  Every step runs in one
    _StepWorkspace of min(batch_size, frames) rows, allocated before the
    first epoch.  The run is a pure function of (net, data, cfg).  Frames
    and labels that do not fit the network, or non-finite frames, raise
    ValueError before the workspace is allocated; a non-finite epoch loss,
    or non-finite parameters after the last step, raise
    TrainingDivergedError.  The steps call forward_batch, mean_nll,
    backward_batch and optimizer_step by their names in this module, so a
    caller that replaces them (a tracer) sees every step.
    """
    return _train(net, X, labels, cfg,
                  (forward_batch, mean_nll, backward_batch, optimizer_step))


def train_side_by_side(jobs, threads):
    """train(*job) for each (net, X, labels, cfg) job, on up to `threads`
    threads (artifact.thread_map: the calling thread takes the first job).

    Returns, in job order, each job's (network, epoch losses) or the
    OsidError or ValueError that its fit raised.  The fits call the step
    functions as defined here, not through the module's names, so that no
    pool worker calls a public function of the module, as in score_packed.
    """
    def fit(job):
        try:
            return _train(*job, _STEPS)
        except (OsidError, ValueError) as exc:
            return exc
    return artifact.thread_map(fit, jobs, threads)


_STEPS = (forward_batch, mean_nll, backward_batch, optimizer_step)


def _train(net, X, labels, cfg, steps):
    """train, with steps = (forward_batch, mean_nll, backward_batch,
    optimizer_step) as the functions that each step calls."""
    forward, loss, backward, update = steps
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[1] != net.layer_dims[0]:
        raise ValueError(f"training frames must be an n x {net.layer_dims[0]} "
                         f"array, got shape {X.shape}")
    n = X.shape[0]
    if n == 0:
        raise ValueError("training set must be non-empty")
    if labels.shape != (n,):
        raise ValueError(f"need one label per frame: labels of shape "
                         f"{labels.shape} for {n} frames")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= net.output_dim:
        raise ValueError("labels must be valid output class indices")
    labels = labels.astype(np.intp, copy=False)
    bad = n - np.count_nonzero(np.isfinite(X).all(axis=1))
    if bad:
        raise ValueError(f"{bad} of {n} training frames are non-finite")
    rng = np.random.default_rng(cfg.seed)
    workspace = _StepWorkspace(net, min(cfg.batch_size, n))
    velocity = [np.zeros_like(layer) for layer in net.layers]
    rms_accum = [np.zeros_like(layer) for layer in net.layers]
    epoch_losses = np.zeros(cfg.epochs)
    # A diverging run overflows; the checks below report it as one error.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                rows = batch.size
                # mode="clip" writes straight into out; "raise" buffers.
                batch_X = np.take(X, batch, axis=0, out=workspace.batch[:rows],
                                  mode="clip")
                batch_labels = np.take(labels, batch, out=workspace.labels[:rows],
                                       mode="clip")
                posteriors, cache = forward(net, batch_X, workspace)
                total_loss += loss(posteriors, batch_labels) * rows
                update(net.layers, backward(net, batch_labels, cache, workspace),
                       velocity, rms_accum, cfg, workspace)
            epoch_losses[epoch] = total_loss / n
            if not np.isfinite(epoch_losses[epoch]):
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch + 1}: loss {epoch_losses[epoch]}")
    if not all(np.isfinite(layer).all() for layer in net.layers):
        raise TrainingDivergedError(
            f"training diverged in epoch {cfg.epochs}: non-finite parameters")
    return net, epoch_losses


def save_mlp(path, *nets):
    """Serialize to the binary model format, one record per network (a bank
    file holds many); round-trips are bit-exact."""
    artifact.write_binary(path, MLP_MAGIC, (
        ((len(net.layer_dims), *net.layer_dims), net.layers) for net in nets))


def read_mlp(reader, slots=None):
    """The network of the next record of an artifact.BinaryReader; slots(dims),
    if given, returns the arrays that its layers are read into, one per layer."""
    (num_layers,) = reader.ints(1)
    dims = reader.ints(num_layers)
    shapes = [(fan_in + 1, fan_out) for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    reader.expect(8 * sum(math.prod(shape) for shape in shapes))
    targets = slots(dims) if slots else [None] * len(shapes)
    return MlpNetwork([reader.floats(*shape, out=target)
                       for shape, target in zip(shapes, targets)])


def load_mlp(path):
    with artifact.BinaryReader(path, MLP_MAGIC) as r:
        return read_mlp(r)


def read_networks(reader, count, outputs):
    """count networks from the next records of an artifact.BinaryReader, and
    the blocks pack_networks would build; a network of other than `outputs`
    outputs is a corrupt record.

    Each block's per-layer stacks are allocated once and every record's
    layers are read straight into its slot, so the networks' layers are
    views of the stacks, the only copy of the weights.  A block that closes
    early, where the network shape changes, is cut to the networks read.
    """
    nets, blocks = [], []  # blocks: [dims, stacks, networks read]

    def slots(dims):
        if dims[-1] != outputs:
            raise reader.error(f"{dims[-1]} outputs, expected {outputs}")
        if not blocks or blocks[-1][0] != dims or blocks[-1][2] == SCORE_BLOCK_NETS:
            size = min(SCORE_BLOCK_NETS, count - len(nets))
            blocks.append([dims, [np.empty((size, fan_in + 1, fan_out))
                                  for fan_in, fan_out in zip(dims[:-1], dims[1:])], 0])
        _, stacks, read = blocks[-1]
        blocks[-1][2] += 1
        return [stack[read] for stack in stacks]

    nets.extend(read_mlp(reader, slots) for _ in reader.records(count))
    return nets, tuple(tuple(stack[:read] for stack in stacks)
                       for _, stacks, read in blocks)
