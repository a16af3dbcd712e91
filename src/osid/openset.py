"""The three open-set identification architectures.

Each system scores an utterance's feature set against every enrolled model
(gmm_scores, subnn_scores, multiclass_scores), and one rule, decide, makes
the open-set decision: a closed-set step picks the best-scoring model, and a
verification step thresholds its score to accept the identity or reject the
utterance as coming from an unknown speaker.

  * Likelihood-ratio system: per-speaker diagonal GMMs scored against a large
    background GMM; the operating score is the mean log-likelihood gap.
  * Per-speaker 2-class networks: one small network per speaker, trained
    against negatives sampled from the background GMM; the score is the
    utterance-averaged posterior of the best network.
  * Multi-class network: a single wide network over all enrolled speakers;
    the score is its largest utterance-averaged class posterior.
"""

import functools
import os
from dataclasses import InitVar, dataclass, replace

import numpy as np

from . import artifact
from . import gmm as gmm_mod
from . import mlp as mlp_mod
from .errors import BankConfigError, CorruptArtifactError, EnrollmentError

TARGET_CLASS = 1  # output index of the speaker class in a 2-class network

BANK_MANIFEST = "manifest.csv"
UBM_FILE = "ubm.gmm"
MULTICLASS_FILE = "multiclass.mlp"
SPEAKERS_FILE = "speakers.csv"
BANK_COLUMNS = ("speaker_id", "model_file")


@dataclass
class EvalCounter:
    """Counts per-trial model evaluations, for complexity auditing."""

    model_evaluations: int = 0

    def bump(self, n=1):
        self.model_evaluations += n


@dataclass(frozen=True)
class SpeakerBank:
    """Ordered enrolled speaker models with stable ids.

    models holds DiagGmm instances for the likelihood-ratio system or
    MlpNetwork instances for the 2-class system.  The background model is
    required for GMM scoring and for sampling 2-class negatives.  A bank
    packs its models on its first score and keeps the packing: a GMM bank
    its scoring rows (gmm_rows), a 2-class bank its per-layer [W; b] stacks
    (net_blocks).  blocks, if given, are that packing already: load_bank
    passes the stacks it read the network files into, with the networks as
    views of them, and prefix slices of its parent's rows or stacks.  The
    scoring kernels spread a bank of many blocks over the CPUs that the
    process may run on and its BLAS leaves free (artifact.cpu_runs), with
    scores bit-equal whatever their count.  A bank of one block, as the
    background model, scores on the calling thread.
    """

    speaker_ids: tuple
    models: tuple
    ubm: object = None
    blocks: InitVar[tuple] = None

    def __post_init__(self, blocks):
        ids = tuple(self.speaker_ids)
        models = tuple(self.models)
        if not ids or len(ids) != len(models):
            raise ValueError("need one model per speaker id, at least one speaker")
        if len(set(ids)) != len(ids):
            raise ValueError("speaker ids must be unique")
        object.__setattr__(self, "speaker_ids", ids)
        object.__setattr__(self, "models", models)
        if blocks is not None:
            object.__setattr__(self, "gmm_rows" if isinstance(
                models[0], gmm_mod.DiagGmm) else "net_blocks", blocks)

    def __len__(self):
        return len(self.speaker_ids)

    @functools.cached_property
    def gmm_rows(self):
        return gmm_mod.pack_models(self.models)

    @functools.cached_property
    def net_blocks(self):
        return mlp_mod.pack_networks(self.models)

    @functools.cached_property
    def ubm_rows(self):
        if self.ubm is None:
            raise BankConfigError("GMM verification requires a background model")
        return gmm_mod.pack_models((self.ubm,))

    def prefix(self, count):
        """Bank restricted to the first count speakers (nested enrollment)."""
        if not 1 <= count <= len(self):
            raise ValueError(f"prefix size {count} out of range")
        packed = vars(self)
        if "gmm_rows" in packed:
            blocks = gmm_mod.first_models(self.gmm_rows, count)
        elif "net_blocks" in packed:
            blocks = mlp_mod.first_networks(self.net_blocks, count)
        else:
            blocks = None
        return SpeakerBank(speaker_ids=self.speaker_ids[:count],
                           models=self.models[:count], ubm=self.ubm, blocks=blocks)


@dataclass(frozen=True)
class OpenSetDecision:
    best_index: int
    score: float
    accepted: bool


def decide(scores, theta, offset=0.0):
    """The open-set rule of every architecture, over one score per model.

    Picks the first highest score, so ties go to the lowest index; its
    operating score is scores[best] - offset, accepted when it reaches theta.
    offset is the background log-likelihood for GMM scores and 0 otherwise.
    """
    best = int(np.argmax(scores))
    score = float(scores[best] - offset)
    return OpenSetDecision(best_index=best, score=score, accepted=bool(score >= theta))


def gmm_scores(bank, X):
    """Mean log-likelihood of every enrolled GMM, and of the background model.

    Returns (scores, ubm_ll); decide(scores, theta, ubm_ll) is the trial.
    On a bank of more than one block, a model whose bounds show that an
    earlier model scores higher scores -inf (gmm.score_packed), so
    decide(scores[:n], ...) is exact for every prefix size n, and a
    prefix of more than one block scores as scores[:n].
    """
    return (gmm_mod.score_packed(bank.gmm_rows, X),
            gmm_mod.score_packed(bank.ubm_rows, X)[0])


def gmm_closed_set(bank, X, counter=None):
    """Pick the enrolled GMM with the highest mean log-likelihood.

    Returns (best index, that model's score), both exact, though models
    that cannot win skip the exponentials (gmm_scores).  Ties break toward
    the lowest enrolled index.  Every model's densities are computed, so
    the counter counts every enrolled model.
    """
    scores = gmm_mod.score_packed(bank.gmm_rows, X)
    if counter is not None:
        counter.bump(len(bank))
    decision = decide(scores, -np.inf)
    return decision.best_index, decision.score


def gmm_verify(bank, X, best_index, best_score, theta, counter=None):
    """Accept or reject via the background-normalized likelihood gap."""
    ubm_ll = gmm_mod.score_packed(bank.ubm_rows, X)[0]
    if counter is not None:
        counter.bump()
    # The closed-set step already picked the model; decide thresholds its gap.
    return replace(decide((best_score,), theta, ubm_ll), best_index=best_index)


def train_subnn_bank(speaker_ids, speaker_features, ubm,
                     cfg=mlp_mod.TrainConfig(mlp_mod.SUBNN_EPOCHS,
                                             mlp_mod.SUBNN_BATCH_SIZE),
                     neg_ratio=1.0, hidden_dims=mlp_mod.SUBNN_HIDDEN, threads=1):
    """Train one 2-class network per enrolled speaker.

    The positive class is the speaker's own frames; the negative class is
    synthesized by sampling the background GMM, neg_ratio negatives per
    positive frame.  Network k draws its negatives, initial weights and batch
    order from seed cfg.seed + k, so banks are exactly reproducible.  Bank
    order follows the input order.
    """
    speaker_ids = list(speaker_ids)
    feature_list = list(speaker_features)
    if len(speaker_ids) != len(feature_list):
        raise ValueError("need one feature set per speaker id")
    matrices = []
    for spk, feats in zip(speaker_ids, feature_list):
        vectors = np.asarray(getattr(feats, "vectors", feats), dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise EnrollmentError(f"speaker {spk!r} has no training frames")
        matrices.append(vectors)

    def fit_one(k):
        positives = matrices[k]
        spk_cfg = replace(cfg, seed=cfg.seed + k)
        n_neg = max(int(round(neg_ratio * positives.shape[0])), 1)
        negatives = gmm_mod.sample(ubm, n_neg, seed=spk_cfg.seed)
        X = np.vstack([positives, negatives])
        labels = np.concatenate([
            np.full(positives.shape[0], TARGET_CLASS, dtype=np.intp),
            np.zeros(n_neg, dtype=np.intp),
        ])
        dims = (positives.shape[1], *hidden_dims, 2)
        net = mlp_mod.initialize_network(dims, seed=spk_cfg.seed)
        return mlp_mod.train(net, X, labels, spk_cfg)[0]

    models = artifact.thread_map(fit_one, range(len(speaker_ids)), threads)
    return SpeakerBank(speaker_ids=tuple(speaker_ids), models=tuple(models), ubm=ubm)


def subnn_scores(bank, X):
    """Per-network utterance score of a 2-class bank, in bank order.

    Each score is exp of the utterance-averaged log posterior of the speaker
    class, so it lives in [0, 1].
    """
    return np.exp(mlp_mod.score_packed(bank.net_blocks, X, TARGET_CLASS))


def subnn_open_set(bank, X, theta, counter=None):
    """Score all 2-class networks, threshold the best utterance posterior."""
    scores = subnn_scores(bank, X)
    if counter is not None:
        counter.bump(len(bank))
    return decide(scores, theta)


def multiclass_scores(net, X):
    """Per-class utterance score of a multi-class network, from one forward pass.

    Each score is exp of the frame-averaged floored log posterior, through
    the same kernel as the 2-class scores.  With frames enough
    (mlp.FRAME_RUN_FRAMES, mlp.FRAME_RUN_MACS), as at the paper's
    24-1200-1200-K shape, the network runs in runs of frame rows, each
    through every layer, on the CPUs the BLAS leaves free; the runs follow
    from the network's shape and the frame count, so the scores are
    bit-equal whatever the CPU count.
    """
    return np.exp(mlp_mod.score_packed((tuple(net.layers),), X)[0])


def multiclass_open_set(net, speaker_ids, X, theta, counter=None):
    """One network evaluation covers all enrolled speakers; threshold the best."""
    speaker_ids = tuple(speaker_ids)
    if net.output_dim != len(speaker_ids):
        raise BankConfigError(
            f"network has {net.output_dim} outputs for {len(speaker_ids)} speakers")
    scores = multiclass_scores(net, X)
    if counter is not None:
        counter.bump()
    return decide(scores, theta)


def save_bank(directory, bank, kind):
    """Persist a bank directory: model files plus an ordered manifest.

    kind is "gmm" or "mlp" and selects the model file format; a GMM bank
    also stores its background model alongside the speakers.  Model files
    are named by bank position (000017.gmm), never by speaker id; the
    manifest maps each id to its file and, written last, commits the bank.
    """
    _check_kind(kind)
    if kind == "gmm" and bank.ubm is None:
        raise BankConfigError("a GMM bank must include its background model")
    manifest = artifact.uncommit(directory, BANK_MANIFEST)
    save, suffix = ((gmm_mod.save_gmm, ".gmm") if kind == "gmm"
                    else (mlp_mod.save_mlp, ".mlp"))
    rows = [(spk, f"{k:06d}{suffix}") for k, spk in enumerate(bank.speaker_ids)]
    for (_, filename), model in zip(rows, bank.models):
        save(os.path.join(directory, filename), model)
    if kind == "gmm":
        gmm_mod.save_gmm(os.path.join(directory, UBM_FILE), bank.ubm)
    artifact.write_table(manifest, BANK_COLUMNS, rows)


def load_bank(directory, kind):
    """Read a bank saved by save_bank with the same kind.

    A 2-class bank is read straight into its scoring blocks
    (mlp.load_networks), so the blocks are the only copy of the weights; a
    network with other than 2 outputs raises CorruptArtifactError.
    """
    _check_kind(kind)
    rows = artifact.read_table(artifact.committed(directory, BANK_MANIFEST),
                               BANK_COLUMNS)
    paths = [os.path.join(directory, row["model_file"]) for row in rows]
    ubm = blocks = None
    if kind == "gmm":
        models = [gmm_mod.load_gmm(path) for path in paths]
        ubm = gmm_mod.load_gmm(os.path.join(directory, UBM_FILE))
    else:
        models, blocks = mlp_mod.load_networks(paths)
        for path, net in zip(paths, models):
            if net.output_dim != 2:
                raise CorruptArtifactError(
                    f"{path}: {net.output_dim} outputs, a 2-class network has 2")
    return SpeakerBank(speaker_ids=tuple(row["speaker_id"] for row in rows),
                       models=tuple(models), ubm=ubm, blocks=blocks)


def _check_kind(kind):
    if kind not in ("gmm", "mlp"):
        raise ValueError(f"unknown bank kind {kind!r}: expected 'gmm' or 'mlp'")


def read_speaker_ids(directory):
    """Speaker order of a saved multi-class directory; opens no model file."""
    path = artifact.committed(directory, SPEAKERS_FILE)
    return tuple(row["speaker_id"]
                 for row in artifact.read_table(path, ("speaker_id",)))


def save_multiclass(directory, net, speaker_ids):
    """Persist the network, then speakers.csv, which commits the save."""
    speakers = artifact.uncommit(directory, SPEAKERS_FILE)
    mlp_mod.save_mlp(os.path.join(directory, MULTICLASS_FILE), net)
    artifact.write_table(speakers, ("speaker_id",), ((spk,) for spk in speaker_ids))


def load_multiclass(directory):
    speaker_ids = read_speaker_ids(directory)
    net = mlp_mod.load_mlp(os.path.join(directory, MULTICLASS_FILE))
    if net.output_dim != len(speaker_ids):
        raise CorruptArtifactError(f"{directory}: network has {net.output_dim} "
                                   f"outputs for {len(speaker_ids)} speakers")
    return net, speaker_ids
