"""Command-line pipeline: extract, train-ubm, train, evaluate, report.

Each command is independently runnable so long pipelines can resume, and
every run that returns writes a metadata file (config snapshot, seed, tool
version, exit code, wall-clock) sufficient to reproduce it.  Only extract
reads the manifest and splits utterances into train and test; later stages
read both from the feature index it writes.  Runs are deterministic given
the seed: repeating a pipeline yields byte-identical model files and reports.

Configuration is a flat ``key = value`` file with ``#`` comments; every key
can be overridden by a command-line flag of the same name.
"""

import argparse
import functools
import os
import re
import sys
import time
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from . import artifact
from . import dataset as dataset_mod
from . import features as features_mod
from . import gmm as gmm_mod
from . import metrics as metrics_mod
from . import mlp as mlp_mod
from . import openset as openset_mod
from .errors import (DegenerateScoreError, DegenerateSplitError, OsidError,
                     TrainingDivergedError)

ARCHITECTURES = ("gmm", "subnn", "multiclass")

FEATURES_DIR = "features"
FEATURE_INDEX = "index.csv"
INDEX_COLUMNS = ("speaker_id", "utterance_id", "cache_file", "status", "side")


@dataclass(frozen=True)
class RunConfig:
    manifest_path: str = ""
    partition_path: str = ""
    output_dir: str = "out"
    architecture: str = "gmm"
    seed: int = 0
    threads: int = 1
    sample_rate: int = 16000
    # front-end
    pre_emphasis_mu: float = features_mod.FeatureConfig.pre_emphasis_mu
    window_ms: float = features_mod.FeatureConfig.window_ms
    overlap_fraction: float = features_mod.FeatureConfig.overlap_fraction
    num_mel_filters: int = features_mod.FeatureConfig.num_mel_filters
    num_ceps: int = features_mod.FeatureConfig.num_ceps
    vad_threshold_db: float = features_mod.FeatureConfig.vad_threshold_db
    # mixture models
    speaker_gmm_components: int = 64
    ubm_components: int = 1024
    em_max_iterations: int = gmm_mod.EmConfig.max_iterations
    em_rel_tol: float = gmm_mod.EmConfig.rel_tol
    variance_floor: float = gmm_mod.EmConfig.variance_floor
    kmeans_iterations: int = gmm_mod.EmConfig.kmeans_iterations
    # network training
    learning_rate: float = mlp_mod.TrainConfig.learning_rate
    momentum: float = mlp_mod.TrainConfig.momentum
    rms_decay: float = mlp_mod.TrainConfig.rms_decay
    rms_epsilon: float = mlp_mod.TrainConfig.rms_epsilon
    subnn_hidden: tuple = mlp_mod.SUBNN_HIDDEN
    subnn_epochs: int = mlp_mod.SUBNN_EPOCHS
    subnn_batch_size: int = mlp_mod.SUBNN_BATCH_SIZE
    multiclass_hidden: tuple = mlp_mod.MULTICLASS_HIDDEN
    multiclass_epochs: int = mlp_mod.MULTICLASS_EPOCHS
    multiclass_batch_size: int = mlp_mod.MULTICLASS_BATCH_SIZE
    neg_ratio: float = 1.0
    # experiment design
    train_fraction: float = 0.7
    population_sizes: tuple = (100, 300, 500, 700)

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        sizes = self.population_sizes
        if not sizes or min(sizes) < 1 or len(set(sizes)) != len(sizes):
            raise ValueError(
                "population_sizes must be one or more distinct sizes >= 1")
        for name in ("threads", "speaker_gmm_components", "ubm_components",
                     "em_max_iterations", "kmeans_iterations", "subnn_epochs",
                     "multiclass_epochs", "subnn_batch_size", "multiclass_batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("subnn_hidden", "multiclass_hidden"):
            widths = getattr(self, name)
            if min(widths, default=1) < 1:
                raise ValueError(f"{name} widths must be at least 1, got "
                                 f"{','.join(map(str, widths))}")
        for name in ("em_rel_tol", "variance_floor", "neg_ratio"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1, "
                             f"got {self.train_fraction}")

    def feature_config(self):
        return features_mod.FeatureConfig(**{
            f.name: getattr(self, f.name) for f in fields(features_mod.FeatureConfig)})

    def em_config(self, seed):
        return gmm_mod.EmConfig(
            max_iterations=self.em_max_iterations, rel_tol=self.em_rel_tol,
            variance_floor=self.variance_floor,
            kmeans_iterations=self.kmeans_iterations, seed=seed)

    def train_config(self, epochs, batch_size, seed):
        return mlp_mod.TrainConfig(
            epochs=epochs, batch_size=batch_size, seed=seed,
            learning_rate=self.learning_rate, momentum=self.momentum,
            rms_decay=self.rms_decay, rms_epsilon=self.rms_epsilon)


def _parse_value(raw, kind):
    raw = raw.strip()
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is tuple:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return raw


def _kinds():
    """Each RunConfig key's value type, read off one RunConfig of defaults."""
    defaults = RunConfig()
    return {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}


def load_config(path):
    """Parse a flat key = value config file into a RunConfig."""
    kinds = _kinds()
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(raw, kinds[key])
    return replace(RunConfig(), **values)


def _config_lines(cfg):
    for fld in fields(RunConfig):
        value = getattr(cfg, fld.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        yield f"{fld.name} = {value}\n"


def _write_metadata(cfg, command, code, elapsed):
    path = os.path.join(cfg.output_dir, f"meta_{command}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"tool_version = {__version__}\n")
        f.write(f"command = {command}\n")
        f.write(f"exit_code = {code}\n")
        f.write(f"wall_clock_s = {elapsed:.3f}\n")
        f.writelines(_config_lines(cfg))


def _speaker_seed(base_seed, speaker_id):
    """Stable per-speaker seed; independent of process hash randomization."""
    return base_seed + zlib.crc32(speaker_id.encode("utf-8"))


def cmd_extract(cfg):
    """Extract features for every manifest entry into per-utterance caches.

    Failures (unreadable audio, wrong format, no speech) are recorded in the
    index and the run continues; the exit code reflects whether any occurred.
    """
    manifest = dataset_mod.read_manifest(cfg.manifest_path)
    feat_cfg = cfg.feature_config()
    out_dir = os.path.join(cfg.output_dir, FEATURES_DIR)

    def split(utterances):
        # (ordinals per speaker, side per ordinal) of (speaker, ordinal) pairs:
        # each speaker's split once in the order given with the speaker's own
        # seed, a lone utterance going to train.
        per_speaker, sides = {}, {}
        for spk, ordinal in utterances:
            per_speaker.setdefault(spk, []).append(ordinal)
        for spk, ordinals in per_speaker.items():
            try:
                train, test = ((ordinals, []) if len(ordinals) == 1 else
                               dataset_mod.split_utterances(ordinals, cfg.train_fraction,
                                                            _speaker_seed(cfg.seed, spk)))
            except DegenerateSplitError as exc:
                raise DegenerateSplitError(f"speaker {spk!r}: {exc}") from None
            sides |= dict.fromkeys(train, "train") | dict.fromkeys(test, "test")
        return per_speaker, sides

    # A fraction that empties a side of a manifest speaker stops here, before
    # any audio is read and with the previous index still committed.
    os.makedirs(out_dir, exist_ok=True)
    split((e.speaker_id, k) for k, e in enumerate(manifest.entries))
    # The index commits the caches: it goes before any is overwritten.
    index_path = artifact.uncommit(out_dir, FEATURE_INDEX)

    def extract_one(ordinal):
        # Named by manifest position, as ids may hold any character.
        entry = manifest.entries[ordinal]
        cache = f"{ordinal:06d}.feat"
        try:
            clip = dataset_mod.load_wav(entry.path, speaker_id=entry.speaker_id,
                                        utterance_id=entry.utterance_id)
            if clip.sample_rate != cfg.sample_rate:
                raise OsidError(
                    f"sample rate {clip.sample_rate} != configured {cfg.sample_rate}")
            feats = features_mod.extract_features(clip, feat_cfg)
        except (OsidError, OSError) as exc:
            status = ("no_speech" if exc.__class__.__name__ == "NoSpeechError"
                      else f"error:{exc.__class__.__name__}")
            return (entry.speaker_id, entry.utterance_id, "", status, str(exc))
        features_mod.save_features(os.path.join(out_dir, cache), feats)
        return (entry.speaker_id, entry.utterance_id, cache, "ok", "")

    rows = artifact.thread_map(extract_one, range(len(manifest.entries)),
                               cfg.threads)
    failed = [row for row in rows if row[3] != "ok"]
    for spk, utt, _, status, message in failed:
        print(f"extract: {spk}/{utt}: {status} {message}", file=sys.stderr)
    # The ok rows alone, as a failed row may empty a side; later stages read
    # each utterance's side from the index.
    per_speaker, sides = split((r[0], k) for k, r in enumerate(rows) if r[3] == "ok")
    artifact.write_table(index_path, INDEX_COLUMNS,
                         (row[:4] + (sides.get(i, ""),) for i, row in enumerate(rows)))
    print(f"extract: {len(rows) - len(failed)} ok, {len(failed)} failed")
    lone = sum(len(ordinals) == 1 for ordinals in per_speaker.values())
    tests = list(sides.values()).count("test")
    print(f"extract: split {len(per_speaker)} speakers into {len(sides) - tests} train "
          f"and {tests} test utterances; {lone} with one utterance have no test side")
    return 1 if failed else 0


def _speaker_utterances(cfg, speaker_ids, side):
    """Each speaker's (utterance_id, FeatureSet) pairs on one side, "train" or
    "test", of the split that extract wrote into the feature index; only that
    side's caches are read, in the index's manifest order."""
    out_dir = os.path.join(cfg.output_dir, FEATURES_DIR)
    per_speaker = {spk: [] for spk in speaker_ids}
    for row in artifact.read_table(artifact.committed(out_dir, FEATURE_INDEX),
                                   INDEX_COLUMNS):
        if row["side"] == side and row["speaker_id"] in per_speaker:
            feats = features_mod.load_features(os.path.join(out_dir, row["cache_file"]))
            per_speaker[row["speaker_id"]].append((row["utterance_id"], feats))
    return per_speaker


def _training_matrix(utterances):
    return np.vstack([feats.vectors for _, feats in utterances])


def cmd_train_ubm(cfg):
    """Fit the background GMM on the training utterances of UBM-role speakers."""
    em_cfg = cfg.em_config(cfg.seed)
    partition = dataset_mod.read_partition(cfg.partition_path)
    speakers = sorted(partition.ubm_speakers)
    if not speakers:
        print("train-ubm: partition has no ubm-role speakers", file=sys.stderr)
        return 1
    pools = [_training_matrix(u)
             for u in _speaker_utterances(cfg, speakers, "train").values() if u]
    if not pools:
        print("train-ubm: no usable features for ubm speakers", file=sys.stderr)
        return 1
    data = np.vstack(pools)
    model, trace = gmm_mod.em_fit(data, cfg.ubm_components, em_cfg, return_trace=True)
    gmm_mod.save_gmm(os.path.join(cfg.output_dir, openset_mod.UBM_FILE), model)
    stop = "converged" if gmm_mod._converged(trace, em_cfg.rel_tol) else "cap"
    floored = np.any(model.variances <= em_cfg.variance_floor, axis=1).sum()
    print(f"train-ubm: {cfg.ubm_components} components on {data.shape[0]} frames, "
          f"{len(trace)} EM iterations ({stop}), {floored} at the variance floor")
    return 0


def _enrolled_order(cfg, partition):
    """Canonical enrolled-speaker order: seeded shuffle of the sorted ids.

    Population sweeps enroll nested prefixes of this order, so per-speaker
    models train once and are reused at every population size.
    """
    ids = sorted(partition.enrolled_speakers)
    order = np.random.default_rng(cfg.seed).permutation(len(ids))
    return [ids[i] for i in order]


def _bank_dir(cfg, arch):
    return os.path.join(cfg.output_dir, f"bank_{arch}")


def cmd_train(cfg):
    """Train the configured architecture's models for the enrolled set."""
    partition = dataset_mod.read_partition(cfg.partition_path)
    order = _enrolled_order(cfg, partition)
    sizes = sorted(cfg.population_sizes)
    if sizes[-1] > len(order):
        print(f"train: population size {sizes[-1]} exceeds "
              f"{len(order)} enrolled speakers", file=sys.stderr)
        return 1
    enrolled = order[:sizes[-1]]
    train_split = _speaker_utterances(cfg, enrolled, "train")
    for spk in enrolled:
        if not train_split[spk]:
            print(f"train: no training features for speaker {spk!r}",
                  file=sys.stderr)
            return 1
    matrices = {spk: _training_matrix(train_split[spk]) for spk in enrolled}
    arch = cfg.architecture

    if arch == "gmm":
        ubm = gmm_mod.load_gmm(os.path.join(cfg.output_dir, openset_mod.UBM_FILE))

        def fit_speaker(spk):
            seed = _speaker_seed(cfg.seed, spk)
            return gmm_mod.em_fit(matrices[spk], cfg.speaker_gmm_components,
                                  cfg.em_config(seed))

        models = artifact.thread_map(fit_speaker, enrolled, cfg.threads)
        bank = openset_mod.SpeakerBank(speaker_ids=tuple(enrolled),
                                       models=tuple(models), ubm=ubm)
        openset_mod.save_bank(_bank_dir(cfg, arch), bank, "gmm")
    elif arch == "subnn":
        ubm = gmm_mod.load_gmm(os.path.join(cfg.output_dir, openset_mod.UBM_FILE))
        bank = openset_mod.train_subnn_bank(
            enrolled, [matrices[spk] for spk in enrolled], ubm,
            cfg=cfg.train_config(cfg.subnn_epochs, cfg.subnn_batch_size, cfg.seed),
            neg_ratio=cfg.neg_ratio, hidden_dims=tuple(cfg.subnn_hidden),
            threads=cfg.threads)
        openset_mod.save_bank(_bank_dir(cfg, arch), bank, "mlp")
    else:
        # One network per population size; enrolling into a multi-class
        # network requires retraining over all of its speakers.  A size's
        # speakers lead the order, so its frames and labels are the leading
        # rows of one stack.  The fits are independent: on cpu_threads()
        # threads they train side by side, the largest first so that the
        # smaller ones run beside it; on one, in turn.  All train before any
        # is saved, so a diverging size leaves no new network, and the sizes
        # report in ascending order up to the first that failed.
        X = np.vstack([matrices[spk] for spk in enrolled])
        counts = [matrices[spk].shape[0] for spk in enrolled]
        labels = np.repeat(np.arange(len(enrolled), dtype=np.intp), counts)
        ends = np.cumsum(counts)
        jobs = [(mlp_mod.initialize_network((X.shape[1], *cfg.multiclass_hidden, size),
                                            seed=cfg.seed + size),
                 X[:ends[size - 1]], labels[:ends[size - 1]],
                 cfg.train_config(cfg.multiclass_epochs, cfg.multiclass_batch_size,
                                  cfg.seed + size)) for size in sizes]
        threads = min(artifact.cpu_threads(), len(sizes))
        # Largest first, so popped from the end the smallest comes first.
        fits = [] if threads < 2 else mlp_mod.train_side_by_side(jobs[::-1], threads)
        nets = []
        for size, job in zip(sizes, jobs):
            try:
                fitted = fits.pop() if fits else mlp_mod.train(*job)
                if isinstance(fitted, Exception):
                    raise fitted
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"{exc} at multiclass size {size}") from None
            net, losses = fitted
            nets.append(net)
            print(f"train: multiclass size {size}: {len(losses)} epochs, "
                  f"loss {losses[0]:.3g} -> {losses[-1]:.3g}")
        for size, net in zip(sizes, nets):
            openset_mod.save_multiclass(
                os.path.join(_bank_dir(cfg, arch), f"size_{size}"), net, order[:size])

    print(f"train: {arch} bank for {len(enrolled)} speakers -> "
          f"{_bank_dir(cfg, arch)}")
    return 0


def _trials_path(cfg, arch, size):
    return os.path.join(cfg.output_dir, f"trials_{arch}_{size}.csv")


def _models(cfg, arch, sizes):
    """Each model to score: (speaker ids, the sizes it decides, its loader).

    A loader returns the model's score function, feats -> (scores, offset).
    A gmm or subnn bank is one model: nested sizes are prefixes of it, so
    every utterance is scored once and each size decided by its prefix's
    best.  The paper retrains the multi-class network per size, so each size
    is a model of its own, loaded only when its turn comes.
    """
    if arch == "multiclass":
        def load(directory):
            net, _ = openset_mod.load_multiclass(directory)
            return lambda feats: (openset_mod.multiclass_scores(net, feats), 0.0)
        directories = [os.path.join(_bank_dir(cfg, arch), f"size_{size}")
                       for size in sizes]
        return [(openset_mod.read_speaker_ids(d), (size,),
                 functools.partial(load, d)) for size, d in zip(sizes, directories)]
    bank = openset_mod.load_bank(_bank_dir(cfg, arch),
                                 "gmm" if arch == "gmm" else "mlp")

    def load():
        nested = bank.prefix(sizes[-1])
        return (functools.partial(openset_mod.gmm_scores, nested) if arch == "gmm"
                else lambda feats: (openset_mod.subnn_scores(nested, feats), 0.0))
    return [(bank.speaker_ids, sizes, load)]


def cmd_evaluate(cfg):
    """Score all test utterances per population size and write trial + report CSVs."""
    arch = cfg.architecture
    partition = dataset_mod.read_partition(cfg.partition_path)
    sizes = sorted(cfg.population_sizes)
    models = _models(cfg, arch, sizes)
    order = list(models[-1][0])
    if sizes[-1] > len(order):
        print(f"evaluate: bank holds {len(order)} speakers, "
              f"population size {sizes[-1]} requested", file=sys.stderr)
        return 1
    if not set(order).issubset(partition.enrolled_speakers):
        print("evaluate: bank speakers are not all enrolled in the partition",
              file=sys.stderr)
        return 1
    enrolled = order[:sizes[-1]]
    # Only the largest population's test utterances are loaded below.
    for ids, decided, _ in models:
        if not set(ids[:decided[-1]]).issubset(enrolled):
            print(f"evaluate: size {decided[-1]} speakers are not all in the "
                  f"size {sizes[-1]} population", file=sys.stderr)
            return 1
    impostors = sorted(partition.impostor_speakers)
    test_split = _speaker_utterances(cfg, enrolled + impostors, "test")

    for ids, decided, load in models:
        score = load()
        ids = list(ids[:decided[-1]])
        scored = {spk: [score(feats) for _, feats in test_split[spk]]
                  for spk in ids + impostors}
        if arch == "gmm":
            every = [scores for trials in scored.values() for scores, _ in trials]
            ruled = sum(np.count_nonzero(np.isneginf(scores)) for scores in every)
            total = sum(scores.size for scores in every)
            print(f"evaluate: gmm: {ruled} of {total} bank-model scores ruled out "
                  f"by their bounds ({ruled / max(total, 1):.1%})")
        for size in decided:
            trials = []
            truths = ([(spk, spk) for spk in ids[:size]]
                      + [(spk, metrics_mod.IMPOSTOR) for spk in impostors])
            for spk, truth in truths:
                for (utt_id, _), (scores, offset) in zip(test_split[spk], scored[spk]):
                    decision = openset_mod.decide(scores[:size], 0.0, offset)
                    trials.append(metrics_mod.TrialScore(
                        utterance_id=utt_id, true_speaker=truth,
                        predicted_speaker=ids[decision.best_index],
                        score=decision.score))
            metrics_mod.write_trials(_trials_path(cfg, arch, size), trials, arch)
            print(f"evaluate: {arch} size {size}: {len(trials)} trials")

    return _rebuild_report(cfg)


def _rebuild_report(cfg):
    """Recompute the summary report from every trial CSV in the output dir."""
    pattern = re.compile(r"trials_(gmm|subnn|multiclass)_(\d+)\.csv$")
    found = []
    for name in sorted(os.listdir(cfg.output_dir)):
        match = pattern.match(name)
        if match:
            found.append((match.group(1), int(match.group(2))))
    if not found:
        print("report: no trial files found", file=sys.stderr)
        return 1
    rows = []
    for arch, size in sorted(found):
        path = _trials_path(cfg, arch, size)
        trials, _ = metrics_mod.read_trials(path)
        try:
            rate = metrics_mod.csrr(t for t in trials if not t.is_impostor)
            eer, theta = metrics_mod.compute_eer(trials)
        except ValueError as exc:
            raise DegenerateScoreError(f"{path}: {exc}") from exc
        rows.append(metrics_mod.ReportRow(architecture=arch,
                                          population_size=size,
                                          csrr=rate, eer=eer, theta_star=theta))
    report_path = os.path.join(cfg.output_dir, "report.csv")
    metrics_mod.write_report(report_path, rows)
    for r in rows:
        print(f"report: {r.architecture} K={r.population_size} "
              f"csrr={r.csrr:.4f} eer={r.eer:.4f} theta={r.theta_star:.6g}")
    return 0


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--arch", dest="architecture", choices=ARCHITECTURES)
    parser.add_argument("--out", dest="output_dir")
    for name, kind in _kinds().items():
        if name not in ("architecture", "output_dir"):  # tuples parse in _resolve_config
            parser.add_argument("--" + name.replace("_", "-"), dest=name,
                                type=None if kind is tuple else kind)


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for name, kind in _kinds().items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if kind is tuple and isinstance(value, str):
            value = _parse_value(value, tuple)
        overrides[name] = value
    return replace(cfg, **overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="osid",
        description="Open-set speaker identification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    # Built once and copied into each command: add_argument is the costly step.
    flags = argparse.ArgumentParser(add_help=False)
    _add_config_flags(flags)
    commands = {
        "extract": (cmd_extract, "extract MFCC features for every manifest entry"),
        "train-ubm": (cmd_train_ubm, "fit the background GMM"),
        "train": (cmd_train, "train the configured architecture's speaker models"),
        "evaluate": (cmd_evaluate, "score test utterances and write trial/report CSVs"),
        "report": (_rebuild_report, "rebuild the report CSV from existing trial files")}
    for name, (_, help_text) in commands.items():
        sub.add_parser(name, help=help_text, parents=[flags])
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        os.makedirs(cfg.output_dir, exist_ok=True)
        started = time.monotonic()
        code = commands[args.command][0](cfg)
        _write_metadata(cfg, args.command, code, time.monotonic() - started)
        return code
    except (OsidError, OSError, ValueError) as exc:
        missing = "missing input: " if isinstance(exc, FileNotFoundError) else ""
        print(f"{args.command}: {missing}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
