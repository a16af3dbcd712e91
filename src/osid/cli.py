"""Command-line pipeline: extract, train-ubm, train, evaluate, report.

Each command is independently runnable so long pipelines can resume, and
every run writes a metadata file (config snapshot, seed, tool version,
wall-clock) sufficient to reproduce it.  Runs are deterministic given the
seed: repeating a pipeline yields byte-identical model files and reports.

Configuration is a flat ``key = value`` file with ``#`` comments; every key
can be overridden by a command-line flag of the same name.
"""

import argparse
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
from .errors import OsidError

ARCHITECTURES = ("gmm", "subnn", "multiclass")

FEATURES_DIR = "features"
FEATURE_INDEX = "index.csv"
INDEX_COLUMNS = ("speaker_id", "utterance_id", "cache_file", "status")


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
    learning_rate: float = mlp_mod.DEFAULT_LEARNING_RATE
    momentum: float = mlp_mod.DEFAULT_MOMENTUM
    rms_decay: float = mlp_mod.DEFAULT_RMS_DECAY
    rms_epsilon: float = mlp_mod.DEFAULT_RMS_EPSILON
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
        if not self.population_sizes or min(self.population_sizes) < 1:
            raise ValueError("population_sizes must be one or more sizes >= 1")

    def feature_config(self):
        return features_mod.FeatureConfig(**{
            f.name: getattr(self, f.name) for f in fields(features_mod.FeatureConfig)})

    def em_config(self, seed):
        return gmm_mod.EmConfig(
            max_iterations=self.em_max_iterations,
            rel_tol=self.em_rel_tol,
            variance_floor=self.variance_floor,
            kmeans_iterations=self.kmeans_iterations,
            seed=seed,
        )


def _parse_value(raw, kind):
    raw = raw.strip()
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is tuple:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return raw


def load_config(path):
    """Parse a flat key = value config file into a RunConfig."""
    kinds = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
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


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_config_lines(cfg))


def _write_metadata(cfg, command, elapsed):
    path = os.path.join(cfg.output_dir, f"meta_{command}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"tool_version = {__version__}\n")
        f.write(f"command = {command}\n")
        f.write(f"wall_clock_s = {elapsed:.3f}\n")
        f.writelines(_config_lines(cfg))


def _speaker_seed(base_seed, speaker_id):
    """Stable per-speaker seed; independent of process hash randomization."""
    return base_seed + zlib.crc32(speaker_id.encode("utf-8"))


def _read_index(cfg):
    """Feature index rows keyed by (speaker_id, utterance_id)."""
    path = artifact.committed(os.path.join(cfg.output_dir, FEATURES_DIR),
                              FEATURE_INDEX)
    return {(row["speaker_id"], row["utterance_id"]):
            (row["cache_file"], row["status"])
            for row in artifact.read_table(path, INDEX_COLUMNS)}


def cmd_extract(cfg):
    """Extract features for every manifest entry into per-utterance caches.

    Failures (unreadable audio, wrong format, no speech) are recorded in the
    index and the run continues; the exit code reflects whether any occurred.
    """
    started = time.monotonic()
    manifest = dataset_mod.read_manifest(cfg.manifest_path)
    feat_cfg = cfg.feature_config()
    out_dir = os.path.join(cfg.output_dir, FEATURES_DIR)
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

    rows = openset_mod._thread_map(extract_one, range(len(manifest.entries)),
                                   cfg.threads)
    artifact.write_table(index_path, INDEX_COLUMNS,
                         (row[:4] for row in rows))
    failed = [row for row in rows if row[3] != "ok"]
    for spk, utt, _, status, message in failed:
        print(f"extract: {spk}/{utt}: {status} {message}", file=sys.stderr)
    _write_metadata(cfg, "extract", time.monotonic() - started)
    print(f"extract: {len(rows) - len(failed)} ok, {len(failed)} failed")
    return 1 if failed else 0


def _load_speaker_features(cfg, index, speaker_ids):
    """Per-speaker list of (utterance_id, FeatureSet) in manifest order."""
    manifest = dataset_mod.read_manifest(cfg.manifest_path)
    out_dir = os.path.join(cfg.output_dir, FEATURES_DIR)
    wanted = set(speaker_ids)
    per_speaker = {spk: [] for spk in speaker_ids}
    for entry in manifest.entries:
        if entry.speaker_id not in wanted:
            continue
        key = (entry.speaker_id, entry.utterance_id)
        cache, status = index.get(key, ("", "missing"))
        if status != "ok":
            continue
        feats = features_mod.load_features(os.path.join(out_dir, cache))
        per_speaker[entry.speaker_id].append((entry.utterance_id, feats))
    return per_speaker


def _split_speaker_utterances(cfg, per_speaker):
    """Apply the per-speaker train/test utterance split with derived seeds."""
    train, test = {}, {}
    for spk, utterances in per_speaker.items():
        if not utterances:
            train[spk], test[spk] = [], []
            continue
        if len(utterances) == 1:
            # A lone utterance cannot support a two-sided split; train on it.
            train[spk], test[spk] = list(utterances), []
            continue
        train[spk], test[spk] = dataset_mod.split_utterances(
            utterances, cfg.train_fraction, _speaker_seed(cfg.seed, spk))
    return train, test


def _training_matrix(utterances):
    return np.vstack([feats.vectors for _, feats in utterances])


def cmd_train_ubm(cfg):
    """Fit the background GMM on the training utterances of UBM-role speakers."""
    started = time.monotonic()
    partition = dataset_mod.read_partition(cfg.partition_path)
    index = _read_index(cfg)
    speakers = sorted(partition.ubm_speakers)
    if not speakers:
        print("train-ubm: partition has no ubm-role speakers", file=sys.stderr)
        return 1
    per_speaker = _load_speaker_features(cfg, index, speakers)
    train_split, _ = _split_speaker_utterances(cfg, per_speaker)
    pools = [_training_matrix(u) for u in train_split.values() if u]
    if not pools:
        print("train-ubm: no usable features for ubm speakers", file=sys.stderr)
        return 1
    data = np.vstack(pools)
    model = gmm_mod.em_fit(data, cfg.ubm_components, cfg.em_config(cfg.seed))
    os.makedirs(cfg.output_dir, exist_ok=True)
    gmm_mod.save_gmm(os.path.join(cfg.output_dir, openset_mod.UBM_FILE), model)
    _write_metadata(cfg, "train-ubm", time.monotonic() - started)
    print(f"train-ubm: {cfg.ubm_components} components on {data.shape[0]} frames")
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
    started = time.monotonic()
    if cfg.architecture not in ARCHITECTURES:
        print(f"train: unknown architecture {cfg.architecture!r}", file=sys.stderr)
        return 1
    partition = dataset_mod.read_partition(cfg.partition_path)
    index = _read_index(cfg)
    order = _enrolled_order(cfg, partition)
    sizes = sorted(cfg.population_sizes)
    if sizes[-1] > len(order):
        print(f"train: population size {sizes[-1]} exceeds "
              f"{len(order)} enrolled speakers", file=sys.stderr)
        return 1
    enrolled = order[:sizes[-1]]
    per_speaker = _load_speaker_features(cfg, index, enrolled)
    train_split, _ = _split_speaker_utterances(cfg, per_speaker)
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

        models = openset_mod._thread_map(fit_speaker, enrolled, cfg.threads)
        bank = openset_mod.SpeakerBank(speaker_ids=tuple(enrolled),
                                       models=tuple(models), ubm=ubm)
        openset_mod.save_bank(_bank_dir(cfg, arch), bank, "gmm")
    elif arch == "subnn":
        ubm = gmm_mod.load_gmm(os.path.join(cfg.output_dir, openset_mod.UBM_FILE))
        bank = openset_mod.train_subnn_bank(
            enrolled, [matrices[spk] for spk in enrolled], ubm,
            cfg=mlp_mod.TrainConfig(epochs=cfg.subnn_epochs,
                                    batch_size=cfg.subnn_batch_size,
                                    seed=cfg.seed),
            neg_ratio=cfg.neg_ratio, seed=cfg.seed,
            hidden_dims=tuple(cfg.subnn_hidden),
            optimizer_kwargs=dict(eta=cfg.learning_rate, mu=cfg.momentum,
                                  alpha=cfg.rms_decay, epsilon=cfg.rms_epsilon),
            threads=cfg.threads)
        openset_mod.save_bank(_bank_dir(cfg, arch), bank, "mlp")
    else:
        # One network per population size; enrolling into a multi-class
        # network requires retraining over all of its speakers.
        for size in sizes:
            speakers = order[:size]
            X = np.vstack([matrices[spk] for spk in speakers])
            labels = np.concatenate([
                np.full(matrices[spk].shape[0], i, dtype=np.intp)
                for i, spk in enumerate(speakers)])
            dims = (cfg.num_ceps, *cfg.multiclass_hidden, size)
            net = mlp_mod.initialize_network(dims, seed=cfg.seed + size)
            opt = mlp_mod.OptimizerState.for_network(
                net, eta=cfg.learning_rate, mu=cfg.momentum,
                alpha=cfg.rms_decay, epsilon=cfg.rms_epsilon)
            train_cfg = mlp_mod.TrainConfig(epochs=cfg.multiclass_epochs,
                                            batch_size=cfg.multiclass_batch_size,
                                            seed=cfg.seed + size)
            net, _ = mlp_mod.train(net, X, labels, train_cfg, opt)
            openset_mod.save_multiclass(
                os.path.join(_bank_dir(cfg, arch), f"size_{size}"), net, speakers)

    _write_metadata(cfg, "train", time.monotonic() - started)
    print(f"train: {arch} bank for {len(enrolled)} speakers -> "
          f"{_bank_dir(cfg, arch)}")
    return 0


def _trials_path(cfg, arch, size):
    return os.path.join(cfg.output_dir, f"trials_{arch}_{size}.csv")


def cmd_evaluate(cfg):
    """Score all test utterances per population size and write trial + report CSVs."""
    started = time.monotonic()
    arch = cfg.architecture
    if arch not in ARCHITECTURES:
        print(f"evaluate: unknown architecture {arch!r}", file=sys.stderr)
        return 1
    partition = dataset_mod.read_partition(cfg.partition_path)
    index = _read_index(cfg)
    sizes = sorted(cfg.population_sizes)

    if arch in ("gmm", "subnn"):
        bank = openset_mod.load_bank(_bank_dir(cfg, arch),
                                     "gmm" if arch == "gmm" else "mlp")
        order = list(bank.speaker_ids)
    else:
        order = _speaker_order_for(cfg, arch, sizes[-1])
    if sizes[-1] > len(order):
        print(f"evaluate: bank holds {len(order)} speakers, "
              f"population size {sizes[-1]} requested", file=sys.stderr)
        return 1
    if not set(order).issubset(partition.enrolled_speakers):
        print("evaluate: bank speakers are not all enrolled in the partition",
              file=sys.stderr)
        return 1

    enrolled = order[:sizes[-1]]
    if arch == "multiclass":
        # Only the largest population's test utterances are loaded below.
        for size in sizes[:-1]:
            if not set(_speaker_order_for(cfg, arch, size)).issubset(enrolled):
                print(f"evaluate: size {size} speakers are not all in the "
                      f"size {sizes[-1]} population", file=sys.stderr)
                return 1
    impostors = sorted(partition.impostor_speakers)
    per_speaker = _load_speaker_features(cfg, index, enrolled + impostors)
    _, test_split = _split_speaker_utterances(cfg, per_speaker)

    def score_tests(speakers, score):
        """(scores, offset) of every test utterance of the given speakers."""
        return {spk: [score(feats) for _, feats in test_split[spk]]
                for spk in speakers}

    if arch != "multiclass":
        # Nested sizes are prefixes of one bank: score every utterance once
        # against the largest and decide each size by its prefix's best.
        bank = bank.prefix(sizes[-1])
        scored = score_tests(enrolled + impostors, lambda feats: (
            openset_mod.gmm_scores(bank, feats) if arch == "gmm"
            else (openset_mod.subnn_scores(bank, feats), 0.0)))

    for size in sizes:
        if arch == "multiclass":
            # The paper retrains the network per size: score each size anew.
            net, ids = openset_mod.load_multiclass(
                os.path.join(_bank_dir(cfg, arch), f"size_{size}"))
            ids = list(ids)
            scored = score_tests(ids + impostors, lambda feats: (
                openset_mod.multiclass_scores(net, feats), 0.0))
        else:
            ids = enrolled[:size]
        trials = []
        truths = ([(spk, spk) for spk in ids]
                  + [(spk, metrics_mod.IMPOSTOR) for spk in impostors])
        for spk, truth in truths:
            for (utt_id, _), (scores, offset) in zip(test_split[spk], scored[spk]):
                decision = openset_mod.decide(scores[:len(ids)], 0.0, offset)
                trials.append(metrics_mod.TrialScore(
                    utterance_id=utt_id, true_speaker=truth,
                    predicted_index=decision.best_index, score=decision.score))
        metrics_mod.write_trials(_trials_path(cfg, arch, size), trials, arch)
        print(f"evaluate: {arch} size {size}: {len(trials)} trials")

    code = _rebuild_report(cfg)
    _write_metadata(cfg, "evaluate", time.monotonic() - started)
    return code


def _speaker_order_for(cfg, arch, size):
    """Enrolled order of an architecture's size-K population; loads no model."""
    if arch in ("gmm", "subnn"):
        return list(openset_mod.read_speaker_ids(_bank_dir(cfg, arch)))[:size]
    return list(openset_mod.read_speaker_ids(
        os.path.join(_bank_dir(cfg, arch), f"size_{size}")))


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
        trials, tag = metrics_mod.read_trials(_trials_path(cfg, arch, size))
        ids = _speaker_order_for(cfg, tag or arch, size)
        enrolled_trials = [t for t in trials if not t.is_impostor]
        rate = metrics_mod.csrr(enrolled_trials, ids)
        eer, theta = metrics_mod.compute_eer(trials, ids)
        rows.append(metrics_mod.ReportRow(architecture=arch,
                                          population_size=size,
                                          csrr=rate, eer=eer, theta_star=theta))
    report_path = os.path.join(cfg.output_dir, "report.csv")
    metrics_mod.write_report(report_path, rows)
    for r in rows:
        print(f"report: {r.architecture} K={r.population_size} "
              f"csrr={r.csrr:.4f} eer={r.eer:.4f} theta={r.theta_star:.6g}")
    return 0


def cmd_report(cfg):
    started = time.monotonic()
    code = _rebuild_report(cfg)
    if code == 0:
        _write_metadata(cfg, "report", time.monotonic() - started)
    return code


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--arch", dest="architecture", choices=ARCHITECTURES)
    parser.add_argument("--out", dest="output_dir")
    for fld in fields(RunConfig):
        if fld.name in ("architecture", "output_dir"):
            continue
        flag = "--" + fld.name.replace("_", "-")
        kind = type(getattr(RunConfig(), fld.name))
        if kind is tuple:
            parser.add_argument(flag, dest=fld.name)
        else:
            parser.add_argument(flag, dest=fld.name, type=kind)


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for fld in fields(RunConfig):
        value = getattr(args, fld.name, None)
        if value is None:
            continue
        if type(getattr(RunConfig(), fld.name)) is tuple and isinstance(value, str):
            value = _parse_value(value, tuple)
        overrides[fld.name] = value
    return replace(cfg, **overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="osid",
        description="Open-set speaker identification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("extract", "extract MFCC features for every manifest entry"),
            ("train-ubm", "fit the background GMM"),
            ("train", "train the configured architecture's speaker models"),
            ("evaluate", "score test utterances and write trial/report CSVs"),
            ("report", "rebuild the report CSV from existing trial files")):
        cmd = sub.add_parser(name, help=help_text)
        _add_config_flags(cmd)
    args = parser.parse_args(argv)
    handler = {
        "extract": cmd_extract,
        "train-ubm": cmd_train_ubm,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "report": cmd_report,
    }[args.command]
    try:
        cfg = _resolve_config(args)
        os.makedirs(cfg.output_dir, exist_ok=True)
        return handler(cfg)
    except (OsidError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"{args.command}: missing input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
