"""End-to-end pipeline tests on a small synthetic WAV corpus."""

import csv
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from osid import cli
from osid import features as features_mod
from osid import gmm as gmm_mod
from osid import metrics
from osid import mlp as mlp_mod
from osid.cli import RunConfig, load_config, main
from osid.dataset import AudioClip, load_wav, read_partition, split_utterances
from osid.features import extract_features, load_features
from osid.openset import (
    SpeakerBank,
    gmm_closed_set,
    gmm_verify,
    load_bank,
    load_multiclass,
    multiclass_open_set,
    save_bank,
    subnn_open_set,
)
from conftest import (CORPUS_SAMPLE_RATE, build_corpus, run_pipeline, write_config,
                      write_wav)
from test_gmm import random_model


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    config_path = build_corpus(root)
    out_dir = root / "out"
    run_pipeline(config_path, out_dir)
    return {"root": root, "config": config_path, "out": out_dir}


class TestConfig:
    def test_round_trip_and_comments(self, tmp_path):
        cfg = RunConfig(seed=7, architecture="subnn", population_sizes=(3, 5))
        path = tmp_path / "cfg.txt"
        write_config(path, cfg)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("definitely_not_a_key = 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(path)

    def test_cli_flag_overrides_file(self, pipeline, tmp_path):
        # seed comes from the file; --seed wins when given
        code = main(["report", "--config", str(pipeline["config"]),
                     "--out", str(pipeline["out"]), "--seed", "123"])
        assert code == 0

    @pytest.mark.parametrize("sizes", [(), (0, 3), (2, -1), (2, 2)])
    def test_population_sizes_must_be_positive(self, sizes):
        with pytest.raises(ValueError, match="population_sizes"):
            RunConfig(population_sizes=sizes)

    def test_defaults_match_reported_schedules(self):
        cfg = RunConfig()
        assert cfg.population_sizes == (100, 300, 500, 700)
        assert cfg.train_fraction == 0.7
        assert cfg.speaker_gmm_components == 64
        assert cfg.ubm_components == 1024


class TestExtract:
    def test_counts_and_index(self, tmp_path):
        root = tmp_path
        config_path = build_corpus(root)
        manifest = root / "tiny_manifest.csv"
        rows = list(csv.reader(open(root / "manifest.csv", encoding="utf-8")))
        with open(manifest, "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows(rows[:4])  # header + 3 utterances
        out = root / "tiny_out"
        assert main(["extract", "--config", str(config_path),
                     "--manifest-path", str(manifest), "--out", str(out)]) == 0
        index = list(csv.DictReader(open(out / "features" / "index.csv",
                                         encoding="utf-8")))
        assert len(index) == 3
        assert all(row["status"] == "ok" for row in index)
        for row in index:
            assert (out / "features" / row["cache_file"]).exists()

    def test_silent_utterance_flagged(self, tmp_path):
        root = tmp_path
        config_path = build_corpus(root)
        silent = root / "wav" / "silent.wav"
        write_wav(silent, AudioClip(samples=np.full(8000, 1e-6),
                                    sample_rate=CORPUS_SAMPLE_RATE))
        # zeros round to zero PCM, so VAD sees a silent file
        manifest = root / "silent_manifest.csv"
        with open(manifest, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["speaker_id", "utterance_id", "path", "duration_s"])
            writer.writerow(["spk0", "voiced", str(root / "wav" / "spk0_utt0.wav"),
                             0.5])
            writer.writerow(["spk9", "silent", str(silent), 0.5])
        out = root / "silent_out"
        assert main(["extract", "--config", str(config_path),
                     "--manifest-path", str(manifest), "--out", str(out)]) == 1
        index = {row["utterance_id"]: row["status"]
                 for row in csv.DictReader(open(out / "features" / "index.csv",
                                                encoding="utf-8"))}
        assert index["voiced"] == "ok"
        assert index["silent"] == "no_speech"

    def test_missing_file_recorded_and_run_continues(self, tmp_path):
        root = tmp_path
        config_path = build_corpus(root)
        manifest = root / "missing_manifest.csv"
        with open(manifest, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["speaker_id", "utterance_id", "path", "duration_s"])
            writer.writerow(["spk0", "gone", str(root / "wav" / "nope.wav"), 0.5])
            writer.writerow(["spk0", "there", str(root / "wav" / "spk0_utt0.wav"),
                             0.5])
        out = root / "missing_out"
        assert main(["extract", "--config", str(config_path),
                     "--manifest-path", str(manifest), "--out", str(out)]) == 1
        index = {row["utterance_id"]: row["status"]
                 for row in csv.DictReader(open(out / "features" / "index.csv",
                                                encoding="utf-8"))}
        assert index["there"] == "ok"
        assert index["gone"].startswith("error:")

    def test_colliding_ids_get_their_own_caches(self, tmp_path):
        config_path = build_corpus(tmp_path)
        ids = [("a b", "u1"), ("a_b", "u1"), ("a", "b__c"), ("a__b", "c")]
        wavs = [tmp_path / "wav" / f"spk{s}_utt0.wav" for s in range(len(ids))]
        manifest = tmp_path / "colliding_manifest.csv"
        with open(manifest, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["speaker_id", "utterance_id", "path", "duration_s"])
            writer.writerows((spk, utt, str(wav), 0.5)
                             for (spk, utt), wav in zip(ids, wavs))
        out = tmp_path / "colliding_out"
        assert main(["extract", "--config", str(config_path),
                     "--manifest-path", str(manifest), "--out", str(out)]) == 0
        index = {(row["speaker_id"], row["utterance_id"]): row["cache_file"]
                 for row in csv.DictReader(open(out / "features" / "index.csv",
                                                encoding="utf-8"))}
        assert len(set(index.values())) == len(ids)
        cfg = load_config(config_path)
        for key, wav in zip(ids, wavs):
            expected = extract_features(load_wav(wav), cfg.feature_config())
            cached = load_features(out / "features" / index[key])
            assert np.array_equal(cached.vectors, expected.vectors)

    def test_rerun_is_bit_identical(self, pipeline, tmp_path):
        out_b = tmp_path / "again"
        assert main(["extract", "--config", str(pipeline["config"]),
                     "--out", str(out_b)]) == 0
        feature_dir = pipeline["out"] / "features"
        for path in sorted(feature_dir.glob("*.feat")):
            assert path.read_bytes() == (out_b / "features" / path.name).read_bytes()

    def test_failed_rerun_never_trains_on_mixed_caches(self, pipeline, tmp_path,
                                                        monkeypatch, capsys):
        # A re-extract at another window that fails part way leaves no index
        # over the mix of new and old caches, so the next stage refuses it.
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        writes = []

        def failing(path, feats, real=features_mod.save_features):
            writes.append(path)
            if len(writes) == 4:
                raise OSError("disk full")
            real(path, feats)

        monkeypatch.setattr(features_mod, "save_features", failing)
        common = ["--config", str(pipeline["config"]), "--out", str(out)]
        assert main(["extract", *common, "--window-ms", "25"]) == 1
        monkeypatch.undo()
        assert main(["train-ubm", *common]) == 1
        err = capsys.readouterr().err
        assert "extract: disk full" in err
        assert "train-ubm: " in err and "saved incompletely" in err
        assert "Traceback" not in err


def _assert_manifest_names_model_files(bank_dir, suffix):
    """Three enrolled rows, each naming its own model file in the bank."""
    with open(bank_dir / "manifest.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert all(row["speaker_id"].startswith("spk") for row in rows)
    files = [row["model_file"] for row in rows]
    assert all((bank_dir / name).is_file() for name in files)
    on_disk = {p.name for p in bank_dir.glob(f"*{suffix}")} - {"ubm.gmm"}
    assert sorted(files) == sorted(on_disk)


class TestTrainArtifacts:
    def test_gmm_bank_contents(self, pipeline):
        bank_dir = pipeline["out"] / "bank_gmm"
        assert (bank_dir / "ubm.gmm").exists()
        _assert_manifest_names_model_files(bank_dir, ".gmm")

    def test_subnn_bank_contents(self, pipeline):
        bank_dir = pipeline["out"] / "bank_subnn"
        _assert_manifest_names_model_files(bank_dir, ".mlp")

    def test_multiclass_output_dims(self, pipeline):
        for size in (2, 3):
            net, ids = load_multiclass(pipeline["out"] / "bank_multiclass"
                                       / f"size_{size}")
            assert net.output_dim == size
            assert len(ids) == size

    def test_nested_prefix_enrollment(self, pipeline):
        bank = load_bank(pipeline["out"] / "bank_gmm", "gmm")
        _, small_ids = load_multiclass(pipeline["out"] / "bank_multiclass" / "size_2")
        _, large_ids = load_multiclass(pipeline["out"] / "bank_multiclass" / "size_3")
        assert tuple(large_ids[:2]) == tuple(small_ids)
        assert tuple(bank.speaker_ids) == tuple(large_ids)


class TestTrainMulticlassSummary:
    def test_one_loss_line_per_population_size(self, pipeline, tmp_path, capsys):
        shutil.copytree(pipeline["out"] / "features", tmp_path / "features")
        capsys.readouterr()
        assert main(["train", "--config", str(pipeline["config"]),
                     "--out", str(tmp_path), "--arch", "multiclass"]) == 0
        lines = capsys.readouterr().out.splitlines()
        number = r"(\d+(?:\.\d*)?(?:e[-+]\d+)?)"
        for size, line in zip((2, 3), lines):
            match = re.fullmatch(rf"train: multiclass size {size}: 10 epochs, "
                                 rf"loss {number} -> {number}", line)
            assert match, line
            assert float(match[2]) < float(match[1])
        assert lines[2].startswith("train: multiclass bank for 3 speakers")


class TestTrainUbmSummary:
    """train-ubm's line ends with EM's iteration count, why it stopped, and
    how many components have a variance at the floor."""

    @pytest.mark.parametrize("overrides, stop, floored", [
        ({}, "converged", None),
        ({"em_max_iterations": 1}, "cap", None),
        ({"variance_floor": 1e6}, None, 4),
    ], ids=["fixture", "one-iteration-cap", "all-floored"])
    def test_em_diagnostics(self, pipeline, tmp_path, capsys, overrides, stop,
                            floored):
        cfg = replace(load_config(pipeline["config"]), output_dir=str(tmp_path),
                      **overrides)
        shutil.copytree(pipeline["out"] / "features", tmp_path / "features")
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in overrides.items()]
        capsys.readouterr()
        assert main(["train-ubm", "--config", str(pipeline["config"]),
                     "--out", str(tmp_path), *flags]) == 0
        line = capsys.readouterr().out
        match = re.fullmatch(r"train-ubm: 4 components on (\d+) frames, (\d+) EM "
                             r"iterations \((converged|cap)\), (\d+) at the "
                             r"variance floor\n", line)
        assert match, line
        ubm_ids = sorted(read_partition(cfg.partition_path).ubm_speakers)
        data = np.vstack([cli._training_matrix(u) for u in cli._speaker_utterances(
            cfg, ubm_ids, "train").values() if u])
        em_cfg = cfg.em_config(cfg.seed)
        model, trace = gmm_mod.em_fit(data, 4, em_cfg, return_trace=True)
        assert int(match[1]) == len(data) and int(match[2]) == len(trace)
        if stop:
            assert match[3] == stop
        assert (match[3] == "converged") == (len(trace) > 1 and trace[-1] - trace[-2]
                                             < em_cfg.rel_tol * abs(trace[-2]))
        at_floor = np.any(model.variances <= em_cfg.variance_floor, axis=1).sum()
        assert int(match[4]) == (at_floor if floored is None else floored)
        saved = gmm_mod.load_gmm(tmp_path / "ubm.gmm")
        assert np.array_equal(saved.variances, model.variances)


class TestEvaluate:
    def test_report_shape(self, pipeline):
        rows = metrics.read_report(pipeline["out"] / "report.csv")
        combos = {(r.architecture, r.population_size) for r in rows}
        assert combos == {(arch, size)
                          for arch in ("gmm", "subnn", "multiclass")
                          for size in (2, 3)}
        assert all(0.0 <= r.csrr <= 1.0 and 0.0 <= r.eer <= 1.0 for r in rows)

    def test_trial_files_exist_per_size(self, pipeline):
        for arch in ("gmm", "subnn", "multiclass"):
            for size in (2, 3):
                trials, tag = metrics.read_trials(
                    pipeline["out"] / f"trials_{arch}_{size}.csv")
                assert tag == arch
                kinds = {t.is_impostor for t in trials}
                assert kinds == {True, False}

    def test_report_matches_recomputation_from_trials(self, pipeline):
        rows = {(r.architecture, r.population_size): r
                for r in metrics.read_report(pipeline["out"] / "report.csv")}
        for size in (2, 3):
            trials, _ = metrics.read_trials(
                pipeline["out"] / f"trials_gmm_{size}.csv")
            enrolled = [t for t in trials if not t.is_impostor]
            row = rows[("gmm", size)]
            assert row.csrr == pytest.approx(metrics.csrr(enrolled))
            eer, theta = metrics.compute_eer(trials)
            assert row.eer == pytest.approx(eer)
            assert row.theta_star == pytest.approx(theta)

    def test_report_command_rebuilds_identically(self, pipeline):
        report = pipeline["out"] / "report.csv"
        before = report.read_bytes()
        assert main(["report", "--config", str(pipeline["config"]),
                     "--out", str(pipeline["out"])]) == 0
        assert report.read_bytes() == before

    def test_trials_match_per_size_scoring(self, pipeline):
        """Scoring once against the largest bank equals scoring each prefix."""
        cfg = replace(load_config(pipeline["config"]), output_dir=str(pipeline["out"]))
        impostors = sorted(read_partition(cfg.partition_path).impostor_speakers)
        for arch, kind in (("gmm", "gmm"), ("subnn", "mlp")):
            bank = load_bank(pipeline["out"] / f"bank_{arch}", kind)
            test_split = cli._speaker_utterances(
                cfg, list(bank.speaker_ids) + impostors, "test")
            for size in cfg.population_sizes:
                sub = bank.prefix(size)
                trials, _ = metrics.read_trials(
                    pipeline["out"] / f"trials_{arch}_{size}.csv")
                speakers = list(sub.speaker_ids) + impostors
                utterances = [(utt_id, feats) for spk in speakers
                              for utt_id, feats in test_split[spk]]
                assert [t.utterance_id for t in trials] == [u for u, _ in utterances]
                for trial, (_, feats) in zip(trials, utterances):
                    if arch == "gmm":
                        best, best_ll = gmm_closed_set(sub, feats)
                        decision = gmm_verify(sub, feats, best, best_ll, theta=0.0)
                        assert trial.score == pytest.approx(decision.score,
                                                            rel=1e-9, abs=1e-9)
                    else:
                        decision = subnn_open_set(sub, feats, theta=0.0)
                        assert trial.score == decision.score
                    assert (trial.predicted_speaker
                            == sub.speaker_ids[decision.best_index])

    def test_multiclass_trials_match_library_scoring(self, pipeline):
        cfg = replace(load_config(pipeline["config"]), output_dir=str(pipeline["out"]))
        impostors = sorted(read_partition(cfg.partition_path).impostor_speakers)
        for size in cfg.population_sizes:
            net, ids = load_multiclass(pipeline["out"] / "bank_multiclass"
                                       / f"size_{size}")
            test_split = cli._speaker_utterances(cfg, list(ids) + impostors, "test")
            trials, _ = metrics.read_trials(
                pipeline["out"] / f"trials_multiclass_{size}.csv")
            utterances = [feats for spk in list(ids) + impostors
                          for _, feats in test_split[spk]]
            assert len(trials) == len(utterances)
            for trial, feats in zip(trials, utterances):
                decision = multiclass_open_set(net, ids, feats, theta=0.0)
                assert trial.predicted_speaker == ids[decision.best_index]
                assert trial.score == decision.score

    def test_report_loads_no_model(self, pipeline, monkeypatch):
        loaded = []
        for module, name in ((gmm_mod, "load_gmm"), (mlp_mod, "load_mlp")):
            def counting(path, original=getattr(module, name)):
                loaded.append(path)
                return original(path)
            monkeypatch.setattr(module, name, counting)
        assert main(["report", "--config", str(pipeline["config"]),
                     "--out", str(pipeline["out"])]) == 0
        assert loaded == []

    def test_report_reads_only_the_trial_files(self, pipeline, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        for bank_dir in out.glob("bank_*"):
            shutil.rmtree(bank_dir)
        (out / "report.csv").unlink()
        assert main(["report", "--config", str(pipeline["config"]),
                     "--out", str(out)]) == 0
        assert ((out / "report.csv").read_bytes()
                == (pipeline["out"] / "report.csv").read_bytes())

    def test_stale_trials_keep_their_speakers(self, pipeline, tmp_path):
        # Retraining at another seed re-orders the bank; the size-3 trials
        # left from the first run still report what they scored.
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        common = ["--config", str(pipeline["config"]), "--out", str(out),
                  "--arch", "gmm", "--seed", "5"]
        before = load_bank(out / "bank_gmm", "gmm").speaker_ids
        assert main(["train", *common]) == 0
        assert load_bank(out / "bank_gmm", "gmm").speaker_ids != before
        assert main(["evaluate", *common, "--population-sizes", "2"]) == 0

        def row(root):
            return next(r for r in metrics.read_report(root / "report.csv")
                        if (r.architecture, r.population_size) == ("gmm", 3))
        assert row(out) == row(pipeline["out"])

    def test_gmm_prints_the_share_of_scores_ruled_out(self, pipeline, tmp_path,
                                                      capsys):
        # The smoke bank is one block and takes no bounds.  Here 3 models lie
        # near the data and 29 far off it, two blocks of 64-component models:
        # every far model's score is ruled out on every utterance.
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        ubm = load_bank(out / "bank_gmm", "gmm").ubm
        rng = np.random.default_rng(8)
        ids = tuple(f"spk{k}" for k in (5, 6, 7)) + tuple(f"far{k}" for k in range(29))
        models = [random_model(rng, 64, ubm.dim) for _ in ids]
        models[3:] = [gmm_mod.DiagGmm(g.weights, g.means + 1000.0, g.variances)
                      for g in models[3:]]
        save_bank(out / "bank_gmm", SpeakerBank(ids, tuple(models), ubm=ubm), "gmm")
        partition = tmp_path / "partition.csv"
        partition.write_text(
            (pipeline["root"] / "partition.csv").read_text(encoding="utf-8")
            + "".join(f"{spk},enrolled\n" for spk in ids[3:]), encoding="utf-8")
        assert main(["evaluate", "--config", str(pipeline["config"]), "--out", str(out),
                     "--arch", "gmm", "--partition-path", str(partition),
                     "--population-sizes", "3,32"]) == 0
        ruled, total, share = re.search(
            r"evaluate: gmm: (\d+) of (\d+) bank-model scores ruled out by their "
            r"bounds \(([\d.]+)%\)", capsys.readouterr().out).groups()
        assert int(total) % 32 == 0 and int(ruled) == int(total) // 32 * 29
        assert share == f"{100 * 29 / 32:.1f}"

    def test_smoke_corpus_separates_speakers(self, pipeline):
        rows = metrics.read_report(pipeline["out"] / "report.csv")
        gmm_rows = [r for r in rows if r.architecture == "gmm"]
        assert all(r.csrr == 1.0 for r in gmm_rows)


def _outputs(root):
    """Every file under root but the run records, as sorted relative paths."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file() and not p.name.startswith("meta_"))


class TestFeatureIndex:
    """Stages after extract take their utterances from the feature index."""

    def test_later_stages_never_read_the_manifest(self, pipeline, tmp_path):
        config_path = build_corpus(tmp_path)
        out = tmp_path / "out"
        common = ["--config", str(config_path), "--out", str(out)]
        assert main(["extract", *common]) == 0
        (tmp_path / "manifest.csv").unlink()
        assert main(["train-ubm", *common]) == 0
        for arch in ("gmm", "subnn", "multiclass"):
            assert main(["train", *common, "--arch", arch]) == 0
            assert main(["evaluate", *common, "--arch", arch]) == 0
        names = _outputs(out)
        assert names == _outputs(pipeline["out"])
        for name in names:
            assert ((out / name).read_bytes()
                    == (pipeline["out"] / name).read_bytes()), name

    def test_evaluate_reads_only_test_side_caches(self, pipeline, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        cfg = load_config(pipeline["config"])
        with open(out / "features" / "index.csv", newline="", encoding="utf-8") as f:
            rows = [row for row in csv.DictReader(f) if row["speaker_id"] == "spk5"]
        train, _ = split_utterances(rows, cfg.train_fraction,
                                    cli._speaker_seed(cfg.seed, "spk5"))
        (out / "features" / train[0]["cache_file"]).unlink()
        common = ["--config", str(pipeline["config"]), "--out", str(out)]
        for arch in ("gmm", "subnn", "multiclass"):
            assert main(["evaluate", *common, "--arch", arch]) == 0
        for path in sorted(out.glob("trials_*.csv")):
            assert path.read_bytes() == (pipeline["out"] / path.name).read_bytes()
        assert main(["train", *common, "--arch", "gmm"]) == 1


class TestRunRecord:
    def test_every_stage_records_its_exit_code(self, pipeline):
        for command in ("extract", "train-ubm", "train", "evaluate"):
            record = (pipeline["out"] / f"meta_{command}.txt").read_text(
                encoding="utf-8")
            assert f"command = {command}\nexit_code = 0\n" in record

    def test_report_without_trials_records_exit_1(self, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--out", str(out)]) == 1
        record = (out / "meta_report.txt").read_text(encoding="utf-8")
        assert "exit_code = 1\n" in record

    def test_train_ubm_without_ubm_speakers_records_exit_1(self, pipeline, tmp_path):
        partition = tmp_path / "partition.csv"
        text = (pipeline["root"] / "partition.csv").read_text(encoding="utf-8")
        partition.write_text(text.replace(",ubm", ",impostor"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train-ubm", "--config", str(pipeline["config"]),
                     "--out", str(out), "--partition-path", str(partition)]) == 1
        record = (out / "meta_train-ubm.txt").read_text(encoding="utf-8")
        assert "exit_code = 1\n" in record


class TestDeterminism:
    def test_repeat_run_bit_identical(self, pipeline, tmp_path):
        out_b = tmp_path / "rerun"
        run_pipeline(pipeline["config"], out_b, architectures=("gmm",))
        out_a = pipeline["out"]
        for name in ("ubm.gmm",):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for path in sorted((out_a / "bank_gmm").iterdir()):
            assert path.read_bytes() == (out_b / "bank_gmm" / path.name).read_bytes()
        for size in (2, 3):
            name = f"trials_gmm_{size}.csv"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_threads_do_not_change_outputs(self, pipeline, tmp_path):
        serial, threaded = tmp_path / "serial", tmp_path / "threaded"
        run_pipeline(pipeline["config"], serial, flags=("--threads", "1"))
        run_pipeline(pipeline["config"], threaded, flags=("--threads", "3"))
        names = _outputs(serial)
        assert len(names) > 60
        assert _outputs(threaded) == names
        for name in names:
            assert (serial / name).read_bytes() == (threaded / name).read_bytes(), name


def run_module_cli(*args, timeout=None, **env):
    """`python -m osid.cli` in a child process that imports this osid, with
    env added to its environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "osid.cli", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path, **env})


class TestEntryPoint:
    def test_help_via_module(self):
        proc = run_module_cli("--help")
        assert proc.returncode == 0
        for command in ("extract", "train-ubm", "train", "evaluate", "report"):
            assert command in proc.stdout

    def test_evaluate_on_pool_workers_exits_promptly(self, pipeline, tmp_path):
        # 64 speakers of 64 components make 4 blocks, scored in 2 runs, one
        # on a pool worker, wherever the process may run on 2 CPUs or more.
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        bank = load_bank(out / "bank_gmm", "gmm")
        rng = np.random.default_rng(4)
        ids = bank.speaker_ids + tuple(f"extra{k}" for k in range(64 - len(bank)))
        save_bank(out / "bank_gmm", SpeakerBank(
            ids, tuple(random_model(rng, 64, bank.ubm.dim) for _ in ids), ubm=bank.ubm),
            "gmm")
        partition = tmp_path / "partition.csv"
        partition.write_text(
            (pipeline["root"] / "partition.csv").read_text(encoding="utf-8")
            + "".join(f"{spk},enrolled\n" for spk in ids[len(bank):]),
            encoding="utf-8")
        proc = run_module_cli("evaluate", "--config", str(pipeline["config"]),
                              "--out", str(out), "--arch", "gmm",
                              "--partition-path", str(partition),
                              "--population-sizes", "64",
                              timeout=120, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        assert "evaluate: gmm size 64:" in proc.stdout

    @pytest.mark.parametrize("arch, pattern", [
        ("gmm", "bank_gmm/ubm.gmm"),
        ("subnn", "bank_subnn/*.mlp"),
        ("multiclass", "features/*.feat"),
    ])
    def test_truncated_artifact_exits_cleanly(self, pipeline, tmp_path, arch, pattern):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        for path in out.glob(pattern):
            path.write_bytes(path.read_bytes()[:10])  # cut inside the header
        proc = run_module_cli("evaluate", "--config", str(pipeline["config"]),
                              "--out", str(out), "--arch", arch)
        assert proc.returncode == 1
        assert "truncated" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("outputs", [1, 3])
    def test_subnn_bank_of_other_widths_exits_cleanly(self, pipeline, tmp_path,
                                                      capsys, outputs):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        bank = load_bank(out / "bank_subnn", "mlp")
        dims = bank.models[0].layer_dims[:-1] + (outputs,)
        nets = tuple(mlp_mod.initialize_network(dims, seed=k) for k in range(len(bank)))
        save_bank(out / "bank_subnn", SpeakerBank(bank.speaker_ids, nets), "mlp")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(pipeline["config"]),
                     "--out", str(out), "--arch", "subnn"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"evaluate: {out / 'bank_subnn' / '000000.mlp'}: {outputs} outputs, "
            "a 2-class network has 2"]

    @pytest.mark.parametrize("arch", ["subnn", "multiclass"])
    def test_divergent_training_exits_cleanly(self, pipeline, tmp_path, arch):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        shutil.rmtree(out / f"bank_{arch}")
        proc = run_module_cli("train", "--config", str(pipeline["config"]),
                              "--out", str(out), "--arch", arch,
                              "--learning-rate", "1e200")
        assert proc.returncode == 1
        assert "train: training diverged in epoch" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / f"bank_{arch}").exists()

    @pytest.mark.parametrize("command, table, column", [
        ("evaluate", "bank_gmm/manifest.csv", "model_file"),
        ("evaluate", "features/index.csv", "status"),
        ("report", "trials_gmm_2.csv", "score"),
        ("report", "trials_gmm_2.csv", "predicted_speaker"),
    ])
    def test_missing_column_exits_cleanly(self, pipeline, tmp_path, command,
                                          table, column):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / table
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, [c for c in rows[0] if c != column],
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        proc = run_module_cli(command, "--config", str(pipeline["config"]),
                              "--out", str(out), "--arch", "gmm")
        assert proc.returncode == 1
        assert f"missing column(s) {column}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("column, value", [
        ("predicted_speaker", ""), ("score", "abc"), ("score", "nan")])
    def test_broken_trial_cell_names_the_file(self, pipeline, tmp_path, column,
                                              value):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / "trials_gmm_2.csv"
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        rows[0][column] = value
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        proc = run_module_cli("report", "--config", str(pipeline["config"]),
                              "--out", str(out))
        assert proc.returncode == 1
        assert f"report: {path}: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kept", ["none", "enrolled"])
    def test_trials_without_rates_name_the_file(self, pipeline, tmp_path, kept):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / "trials_gmm_2.csv"
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, list(rows[0]))
            writer.writeheader()
            writer.writerows(row for row in rows if kept == "enrolled"
                             and row["true_speaker"] != metrics.IMPOSTOR)
        proc = run_module_cli("report", "--config", str(pipeline["config"]),
                              "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"report: {path}: need at least one")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, config_text, flags, message", [
        ("report", None, (), "missing input"),
        ("report", "seed 3\n", (), "expected key = value"),
        ("report", "definitely_not_a_key = 3\n", (), "unknown key"),
        ("report", "", ("--population-sizes", "a,b"), "invalid literal"),
        # rejected before any input is read, not clamped to one iteration
        ("train-ubm", "", ("--kmeans-iterations", "0"),
         "kmeans_iterations must be at least 1"),
        # each refused before any input is read, not trained on or clamped
        ("train", "", ("--neg-ratio", "0"), "neg_ratio must be positive"),
        ("train", "", ("--neg-ratio", "-1"), "neg_ratio must be positive"),
        ("train", "", ("--multiclass-hidden", "0"),
         "multiclass_hidden widths must be at least 1"),
        ("extract", "", ("--threads", "-3"), "threads must be at least 1"),
        ("train-ubm", "ubm_components = 0\n", (),
         "ubm_components must be at least 1"),
        # named by their config keys, not by the fields they fill
        ("train-ubm", "", ("--em-max-iterations", "0"),
         "em_max_iterations must be at least 1"),
        ("train-ubm", "", ("--em-rel-tol", "0"), "em_rel_tol must be positive"),
        ("train-ubm", "variance_floor = -1e-4\n", (),
         "variance_floor must be positive"),
        ("train", "", ("--subnn-epochs", "0"), "subnn_epochs must be at least 1"),
        ("train", "", ("--multiclass-epochs", "0"),
         "multiclass_epochs must be at least 1"),
        ("train", "", ("--subnn-batch-size", "0"),
         "subnn_batch_size must be at least 1"),
        ("train", "", ("--multiclass-batch-size", "-5"),
         "multiclass_batch_size must be at least 1"),
        ("train-ubm", "", ("--train-fraction", "1.5"),
         "train_fraction must lie strictly between 0 and 1"),
        ("extract", "train_fraction = 0\n", (),
         "train_fraction must lie strictly between 0 and 1"),
    ], ids=["missing-file", "no-equals", "unknown-key", "bad-value",
            "kmeans-iterations-0", "neg-ratio-0", "neg-ratio-negative",
            "multiclass-hidden-0", "threads-negative", "ubm-components-0",
            "em-max-iterations-0", "em-rel-tol-0", "variance-floor-negative",
            "subnn-epochs-0", "multiclass-epochs-0", "subnn-batch-size-0",
            "multiclass-batch-size-negative", "train-fraction-1.5",
            "train-fraction-0"])
    def test_bad_config_exits_cleanly(self, tmp_path, command, config_text, flags,
                                      message):
        config = tmp_path / "run.cfg"
        if config_text is not None:
            config.write_text(config_text, encoding="utf-8")
        proc = run_module_cli(command, "--config", str(config),
                              "--out", str(tmp_path / "out"), *flags)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"{command}: ") and message in proc.stderr

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("sizes", ["", "0,3"], ids=["empty", "zero"])
    def test_bad_population_sizes_exit_cleanly(self, pipeline, tmp_path, command,
                                               sizes):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        proc = run_module_cli(command, "--config", str(pipeline["config"]),
                              "--out", str(out), "--arch", "gmm",
                              "--population-sizes", sizes)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "population_sizes" in proc.stderr

    def test_multiclass_speaker_count_mismatch_exits_cleanly(self, pipeline,
                                                              tmp_path):
        for case, (speakers, message) in enumerate((
                # size 2's network has 2 outputs; list the 3 speakers of size 3
                (("spk5", "spk6", "spk7"), "network has 2 outputs for 3 speakers"),
                (("spk5", "zzz"),
                 "size 2 speakers are not all in the size 3 population"))):
            out = tmp_path / f"out{case}"
            shutil.copytree(pipeline["out"], out)
            (out / "bank_multiclass" / "size_2" / "speakers.csv").write_text(
                "".join(f"{spk}\n" for spk in ("speaker_id", *speakers)),
                encoding="utf-8")
            proc = run_module_cli("evaluate", "--config", str(pipeline["config"]),
                                  "--out", str(out), "--arch", "multiclass")
            assert proc.returncode == 1
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_impostor_marker_as_a_speaker_id_exits_cleanly(self, pipeline,
                                                           tmp_path):
        text = (pipeline["root"] / "partition.csv").read_text(encoding="utf-8")
        assert "spk5,enrolled" in text
        partition = tmp_path / "partition.csv"
        partition.write_text(text.replace("spk5,", f"{metrics.IMPOSTOR},"),
                             encoding="utf-8")
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        proc = run_module_cli("train-ubm", "--config", str(pipeline["config"]),
                              "--out", str(out), "--partition-path", str(partition))
        assert proc.returncode == 1
        message = f"{partition}: speaker id '{metrics.IMPOSTOR}' is reserved"
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_naming_a_file_exits_cleanly(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        proc = run_module_cli("report", "--out", str(taken))
        assert proc.returncode == 1
        assert proc.stderr.startswith("report: ")
        assert "Traceback" not in proc.stderr

    def test_missing_inputs_exit_nonzero(self, tmp_path):
        code = main(["evaluate", "--out", str(tmp_path / "none"),
                     "--manifest-path", str(tmp_path / "nope.csv"),
                     "--partition-path", str(tmp_path / "nope2.csv")])
        assert code == 1
        assert not (tmp_path / "none" / "meta_evaluate.txt").exists()

    @pytest.mark.parametrize("command", ["extract", "train-ubm", "train",
                                         "evaluate", "report"])
    def test_unknown_architecture_exits_cleanly(self, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text("architecture = foo\n", encoding="utf-8")
        proc = run_module_cli(command, "--config", str(config),
                              "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == f"{command}: unknown architecture 'foo'\n"
