"""Acceptance suite: one test per release criterion, printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The synthetic experiments are desk-scale stand-ins for a full-corpus
study: population sizes and model widths are reduced, but the architectures,
training procedures, metrics, and tolerances are the production ones.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from osid import mlp
from osid.cli import RunConfig
from osid.gmm import EmConfig, em_fit, pack_models, score_packed
from osid.metrics import IMPOSTOR, TrialScore, compute_eer
from osid.mlp import (
    LOSS_FLOOR,
    TrainConfig,
    forward_batch,
    initialize_network,
    train,
)
from osid.openset import (
    EvalCounter,
    SpeakerBank,
    gmm_closed_set,
    gmm_verify,
    multiclass_open_set,
    subnn_open_set,
    train_subnn_bank,
)
from conftest import build_corpus, draw_frames, make_population, run_pipeline
from oracles import backward, forward, log_density, mean_log_likelihood, nll_loss
from test_gmm import brute_force_log_density, random_model
from test_metrics import grid_sweep_eer, random_trials


@contextmanager
def criterion(number, title, limit_s=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit_s is not None and elapsed >= limit_s:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, limit {limit_s}s")
    except BaseException:
        print(f"\nACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({title}): PASS [{elapsed:.1f}s]")


def closed_set_rate(score_fn, test_sets):
    correct = total = 0
    for true_index, utterances in enumerate(test_sets):
        for X in utterances:
            correct += score_fn(X)[0] == true_index
            total += 1
    return correct / total


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence suite", limit_s=60):
        # mixture log-density vs direct probability-space summation
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            model = random_model(rng, m, d)
            x = rng.uniform(-3, 3, size=d)
            assert log_density(model, x) == pytest.approx(
                brute_force_log_density(model, x), abs=1e-9)
            assert score_packed(pack_models((model,)), x[None])[0] == pytest.approx(
                brute_force_log_density(model, x), abs=1e-9)

        # interpolated EER vs exhaustive 1e-6-step threshold grid
        for seed in range(3):
            local = np.random.default_rng(7000 + seed)
            trials = random_trials(local, n_enrolled=100, n_impostor=120,
                                   enrolled_loc=0.12, impostor_loc=0.0, scale=0.1)
            eer, _ = compute_eer(trials)
            assert eer == pytest.approx(
                grid_sweep_eer(trials, step=1e-6), abs=1e-6)

        # closed-set argmax vs exhaustive loops, exact
        generators = make_population(seed=31, num_speakers=6, num_components=2,
                                     dim=8, radius=12.0)
        data_rng = np.random.default_rng(32)
        train_sets = [draw_frames(g, 400, data_rng) for g in generators]
        ubm = em_fit(np.vstack(train_sets), 8, EmConfig(seed=1))
        ids = tuple(f"s{i}" for i in range(6))
        bank = SpeakerBank(
            speaker_ids=ids,
            models=tuple(em_fit(X, 2, EmConfig(seed=2)) for X in train_sets),
            ubm=ubm)
        nn_bank = train_subnn_bank(ids, train_sets, ubm,
                                   cfg=TrainConfig(epochs=3, batch_size=64, seed=3),
                                   hidden_dims=(8, 8))
        for _ in range(20):
            X = data_rng.standard_normal((25, 8)) * 4
            best, _ = gmm_closed_set(bank, X)
            assert best == int(np.argmax(
                [mean_log_likelihood(m, X) for m in bank.models]))
            decision = subnn_open_set(nn_bank, X, theta=0.5)
            scores = [np.mean(np.log(np.maximum(forward_batch(net, X)[0][:, 1],
                                                LOSS_FLOOR)))
                      for net in nn_bank.models]
            assert decision.best_index == int(np.argmax(scores))


def test_criterion_2_gradient_check():
    with criterion(2, "finite-difference gradient check", limit_s=10):
        rng = np.random.default_rng(21)
        net = initialize_network((4, 3, 3, 2), seed=22)
        x = rng.standard_normal(4)
        label = 1
        _, cache = forward(net, x)
        grads = backward(net, x, label, cache)
        h = 1e-5
        for param, grad in zip(net.layers, grads):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = param[idx]
                param[idx] = saved + h
                up = nll_loss(forward(net, x)[0], label)
                param[idx] = saved - h
                down = nll_loss(forward(net, x)[0], label)
                param[idx] = saved
                numeric = (up - down) / (2 * h)
                if abs(grad[idx]) > 1e-8:
                    assert abs(numeric - grad[idx]) / abs(grad[idx]) < 1e-4
                else:
                    assert abs(numeric - grad[idx]) < 1e-7


def test_criterion_3_em_monotonicity():
    with criterion(3, "EM mean log-likelihood monotonicity", limit_s=60):
        rng = np.random.default_rng(41)
        for dataset_index in range(20):
            n = int(rng.integers(100, 400))
            d = int(rng.integers(2, 8))
            m = int(rng.integers(2, 8))
            centers = rng.uniform(-3, 3, size=(3, d))
            data = (centers[rng.integers(0, 3, n)]
                    + rng.standard_normal((n, d)) * rng.uniform(0.5, 1.5))
            _, trace = em_fit(data, m, EmConfig(seed=dataset_index),
                              return_trace=True)
            drops = np.diff(trace)
            assert np.all(drops >= -1e-8), f"dataset {dataset_index}: {drops.min()}"


def test_criterion_4_synthetic_closed_set():
    with criterion(4, "closed-set recognition on 30 synthetic speakers",
                   limit_s=600):
        num, train_utts, test_utts, frames = 30, 50, 20, 100
        generators = make_population(seed=4001, num_speakers=num,
                                     num_components=4, dim=24, radius=10.0)
        rng = np.random.default_rng(4002)
        train_sets = [np.vstack([draw_frames(g, frames, rng)
                                 for _ in range(train_utts)])
                      for g in generators]
        test_sets = [[draw_frames(g, frames, rng) for _ in range(test_utts)]
                     for g in generators]
        ids = tuple(f"s{i}" for i in range(num))

        # The background model pools the enrolled training material, the
        # desk-scale stand-in for a large disjoint background population.
        ubm = em_fit(np.vstack(train_sets)[::3], 32,
                     EmConfig(seed=1, max_iterations=50))

        bank = SpeakerBank(
            speaker_ids=ids,
            models=tuple(em_fit(X, 4, EmConfig(seed=2)) for X in train_sets),
            ubm=ubm)
        gmm_rate = closed_set_rate(lambda X: gmm_closed_set(bank, X), test_sets)

        nn_bank = train_subnn_bank(
            ids, train_sets, ubm,
            cfg=TrainConfig(mlp.SUBNN_EPOCHS, mlp.SUBNN_BATCH_SIZE, seed=5))
        subnn_rate = closed_set_rate(
            lambda X: (subnn_open_set(nn_bank, X, 0.0).best_index,), test_sets)

        X_all = np.vstack(train_sets)
        labels = np.concatenate([np.full(ts.shape[0], i)
                                 for i, ts in enumerate(train_sets)])
        net = initialize_network((24, 128, 128, num), seed=7)
        net, _ = train(net, X_all, labels,
                       TrainConfig(epochs=20, batch_size=15000, seed=7))
        multiclass_rate = closed_set_rate(
            lambda X: (multiclass_open_set(net, ids, X, 0.0).best_index,),
            test_sets)

        print(f"\n  closed-set rates: gmm={gmm_rate:.4f} "
              f"subnn={subnn_rate:.4f} multiclass={multiclass_rate:.4f}")
        assert gmm_rate >= 0.95
        assert subnn_rate >= 0.95
        assert multiclass_rate >= 0.95


def test_criterion_5_open_set_population_trend():
    with criterion(5, "EER non-decreasing over population sizes", limit_s=900):
        n_enrolled, n_impostor = 60, 120
        train_utts, test_utts_enr, test_utts_imp, frames = 20, 6, 3, 25
        sizes = (15, 30, 60)
        generators = make_population(seed=5201,
                                     num_speakers=n_enrolled + n_impostor,
                                     num_components=2, dim=24, radius=2.0)
        enrolled_gens = generators[:n_enrolled]
        impostor_gens = generators[n_enrolled:]
        rng = np.random.default_rng(5202)
        train_sets = [np.vstack([draw_frames(g, frames, rng)
                                 for _ in range(train_utts)])
                      for g in enrolled_gens]
        test_enrolled = [[draw_frames(g, frames, rng)
                          for _ in range(test_utts_enr)] for g in enrolled_gens]
        test_impostor = [[draw_frames(g, frames, rng)
                          for _ in range(test_utts_imp)] for g in impostor_gens]
        ids = [f"s{i}" for i in range(n_enrolled)]

        ubm = em_fit(np.vstack(train_sets)[::2], 32,
                     EmConfig(seed=2, max_iterations=50))
        bank = SpeakerBank(
            speaker_ids=tuple(ids),
            models=tuple(em_fit(X, 2, EmConfig(seed=3)) for X in train_sets),
            ubm=ubm)
        # denser schedule than the production default: with only ~2000 frames
        # per speaker the default batch size yields too few steps to converge
        nn_bank = train_subnn_bank(ids, train_sets, ubm,
                                   cfg=TrainConfig(epochs=25, batch_size=250,
                                                   seed=5))
        nets = {}
        for size in sizes:
            X_all = np.vstack(train_sets[:size])
            labels = np.concatenate([np.full(ts.shape[0], i)
                                     for i, ts in enumerate(train_sets[:size])])
            net = initialize_network((24, 128, 128, size), seed=7 + size)
            nets[size], _ = train(net, X_all, labels,
                                  TrainConfig(epochs=20, batch_size=15000,
                                              seed=7 + size))

        def score(arch, size, X):
            if arch == "gmm":
                sub = bank.prefix(size)
                best, best_ll = gmm_closed_set(sub, X)
                return best, gmm_verify(sub, X, best, best_ll, 0.0).score
            if arch == "subnn":
                decision = subnn_open_set(nn_bank.prefix(size), X, 0.0)
            else:
                decision = multiclass_open_set(nets[size], ids[:size], X, 0.0)
            return decision.best_index, decision.score

        for arch in ("gmm", "subnn", "multiclass"):
            eers = []
            for size in sizes:
                trials = []
                for j in range(size):
                    for k, X in enumerate(test_enrolled[j]):
                        best, value = score(arch, size, X)
                        trials.append(TrialScore(f"e{j}_{k}", ids[j], ids[best],
                                                 value))
                for j, utterances in enumerate(test_impostor):
                    for k, X in enumerate(utterances):
                        best, value = score(arch, size, X)
                        trials.append(TrialScore(f"i{j}_{k}", IMPOSTOR, ids[best],
                                                 value))
                eer, _ = compute_eer(trials)
                eers.append(eer)
            print(f"\n  {arch}: EER by population size "
                  + " ".join(f"{s}->{e:.4f}" for s, e in zip(sizes, eers)))
            assert all(a <= b for a, b in zip(eers, eers[1:])), \
                f"{arch} EER sequence {eers} decreases"


def test_criterion_6_scoring_complexity():
    with criterion(6, "model evaluations per trial: K+1 / K / 1"):
        k = 7
        generators = make_population(seed=61, num_speakers=k, num_components=2,
                                     dim=6, radius=10.0)
        rng = np.random.default_rng(62)
        train_sets = [draw_frames(g, 300, rng) for g in generators]
        ubm = em_fit(np.vstack(train_sets), 4, EmConfig(seed=1))
        ids = tuple(f"s{i}" for i in range(k))
        bank = SpeakerBank(
            speaker_ids=ids,
            models=tuple(em_fit(X, 2, EmConfig(seed=2)) for X in train_sets),
            ubm=ubm)
        nn_bank = train_subnn_bank(ids, train_sets, ubm,
                                   cfg=TrainConfig(epochs=2, batch_size=128, seed=3),
                                   hidden_dims=(6, 6))
        net = initialize_network((6, 10, k), seed=4)
        X = rng.standard_normal((20, 6))

        counter = EvalCounter()
        best, best_ll = gmm_closed_set(bank, X, counter=counter)
        gmm_verify(bank, X, best, best_ll, 0.0, counter=counter)
        assert counter.model_evaluations == k + 1

        counter = EvalCounter()
        subnn_open_set(nn_bank, X, 0.0, counter=counter)
        assert counter.model_evaluations == k

        counter = EvalCounter()
        multiclass_open_set(net, ids, X, 0.0, counter=counter)
        assert counter.model_evaluations == 1


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion(7, "same-seed pipeline runs are bit-identical"):
        config_path = build_corpus(tmp_path)
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        run_pipeline(config_path, out_a)
        run_pipeline(config_path, out_b)

        artifacts = ["ubm.gmm", "report.csv"]
        artifacts += sorted(p.relative_to(out_a).as_posix()
                            for p in (out_a / "bank_gmm").iterdir())
        artifacts += sorted(p.relative_to(out_a).as_posix()
                            for p in (out_a / "bank_subnn").iterdir())
        for size_dir in sorted((out_a / "bank_multiclass").iterdir()):
            artifacts += sorted(p.relative_to(out_a).as_posix()
                                for p in size_dir.iterdir())
        artifacts += sorted(p.name for p in out_a.glob("trials_*.csv"))
        assert len(artifacts) > 10
        for name in artifacts:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{name} differs between same-seed runs"


def test_criterion_8_hyperparameter_conformance():
    with criterion(8, "default configurations match the reported schedules"):
        # 2-class network: its 2-unit softmax output is the equivalent
        # formulation of the reported single-output network.
        assert mlp.SUBNN_HIDDEN == (50, 50)
        assert mlp.SUBNN_EPOCHS == 5
        assert mlp.SUBNN_BATCH_SIZE == 800

        assert mlp.MULTICLASS_HIDDEN == (1200, 1200)
        assert mlp.MULTICLASS_EPOCHS == 20
        assert mlp.MULTICLASS_BATCH_SIZE == 15000

        train_cfg = TrainConfig(epochs=1, batch_size=1)
        assert train_cfg.learning_rate == 0.0001
        assert train_cfg.momentum == 0.95
        assert train_cfg.rms_decay == 0.99

        cfg = RunConfig()
        assert cfg.learning_rate == 0.0001
        assert cfg.momentum == 0.95
        assert cfg.rms_decay == 0.99
        assert cfg.subnn_hidden == (50, 50)
        assert cfg.subnn_epochs == 5
        assert cfg.subnn_batch_size == 800
        assert cfg.multiclass_hidden == (1200, 1200)
        assert cfg.multiclass_epochs == 20
        assert cfg.multiclass_batch_size == 15000
        assert cfg.population_sizes == (100, 300, 500, 700)
        assert cfg.speaker_gmm_components == 64
        assert cfg.ubm_components == 1024
        assert cfg.pre_emphasis_mu == 0.98
        assert cfg.window_ms == 20.0
        assert cfg.overlap_fraction == 0.5
        assert cfg.num_ceps == 24
        assert cfg.train_fraction == 0.7
