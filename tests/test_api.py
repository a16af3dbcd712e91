"""The package's public surface: what osid exports, and what it no longer does."""

import ast
import pathlib

import pytest

import osid
from osid import cli, dataset, features, gmm, metrics, mlp

TEST_ORACLES = {
    gmm: ("log_density", "log_density_batch", "kmeans_update", "kmeans_reference",
          "variance_seed", "em_fit_reference"),
    mlp: ("forward", "backward", "nll_loss", "train_reference"),
    features: ("compute_mfcc",),
    metrics: ("det_sweep", "rates_at_threshold", "ErrorRates"),
}


def test_every_export_resolves():
    for name in osid.__all__:
        assert getattr(osid, name) is not None, name


def test_exports_are_unique():
    assert len(osid.__all__) == len(set(osid.__all__))


def test_gmm_scoring_goes_through_the_packed_kernel():
    assert {"pack_models", "score_packed"} <= set(osid.__all__)
    for name in ("mean_log_likelihood", "mean_log_likelihoods"):
        assert not hasattr(osid, name), name


def test_train_config_is_the_one_optimizer_schedule():
    assert "TrainConfig" in osid.__all__
    for name in ("OptimizerState", "DEFAULT_LEARNING_RATE", "DEFAULT_MOMENTUM",
                 "DEFAULT_RMS_DECAY", "DEFAULT_RMS_EPSILON"):
        assert not hasattr(mlp, name), name
        assert not hasattr(osid, name), name


@pytest.mark.parametrize("module", list(TEST_ORACLES), ids=lambda m: m.__name__)
def test_oracles_live_in_the_tests(module):
    for name in TEST_ORACLES[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not hasattr(osid, name), name


def test_network_blocks_need_no_address_checks():
    for name in ("_stacked", "_address", "share_stacks"):
        assert not hasattr(mlp, name), name
    package = pathlib.Path(osid.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for needle in (".base", "__array_interface__"):
            assert needle not in source, f"{path.name} reads {needle}"


def test_report_needs_no_speaker_order():
    assert not hasattr(cli, "_speaker_order_for")


def test_stages_share_one_utterance_reader():
    for name in ("_read_index", "_load_speaker_features",
                 "_split_speaker_utterances", "cmd_report"):
        assert not hasattr(cli, name), name


def test_only_extract_splits_utterances():
    # Later stages read each utterance's side from the feature index.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    callers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and "split_utterances" in ast.unparse(call.func)}
    assert callers == {"cmd_extract"}
    assert ast.unparse(tree).count("split_utterances(") == 1


def test_networks_train_and_score_whole_layers():
    assert not hasattr(mlp.MlpNetwork, "parameters")
    assert not hasattr(mlp, "mean_log_posteriors")
    assert not hasattr(osid, "mean_log_posteriors")


def test_corpus_writers_live_in_the_tests():
    # The CLI reads manifests, partitions, configs and WAV files; only the
    # tests write them, and only the tests split a speaker set into roles.
    for name in ("write_manifest", "write_partition", "split_speakers", "write_wav"):
        assert not hasattr(dataset, name), name
        assert not hasattr(osid, name), name
    assert not hasattr(cli, "write_config")
