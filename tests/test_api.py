"""The package's public surface: what osid exports, and what it no longer does."""

import pytest

import osid
from osid import features, gmm, metrics, mlp

TEST_ORACLES = {
    gmm: ("log_density", "log_density_batch"),
    mlp: ("forward", "backward", "nll_loss"),
    features: ("compute_mfcc",),
    metrics: ("det_sweep",),
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


@pytest.mark.parametrize("module", list(TEST_ORACLES), ids=lambda m: m.__name__)
def test_oracles_live_in_the_tests(module):
    for name in TEST_ORACLES[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not hasattr(osid, name), name
