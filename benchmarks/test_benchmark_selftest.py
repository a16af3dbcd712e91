"""Self-test of the benchmark harness.

Runs every workload at a tiny scale, traced and untraced, and checks that
the result carries exactly the metrics BENCHMARK.json declares, with their
units.  Also checks the self-time arithmetic on a hand-built span tree.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
import os

import pytest

import checks
import run
import spans
import workloads
from synth import RoleShape

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")

TINY = workloads.Scales(
    pipeline=workloads.CorpusScale(
        roles=(RoleShape("ubm", 3, 3, 1.0), RoleShape("impostor", 2, 3, 1.0),
               RoleShape("enrolled", 4, 3, 1.0)),
        config=dict(ubm_components=4, speaker_gmm_components=2, em_max_iterations=5,
                    subnn_hidden=(4, 4), subnn_epochs=1, multiclass_hidden=(4, 4),
                    multiclass_epochs=2, population_sizes=(2, 4))),
    enroll=workloads.CorpusScale(
        roles=(RoleShape("ubm", 3, 3, 1.0), RoleShape("enrolled", 4, 3, 0.8)),
        config=dict(ubm_components=8, speaker_gmm_components=4, kmeans_iterations=2,
                    em_max_iterations=2, subnn_hidden=(4, 4), subnn_epochs=1,
                    multiclass_hidden=(8, 8), multiclass_epochs=1,
                    population_sizes=(4,))),
    identify=workloads.IdentifyScale(
        speakers=5, speaker_components=4, ubm_components=8, subnn_hidden=(4, 4),
        multiclass_hidden=(8, 8), lengths=(10, 20, 2), rounds=1,
        checked_trials=1),
)


def declared(kind):
    with open(BENCHMARK, encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.fixture
def no_stored_reference(monkeypatch):
    """The reference table covers the real pipeline scale, not the tiny one."""
    monkeypatch.setattr(checks, "load_reference", lambda: {
        "pipeline_scale": checks.scale_key(TINY.pipeline), "reports": {}})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_carries_every_declared_metric(workload, trace, tmp_path,
                                              no_stored_reference):
    metrics, ledger, notes, _ = workloads.run(workload, seed=3, seconds=0,
                                              trace=trace, workdir=str(tmp_path),
                                              scales=TINY)
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    assert ledger.failed == 0, ledger.problems
    assert ledger.attempted > 0
    line = json.loads(run.result_line(metrics, ledger))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())


def test_predictions_name_what_breaks_them():
    tree = _tree(
        ("cli.cmd_train", 0.0, 4.0, -1),
        ("features.load_features", 1.0, 1.5, 0),
        ("mlp.backward_batch", 2.0, 3.0, 0),
    )
    for span in tree:
        span.phase = "timed"
    enroll = spans.predictions(tree, "enroll")
    assert enroll[0][:2] == ("features and dataset take no time in the timed phase", False)
    assert "features.load_features 0.500 s of a 4.0 s timed phase" in enroll[0][2]
    assert enroll[1][1] is True
    identify = spans.predictions(tree, "identify")
    assert identify[1][1:] == (False, "mlp.backward_batch")


def test_wrappers_are_removed_after_tracing():
    from osid import gmm, openset
    originals = (gmm.mean_log_likelihood, openset.gmm_closed_set)
    with spans.traced(spans.Recorder()):
        assert gmm.mean_log_likelihood is not originals[0]
    assert (gmm.mean_log_likelihood, openset.gmm_closed_set) == originals


def _tree(*rows):
    out = []
    for name, start, end, parent in rows:
        group = out[parent].group if parent >= 0 else len(out)
        out.append(spans.Span(name, start, end, parent=parent, group=group))
    return out


def test_self_time_subtracts_the_union_of_children():
    tree = _tree(
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),      # overlaps a: the union counts once
        ("a.child", 2.0, 3.0, 1),
        ("late", 8.0, 12.0, 0),  # only the part inside root counts
    )
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_on_a_hand_built_tree():
    tree = _tree(
        ("cli.cmd_evaluate", 0.0, 5.0, -1),
        ("openset.gmm_closed_set", 1.0, 3.0, 0),
        ("gmm.mean_log_likelihood", 1.0, 1.5, 1),
        ("gmm.mean_log_likelihood", 1.5, 2.0, 1),
        ("gmm.mean_log_likelihood", 2.0, 2.5, 1),
    )
    utterance, model_a, model_b = object(), object(), object()
    for span, model in zip(tree[2:], (model_a, model_b, model_a)):
        span.attrs.update(rows=10, components=4, key=(utterance, model))
    m = spans.layer_metrics(tree, {"gmm": (3, 1)}, 0.5)
    assert m["cli.cmd_evaluate.self_s"] == (pytest.approx(3.0), "s")
    assert m["openset.gmm_closed_set.self_s"] == (pytest.approx(0.5), "s")
    assert m["gmm.mean_log_likelihood.calls"] == (3, "count")
    assert m["gmm.mean_log_likelihood.busy_s"] == (pytest.approx(1.5), "s")
    assert m["gmm.density_rows"] == (120, "count")
    assert m["gmm.mean_log_likelihood.useful_frac"] == (pytest.approx(2 / 3), "ratio")
    assert m["openset.model_evaluations_per_trial.gmm"] == (3.0, "count")
    assert m["trace.overhead_frac"] == (0.5, "ratio")
