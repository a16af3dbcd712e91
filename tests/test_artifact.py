"""Strict artifact reading: every malformed file ends in CorruptArtifactError."""

import csv
import os
import signal
import struct
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osid import artifact, cli, dataset, metrics, openset
from osid.errors import CorruptArtifactError, OsidError
from osid.features import (FEATURE_MAGIC, FeatureSet, load_features,
                           save_features)
from osid.gmm import GMM_MAGIC, DiagGmm, load_gmm, save_gmm
from osid.mlp import MLP_MAGIC, initialize_network, load_mlp, save_mlp
from conftest import write_manifest, write_partition

HUGE = 0xFFFFFFFF


def _gmm():
    return DiagGmm(weights=np.array([0.25, 0.75]), means=np.zeros((2, 3)),
                   variances=np.ones((2, 3)))


FORMATS = {
    "gmm": (save_gmm, load_gmm, GMM_MAGIC, _gmm),
    "mlp": (save_mlp, load_mlp, MLP_MAGIC,
            lambda: initialize_network((3, 4, 2), seed=0)),
    "feat": (save_features, load_features, FEATURE_MAGIC,
             lambda: FeatureSet(vectors=np.arange(6.0).reshape(2, 3))),
}
OTHER_KIND = {"mlp": "gmm", "gmm": "feat", "feat": "mlp"}
# Headers that declare far more data than any file holds.
HUGE_HEADERS = {
    "gmm": struct.pack("<II", HUGE, 24),
    "mlp": struct.pack("<I", HUGE),
    "feat": struct.pack("<III", 1, HUGE, 24),
}


def _corrupt(kind, case, path):
    save, _, magic, make = FORMATS[kind]
    if case == "trailing byte":
        save(path, make())
        path.write_bytes(path.read_bytes() + b"\x00")
    elif case == "other kind":
        other_save, _, _, other_make = FORMATS[OTHER_KIND[kind]]
        other_save(path, other_make())
    elif case == "huge header":
        path.write_bytes(magic + HUGE_HEADERS[kind] + b"\x00" * 64)
    elif case == "huge layer":
        path.write_bytes(magic + struct.pack("<III", 2, HUGE, HUGE))


@pytest.mark.parametrize("kind, case", [
    *((kind, case) for kind in FORMATS
      for case in ("trailing byte", "other kind", "huge header")),
    ("mlp", "huge layer"),
])
def test_corrupt_binary_rejected(tmp_path, kind, case):
    path = tmp_path / f"artifact.{kind}"
    _corrupt(kind, case, path)
    with pytest.raises(CorruptArtifactError):
        FORMATS[kind][1](path)


FLOAT_ARRAYS = {
    "gmm": lambda g: (g.weights, g.means, g.variances),
    "mlp": lambda net: net.layers,
    "feat": lambda feats: (feats.vectors,),
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_non_finite_value_rejected(tmp_path, kind):
    """A NaN or infinity in any stored f8 slot is a corrupt file."""
    save, load, _, make = FORMATS[kind]
    model = make()
    path = tmp_path / f"artifact.{kind}"
    save(path, model)
    blob = path.read_bytes()
    count = sum(a.size for a in FLOAT_ARRAYS[kind](model))
    for slot in range(count):
        start = len(blob) - 8 * (count - slot)
        for value in (np.nan, np.inf, -np.inf):
            path.write_bytes(blob[:start] + struct.pack("<d", value)
                             + blob[start + 8:])
            with pytest.raises(CorruptArtifactError, match="finite"):
                load(path)


def test_error_is_typed_and_a_value_error():
    assert issubclass(CorruptArtifactError, OsidError)
    assert issubclass(CorruptArtifactError, ValueError)


# A few small u32 fields then arbitrary bytes reach the array reads and the
# model constructors; plain random bytes mostly stop at a huge header.
_payloads = st.one_of(
    st.binary(max_size=256),
    st.builds(lambda ints, tail: struct.pack(f"<{len(ints)}I", *ints) + tail,
              st.lists(st.integers(0, 4), max_size=5), st.binary(max_size=256)),
)


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_payloads)
def test_any_bytes_after_magic_load_or_raise_typed(tmp_path, kind, payload):
    _, load, magic, _ = FORMATS[kind]
    path = tmp_path / f"fuzz.{kind}"
    path.write_bytes(magic + payload)
    try:
        load(path)
    except CorruptArtifactError:
        pass


def test_reader_closes_file_on_bad_magic(tmp_path):
    path = tmp_path / "x.gmm"
    path.write_bytes(b"NOTAGMM!")
    reader = artifact.BinaryReader(path, GMM_MAGIC)
    with pytest.raises(CorruptArtifactError, match="bad magic"):
        reader.__enter__()
    assert reader._file.closed


def _float_file(path, values):
    artifact.write_binary(path, GMM_MAGIC, (len(values),), [np.asarray(values)])


def test_floats_read_into_a_given_slot(tmp_path):
    path = tmp_path / "x.gmm"
    _float_file(path, np.arange(6.0))
    stack = np.zeros((3, 2, 3))
    with artifact.BinaryReader(path, GMM_MAGIC) as r:
        r.ints(1)
        got = r.floats(2, 3, out=stack[1])
    assert np.shares_memory(got, stack)
    assert np.array_equal(stack[1], np.arange(6.0).reshape(2, 3))
    assert not stack[0].any() and not stack[2].any()


def test_short_read_is_a_corrupt_file(tmp_path):
    # The file shrinks after the reader sized it, so the read itself comes
    # up short past the size check.  The array is larger than the reader's
    # buffer, so its bytes are read only once floats asks for them.
    path = tmp_path / "x.gmm"
    _float_file(path, np.arange(20000.0))
    with pytest.raises(CorruptArtifactError, match="truncated"):
        with artifact.BinaryReader(path, GMM_MAGIC) as r:
            r.ints(1)
            with open(path, "r+b") as f:
                f.truncate(8 * 10000)
            r.floats(20000)


# --- tables ------------------------------------------------------------------

def _bank(tmp_path):
    bank = openset.SpeakerBank(speaker_ids=("a", "b"), models=(_gmm(), _gmm()),
                               ubm=_gmm())
    openset.save_bank(tmp_path, bank, "gmm")
    return tmp_path / openset.BANK_MANIFEST, lambda: openset.load_bank(tmp_path, "gmm")


def _speakers(tmp_path):
    openset.save_multiclass(tmp_path, initialize_network((3, 2), seed=0), ("a", "b"))
    return (tmp_path / openset.SPEAKERS_FILE,
            lambda: openset.read_speaker_ids(tmp_path))


def _manifest(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path, dataset.CorpusManifest(entries=(
        dataset.ManifestEntry("a", "u1", "a.wav", 1.5),)))
    return path, lambda: dataset.read_manifest(path)


def _partition(tmp_path):
    path = tmp_path / "partition.csv"
    write_partition(path, dataset.SpeakerPartition(
        ubm_speakers={"u"}, impostor_speakers={"i"}, enrolled_speakers={"e"}))
    return path, lambda: dataset.read_partition(path)


def _index(tmp_path):
    cfg = SimpleNamespace(output_dir=str(tmp_path), seed=0, train_fraction=0.7)
    path = tmp_path / cli.FEATURES_DIR / cli.FEATURE_INDEX
    path.parent.mkdir()
    artifact.write_table(path, cli.INDEX_COLUMNS, [("a", "u1", "000000.feat", "ok")])
    return path, lambda: cli._speaker_utterances(cfg, ["a"], "test")


def _trials(tmp_path):
    path = tmp_path / "trials_gmm_2.csv"
    metrics.write_trials(path, [metrics.TrialScore("u1", "a", "a", 0.5)], "gmm")
    return path, lambda: metrics.read_trials(path)


def _report(tmp_path):
    path = tmp_path / "report.csv"
    metrics.write_report(path, [metrics.ReportRow("gmm", 2, 1.0, 0.0, 0.5)])
    return path, lambda: metrics.read_report(path)


TABLES = {
    "bank manifest": (_bank, openset.BANK_COLUMNS),
    "speakers": (_speakers, ("speaker_id",)),
    "manifest": (_manifest, dataset.MANIFEST_COLUMNS),
    "partition": (_partition, dataset.PARTITION_COLUMNS),
    "index": (_index, cli.INDEX_COLUMNS),
    "trials": (_trials, metrics.TRIAL_COLUMNS),
    "report": (_report, metrics.REPORT_COLUMNS),
}


def drop_column(path, column):
    """Rewrite a CSV table without one of its columns."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([row[i] for i in keep] for row in rows)


@pytest.mark.parametrize("table, column", [
    (table, column) for table, (_, columns) in TABLES.items() for column in columns])
def test_missing_column_rejected(tmp_path, table, column):
    path, read = TABLES[table][0](tmp_path)
    read()
    drop_column(path, column)
    with pytest.raises(CorruptArtifactError, match=column):
        read()


@pytest.mark.parametrize("table, extra", [
    *((table, 1) for table in TABLES),
    *((table, -1) for table, (_, columns) in TABLES.items() if len(columns) > 1)])
def test_ragged_row_rejected(tmp_path, table, extra):
    path, read = TABLES[table][0](tmp_path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(",".join(["x"] * (len(TABLES[table][1]) + extra)) + "\n")
    with pytest.raises(CorruptArtifactError, match="does not match"):
        read()


def test_table_round_trip_keeps_extra_columns(tmp_path):
    path = tmp_path / "t.csv"
    artifact.write_table(path, ("a", "b", "c"), [("1", "x y", "3"), ("4", "5", "")])
    assert artifact.read_table(path, ("b",)) == [
        {"a": "1", "b": "x y", "c": "3"}, {"a": "4", "b": "5", "c": ""}]


# --- atomic writes -----------------------------------------------------------

@pytest.mark.parametrize("kind", ["binary", "table"])
def test_failed_write_leaves_the_previous_file(tmp_path, kind):
    path = tmp_path / "artifact"

    def write(last):
        if kind == "binary":
            artifact.write_binary(path, GMM_MAGIC, (1,), (np.ones(4), last))
        else:
            artifact.write_table(path, ("a",), ((v,) for v in (1, 2, 1 / last)))

    write(np.ones(2) if kind == "binary" else 1)
    before = path.read_bytes()
    with pytest.raises((ValueError, ZeroDivisionError)):
        write("not a number" if kind == "binary" else 0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_concurrent_writers_never_share_a_temp_file(tmp_path):
    path = tmp_path / "t.csv"
    versions = [[(str(k),)] * 200 for k in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        artifact.thread_map(lambda rows: artifact.write_table(path, ("v",), rows),
                            versions, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert artifact.read_table(path, ("v",)) in [
        [{"v": row[0]} for row in rows] for rows in versions]
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def _models(kind, offset):
    if kind == "gmm":
        return tuple(DiagGmm(weights=np.array([0.25, 0.75]),
                             means=np.full((2, 3), offset + k),
                             variances=np.ones((2, 3))) for k in range(2))
    return tuple(initialize_network((3, 4, 2), seed=offset + k) for k in range(2))


def _parameters(model):
    if isinstance(model, DiagGmm):
        return model.weights, model.means, model.variances
    return model.layers


# Two model files, then the UBM for a GMM bank, then the manifest.
@pytest.mark.parametrize("kind, fail_at", [("gmm", k) for k in range(4)]
                         + [("mlp", k) for k in range(3)])
@pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
def test_failed_bank_save_never_loads_a_mixed_bank(tmp_path, monkeypatch, kind,
                                                   fail_at, previous):
    """A save failing at any write: the old bank loads whole, or loading raises."""
    old_models, new_models = _models(kind, 0), _models(kind, 10)
    old = openset.SpeakerBank(("a", "b"), old_models,
                              ubm=old_models[0] if kind == "gmm" else None)
    new = openset.SpeakerBank(("c", "d"), new_models,
                              ubm=new_models[0] if kind == "gmm" else None)
    if previous:
        openset.save_bank(tmp_path, old, kind)
    writes = []
    for name in ("write_binary", "write_table"):
        def failing(path, *args, real=getattr(artifact, name)):
            writes.append(path)
            if len(writes) == fail_at + 1:
                raise OSError("disk full")
            return real(path, *args)
        monkeypatch.setattr(artifact, name, failing)
    with pytest.raises(OSError, match="disk full"):
        openset.save_bank(tmp_path, new, kind)
    monkeypatch.undo()
    last = fail_at == (3 if kind == "gmm" else 2)
    assert writes[-1].endswith(openset.BANK_MANIFEST) == last
    try:
        loaded = openset.load_bank(tmp_path, kind)
    except OsidError:
        return
    assert loaded.speaker_ids == old.speaker_ids
    for got, want in zip(loaded.models, old.models):
        assert all(np.array_equal(a, b)
                   for a, b in zip(_parameters(got), _parameters(want)))


# The network, then the speaker list.
@pytest.mark.parametrize("fail_at", [0, 1])
@pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
def test_failed_multiclass_save_never_loads_mixed(tmp_path, monkeypatch, fail_at,
                                                  previous):
    """A save failing at any write: the old network and ids load, or loading raises."""
    old = initialize_network((3, 4, 2), seed=0)
    if previous:
        openset.save_multiclass(tmp_path, old, ("a", "b"))
    writes = []
    for name in ("write_binary", "write_table"):
        def failing(path, *args, real=getattr(artifact, name)):
            writes.append(path)
            if len(writes) == fail_at + 1:
                raise OSError("disk full")
            return real(path, *args)
        monkeypatch.setattr(artifact, name, failing)
    with pytest.raises(OSError, match="disk full"):
        openset.save_multiclass(tmp_path, initialize_network((3, 4, 2), seed=1),
                                ("c", "d"))
    monkeypatch.undo()
    assert writes[-1].endswith(openset.SPEAKERS_FILE) == (fail_at == 1)
    try:
        net, ids = openset.load_multiclass(tmp_path)
    except OsidError:
        return
    assert ids == ("a", "b")
    assert all(np.array_equal(a, b)
               for a, b in zip(net.layers, old.layers))


# --- the thread pool ----------------------------------------------------------

def test_thread_map_keeps_item_order():
    def slow_first(k):
        time.sleep(0.002 * (20 - k))
        return k * k
    for threads in (1, 2, 4, 30):
        assert artifact.thread_map(slow_first, range(20), threads) == [
            k * k for k in range(20)]


def test_every_item_runs_once_under_contention():
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert artifact.thread_map(lambda k: runs.append(k) or k, range(300),
                                       8) == list(range(300))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == sorted(list(range(300)) * 20)


def test_callers_asking_for_more_workers_at_once():
    results, errors = [], []

    def caller(threads):
        try:
            for _ in range(20):
                results.append(artifact.thread_map(lambda k: k, range(9), threads)
                               == list(range(9)))
        except BaseException as exc:
            errors.append(exc)
    callers = [threading.Thread(target=caller, args=(threads,))
               for threads in range(2, 10)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=60)
    assert errors == [] and results == [True] * 20 * len(callers)


def test_first_error_in_item_order_after_every_started_call():
    started, ended = set(), set()

    def fn(k):
        started.add(k)
        try:
            if k == 1:
                time.sleep(0.2)  # still running when items 2 and 3 fail
            if k in (2, 3):
                raise ValueError(f"item {k}")
            return k
        finally:
            ended.add(k)
    with pytest.raises(ValueError, match="item 2"):
        artifact.thread_map(fn, range(12), 4)
    # Every item before the failed one ran; none ran unfinished.
    assert started == ended and {0, 1, 2} <= started


def test_nested_call_from_a_worker_runs_inline():
    result = []

    def outer(k):
        return artifact.thread_map(lambda j: (k * j, threading.get_ident()),
                                   range(3), 3)
    thread = threading.Thread(
        target=lambda: result.append(artifact.thread_map(outer, range(3), 3)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    (rows,) = result
    assert [[v for v, _ in row] for row in rows] == [[0, 0, 0], [0, 1, 2], [0, 2, 4]]
    assert all(len({ident for _, ident in row}) == 1 for row in rows[1:])


def test_workers_are_kept_across_calls():
    main = threading.get_ident()
    seen = [artifact.thread_map(lambda k: threading.get_ident(), range(3), 3)
            for _ in range(20)]
    assert all(idents[0] == main for idents in seen)
    # 20 calls of 2 tasks each ran on no more threads than one pool holds.
    workers = {ident for idents in seen for ident in idents[1:]}
    assert main not in workers and len(workers) <= artifact._pool[0]


def test_imports_and_maps_on_a_system_without_fork():
    src = os.path.dirname(os.path.dirname(os.path.abspath(artifact.__file__)))
    code = ("import os, numpy\n"
            "del os.register_at_fork\n"
            "from osid import artifact\n"
            "print(artifact.thread_map(lambda k: k + 1, range(3), 2))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1, 2, 3]\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_workers():
    assert artifact.thread_map(lambda k: k + 1, range(3), 3) == [1, 2, 3]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report the result or the error, then leave
        try:
            signal.alarm(20)
            out = repr(artifact.thread_map(lambda k: k + 1, range(3), 3))
        except BaseException as exc:
            out = repr(exc)
        os.write(write, out.encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as f:
        assert f.read() == "[1, 2, 3]"
    assert os.waitpid(pid, 0)[1] == 0
