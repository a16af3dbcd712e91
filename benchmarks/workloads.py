"""The benchmark workloads.

pipeline  The full CLI chain extract -> train-ubm -> train x3 -> evaluate x3
          through ``osid.cli.main`` on a seeded WAV corpus at desk scale.
          Set-up writes the corpus and runs the whole chain, checking its
          report against the stored reference.  The measured passes then
          repeat train-ubm -> train x3 -> evaluate x3 on the extracted
          features, each followed by scoring two clips of every speaker
          with the trained banks.  It is the only
          workload that runs the front-end, the CLI glue, the feature cache,
          bank IO and the metrics, and the way evaluate re-scores every
          trial at each nested population size.
enroll    train-ubm and train for the three architectures at the paper's
          model shapes (1024-component UBM, 64-component speaker GMMs,
          24-50-50-2 nets, one 24-1200-1200-100 net), with iteration and
          epoch counts capped.  Corpus synthesis and extract are set-up.
          k-means, EM at 1024 components and large-batch network training
          do the work; the front-end and scoring do none.  Run by hand
          only: BENCHMARK.json leaves it out, because its training times
          follow the host's load from run to run by more than the bound.
identify  A closed loop with one caller scoring a seeded stream of
          utterances, one trial at a time, against banks at the paper's
          largest shape (K = 700).  The stream is replayed while time lasts.
          The banks come from random parameters and are saved and reloaded
          during set-up.  GMM densities,
          small-batch forward passes and the open-set loops do the work;
          nothing is trained and nothing is read or written.

Every workload reports every end-to-end metric in BENCHMARK.json.  The
stage and trial times that enroll and identify do not produce themselves
come from a companion chain: the pipeline chain at the pipeline scale, run
before and after the workload's own measurement, never traced.

Every timed call, set-up included, sits between two host probes (see
Timings), and a figure is the median of its calls' times, each scaled to the
speed of a reference host.

The osid modules are always reached through their attributes
(``openset_mod.gmm_closed_set``), so the traced run's wrappers see the
benchmark's own calls too.
"""

import collections
import contextlib
import csv
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import spans
import synth
from synth import RoleShape

from osid import cli as cli_mod
from osid import features as features_mod
from osid import metrics as metrics_mod
from osid import openset as openset_mod

ARCHS = ("gmm", "subnn", "multiclass")
STAGE_METRICS = ("train_ubm_s",
                 *(f"train_s.{a}" for a in ARCHS),
                 *(f"evaluate_s.{a}" for a in ARCHS))
TRIAL_METRICS = tuple(f"trial_{q}_ms.{a}" for q in ("p50", "p90") for a in ARCHS)
# The CLI commands of a measured chain pass, after extract.
STAGES = (("train_ubm_s", ("train-ubm",)),
          *((f"train_s.{a}", ("train", "--arch", a)) for a in ARCHS),
          *((f"evaluate_s.{a}", ("evaluate", "--arch", a)) for a in ARCHS))
COMPANION_SHARE = 0.9       # companion measuring time, as a share of --seconds
PROBE_LOOPS = 20000
# The probe's time on the host the benchmark was tuned on (2-vCPU Xeon VM,
# Python 3.11) in that host's fast state.  Times are reported at this speed.
REFERENCE_PROBE_S = 1.2e-3


@dataclass(frozen=True)
class CorpusScale:
    """A WAV corpus, by partition role, and the config the CLI runs it with."""

    roles: tuple
    config: dict


@dataclass(frozen=True)
class IdentifyScale:
    speakers: int
    speaker_components: int
    ubm_components: int
    subnn_hidden: tuple
    multiclass_hidden: tuple
    lengths: tuple          # (shortest, longest, utterances per round), see README
    rounds: int             # rounds in the stream, which is replayed
    checked_trials: int     # trials re-scored by the independent reference


@dataclass(frozen=True)
class Scales:
    pipeline: CorpusScale
    enroll: CorpusScale
    identify: IdentifyScale


# Widths are reduced for pipeline, EM is capped at 10 iterations and k-means
# at 5.  The UBM's convergence point moves between 40 and 90 iterations from
# seed to seed, and k-means on small speaker sets stops early at a
# seed-dependent iteration; either would make the training times follow the
# seed.  Training schedules are the defaults.  The corpus is small enough for
# about 20 measured passes in a 30 s run.
DEFAULT_SCALES = Scales(
    pipeline=CorpusScale(
        roles=(RoleShape("ubm", 12, 4, 1.5), RoleShape("impostor", 12, 4, 1.5),
               RoleShape("enrolled", 16, 4, 1.5)),
        config=dict(ubm_components=64, speaker_gmm_components=8,
                    em_max_iterations=10, kmeans_iterations=5, subnn_hidden=(16, 16),
                    multiclass_hidden=(32, 32), population_sizes=(4, 8, 16))),
    # About 4.5k UBM frames, and 160 training frames per enrolled speaker, so
    # that the multi-class epoch is one full batch of 15000 and a short one.
    enroll=CorpusScale(
        roles=(RoleShape("ubm", 6, 4, 3.0), RoleShape("enrolled", 100, 3, 0.95)),
        config=dict(population_sizes=(100,), kmeans_iterations=3,
                    em_max_iterations=3, multiclass_epochs=1)),
    identify=IdentifyScale(
        speakers=700, speaker_components=64, ubm_components=1024,
        subnn_hidden=(50, 50), multiclass_hidden=(1200, 1200),
        lengths=(100, 400, 5), rounds=1, checked_trials=3),
)


# --- bookkeeping -------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed; a failed output check fails its operation."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def probe_s():
    """Wall time of a fixed pure-Python loop, about a millisecond."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Timings:
    """Timed calls, each between two host probes.

    On a shared virtual machine each vCPU switches between a fast state and
    one about 1.45x slower (a busy host sibling thread) every few seconds,
    and the share of a run spent in the slow state, and how slow it is,
    differ from run to run.  A fixed pure-Python loop run just before and
    just after a call tells how fast the host ran the call.  Each call's
    time is scaled by REFERENCE_PROBE_S over the mean of its two probes, so
    it reads as the call's time on the reference host, and a figure is the
    median of its scaled calls.  Calls that raised are left out.  A program
    change that makes a call k times slower makes its figure k times larger.
    """

    def __init__(self):
        self.samples = collections.defaultdict(list)
        self.probes = []

    def probe(self):
        seconds = probe_s()
        self.probes.append(seconds)
        return seconds

    def add(self, key, seconds, before, after):
        if seconds is not None:
            self.samples[key].append((seconds, 0.5 * (before + after)))

    def timed(self, key, fn, *args):
        """Call fn between two probes, record its time under key, return its result."""
        before = self.probe()
        seconds, result = _timed(fn, *args)
        self.add(key, seconds, before, self.probe())
        return result

    def estimate(self, key):
        """Median scaled time of the key's calls, NaN when none succeeded."""
        if not self.samples[key]:
            return float("nan")
        seconds, probes = np.array(self.samples[key]).T
        return float(np.median(seconds * REFERENCE_PROBE_S / probes))

    def summary(self):
        return (f"host probe: {len(self.probes)} probes, fastest "
                f"{1000 * min(self.probes):.3f} ms, median "
                f"{1000 * _median(self.probes):.3f} ms, reference "
                f"{1000 * REFERENCE_PROBE_S:.3f} ms")


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: str
    ledger: Ledger = field(default_factory=Ledger)
    notes: list = field(default_factory=list)
    timings: Timings = field(default_factory=Timings)
    # model evaluations and trials per architecture, from EvalCounter
    evaluations: dict = field(default_factory=dict)

    def fresh_dir(self, name):
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def _median(values):
    return float(np.median(values))


def repeat_for(seconds, step):
    """Call step() at least once, and again while the next call should end in time.

    Returns the number of calls.  The mean duration so far predicts the next.
    """
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return calls


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


# --- the CLI chain -----------------------------------------------------------

def run_cli(ctx, config, out, *argv):
    """Wall time of one osid command as a user sees it; a nonzero exit fails it."""
    argv = [*argv, "--config", config, "--out", out]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_mod.main(argv)
    except Exception as exc:  # a traceback out of main is a failed command
        code = repr(exc)
    elapsed = time.perf_counter() - start
    ctx.ledger.record(code == 0, f"osid {' '.join(argv[:3])}: exit {code}: "
                      f"{sink.getvalue().strip()[-300:]}")
    return elapsed


def chain_pass(ctx, config, out):
    """The whole chain, extract included, untimed: set-up and traced work."""
    run_cli(ctx, config, out, "extract")
    for _, argv in STAGES:
        run_cli(ctx, config, out, *argv)


def timed_stages(ctx, config, out, tag, stages):
    """Run CLI commands in turn, each timed between host probes under (tag, metric)."""
    timings = ctx.timings
    before = timings.probe()
    for metric, argv in stages:
        seconds = run_cli(ctx, config, out, *argv)
        after = timings.probe()
        timings.add((tag, metric), seconds, before, after)
        before = after


def read_report(out):
    path = os.path.join(out, "report.csv")
    if not os.path.exists(path):
        return []
    return [(r.architecture, r.population_size, r.csrr, r.eer)
            for r in metrics_mod.read_report(path)]


class Chain:
    """Measured passes of the CLI chain after extract, in one output dir.

    ``out`` already holds the extracted features and ``expected`` the report
    of a whole chain pass over them.  Every pass re-runs train-ubm, train and
    evaluate, timing each command, and checks its report against
    ``expected``.  With ``score`` it ends with a timed scoring pass over its
    banks, for the trial metrics.
    """

    def __init__(self, ctx, scale, config, out, expected, tag, score=True):
        self.ctx, self.scale, self.config, self.out = ctx, scale, config, out
        self.expected, self.tag, self.score = expected, tag, score
        self.passes = 0

    def step(self):
        timed_stages(self.ctx, self.config, self.out, self.tag, STAGES)
        self.ctx.ledger.record(checks.same_report(read_report(self.out), self.expected),
                               f"{self.tag} pass {self.passes} report differs")
        self.passes += 1
        if self.score:
            pipeline_trials(self.ctx, self.scale, self.out, self.tag)

    def metrics(self):
        timings = self.ctx.timings
        stages = {m: (timings.estimate((self.tag, m)), "s") for m in STAGE_METRICS}
        return {**stages, **trial_metrics(timings, self.tag)} if self.score else stages

    def summary(self):
        return f"{self.passes} {self.tag} passes"


def companion_chain(ctx, scale, score):
    """The pipeline chain on the pipeline's corpus, checked as pipeline is."""
    root = ctx.fresh_dir("companion")
    config = synth.build_corpus(root, ctx.seed, scale.roles, scale.config)
    out = os.path.join(root, "out")
    chain_pass(ctx, config, out)
    report = read_report(out)
    ctx.notes.append(checks.pipeline_reference_note(ctx, ctx.seed, report, scale))
    return Chain(ctx, scale, config, out, report, "companion", score)


def pipeline_trials(ctx, scale, out, tag):
    """Score the first two extracted utterances of every speaker with the banks.

    Each utterance is one timed trial per architecture, keyed by its place
    in an order that every pass over the same corpus repeats.
    """
    size = max(scale.config["population_sizes"])
    gmm_bank = openset_mod.load_bank(os.path.join(out, "bank_gmm"), "gmm")
    subnn_bank = openset_mod.load_bank(os.path.join(out, "bank_subnn"), "mlp")
    net, ids = openset_mod.load_multiclass(
        os.path.join(out, "bank_multiclass", f"size_{size}"))
    banks = (gmm_bank, subnn_bank, net, ids)
    feature_dir = os.path.join(out, "features")
    caches, taken = [], collections.Counter()
    with open(os.path.join(feature_dir, "index.csv"), newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if row["status"] == "ok" and taken[row["speaker_id"]] < 2:
                taken[row["speaker_id"]] += 1
                caches.append(row["cache_file"])
    utterances = [features_mod.load_features(os.path.join(feature_dir, c)) for c in caches]
    score_stream(ctx, banks, utterances, tag)


# --- scoring -----------------------------------------------------------------

def score_trial(ctx, arch, banks, X):
    """One trial through the architecture's public scoring functions.

    Returns (seconds, decision), or (None, None) when the call raised.
    EvalCounter must read K+1, K and 1.
    """
    gmm_bank, subnn_bank, net, ids = banks
    counter = openset_mod.EvalCounter()
    start = time.perf_counter()
    try:
        if arch == "gmm":
            best, best_ll = openset_mod.gmm_closed_set(gmm_bank, X, counter)
            decision = openset_mod.gmm_verify(gmm_bank, X, best, best_ll,
                                              theta=0.0, counter=counter)
        elif arch == "subnn":
            decision = openset_mod.subnn_open_set(subnn_bank, X, theta=0.0,
                                                  counter=counter)
        else:
            decision = openset_mod.multiclass_open_set(net, ids, X, theta=0.0,
                                                       counter=counter)
    except Exception as exc:  # a raised scoring call is a failed trial
        ctx.ledger.record(False, f"{arch} trial raised {exc!r}")
        return None, None
    elapsed = time.perf_counter() - start
    expected = {"gmm": len(gmm_bank) + 1, "subnn": len(subnn_bank), "multiclass": 1}[arch]
    ctx.ledger.record(counter.model_evaluations == expected,
                      f"{arch} trial made {counter.model_evaluations} model "
                      f"evaluations, expected {expected}")
    evals, trials = ctx.evaluations.get(arch, (0, 0))
    ctx.evaluations[arch] = (evals + counter.model_evaluations, trials + 1)
    return elapsed, decision


def score_stream(ctx, banks, stream, tag):
    """Score every utterance once with each architecture, timing each trial.

    A probe follows every utterance.  Returns the decisions per architecture,
    None where the call raised.
    """
    timings = ctx.timings
    decisions = {arch: [] for arch in ARCHS}
    before = timings.probe()
    for index, X in enumerate(stream):
        results = {arch: score_trial(ctx, arch, banks, X) for arch in ARCHS}
        after = timings.probe()
        for arch, (seconds, decision) in results.items():
            timings.add((tag, arch, index), seconds, before, after)
            decisions[arch].append(decision)
        before = after
    return decisions


def trial_metrics(timings, tag):
    """p50 and p90 over the distinct trials of each trial's time.

    A trial is scored once per replay of the same utterances; its time is
    the Timings estimate over its replays, so the percentiles describe how
    latency varies with the trial, not with the host.
    """
    out = {}
    for arch in ARCHS:
        trials = sorted(key[2] for key in timings.samples
                        if len(key) == 3 and key[:2] == (tag, arch))
        ms = 1000.0 * np.array([timings.estimate((tag, arch, i)) for i in trials])
        out[f"trial_p50_ms.{arch}"] = (float(np.nanpercentile(ms, 50)), "ms")
        out[f"trial_p90_ms.{arch}"] = (float(np.nanpercentile(ms, 90)), "ms")
    return out


# --- workloads ---------------------------------------------------------------

class Pipeline:
    name = "pipeline"
    measures = STAGE_METRICS + TRIAL_METRICS
    setup_repeats = 5

    def __init__(self, ctx, scales):
        self.ctx, self.scale = ctx, scales.pipeline

    # The set-up's chain pass would add a second chain to the layer counts.
    trace_setup = False

    def setup(self, tag):
        """Write the corpus and run the whole chain once, as a first run would."""
        root = self.ctx.fresh_dir(tag)
        config = synth.build_corpus(root, self.ctx.seed, self.scale.roles,
                                    self.scale.config)
        out = os.path.join(root, "out")
        chain_pass(self.ctx, config, out)
        return config, out, read_report(out)

    def measure(self, state):
        config, out, report = state
        self.ctx.notes.append(checks.pipeline_reference_note(
            self.ctx, self.ctx.seed, report, self.scale))
        chain = Chain(self.ctx, self.scale, config, out, report, "pipeline")
        repeat_for(self.ctx.seconds, chain.step)
        self.ctx.notes.append(chain.summary())
        return chain.metrics()

    def fixed_work(self, state, tag):
        """One whole chain pass: only CLI commands, so the layer figures are theirs."""
        out = self.ctx.fresh_dir(tag)
        chain_pass(self.ctx, state[0], out)
        shutil.rmtree(out)


class Enroll:
    name = "enroll"
    measures = ("train_ubm_s", *(f"train_s.{a}" for a in ARCHS))
    setup_repeats = 3
    trace_setup = True

    def __init__(self, ctx, scales):
        self.ctx, self.scale = ctx, scales.enroll

    def setup(self, tag):
        root = self.ctx.fresh_dir(tag)
        config = synth.build_corpus(root, self.ctx.seed, self.scale.roles, self.scale.config)
        out = os.path.join(root, "out")
        run_cli(self.ctx, config, out, "extract")
        return config, out

    def _pass(self, state):
        config, out = state
        timed_stages(self.ctx, config, out, self.name, STAGES[:1 + len(ARCHS)])

    def measure(self, state):
        def step():
            self._pass(state)
            self.check(state)
        passes = repeat_for(self.ctx.seconds, step)
        self.ctx.notes.append(f"enroll: {passes} passes")
        return {m: (self.ctx.timings.estimate((self.name, m)), "s") for m in self.measures}

    def fixed_work(self, state, tag):
        self._pass(state)

    def check(self, state):
        """The written banks load back with K models."""
        config, out = state
        k = max(self.scale.config["population_sizes"])
        ledger = self.ctx.ledger
        try:
            gmm_bank = openset_mod.load_bank(os.path.join(out, "bank_gmm"), "gmm")
            subnn_bank = openset_mod.load_bank(os.path.join(out, "bank_subnn"), "mlp")
            net, ids = openset_mod.load_multiclass(
                os.path.join(out, "bank_multiclass", f"size_{k}"))
        except Exception as exc:  # an unreadable bank fails the check
            ledger.record(False, f"enroll banks do not load: {exc!r}")
            return
        ledger.record(len(gmm_bank) == k and gmm_bank.ubm is not None,
                      f"gmm bank holds {len(gmm_bank)} models, expected {k}")
        ledger.record(len(subnn_bank) == k,
                      f"subnn bank holds {len(subnn_bank)} models, expected {k}")
        ledger.record(len(ids) == k and net.output_dim == k,
                      f"multiclass net covers {len(ids)} speakers, expected {k}")


class Identify:
    name = "identify"
    measures = TRIAL_METRICS
    setup_repeats = 7
    trace_setup = True

    def __init__(self, ctx, scales):
        self.ctx, self.scale = ctx, scales.identify
        low, high, count = self.scale.lengths
        self.lengths = synth.identify_lengths(low, high, count)

    def setup(self, tag):
        """Build banks from random parameters, save them and load them back."""
        s = self.scale
        gmm_bank, subnn_bank, net, ids = synth.build_banks(
            self.ctx.seed, s.speakers, s.speaker_components, s.ubm_components,
            s.subnn_hidden, s.multiclass_hidden)
        root = self.ctx.fresh_dir(tag)
        openset_mod.save_bank(os.path.join(root, "bank_gmm"), gmm_bank, "gmm")
        openset_mod.save_bank(os.path.join(root, "bank_subnn"), subnn_bank, "mlp")
        openset_mod.save_multiclass(os.path.join(root, "multiclass"), net, ids)
        gmm_bank = openset_mod.load_bank(os.path.join(root, "bank_gmm"), "gmm")
        subnn_bank = openset_mod.load_bank(os.path.join(root, "bank_subnn"), "mlp")
        net, ids = openset_mod.load_multiclass(os.path.join(root, "multiclass"))
        return gmm_bank, subnn_bank, net, ids

    def _stream(self, banks):
        return [X for index in range(self.scale.rounds)
                for X in synth.identify_round(self.ctx.seed, index, banks[0], self.lengths)]

    def measure(self, banks):
        k = self.scale.speakers
        self.ctx.ledger.record(
            len(banks[0]) == k and len(banks[1]) == k and len(banks[3]) == k,
            "reloaded banks do not hold K models")
        stream = self._stream(banks)
        replays = []
        repeat_for(self.ctx.seconds, lambda: replays.append(
            score_stream(self.ctx, banks, stream, self.name)))
        checked = [(X, {arch: replays[0][arch][i] for arch in ARCHS})
                   for i, X in enumerate(stream[:self.scale.checked_trials])]
        checks.identify_reference(self.ctx, banks, checked)
        self.ctx.notes.append(f"identify: {len(stream)} utterances, each scored "
                              f"{len(replays)} times per architecture")
        return trial_metrics(self.ctx.timings, self.name)

    def fixed_work(self, banks, tag):
        score_stream(self.ctx, banks, self._stream(banks), self.name)


WORKLOADS = {cls.name: cls for cls in (Pipeline, Enroll, Identify)}


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, workdir, scales=DEFAULT_SCALES):
    """Run one workload; returns (metrics, ledger, notes, recorder or None)."""
    ctx = Context(seed=seed, seconds=seconds, workdir=workdir)
    workload = WORKLOADS[name](ctx, scales)
    if trace:
        return _run_traced(ctx, workload)
    setup_start = time.perf_counter()
    for i in range(workload.setup_repeats):
        state = ctx.timings.timed("setup_s", workload.setup, f"setup{i}")
        if i + 1 < workload.setup_repeats:
            del state
            shutil.rmtree(os.path.join(workdir, f"setup{i}"))
    setup_elapsed = time.perf_counter() - setup_start
    metrics = {"setup_s": (ctx.timings.estimate("setup_s"), "s")}
    missing = [m for m in STAGE_METRICS + TRIAL_METRICS if m not in workload.measures]
    # Half of the companion's measuring time comes before the workload's
    # measurement and half after, so that its figures do not rest on one stretch of
    # machine time.
    companion = (companion_chain(ctx, scales.pipeline,
                                 score=any(m in missing for m in TRIAL_METRICS))
                 if missing else None)

    def companion_half():
        if companion is not None:
            repeat_for(COMPANION_SHARE * seconds / 2, companion.step)
    companion_half()
    elapsed, measured = _timed(workload.measure, state)
    companion_half()
    metrics.update(measured)
    del state
    note = f"phases: set-up {setup_elapsed:.1f} s, measure {elapsed:.1f} s"
    if companion:
        metrics.update((m, v) for m, v in companion.metrics().items() if m in missing)
        note += f", {companion.summary()}, for " + ", ".join(missing)
    ctx.notes.append(note)
    ctx.notes.append(ctx.timings.summary())
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, ctx.ledger, ctx.notes, None


def _run_traced(ctx, workload, repeats=2):
    """Set up once; then run the fixed work untraced and traced in turn.

    The set-up is traced where the workload says so.  The order is U T U T U.
    Spans and EvalCounter totals come from the set-up and the first traced
    run.  The tracing overhead is the median traced time over the
    median untraced time, minus 1; alternating keeps slow stretches of the
    machine from landing on one side only.
    """
    recorder = spans.Recorder()
    with spans.traced(recorder) if workload.trace_setup else contextlib.nullcontext():
        recorder.phase = "setup"
        state = workload.setup("setup0")
    untraced, traced = [], []
    evaluations = None
    for i in range(repeats):
        untraced.append(_timed(workload.fixed_work, state, f"untraced{i}")[0])
        ctx.evaluations.clear()
        with spans.traced(recorder if i == 0 else spans.Recorder()) as active:
            active.phase = "timed"
            traced.append(_timed(workload.fixed_work, state, f"traced{i}")[0])
        if i == 0:
            evaluations = dict(ctx.evaluations)
    untraced.append(_timed(workload.fixed_work, state, f"untraced{repeats}")[0])
    metrics = spans.layer_metrics(recorder.spans, evaluations,
                                  _median(traced) / _median(untraced) - 1.0)
    for claim, holds, detail in spans.predictions(recorder.spans, workload.name):
        ctx.notes.append(f"prediction {'holds' if holds else 'does not hold'}: {claim}"
                         + ("" if holds else f" ({detail})"))
    return metrics, ctx.ledger, ctx.notes, recorder
