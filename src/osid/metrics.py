"""Open-set performance metrics over trial score sets.

An enrolled-speaker trial can fail two ways: the utterance is rejected
outright (false rejection) or accepted under the wrong identity
(mislabeling).  The open-set equal error rate is therefore the operating
point where the false-acceptance rate over impostor trials equals the sum of
the false-rejection and mislabeling rates over enrolled trials.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import CorruptArtifactError

# true_speaker marker for trials whose speaker is outside the enrolled set
IMPOSTOR = "<impostor>"

TRIAL_COLUMNS = ("utterance_id", "true_speaker", "predicted_speaker", "score",
                 "architecture")
REPORT_COLUMNS = ("architecture", "population_size", "csrr", "eer",
                  "theta_star")


@dataclass(frozen=True)
class TrialScore:
    utterance_id: str
    true_speaker: str
    predicted_speaker: str
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError("trial score must be finite")
        if not self.predicted_speaker:
            raise ValueError("predicted_speaker must name an enrolled speaker")

    @property
    def is_impostor(self):
        return self.true_speaker == IMPOSTOR


def csrr(trials):
    """Closed-set recognition rate over enrolled trials.

    The fraction of trials whose best-matching model is the true speaker,
    independent of scores and thresholds.  Impostor trials are a usage error
    here: the rate is defined only over the enrolled set.
    """
    trials = list(trials)
    if not trials:
        raise ValueError("need at least one trial")
    correct = 0
    for t in trials:
        if t.is_impostor:
            raise ValueError("closed-set rate is defined over enrolled trials only")
        correct += t.predicted_speaker == t.true_speaker
    return correct / len(trials)


def _operating_points(trials):
    """FAR/FRR/MLR at every distinct score plus a reject-all sentinel.

    Sorted-count lookups make the full sweep O(n log n); the tests'
    oracles.rates_at_threshold loop is the definitional reference.
    """
    imp_scores, enr_scores, wrong_scores = [], [], []
    for t in trials:
        if t.is_impostor:
            imp_scores.append(t.score)
        else:
            enr_scores.append(t.score)
            if t.predicted_speaker != t.true_speaker:
                wrong_scores.append(t.score)
    imp = np.sort(imp_scores)
    enr = np.sort(enr_scores)
    wrong = np.sort(wrong_scores)
    thresholds = np.unique(np.concatenate([imp, enr]))
    # The sentinel rejects every trial: + 1.0 lifts it above the top score,
    # or the next float up where + 1.0 does not move it (2^53 and up), or
    # infinity above the largest finite float.
    thresholds = np.append(thresholds, max(thresholds[-1] + 1.0,
                                           math.nextafter(thresholds[-1], math.inf)))
    far = (imp.size - np.searchsorted(imp, thresholds, side="left")) / imp.size
    frr = np.searchsorted(enr, thresholds, side="left") / enr.size
    mlr = (wrong.size - np.searchsorted(wrong, thresholds, side="left")) / enr.size
    return thresholds, far, frr, mlr


def compute_eer(trials):
    """Equal error rate where FAR crosses FRR + MLR, with the threshold.

    The threshold sweep visits every distinct trial score (the lowest one is
    the accept-all corner) plus a reject-all sentinel above the maximum.  The
    crossing is located between the first adjacent pair of operating points
    where the sign of FAR - (FRR + MLR) changes, and both sides are linearly
    interpolated to the exact balance point, making the value grid-free.

    Perfectly separated trial sets (every impostor below every enrolled
    score, all identities correct) report an EER of 0 at the midpoint of the
    score gap.
    """
    trials = list(trials)
    enrolled = [t for t in trials if not t.is_impostor]
    impostor = [t for t in trials if t.is_impostor]
    if not enrolled or not impostor:
        raise ValueError("need at least one enrolled and one impostor trial")

    all_correct = all(t.predicted_speaker == t.true_speaker for t in enrolled)
    max_imp = max(t.score for t in impostor)
    min_enr = min(t.score for t in enrolled)
    if all_correct and max_imp < min_enr:
        return 0.0, max_imp / 2.0 + min_enr / 2.0

    thresholds, far, frr, mlr = _operating_points(trials)
    diffs = far - (frr + mlr)
    # With finite scores diffs is 1 - MLR >= 0 at the lowest score and -1 at
    # the reject-all sentinel, so a crossing always exists.
    i = int(np.flatnonzero((diffs[:-1] >= 0.0) & (diffs[1:] <= 0.0))[0])
    span = diffs[i] - diffs[i + 1]
    t = diffs[i] / span if span > 0.0 else 0.0
    eer = far[i] + t * (far[i + 1] - far[i])
    lo, hi = float(thresholds[i]), float(thresholds[i + 1])
    # The weighted form cannot overflow, but it may round an ulp past either
    # end; at t = 0 it is lo, also below an infinite sentinel.
    theta = lo if t == 0.0 else min(max((1.0 - t) * lo + t * hi, lo), hi)
    return float(eer), float(theta)


def write_trials(path, trials, architecture):
    """Trial score CSV; scores are written with full float round-trip precision."""
    artifact.write_table(path, TRIAL_COLUMNS, (
        (t.utterance_id, t.true_speaker, t.predicted_speaker,
         repr(float(t.score)), architecture)
        for t in trials))


def read_trials(path):
    """Read a trial CSV back; returns (trials, architecture tag)."""
    rows = artifact.read_table(path, TRIAL_COLUMNS)
    try:
        trials = [TrialScore(row["utterance_id"], row["true_speaker"],
                             row["predicted_speaker"], float(row["score"]))
                  for row in rows]
    except ValueError as exc:
        raise CorruptArtifactError(f"{path}: {exc}") from exc
    archs = {row["architecture"] for row in rows}
    if len(archs) > 1:
        raise CorruptArtifactError(f"{path}: mixes architectures {sorted(archs)}")
    return trials, (archs.pop() if archs else "")


@dataclass(frozen=True)
class ReportRow:
    architecture: str
    population_size: int
    csrr: float
    eer: float
    theta_star: float


def write_report(path, rows):
    """Summary CSV: one row per (architecture, population size)."""
    artifact.write_table(path, REPORT_COLUMNS, (
        (r.architecture, r.population_size, repr(float(r.csrr)),
         repr(float(r.eer)), repr(float(r.theta_star)))
        for r in rows))


def read_report(path):
    return [ReportRow(row["architecture"], int(row["population_size"]),
                      *(float(row[c]) for c in ("csrr", "eer", "theta_star")))
            for row in artifact.read_table(path, REPORT_COLUMNS)]
