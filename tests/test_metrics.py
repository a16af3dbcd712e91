"""Tests for CSRR, threshold error rates, EER, and the operating-curve sweep."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osid.metrics import (
    IMPOSTOR,
    ReportRow,
    TrialScore,
    _operating_points,
    compute_eer,
    csrr,
    read_report,
    read_trials,
    write_report,
    write_trials,
)
from oracles import det_sweep, rates_at_threshold

SPEAKERS = [f"spk{i}" for i in range(8)]


def enrolled_trial(speaker_index, score, predicted=None, utt="u"):
    predicted = speaker_index if predicted is None else predicted
    return TrialScore(utterance_id=utt, true_speaker=SPEAKERS[speaker_index],
                      predicted_speaker=SPEAKERS[predicted], score=score)


def impostor_trial(score, predicted=0, utt="u"):
    return TrialScore(utterance_id=utt, true_speaker=IMPOSTOR,
                      predicted_speaker=SPEAKERS[predicted], score=score)


def random_trials(rng, n_enrolled=120, n_impostor=150, correct_rate=0.9,
                  enrolled_loc=1.0, impostor_loc=0.0, scale=1.0):
    """Overlapping score distributions with occasional mislabels."""
    trials = []
    for i in range(n_enrolled):
        true_idx = int(rng.integers(0, len(SPEAKERS)))
        if rng.uniform() < correct_rate:
            predicted = true_idx
        else:
            predicted = int((true_idx + 1) % len(SPEAKERS))
        trials.append(enrolled_trial(true_idx,
                                     float(rng.normal(enrolled_loc, scale)),
                                     predicted, utt=f"e{i}"))
    for i in range(n_impostor):
        trials.append(impostor_trial(float(rng.normal(impostor_loc, scale)),
                                     utt=f"i{i}"))
    return trials


def grid_sweep_eer(trials, step=1e-6):
    """Independent EER oracle: exhaustive dense-threshold sweep.

    Every grid threshold is evaluated by direct elementwise comparison
    against all trial scores (chunked for memory), nothing shared with the
    production operating-point sweep.
    """
    imp = np.array([t.score for t in trials if t.true_speaker == IMPOSTOR])
    enr = np.array([t.score for t in trials if t.true_speaker != IMPOSTOR])
    wrong = np.array([t.score for t in trials
                      if t.true_speaker != IMPOSTOR
                      and t.predicted_speaker != t.true_speaker])
    lo = min(imp.min(), enr.min()) - 10 * step
    hi = max(imp.max(), enr.max()) + 10 * step
    grid = np.arange(lo, hi, step)
    far = np.empty(grid.size)
    frr = np.empty(grid.size)
    mlr = np.empty(grid.size)
    chunk = 200_000
    for start in range(0, grid.size, chunk):
        block = grid[start:start + chunk, None]
        far[start:start + chunk] = np.mean(imp[None, :] >= block, axis=1)
        frr[start:start + chunk] = np.mean(enr[None, :] < block, axis=1)
        if wrong.size:
            mlr[start:start + chunk] = (
                np.sum(wrong[None, :] >= block, axis=1) / enr.size)
        else:
            mlr[start:start + chunk] = 0.0
    diff = far - (frr + mlr)
    sign_change = np.flatnonzero((diff[:-1] >= 0) & (diff[1:] <= 0))
    i = int(sign_change[0])
    span = diff[i] - diff[i + 1]
    t = diff[i] / span if span > 0 else 0.0
    return float(far[i] + t * (far[i + 1] - far[i]))


class TestCsrr:
    def test_all_correct(self):
        trials = [enrolled_trial(i % 8, 1.0) for i in range(20)]
        assert csrr(trials) == 1.0

    def test_three_in_a_thousand_wrong(self):
        trials = [enrolled_trial(i % 8, 1.0) for i in range(997)]
        trials += [enrolled_trial(0, 1.0, predicted=1) for _ in range(3)]
        assert csrr(trials) == pytest.approx(0.997)

    def test_matches_counting_oracle(self, rng):
        trials = random_trials(rng)
        enrolled = [t for t in trials if t.true_speaker != IMPOSTOR]
        expected = sum(t.predicted_speaker == t.true_speaker
                       for t in enrolled) / len(enrolled)
        assert csrr(enrolled) == pytest.approx(expected)

    def test_score_independent(self, rng):
        trials = [enrolled_trial(1, float(s)) for s in rng.normal(size=10)]
        assert csrr(trials) == 1.0

    def test_impostor_trial_rejected(self):
        with pytest.raises(ValueError):
            csrr([enrolled_trial(0, 1.0), impostor_trial(0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            csrr([])


class TestRatesAtThreshold:
    def test_reject_all_corner(self):
        trials = [enrolled_trial(0, 0.5), impostor_trial(0.4)]
        rates = rates_at_threshold(trials, theta=10.0)
        assert (rates.far, rates.frr, rates.mlr) == (0.0, 1.0, 0.0)

    def test_accept_all_corner(self):
        trials = [enrolled_trial(0, 0.5), enrolled_trial(1, 0.6), impostor_trial(0.4)]
        rates = rates_at_threshold(trials, theta=-10.0)
        assert (rates.far, rates.frr, rates.mlr) == (1.0, 0.0, 0.0)

    def test_mislabel_counted_when_accepted(self):
        trials = [enrolled_trial(0, 0.9, predicted=1), impostor_trial(0.1)]
        rates = rates_at_threshold(trials, theta=0.5)
        assert (rates.far, rates.frr, rates.mlr) == (0.0, 0.0, 1.0)

    def test_rejected_mislabel_counts_as_false_rejection_only(self):
        trials = [enrolled_trial(0, 0.2, predicted=1), impostor_trial(0.1)]
        rates = rates_at_threshold(trials, theta=0.5)
        assert (rates.far, rates.frr, rates.mlr) == (0.0, 1.0, 0.0)

    def test_matches_case_analysis_oracle(self, rng):
        trials = random_trials(rng)
        theta = 0.7
        n_imp = n_enr = fa = fr = ml = 0
        for t in trials:
            if t.true_speaker == IMPOSTOR:
                n_imp += 1
                fa += t.score >= theta
            else:
                n_enr += 1
                if t.score < theta:
                    fr += 1
                elif t.predicted_speaker != t.true_speaker:
                    ml += 1
        rates = rates_at_threshold(trials, theta)
        assert rates.far == pytest.approx(fa / n_imp)
        assert rates.frr == pytest.approx(fr / n_enr)
        assert rates.mlr == pytest.approx(ml / n_enr)
        assert rates.frr + rates.mlr <= 1.0

    def test_requires_both_trial_kinds(self):
        with pytest.raises(ValueError):
            rates_at_threshold([enrolled_trial(0, 1.0)], 0.5)

    def test_permutation_invariant(self, rng):
        trials = random_trials(rng, n_enrolled=30, n_impostor=30)
        shuffled = [trials[i] for i in rng.permutation(len(trials))]
        assert (rates_at_threshold(trials, 0.3)
                == rates_at_threshold(shuffled, 0.3))


class TestComputeEer:
    def test_perfect_separation(self):
        trials = [enrolled_trial(i % 8, 1.0, utt=f"e{i}") for i in range(10)]
        trials += [impostor_trial(0.0, utt=f"i{i}") for i in range(10)]
        eer, theta = compute_eer(trials)
        assert eer == 0.0
        assert theta == pytest.approx(0.5)

    def test_identical_distributions_near_half(self, rng):
        trials = [enrolled_trial(int(rng.integers(0, 8)), float(rng.normal()),
                                 utt=f"e{i}") for i in range(5000)]
        trials += [impostor_trial(float(rng.normal()), utt=f"i{i}")
                   for i in range(5000)]
        eer, _ = compute_eer(trials)
        assert eer == pytest.approx(0.5, abs=0.03)

    def test_matches_fine_grid_oracle(self, rng):
        # Narrow score spread keeps the 1e-6 grid small while the gaps between
        # distinct scores stay orders of magnitude above the grid step.
        for trial_seed in range(5):
            local = np.random.default_rng(1000 + trial_seed)
            trials = random_trials(local, n_enrolled=100, n_impostor=120,
                                   enrolled_loc=0.12, impostor_loc=0.0, scale=0.1)
            eer, _ = compute_eer(trials)
            oracle = grid_sweep_eer(trials, step=1e-6)
            assert eer == pytest.approx(oracle, abs=1e-6)

    def test_balance_at_interpolated_point(self, rng):
        trials = random_trials(rng)
        eer, theta = compute_eer(trials)
        scores = np.unique([t.score for t in trials])
        below = scores[scores <= theta]
        above = scores[scores > theta]
        lo = below[-1] if below.size else theta
        hi = above[0] if above.size else scores[-1] + 1.0
        r_lo = rates_at_threshold(trials, lo)
        r_hi = rates_at_threshold(trials, hi)
        t = 0.0 if hi == lo else (theta - lo) / (hi - lo)
        far = r_lo.far + t * (r_hi.far - r_lo.far)
        frm = (r_lo.frr + r_lo.mlr) + t * ((r_hi.frr + r_hi.mlr)
                                           - (r_lo.frr + r_lo.mlr))
        assert abs(far - frm) < 1e-9
        assert eer == pytest.approx(far, abs=1e-9)

    def test_requires_both_trial_kinds(self):
        with pytest.raises(ValueError):
            compute_eer([enrolled_trial(0, 1.0)])

    def test_all_mislabeled_still_crosses(self):
        trials = [enrolled_trial(0, 1.0, predicted=1, utt=f"e{i}")
                  for i in range(5)]
        trials += [impostor_trial(0.0, utt=f"i{i}") for i in range(5)]
        eer, _ = compute_eer(trials)
        assert 0.0 <= eer <= 1.0

    # Any finite score, huge ones included: + 1.0 does not move a score of
    # 2^53 or more, so the reject-all sentinel is the next float up there,
    # and the gap between scores of opposite signs past 8.9e307 overflows,
    # as does the sum of two such scores of one sign.  At 1.2e17 a third of
    # the way to the sentinel, one ulp up, the weighted form rounds onto it.
    @settings(max_examples=300, deadline=None)
    @example(scores=[("enrolled", 2.0**53)], both=(0.0, 2.0**53))
    @example(scores=[("enrolled", 1.2e17)], both=(0.0, 1.2e17))
    @example(scores=[], both=(-1.5e308, 1.5e308))
    @example(scores=[], both=(1.7e308, 1.5e308))
    @given(scores=st.lists(st.tuples(st.sampled_from(["enrolled", "wrong", "impostor"]),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           max_size=12),
           both=st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_trials_give_an_eer_in_the_unit_interval(self, scores, both):
        trials = [enrolled_trial(0, both[0]), impostor_trial(both[1])]
        for kind, score in scores:
            trials.append(impostor_trial(score) if kind == "impostor" else
                          enrolled_trial(0, score, predicted=int(kind == "wrong")))
        eer, theta = compute_eer(trials)
        assert 0.0 <= eer <= 1.0
        scores = [t.score for t in trials]
        top = max(scores)
        assert min(scores) <= theta <= max(top + 1.0, math.nextafter(top, math.inf))

    def test_reject_all_sentinel_lies_above_a_huge_top_score(self):
        # From 2^53 up, top + 1.0 is the top score itself: a sentinel there
        # would count the top-scoring trials as rejected at their own score.
        trials = [enrolled_trial(0, 0.0), enrolled_trial(0, 1.2e17),
                  impostor_trial(1.2e17)]
        thresholds, far, frr, mlr = _operating_points(trials)
        assert thresholds[-1] == math.nextafter(1.2e17, math.inf)
        for theta, *rates in zip(thresholds, far, frr, mlr):
            got = rates_at_threshold(trials, theta)
            assert rates == [got.far, got.frr, got.mlr]
        eer, theta = compute_eer(trials)
        assert eer == pytest.approx(2.0 / 3.0)
        assert 1.2e17 <= theta <= thresholds[-1]


class TestDetSweep:
    def test_two_point_corners(self):
        trials = [enrolled_trial(0, 1.0), enrolled_trial(1, 0.8),
                  impostor_trial(0.2), impostor_trial(0.4)]
        low, high = det_sweep(trials, 2)
        # bottom threshold accepts everything
        assert (low.far, low.frr, low.mlr) == (1.0, 0.0, 0.0)
        # top threshold sits at the maximum score: only that trial stays accepted
        assert (high.far, high.frr) == (0.0, 0.5)

    def test_far_non_increasing_frr_non_decreasing(self, rng):
        trials = random_trials(rng)
        rates = det_sweep(trials, 25)
        fars = [r.far for r in rates]
        frrs = [r.frr for r in rates]
        mlrs = [r.mlr for r in rates]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))
        assert all(a >= b for a, b in zip(mlrs, mlrs[1:]))

    def test_each_point_matches_rates_at_threshold(self, rng):
        trials = random_trials(rng, n_enrolled=40, n_impostor=40)
        rates = det_sweep(trials, 7)
        scores = [t.score for t in trials]
        thresholds = np.linspace(min(scores), max(scores), 7)
        for got, theta in zip(rates, thresholds):
            assert got == rates_at_threshold(trials, theta)

    def test_too_few_points(self, rng):
        with pytest.raises(ValueError):
            det_sweep(random_trials(rng, 5, 5), 1)


class TestTrialFiles:
    def test_round_trip_exact_scores(self, tmp_path, rng):
        trials = random_trials(rng, n_enrolled=10, n_impostor=10)
        path = tmp_path / "trials.csv"
        write_trials(path, trials, "gmm")
        loaded, arch = read_trials(path)
        assert arch == "gmm"
        assert loaded == trials

    def test_header(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials(path, [impostor_trial(0.25)], "subnn")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ("utterance_id,true_speaker,predicted_speaker,score,"
                          "architecture")

    def test_mixed_architectures_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        text = ("utterance_id,true_speaker,predicted_speaker,score,architecture\n"
                "u1,spk0,spk0,1.0,gmm\n"
                "u2,spk0,spk0,1.0,subnn\n")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            read_trials(path)

    def test_report_round_trip(self, tmp_path):
        rows = [ReportRow("gmm", 100, 0.997, 0.0137, 1.25),
                ReportRow("multiclass", 700, 0.9983, 0.0304, 0.5)]
        path = tmp_path / "report.csv"
        write_report(path, rows)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "architecture,population_size,csrr,eer,theta_star"
        assert read_report(path) == rows


class TestTrialScoreType:
    def test_rejects_non_finite_score(self):
        with pytest.raises(ValueError):
            TrialScore(utterance_id="u", true_speaker="spk0",
                       predicted_speaker="spk0", score=np.inf)

    def test_rejects_empty_predicted_speaker(self):
        with pytest.raises(ValueError):
            TrialScore(utterance_id="u", true_speaker="spk0",
                       predicted_speaker="", score=0.0)
