"""Output checks, computed without the package's own code paths.

identify: the chosen speaker and score of sampled trials are recomputed
with plain numpy (direct Gaussian log-densities, own forward passes).
pipeline: report.csv must match the reference stored for the seed in
reference.json, which ``make_reference.py`` writes, within 1e-9; every pass
of a run must also match the run's first pass.
"""

import json
import os

import numpy as np

TOLERANCE = 1e-9
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
LOG_2PI = np.log(2.0 * np.pi)


def same_report(rows, expected):
    """Rows are (architecture, population size, csrr, eer)."""
    if len(rows) != len(expected) or not rows:
        return False
    for (arch, size, csrr, eer), (e_arch, e_size, e_csrr, e_eer) in zip(rows, expected):
        if (arch, size) != (e_arch, e_size):
            return False
        if abs(csrr - e_csrr) > TOLERANCE or abs(eer - e_eer) > TOLERANCE:
            return False
    return True


def scale_key(scale):
    return repr((scale.roles, sorted(scale.config.items())))


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as f:
        return json.load(f)


def pipeline_reference_note(ctx, seed, report, scale):
    """Compare the first pass's report with the stored reference for the seed."""
    table = load_reference()
    if table["pipeline_scale"] != scale_key(scale):
        ctx.ledger.record(False, "reference.json was made for another pipeline "
                          "scale; rerun make_reference.py")
        return "reference: stale table"
    expected = table["reports"].get(str(seed))
    if expected is None:
        return (f"reference: none stored for seed {seed}; "
                "passes checked against each other only")
    expected = [tuple(row) for row in expected]
    ctx.ledger.record(same_report(report, expected),
                      f"report.csv differs from the stored reference for seed {seed}")
    return f"reference: checked against stored seed {seed}"


# --- identify ----------------------------------------------------------------

def _logsumexp(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(peak, axis) + np.log(np.sum(np.exp(a - peak), axis=axis))


def gmm_mean_ll(model, X, block=32):
    """Direct form: sum over dimensions of the Gaussian log-density terms.

    Frames go in blocks so that the N x M x D differences of a 1024-component
    model stay small next to the program's own memory.
    """
    log_norm = np.log(model.weights) - 0.5 * np.sum(np.log(model.variances) + LOG_2PI,
                                                    axis=1)
    per_frame = []
    for lo in range(0, len(X), block):
        diff = X[lo:lo + block, None, :] - model.means[None, :, :]
        log_comp = log_norm - 0.5 * np.sum(diff * diff / model.variances, axis=2)
        per_frame.append(_logsumexp(log_comp, axis=1))
    return float(np.mean(np.concatenate(per_frame)))


def bank_mean_lls(models, X, chunk=16):
    """Mean log-likelihood under every model, components stacked per chunk.

    The direct form costs N x M x D per model, too slow for 700 models per
    checked trial, so the ranking expands the square into products over a
    chunk of models at a time; gmm_mean_ll then confirms the chosen model.
    Chunking keeps the checker's memory below the program's own.
    """
    out = []
    for lo in range(0, len(models), chunk):
        part = models[lo:lo + chunk]
        means = np.stack([g.means for g in part])           # K x M x D
        inv_var = 1.0 / np.stack([g.variances for g in part])
        k, m, d = means.shape
        const = (np.log(np.stack([g.weights for g in part]))
                 + 0.5 * np.sum(np.log(inv_var), axis=2) - 0.5 * d * LOG_2PI
                 - 0.5 * np.sum(means * means * inv_var, axis=2))  # K x M
        quad = ((X * X) @ inv_var.reshape(k * m, d).T
                - 2.0 * X @ (means * inv_var).reshape(k * m, d).T)
        log_comp = (const.reshape(1, k * m) - 0.5 * quad).reshape(len(X), k, m)
        out.append(np.mean(_logsumexp(log_comp, axis=2), axis=0))
    return np.concatenate(out)


def _log_posteriors(net, X):
    a = X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(np.dot(a, w) + b, 0.0)
    logits = np.dot(a, net.weights[-1]) + net.biases[-1]
    return logits - _logsumexp(logits, axis=1)[:, None]


def reference_decisions(banks, X):
    """(best index, score) per architecture, recomputed independently."""
    gmm_bank, subnn_bank, net, _ = banks
    best = int(np.argmax(bank_mean_lls(gmm_bank.models, X)))
    out = {"gmm": (best, gmm_mean_ll(gmm_bank.models[best], X)
                   - gmm_mean_ll(gmm_bank.ubm, X))}
    scores = np.array([np.exp(np.mean(_log_posteriors(n, X)[:, 1]))
                       for n in subnn_bank.models])
    best = int(np.argmax(scores))
    out["subnn"] = (best, scores[best])
    scores = np.exp(np.mean(_log_posteriors(net, X), axis=0))
    best = int(np.argmax(scores))
    out["multiclass"] = (best, scores[best])
    return out


def identify_reference(ctx, banks, samples):
    for X, decisions in samples:
        for arch, (best, score) in reference_decisions(banks, X).items():
            got = decisions[arch]
            ok = (got is not None and got.best_index == best
                  and np.isclose(got.score, score, rtol=TOLERANCE, atol=1e-12))
            ctx.ledger.record(ok, f"{arch} trial disagrees with the reference: "
                              f"{got} vs ({best}, {score!r})")
