"""Open-set speaker identification toolkit.

Three classifier architectures over a shared MFCC front-end: per-speaker
diagonal GMMs with background-model score normalization, a bank of per-speaker
2-class networks trained against background samples, and a single multi-class
network over all enrolled speakers, plus the open-set metrics (closed-set
recognition rate and the equal error rate with mislabeling folded into the
enrolled-side errors) used to compare them.
"""

__version__ = "0.1.0"

from .dataset import (AudioClip, CorpusManifest, ManifestEntry, SpeakerPartition,
                      load_wav, split_utterances)
from .features import (FeatureConfig, FeatureSet, extract_features, load_features,
                       save_features)
from .gmm import (DiagGmm, EmConfig, em_fit, load_gmm, pack_models, save_gmm,
                  score_packed)
from .mlp import (MlpNetwork, TrainConfig, initialize_network, load_mlp,
                  pack_networks, save_mlp, train)
from .openset import (EvalCounter, OpenSetDecision, SpeakerBank, decide,
                      gmm_closed_set, gmm_scores, gmm_verify, multiclass_open_set,
                      multiclass_scores, subnn_open_set, subnn_scores,
                      train_subnn_bank)
from .metrics import IMPOSTOR, ReportRow, TrialScore, compute_eer, csrr

__all__ = [
    "AudioClip", "CorpusManifest", "ManifestEntry", "SpeakerPartition",
    "load_wav", "split_utterances",
    "FeatureConfig", "FeatureSet", "extract_features", "load_features",
    "save_features",
    "DiagGmm", "EmConfig", "em_fit", "load_gmm", "pack_models", "save_gmm",
    "score_packed",
    "MlpNetwork", "TrainConfig", "initialize_network",
    "load_mlp", "pack_networks", "save_mlp", "train",
    "EvalCounter", "OpenSetDecision", "SpeakerBank", "decide",
    "gmm_closed_set", "gmm_scores", "gmm_verify", "multiclass_open_set",
    "multiclass_scores", "subnn_open_set", "subnn_scores", "train_subnn_bank",
    "IMPOSTOR", "ReportRow", "TrialScore", "compute_eer", "csrr",
]
