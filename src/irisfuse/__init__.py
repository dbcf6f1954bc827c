"""Masked binary iris-template matching with dynamic periocular fusion.

Library layout:

* :mod:`irisfuse.templates` — domain types and bit packing
* :mod:`irisfuse.bitmatch` — the batched packed count kernel (Hamming,
  weighted similarity) and white/black match rates, mask rates
* :mod:`irisfuse.reference` — naive per-pixel mirrors of the kernels
* :mod:`irisfuse.mlp`, :mod:`irisfuse.losses`, :mod:`irisfuse.gradcheck`
  — the fusion network, standalone losses, finite-difference checks
* :mod:`irisfuse.fusion` — cue assembly, static and dynamic fusion
* :mod:`irisfuse.evaluation` — pair protocols, ROC / EER / TAR@FAR
* :mod:`irisfuse.synth` — seeded synthetic populations
* :mod:`irisfuse.fileio`, :mod:`irisfuse.cli` — formats and commands
"""

from .bitmatch import (
    DEFAULT_ALPHA,
    EmptyJointMaskError,
    IrisMatchResult,
    PairScores,
    ShiftPolicy,
    black_match_rate,
    mask_rate,
    masked_hamming,
    match_pair,
    match_pairs,
    weighted_similarity,
    white_match_rate,
)
from .evaluation import (
    LEFT_RIGHT_DISJOINT,
    WITHIN_SIDE,
    Manifest,
    ManifestEntry,
    RocCurve,
    ScoreSet,
    TarAtFar,
    count_pairs,
    eer,
    protocol_pairs,
    roc_auc,
    roc_curve,
    sum_rule_combine,
    tar_at_far,
)
from .fusion import (
    NormalizationParams,
    cue_matrix,
    dynamic_fuse,
    perioc_distance,
    static_fuse,
)
from .losses import (
    distance_sigmoid_loss,
    distance_to_logit,
    triplet_margin_loss,
)
from .mlp import (
    LAYER_SIZES,
    N_PARAMS,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
    mlp_forward,
    mlp_gradient,
    softmax_xent,
    train_mlp,
)
from .synth import Population, SynthConfig, gen_population, gen_score_scenario
from .templates import (
    CueVector,
    IrisTemplate,
    MatchLabel,
    PeriocularRecord,
    pack_template,
    unpack_template,
    validate_periocular,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA",
    "EmptyJointMaskError",
    "IrisMatchResult",
    "PairScores",
    "ShiftPolicy",
    "black_match_rate",
    "mask_rate",
    "masked_hamming",
    "match_pair",
    "match_pairs",
    "weighted_similarity",
    "white_match_rate",
    "LEFT_RIGHT_DISJOINT",
    "WITHIN_SIDE",
    "Manifest",
    "ManifestEntry",
    "RocCurve",
    "ScoreSet",
    "TarAtFar",
    "count_pairs",
    "eer",
    "protocol_pairs",
    "roc_auc",
    "roc_curve",
    "sum_rule_combine",
    "tar_at_far",
    "NormalizationParams",
    "cue_matrix",
    "dynamic_fuse",
    "perioc_distance",
    "static_fuse",
    "distance_sigmoid_loss",
    "distance_to_logit",
    "triplet_margin_loss",
    "LAYER_SIZES",
    "N_PARAMS",
    "MlpParams",
    "TrainConfig",
    "TrainingDivergedError",
    "mlp_forward",
    "mlp_gradient",
    "softmax_xent",
    "train_mlp",
    "Population",
    "SynthConfig",
    "gen_population",
    "gen_score_scenario",
    "CueVector",
    "IrisTemplate",
    "MatchLabel",
    "PeriocularRecord",
    "pack_template",
    "unpack_template",
    "validate_periocular",
]
