"""Masked binary iris-template matching with dynamic periocular fusion.

Library layout:

* :mod:`irisfuse.templates` — domain types, bit packing, the fusion cue check
* :mod:`irisfuse.bitmatch` — the batched packed count kernel (Hamming,
  weighted similarity), its one-pair form :func:`~irisfuse.match_pair`,
  white/black match rates and mask rates
* :mod:`irisfuse.reference` — naive per-pixel mirrors of the kernels
* :mod:`irisfuse.mlp`, :mod:`irisfuse.gradcheck` — the fusion network
  and the finite-difference check of its gradient
* :mod:`irisfuse.fusion` — periocular distances, cue assembly, static
  and dynamic fusion
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
    match_pair,
    match_pairs,
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
    roc_curve,
    sum_rule_combine,
    tar_at_far,
)
from .fusion import (
    NormalizationParams,
    cue_matrix,
    dynamic_fuse,
    perioc_distances,
    static_fuse,
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
from .templates import IrisTemplate, pack_template

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA",
    "EmptyJointMaskError",
    "IrisMatchResult",
    "PairScores",
    "ShiftPolicy",
    "black_match_rate",
    "mask_rate",
    "match_pair",
    "match_pairs",
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
    "roc_curve",
    "sum_rule_combine",
    "tar_at_far",
    "NormalizationParams",
    "cue_matrix",
    "dynamic_fuse",
    "perioc_distances",
    "static_fuse",
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
    "IrisTemplate",
    "pack_template",
]
