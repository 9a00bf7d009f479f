"""Bayesian few-shot concept induction over natural-language hypotheses.

The model treats natural-language rules as latent concepts: an LM
proposes candidate rules from a handful of examples, each rule compiles
to a small formal language so it can be evaluated exactly, and Bayesian
inference over the resulting pool yields graded predictions about new
examples. Priors, noise levels, memory decay, and calibration are fit
to human judgments by gradient descent.

Two experimental domains are included: the Number Game (concepts over
1..100) and online learning of logical rules about colored shapes.
"""

from .fit import FitConfig, FitResult, fit_params, kfold_rows, r_squared
from .harness import infer_number, infer_shape
from .likelihood import EvalCache
from .posterior import PosteriorState, dedup_pool
from .prior import FeatureExtractor, extract_features
from .types import (
    Hypothesis,
    HumanNumberJudgment,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    ShapeObject,
    Trial,
    Unparsed,
    canonicalize_nl,
    shape_universe,
)

__version__ = "0.1.0"

__all__ = [
    "EvalCache",
    "FeatureExtractor",
    "FitConfig",
    "FitResult",
    "HumanNumberJudgment",
    "Hypothesis",
    "LearningCurve",
    "ModelParams",
    "NumberExampleSet",
    "PosteriorState",
    "ShapeObject",
    "Trial",
    "Unparsed",
    "canonicalize_nl",
    "dedup_pool",
    "extract_features",
    "fit_params",
    "infer_number",
    "infer_shape",
    "kfold_rows",
    "r_squared",
    "shape_universe",
    "__version__",
]
