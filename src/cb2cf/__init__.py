"""Content-to-collaborative-filtering toolkit.

Trains skip-gram item vectors from user co-occurrence sets, then learns a
multiple-input regression network that predicts those vectors from item
content (plot text, tag fields, release year), so items with no usage
history can be placed in the collaborative-filtering space. Includes the
rank-based evaluation harness (MPR, NDCG) and a seeded synthetic dataset
generator used by the verification suite.
"""

import os
import sys

if "numpy" not in sys.modules:  # BLAS reads these once, as numpy loads; a value set wins
    for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(_var, "1")  # one thread each, so evaluate may fork its folds

from .corpus import build_vocabulary, tokenize
from .data import (ContentProfile, UserHistory, cooccurrence_from_ratings,
                   load_metadata, load_ratings, load_sets)
from .evaluation import (EvalDataset, EvalSettings, make_folds, mpr, ndcg_at_k,
                         percentile_rank, run_evaluation, run_system)
from .features import (FeatureContext, featurize_item, fit_feature_context,
                       fit_kmeans)
from .model import (Cb2cfModel, SystemSpec, TrainConfig, analogy, build_model,
                    load_model, predict, save_model, train)
from .sgns import (CooccurrenceSets, EmbeddingTable, SgnsConfig,
                   similarity_search, train_sgns)
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Cb2cfModel",
    "ContentProfile",
    "CooccurrenceSets",
    "EmbeddingTable",
    "EvalDataset",
    "EvalSettings",
    "FeatureContext",
    "SgnsConfig",
    "SyntheticSpec",
    "SystemSpec",
    "TrainConfig",
    "UserHistory",
    "analogy",
    "build_model",
    "build_vocabulary",
    "cooccurrence_from_ratings",
    "featurize_item",
    "fit_feature_context",
    "fit_kmeans",
    "generate_synthetic",
    "load_metadata",
    "load_model",
    "load_ratings",
    "load_sets",
    "make_folds",
    "mpr",
    "ndcg_at_k",
    "percentile_rank",
    "predict",
    "run_evaluation",
    "run_system",
    "save_model",
    "similarity_search",
    "tokenize",
    "train",
    "train_sgns",
]
