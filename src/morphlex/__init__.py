"""Morphologically aware bilingual lexicon induction toolkit.

Translate an inflected source form by analyzing it to (lemma, tag),
mapping the lemma across embedding spaces with a log-bilinear model,
and re-inflecting the predicted target lemma; or route frequent forms
straight through the translator (hybrid mode).
"""

__version__ = "0.1.0"

from .embeddings import EmbeddingSpace, nearest, compose_oov
from .morph import MorphTag, UniMorphEntry, parse_tag, tag_translate
from .translator import TranslationModel, TrainConfig, train, predict
from .baseline import procrustes_fit
from .pipeline import JointConfig, TranslationCandidate, translate, translate_many
from .evaluation import EvalDictionary, EvalReport, precision_at_1, extract_identical_seed

__all__ = [
    "EmbeddingSpace",
    "EvalDictionary",
    "EvalReport",
    "JointConfig",
    "MorphTag",
    "TrainConfig",
    "TranslationCandidate",
    "TranslationModel",
    "UniMorphEntry",
    "compose_oov",
    "extract_identical_seed",
    "nearest",
    "parse_tag",
    "precision_at_1",
    "predict",
    "procrustes_fit",
    "tag_translate",
    "train",
    "translate",
    "translate_many",
]
