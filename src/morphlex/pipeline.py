"""The joint translation pipeline: analyze, translate, re-inflect.

Base mode routes every form through its lemma; hybrid mode does so only
when the analyzer's lemma is strictly more frequent than the surface
form, translating the form directly otherwise; oracle mode is given the
gold (lemma, tag) and skips analysis; direct mode translates the surface
form alone. Every stage decodes greedily (1-best).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .embeddings import CompositionError, EmbeddingSpace, apply_preprocessing, compose_oov
from .morph import (
    MorphTag,
    NoAnalysisError,
    NoRuleError,
    SuffixRuleTable,
    TagParseError,
    UnknownTagError,
    analyze,
    inflect,
)
from .translator import TranslationModel, log_prob, predict_vector

MODE_BASE = "base"
MODE_HYBRID = "hybrid"
MODE_ORACLE = "oracle"
MODE_DIRECT = "direct"
MODES = (MODE_BASE, MODE_HYBRID, MODE_ORACLE, MODE_DIRECT)

ROUTE_LEMMA = "lemma-route"
ROUTE_DIRECT = "direct-route"


class UntranslatableError(ValueError):
    """Neither the lemma route nor direct translation can handle the form."""


class SupportMismatchError(ValueError):
    """The model's softmax support exceeds the target space's file-loaded rows."""


# The declared per-form failures: callers that report a miss or <NONE>
# for a form catch these and nothing else.
TRANSLATION_ERRORS = (UntranslatableError, UnknownTagError, NoRuleError, TagParseError)


@dataclass(frozen=True)
class TranslationCandidate:
    """One decoded target form with its score decomposition.

    Absent components (e.g. analyzer and inflector scores on the direct
    route) are recorded as None.
    """

    form: str
    tag: MorphTag | None
    route: str
    analyzer_log_prob: float | None
    translator_log_prob: float | None
    inflector_log_prob: float | None


@dataclass
class JointConfig:
    """Component bundle for one translation direction."""

    mode: str
    model: TranslationModel
    source_space: EmbeddingSpace
    target_space: EmbeddingSpace
    analyzer: SuffixRuleTable | None = None
    inflector: SuffixRuleTable | None = None
    ngram_table: Mapping[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_ORACLE and self.inflector is None:
            raise ValueError("oracle mode needs an inflector")
        support = self.model.normalizer_vocab_size
        rows = self.target_space.n_file_loaded
        if support > rows:
            raise SupportMismatchError(
                f"the model's softmax support of {support} words exceeds the "
                f"{rows} file-loaded rows of the target space"
            )


def _resolve_source_vector(config: JointConfig, word: str) -> np.ndarray | None:
    """In-vocabulary lookup, falling back to n-gram composition under the
    space's stored preprocessing."""
    index = config.source_space.index_or_none(word)
    if index is not None:
        return config.source_space.vectors[index]
    if config.ngram_table is None:
        return None
    try:
        return apply_preprocessing(config.source_space, compose_oov(word, config.ngram_table))
    except CompositionError:
        return None


def _retrieve(config: JointConfig, source_word: str) -> tuple[str, float | None]:
    """The 1-best target word for a source word, with its log-probability.

    Retrieval ranges over the whole target space, so a composed row can
    win; its probability is undefined under the fixed normalizer and is
    recorded as None.
    """
    source_vec = _resolve_source_vector(config, source_word)
    if source_vec is None:
        raise UntranslatableError(source_word)
    predictions = predict_vector(config.model, source_vec, config.target_space, k=1)
    if not predictions:
        raise UntranslatableError(source_word)
    target_word = predictions[0][0]
    if config.target_space.index(target_word) >= config.model.normalizer_vocab_size:
        return target_word, None
    return target_word, log_prob(config.model, config.target_space, target_word, source_vec)


def _lemma_route(
    config: JointConfig, lemma: str, tag: MorphTag, analyzer_log_prob: float
) -> TranslationCandidate:
    """Translate the lemma and re-inflect it with the tag, which the
    indicator tag translator carries over unchanged."""
    target_lemma, translator_log_prob = _retrieve(config, lemma)
    form, inflector_log_prob = inflect(config.inflector, target_lemma, tag)
    return TranslationCandidate(
        form, tag, ROUTE_LEMMA, analyzer_log_prob, translator_log_prob, inflector_log_prob
    )


def _lemma_outranks_form(config: JointConfig, lemma: str, source_form: str) -> bool:
    """The hybrid gate: strict frequency-rank inequality.

    A form without a rank counts as infinitely rare; a lemma without one
    never outranks it. Composed rows have no rank.
    """
    lemma_rank = config.source_space.frequency_rank(lemma)
    form_rank = config.source_space.frequency_rank(source_form)
    return lemma_rank is not None and (form_rank is None or lemma_rank < form_rank)


def translate(
    config: JointConfig,
    source_form: str,
    gold: tuple[str, MorphTag] | None = None,
) -> TranslationCandidate:
    """Translate one source form in the configured mode.

    Oracle mode translates the gold (lemma, tag) with no fallback, so its
    failures surface as errors; without gold the form is untranslatable.
    Base and hybrid modes analyze the form and take the lemma route when
    allowed (hybrid: only when the lemma outranks the form), falling back
    to direct translation of the surface form when analysis or any stage
    of the lemma route fails. Direct mode never uses morphology. ``gold``
    is read in oracle mode only.
    """
    if config.mode == MODE_ORACLE:
        if gold is None:
            raise UntranslatableError(source_form)
        return _lemma_route(config, *gold, analyzer_log_prob=0.0)
    has_morphology = config.analyzer is not None and config.inflector is not None
    if config.mode != MODE_DIRECT and has_morphology:
        try:
            analysis = analyze(config.analyzer, source_form)
        except NoAnalysisError:
            analysis = None
        if analysis is not None and (
            config.mode == MODE_BASE or _lemma_outranks_form(config, analysis.lemma, source_form)
        ):
            try:
                return _lemma_route(config, analysis.lemma, analysis.tag, analysis.log_prob)
            except TRANSLATION_ERRORS:
                pass
    target_word, translator_log_prob = _retrieve(config, source_form)
    return TranslationCandidate(target_word, None, ROUTE_DIRECT, None, translator_log_prob, None)


def joint_log_prob(candidate: TranslationCandidate) -> float:
    """Sum of the candidate's recorded component log-scores.

    The indicator tag translator contributes log 1 = 0 on the lemma
    route; absent components contribute nothing.
    """
    parts = (
        candidate.analyzer_log_prob,
        candidate.translator_log_prob,
        candidate.inflector_log_prob,
    )
    return float(sum(p for p in parts if p is not None))
