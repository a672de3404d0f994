"""The joint translation pipeline: analyze, translate, re-inflect.

Base mode routes every form through its lemma; hybrid mode does so only
when the analyzer's lemma is strictly more frequent than the surface
form, translating the form directly otherwise; oracle mode is given the
gold (lemma, tag) and skips analysis; direct mode translates the surface
form alone. Every stage decodes greedily (1-best). Retrieval is batched:
``translate_many`` maps all the lemmas, then all the direct forms, of a
list of inputs through one fused score product each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import CompositionError, EmbeddingSpace, apply_preprocessing, compose_oov
from .morph import (
    Analysis,
    MorphTag,
    NoAnalysisError,
    NoRuleError,
    SuffixRuleTable,
    TagParseError,
    UnknownTagError,
    analyze,
    inflect,
)
from .translator import TranslationModel, retrieve, score_block_rows

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
class BatchStats:
    """Work counts summed over ``translate_many`` calls: forms asked,
    distinct forms within each call, retrieved rows and score blocks."""

    forms: int = 0
    distinct_forms: int = 0
    retrievals: int = 0
    score_blocks: int = 0

    def __str__(self) -> str:
        per_form = self.retrievals / self.forms if self.forms else 0.0
        return (
            f"{self.forms} forms, {self.distinct_forms} distinct, "
            f"{self.retrievals} retrievals in {self.score_blocks} score blocks "
            f"({per_form:.4f} retrievals per form)"
        )


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


def _retrieve_many(
    config: JointConfig, source_words: list[str], stats: BatchStats | None
) -> dict[str, tuple[str, float | None]]:
    """The 1-best target word and its log-probability for every source
    word that has a vector, from one batched ``retrieve``.

    Retrieval ranges over the whole target space, so a composed row can
    win; its probability is undefined under the fixed normalizer and is
    recorded as None. Words without a vector are left out.
    """
    vectors = {}
    for word in source_words:
        vec = _resolve_source_vector(config, word)
        if vec is not None:
            vectors[word] = vec
    if not vectors:
        return {}
    target = config.target_space
    winners, log_probs = retrieve(config.model, np.vstack(list(vectors.values())), target)
    if stats is not None:
        stats.retrievals += len(vectors)
        stats.score_blocks += -(-len(vectors) // score_block_rows(target))
    return {
        word: (target.words[index], lp)
        for word, index, lp in zip(vectors, winners, log_probs)
    }


def _lemma_outranks_form(config: JointConfig, lemma: str, source_form: str) -> bool:
    """The hybrid gate: strict frequency-rank inequality.

    A form without a rank counts as infinitely rare; a lemma without one
    never outranks it. Composed rows have no rank.
    """
    lemma_rank = config.source_space.frequency_rank(lemma)
    form_rank = config.source_space.frequency_rank(source_form)
    return lemma_rank is not None and (form_rank is None or lemma_rank < form_rank)


def _lemma_route_analysis(config: JointConfig, source_form: str) -> Analysis | None:
    """The analysis a base or hybrid form takes the lemma route with, or
    None when it goes direct: no morphology, no analysis, or (hybrid) a
    lemma that does not outrank the form."""
    if config.mode == MODE_DIRECT or config.analyzer is None or config.inflector is None:
        return None
    try:
        analysis = analyze(config.analyzer, source_form)
    except NoAnalysisError:
        return None
    if config.mode == MODE_HYBRID and not _lemma_outranks_form(
        config, analysis.lemma, source_form
    ):
        return None
    return analysis


def translate_many(
    config: JointConfig,
    forms: Sequence[str],
    golds: Sequence[tuple[str, MorphTag] | None] | None = None,
    stats: BatchStats | None = None,
) -> list[TranslationCandidate | Exception]:
    """Translate source forms in the configured mode.

    Slot i holds the candidate for ``forms[i]`` (with ``golds[i]``), or
    the declared error (one of ``TRANSLATION_ERRORS``) that stopped it.
    Oracle mode translates the gold (lemma, tag) with no fallback, so its
    failures are the slot's error; without gold the form is
    untranslatable. Base and hybrid modes analyze the form and take the
    lemma route when allowed (hybrid: only when the lemma outranks the
    form), falling back to direct translation of the surface form when
    analysis or any stage of the lemma route fails. Direct mode never
    uses morphology. ``golds`` is read in oracle mode only.

    The work runs in stages over the distinct inputs: route each form,
    retrieve every lemma in one batch, inflect, then retrieve every form
    that goes direct in a second batch. ``stats``, when given, adds up
    the work done.
    """
    oracle = config.mode == MODE_ORACLE
    if golds is None:
        golds = [None] * len(forms)
    keys = [(form, gold if oracle else None) for form, gold in zip(forms, golds, strict=True)]
    distinct = list(dict.fromkeys(keys))
    if stats is not None:
        stats.forms += len(keys)
        stats.distinct_forms += len(distinct)

    results: dict[tuple, TranslationCandidate | Exception] = {}
    routed: dict[tuple, Analysis] = {}
    for key in distinct:
        form, gold = key
        if oracle and gold is None:
            results[key] = UntranslatableError(form)
        elif oracle:
            routed[key] = Analysis(*gold, log_prob=0.0)
        else:
            analysis = _lemma_route_analysis(config, form)
            if analysis is not None:
                routed[key] = analysis

    lemmas = _retrieve_many(config, list(dict.fromkeys(a.lemma for a in routed.values())), stats)
    for key, analysis in routed.items():
        try:
            if analysis.lemma not in lemmas:
                raise UntranslatableError(analysis.lemma)
            target_lemma, translator_log_prob = lemmas[analysis.lemma]
            # The indicator tag translator carries the tag over unchanged.
            target_form, inflector_log_prob = inflect(config.inflector, target_lemma, analysis.tag)
        except TRANSLATION_ERRORS as error:
            if oracle:
                results[key] = error
            continue
        results[key] = TranslationCandidate(
            target_form, analysis.tag, ROUTE_LEMMA, analysis.log_prob, translator_log_prob,
            inflector_log_prob,
        )

    pending = [key for key in distinct if key not in results]
    direct = _retrieve_many(config, [form for form, _ in pending], stats)
    for form, gold in pending:
        if form in direct:
            target_word, translator_log_prob = direct[form]
            results[form, gold] = TranslationCandidate(
                target_word, None, ROUTE_DIRECT, None, translator_log_prob, None
            )
        else:
            results[form, gold] = UntranslatableError(form)
    return [results[key] for key in keys]


def unwrap(result: TranslationCandidate | Exception) -> TranslationCandidate:
    """The candidate of a ``translate_many`` slot; a slot's error is raised."""
    if isinstance(result, Exception):
        raise result
    return result


def translate(
    config: JointConfig,
    source_form: str,
    gold: tuple[str, MorphTag] | None = None,
) -> TranslationCandidate:
    """Translate one source form: ``translate_many`` of one item, with the
    slot's declared error raised."""
    return unwrap(translate_many(config, [source_form], [gold])[0])


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
