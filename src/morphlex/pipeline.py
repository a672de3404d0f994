"""The joint translation pipeline: analyze, translate, re-inflect.

``translate_many`` plans, then executes. The plan holds the one routing
rule: base mode routes every form through its lemma; hybrid mode does so
only when the analyzer's lemma is strictly more frequent than the surface
form; oracle mode routes the gold (lemma, tag) and skips analysis; direct
mode routes nothing through a lemma. The execution maps all the planned
lemmas, then all the forms left without a candidate, of a list of inputs
through one fused score product each, and has one fallback rule: a form
whose lemma route is not taken or fails goes direct, except in oracle
mode. Every stage decodes greedily (1-best).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import CompositionError, EmbeddingSpace, compose_oov
from .morph import (
    Analysis,
    MorphTag,
    NoAnalysisError,
    NoRuleError,
    SuffixRuleTable,
    UnknownTagError,
    analyze,
    inflect,
)
from .textio import DataError
from .translator import TranslationModel, require_support, retrieve, score_block_rows

MODE_BASE = "base"
MODE_HYBRID = "hybrid"
MODE_ORACLE = "oracle"
MODE_DIRECT = "direct"
MODES = (MODE_BASE, MODE_HYBRID, MODE_ORACLE, MODE_DIRECT)

# The morphology components each mode reads, by ``JointConfig`` field name.
MODE_COMPONENTS = {
    MODE_BASE: ("analyzer", "inflector"),
    MODE_HYBRID: ("analyzer", "inflector"),
    MODE_ORACLE: ("inflector",),
    MODE_DIRECT: (),
}

ROUTE_LEMMA = "lemma-route"
ROUTE_DIRECT = "direct-route"


class UntranslatableError(ValueError):
    """Neither the lemma route nor direct translation can handle the form."""


class SupportMismatchError(DataError):
    """The model does not fit the spaces: omega's shape is not the spaces'
    dimensions, or its softmax support is not the target's rows."""


# The declared per-form failures: callers that report a miss or <NONE>
# for a form catch these and nothing else.
TRANSLATION_ERRORS = (UntranslatableError, UnknownTagError, NoRuleError)


@dataclass(frozen=True)
class TranslationCandidate:
    """One decoded target form with its score decomposition.

    Absent components (the analyzer and inflector scores on the direct
    route) are recorded as None.
    """

    form: str
    tag: MorphTag | None
    route: str
    analyzer_log_prob: float | None
    translator_log_prob: float
    inflector_log_prob: float | None


@dataclass
class BatchStats:
    """Work counts summed over ``translate_many`` calls: forms asked (the
    CLI's ``translate`` adds the lines its cache answered), distinct forms
    within each call, retrieved rows and score blocks."""

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
    """Component bundle for one translation direction. A mode without
    the components ``MODE_COMPONENTS`` lists for it is a ValueError; a
    model or n-gram table that does not fit the spaces is a
    SupportMismatchError: a model applies only to the target rows it was
    fit on."""

    mode: str
    model: TranslationModel
    source_space: EmbeddingSpace
    target_space: EmbeddingSpace
    analyzer: SuffixRuleTable | None = None
    inflector: SuffixRuleTable | None = None
    ngram_table: EmbeddingSpace | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        needed = MODE_COMPONENTS[self.mode]
        if any(getattr(self, name) is None for name in needed):
            raise ValueError(f"mode {self.mode!r} needs " + " and ".join(needed))
        model, source, target = self.model, self.source_space, self.target_space
        if (model.target_dim, model.source_dim) != (target.dim, source.dim):
            raise SupportMismatchError(
                f"the model's omega is {model.target_dim}x{model.source_dim} (target x source), "
                f"the spaces are {target.dim}x{source.dim}"
            )
        if self.ngram_table is not None and self.ngram_table.dim != source.dim:
            raise SupportMismatchError(
                f"the n-gram table has dimension {self.ngram_table.dim}, "
                f"the source space {source.dim}"
            )
        try:
            require_support(model, target)
        except ValueError as exc:
            raise SupportMismatchError(f"{exc}; pass the --max-words it was trained with") from None


def _source_vectors(config: JointConfig, words: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Those of the distinct ``words`` that have a source vector, in input
    order, and their rows: the vocabulary row, or else the word's n-gram
    composition, every composed row given the space's stored preprocessing
    in one block."""
    space, table = config.source_space, config.ngram_table
    kept: list[str] = []
    vocabulary_rows: dict[int, int] = {}  # position in kept -> row of the space
    composed: dict[int, np.ndarray] = {}  # position in kept -> composed vector
    for word in words:
        index = space.index_or_none(word)
        if index is not None:
            vocabulary_rows[len(kept)] = index
        elif table is None:
            continue
        else:
            try:
                composed[len(kept)] = compose_oov(word, table)
            except CompositionError:
                continue
        kept.append(word)
    sources = np.empty((len(kept), space.dim))
    sources[list(vocabulary_rows)] = space.vectors[list(vocabulary_rows.values())]
    if composed:
        sources[list(composed)] = space.preprocessed_rows(list(composed.values()))
    return kept, sources


def _retrieve_many(
    config: JointConfig, source_words: list[str], stats: BatchStats | None
) -> dict[str, tuple[str, float]]:
    """The 1-best target word and its log-probability for every source
    word that has a vector, from one batched ``retrieve``. Words without a
    vector are left out, and so are those ``retrieve`` marks as zero
    queries (winner -1), which have no cosine neighbour.
    """
    words, sources = _source_vectors(config, source_words)
    if not words:
        return {}
    target = config.target_space
    winners, log_probs = retrieve(config.model, sources, target)
    if stats is not None:
        stats.retrievals += len(words)
        stats.score_blocks += -(-len(words) // score_block_rows(target))
    return {
        word: (target.words[index], lp)
        for word, index, lp in zip(words, winners, log_probs) if index >= 0
    }


def _lemma_route(
    config: JointConfig, form: str, gold: tuple[str, MorphTag] | None
) -> Analysis | None:
    """The plan for one distinct input, and the one place that reads the
    mode's routing rule: the analysis its lemma route translates, or None
    when it goes direct. Oracle mode routes the gold (None without one),
    direct mode nothing, base mode the analyzer's reading, and hybrid mode
    that reading only when its lemma outranks the form."""
    if config.mode == MODE_ORACLE:
        return None if gold is None else Analysis(*gold, log_prob=0.0)
    if config.mode == MODE_DIRECT:
        return None
    try:
        analysis = analyze(config.analyzer, form)
    except NoAnalysisError:
        return None
    if config.mode == MODE_HYBRID:
        # Strict frequency-rank inequality: a form without a row counts as
        # infinitely rare; a lemma without one never outranks it. A vector
        # composed from n-grams gives no rank.
        lemma_rank = config.source_space.index_or_none(analysis.lemma)
        form_rank = config.source_space.index_or_none(form)
        if lemma_rank is None or (form_rank is not None and lemma_rank >= form_rank):
            return None
    return analysis


def translate_many(
    config: JointConfig,
    forms: Sequence[str],
    golds: Sequence[tuple[str, MorphTag] | None] | None = None,
    stats: BatchStats | None = None,
) -> list[TranslationCandidate | Exception]:
    """Translate source forms in the configured mode.

    Slot i holds the candidate for ``forms[i]`` (with ``golds[i]``, read in
    oracle mode only), or the declared error (one of
    ``TRANSLATION_ERRORS``) that stopped it.

    The plan (``_lemma_route``) routes each distinct input once. The
    execution retrieves the plan's lemmas in one batch and inflects them,
    then retrieves every form left without a candidate in a second batch.
    Its one fallback rule: a form whose lemma route is not taken or fails
    goes direct, except in oracle mode, where the failure is the slot and
    a form without gold is untranslatable. ``stats``, when given, adds up
    the work done.
    """
    oracle = config.mode == MODE_ORACLE
    if golds is None:
        golds = [None] * len(forms)
    keys = [(form, gold if oracle else None) for form, gold in zip(forms, golds, strict=True)]
    plan = {key: _lemma_route(config, *key) for key in dict.fromkeys(keys)}
    if stats is not None:
        stats.forms += len(keys)
        stats.distinct_forms += len(plan)

    results: dict[tuple, TranslationCandidate | Exception] = {}
    lemmas = _retrieve_many(config, list(dict.fromkeys(a.lemma for a in plan.values() if a)), stats)
    for key, analysis in plan.items():
        if analysis is None:
            continue
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

    pending = [key for key in plan if key not in results]
    direct = {} if oracle else _retrieve_many(config, [form for form, _ in pending], stats)
    for form, gold in pending:
        if form in direct:
            target_word, translator_log_prob = direct[form]
            results[form, gold] = TranslationCandidate(
                target_word, None, ROUTE_DIRECT, None, translator_log_prob, None
            )
        else:
            results[form, gold] = UntranslatableError(form)
    return [results[key] for key in keys]


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
