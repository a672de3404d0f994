"""Differential property: ``translate_many`` agrees with the benchmark's
independent reference (perfbench/reference.py, which never imports
morphlex) on small generated worlds, in base and hybrid modes."""

import importlib.util
import math
import pathlib
import sys
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex.baseline import procrustes_fit
from morphlex.embeddings import EmbeddingSpace, ngrams, preprocess
from morphlex.morph import learn_analyzer, learn_inflector
from morphlex.pipeline import (
    MODE_BASE,
    MODE_HYBRID,
    JointConfig,
    TranslationCandidate,
    joint_log_prob,
    translate_many,
)
from morphlex.synthetic import build_bilingual_task, random_stems
from morphlex.translator import TranslationModel

REFERENCE_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
NOVEL_STEMS = 6


def load_reference():
    """perfbench/reference.py as a module, read from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = load_reference()


def analyses_with_novel_stems(task, rng):
    """form -> (lemma, tag) of every in-vocabulary source form, plus the
    paradigms of a few stems the world does not have."""
    source = task.source
    analyses = {
        source.form(lex, slot): (source.lemma(lex), source.slots[slot].tag.canonical)
        for lex in range(source.n_lexemes)
        for slot in range(len(source.slots))
    }
    known = set(source.stems)
    stems = [s for s in random_stems(rng, NOVEL_STEMS + len(known)) if s not in known]
    for stem in stems[:NOVEL_STEMS]:
        lemma = stem + source.slots[0].suffix
        for slot in source.slots:
            analyses[stem + slot.suffix] = (lemma, slot.tag.canonical)
    return analyses


@given(
    seed=st.integers(0, 2**16),
    n_lexemes=st.integers(20, 60),
    dim=st.integers(4, 24),
    support_share=st.floats(0.05, 1.0),
    with_ngrams=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_translate_many_matches_the_reference(seed, n_lexemes, dim, support_share, with_ngrams):
    task = build_bilingual_task(
        seed=seed, n_lexemes=n_lexemes, dim=dim, apply_preprocessing=False
    )
    rng = np.random.default_rng([seed, 2])
    analyses = analyses_with_novel_stems(task, rng)
    forms = sorted(analyses)
    ngram_rows, ngram_table = {}, None
    if with_ngrams:
        grams = sorted({g for form in forms for g in ngrams(form)})
        table = rng.integers(-192, 193, size=(len(grams), dim)) / 64.0
        ngram_rows = dict(zip(grams, table))
        ngram_table = EmbeddingSpace(tuple(grams), table)

    source, _ = preprocess(task.source_space)
    target, _ = preprocess(task.target_space)
    omega = procrustes_fit(task.seed_pairs, source, target).omega
    support = max(1, math.ceil(support_share * len(target)))
    config = JointConfig(
        MODE_BASE, TranslationModel(omega, support), source, target,
        learn_analyzer(task.source_unimorph), learn_inflector(task.target_unimorph),
        ngram_table,
    )
    target_slots = task.target.slots
    ref = reference.Reference(
        task.source_space.words, task.source_space.vectors,
        task.target_space.words, task.target_space.vectors, omega, support,
        {slot.tag.canonical: slot.suffix for slot in target_slots},
        target_slots[0].suffix, target_slots[0].tag.canonical, analyses,
        {task.source.forms[key]: rank for key, rank in task.source_ranks.items()},
        ngram_rows,
    )

    for mode in (MODE_BASE, MODE_HYBRID):
        for form, slot in zip(forms, translate_many(replace(config, mode=mode), forms)):
            want = ref.expect(form, mode)
            if want is None:
                assert not isinstance(slot, TranslationCandidate), (mode, form, slot)
                continue
            assert isinstance(slot, TranslationCandidate), (mode, form, slot)
            assert slot.route == want.route, (mode, form)
            printed = joint_log_prob(slot)
            assert any(
                slot.form == candidate and abs(printed - (lp or 0.0)) <= reference.LOG_PROB_TOL
                for candidate, lp in want.candidates
            ), (mode, form, slot, want)
