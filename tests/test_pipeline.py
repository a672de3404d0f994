import collections
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex import pipeline
from morphlex.baseline import procrustes_fit
from morphlex.embeddings import EmbeddingSpace, ngrams
from morphlex.morph import (
    NoRuleError,
    UniMorphEntry,
    UnknownTagError,
    analyze,
    learn_analyzer,
    learn_inflector,
    parse_tag,
)
from morphlex.pipeline import (
    MODE_BASE,
    MODE_DIRECT,
    MODE_HYBRID,
    MODE_ORACLE,
    ROUTE_DIRECT,
    ROUTE_LEMMA,
    TRANSLATION_ERRORS,
    BatchStats,
    JointConfig,
    SupportMismatchError,
    TranslationCandidate,
    UntranslatableError,
    joint_log_prob,
    translate_many,
)
from morphlex.synthetic import build_bilingual_task
from morphlex.translator import TranslationModel

TAG = parse_tag("V;PRS;1;SG")
TAG_NFIN = parse_tag("V;NFIN")


def tiny_setup():
    """Hand-built bilingual world small enough to trace by hand.

    Source: lemma "saltar" (rank 0), form "salto" (rank 1).
    Target: lemma "springen" (rank 0); inflector realizes V;PRS;1;SG as
    "springe". Identity omega over a shared 2-d geometry: saltar's vector
    equals springen's, so the lemma route must fire exactly.
    """
    source = EmbeddingSpace(
        ("saltar", "salto"), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    target = EmbeddingSpace(
        ("springen", "springe"), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    analyzer = learn_analyzer(
        [
            UniMorphEntry("saltar", "saltar", TAG_NFIN),
            UniMorphEntry("saltar", "salto", TAG),
        ]
    )
    inflector = learn_inflector(
        [
            UniMorphEntry("springen", "springen", TAG_NFIN),
            UniMorphEntry("springen", "springe", TAG),
        ]
    )
    model = TranslationModel(np.eye(2), 2)
    return JointConfig(MODE_BASE, model, source, target, analyzer, inflector)


class TestTranslateBase:
    def test_composes_the_three_stages(self):
        config = tiny_setup()
        candidate = translate_many(config, ["salto"])[0]
        assert candidate.form == "springe"
        assert candidate.tag == TAG
        assert candidate.route == ROUTE_LEMMA
        # analyzer: "o" -> ("ar", TAG) is the only analysis, p = 1.
        assert candidate.analyzer_log_prob == pytest.approx(0.0)
        assert candidate.inflector_log_prob == pytest.approx(0.0)
        assert candidate.translator_log_prob is not None
        assert candidate.translator_log_prob <= 0.0

    def test_identity_composition(self):
        # Shared space, identity omega, identical morphologies: the
        # pipeline must map a form back to itself.
        space = EmbeddingSpace(
            ("cantar", "canto"), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        entries = [
            UniMorphEntry("cantar", "cantar", TAG_NFIN),
            UniMorphEntry("cantar", "canto", TAG),
        ]
        config = JointConfig(
            MODE_BASE,
            TranslationModel(np.eye(2), 2),
            space,
            space,
            learn_analyzer(entries),
            learn_inflector(entries),
        )
        assert translate_many(config, ["canto"])[0].form == "canto"
        assert translate_many(config, ["cantar"])[0].form == "cantar"

    def test_junk_is_untranslatable(self):
        config = tiny_setup()
        assert isinstance(translate_many(config, ["zzzz"])[0], UntranslatableError)

    def test_unanalyzable_in_vocab_form_falls_back_to_direct(self):
        config = tiny_setup()
        # An analyzer with only the "o" rule cannot analyze "xyz"; the
        # form is in the space, so the direct route must still fire.
        analyzer = learn_analyzer([UniMorphEntry("saltar", "salto", TAG)])
        source = EmbeddingSpace(
            ("saltar", "salto", "xyz"),
            np.vstack([config.source_space.vectors, [[1.0, 1.0]]]),
        )
        config = replace(config, source_space=source, analyzer=analyzer)
        candidate = translate_many(config, ["xyz"])[0]
        assert candidate.route == ROUTE_DIRECT
        assert candidate.analyzer_log_prob is None
        assert candidate.inflector_log_prob is None

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            replace(tiny_setup(), mode="lemma")

    @pytest.mark.parametrize(
        "mode, component",
        [(MODE_BASE, "analyzer"), (MODE_BASE, "inflector"), (MODE_HYBRID, "analyzer"),
         (MODE_HYBRID, "inflector"), (MODE_ORACLE, "inflector")],
    )
    def test_missing_component_rejected(self, mode, component):
        # Base or hybrid without morphology would send every form direct.
        with pytest.raises(ValueError, match=f"mode '{mode}' needs"):
            replace(tiny_setup(), mode=mode, **{component: None})

    def test_direct_and_oracle_modes_take_no_analyzer(self):
        replace(tiny_setup(), mode=MODE_ORACLE, analyzer=None)
        config = replace(tiny_setup(), mode=MODE_DIRECT, analyzer=None, inflector=None)
        assert translate_many(config, ["salto"])[0].route == ROUTE_DIRECT

    def test_oov_lemma_composed_from_ngrams(self):
        config = tiny_setup()
        # Remove the lemma from the space; supply an n-gram table that
        # reconstructs its old vector.
        source = EmbeddingSpace(("salto",), np.array([[0.0, 1.0]]))
        table = EmbeddingSpace(("<sal", "tar>"), np.array([[1.0, 0.0], [0.0, 0.0]]))
        config = replace(config, source_space=source, ngram_table=table)
        candidate = translate_many(config, ["salto"])[0]
        assert candidate.route == ROUTE_LEMMA
        assert candidate.form == "springe"

    def test_ngram_table_of_another_width_rejected(self):
        # Caught when the config is built, not as a broadcast error inside
        # translate_many.
        table = EmbeddingSpace(("<sal",), np.ones((1, 3)))
        with pytest.raises(SupportMismatchError, match="n-gram table has dimension 3"):
            replace(tiny_setup(), ngram_table=table)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 6),
        support=st.integers(1, 8),
        mode=st.sampled_from([MODE_BASE, MODE_HYBRID, MODE_ORACLE, MODE_DIRECT]),
    )
    def test_support_other_than_the_target_rows_rejected(self, n_rows, support, mode):
        # A model applies only to the target rows it was fit on: under a
        # smaller support a winner past it would have no score, and under a
        # larger one the normalizer would miss rows.
        rng = np.random.default_rng(n_rows)
        target = EmbeddingSpace(tuple(f"t{i}" for i in range(n_rows)), rng.normal(size=(n_rows, 2)))
        build = functools.partial(
            replace, tiny_setup(), mode=mode, model=TranslationModel(np.eye(2), support),
            target_space=target,
        )
        if support == n_rows:
            assert build().target_space is target
        else:
            with pytest.raises(SupportMismatchError) as info:
                build()
            assert f"support of {support} words differs from the {n_rows} rows" in str(info.value)
            assert "--max-words" in str(info.value)

    def test_composed_vectors_follow_space_preprocessing(self):
        # A preprocessed space normalizes composed vectors and shifts them
        # by the stored training mean before mapping.
        from morphlex.pipeline import _source_vectors

        config = tiny_setup()
        center = np.array([0.25, -0.5])
        source = replace(config.source_space, center=center)
        table = EmbeddingSpace(("<neu",), np.array([[3.0, 4.0]]))
        config = replace(config, source_space=source, ngram_table=table)
        resolved = _source_vectors(config, ["neu"])[1][0]
        np.testing.assert_allclose(resolved, np.array([0.6, 0.8]) - center)


class TestTranslateHybrid:
    def test_frequent_irregular_goes_direct(self):
        # The surface form outranks its lemma, mirroring a frequent
        # irregular: rank(form)=0 < rank(lemma)=1.
        source = EmbeddingSpace(
            ("dice", "decir"), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        target = EmbeddingSpace(
            ("sagt", "sagen"), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        analyzer = learn_analyzer(
            [
                UniMorphEntry("decir", "decir", TAG_NFIN),
                UniMorphEntry("decir", "dice", TAG),
            ]
        )
        inflector = learn_inflector(
            [
                UniMorphEntry("sagen", "sagen", TAG_NFIN),
                UniMorphEntry("sagen", "sagt", TAG),
            ]
        )
        config = JointConfig(
            MODE_HYBRID, TranslationModel(np.eye(2), 2), source, target, analyzer, inflector
        )
        candidate = translate_many(config, ["dice"])[0]
        assert candidate.route == ROUTE_DIRECT
        assert candidate.form == "sagt"

    def test_rare_regular_equals_base(self):
        config = replace(tiny_setup(), mode=MODE_HYBRID)
        # rank(saltar)=0 < rank(salto)=1: identical to the base output.
        hybrid = translate_many(config, ["salto"])[0]
        base = translate_many(replace(config, mode=MODE_BASE), ["salto"])[0]
        assert hybrid == base

    def test_form_equal_to_its_lemma_goes_direct(self):
        config = replace(tiny_setup(), mode=MODE_HYBRID)
        # "saltar" analyzes to itself: equal rank, strict inequality fails.
        candidate = translate_many(config, ["saltar"])[0]
        assert candidate.route == ROUTE_DIRECT

    def test_lemma_absent_from_space_goes_direct(self):
        source = EmbeddingSpace(("salto",), np.array([[0.0, 1.0]]))
        target = EmbeddingSpace(("springe",), np.array([[0.0, 1.0]]))
        analyzer = learn_analyzer([UniMorphEntry("saltar", "salto", TAG)])
        inflector = learn_inflector([UniMorphEntry("springen", "springe", TAG)])
        config = JointConfig(
            MODE_HYBRID, TranslationModel(np.eye(2), 1), source, target, analyzer, inflector
        )
        candidate = translate_many(config, ["salto"])[0]
        assert candidate.route == ROUTE_DIRECT
        assert candidate.form == "springe"

    @pytest.mark.parametrize("order", [("saltar", "salto"), ("salto", "saltar")])
    def test_composed_rows_have_no_rank(self, order):
        # Lemma and form both composed from n-grams, to their old rows:
        # neither has a frequency rank, so the route must not depend on
        # which one the batch composes first.
        config = replace(tiny_setup(), mode=MODE_HYBRID)
        source = EmbeddingSpace(("other",), np.array([[1.0, 1.0]]))
        table = EmbeddingSpace(("tar>", "lto>"), np.eye(2))
        config = replace(config, source_space=source, ngram_table=table)
        slots = dict(zip(order, translate_many(config, list(order))))
        assert slots["salto"].route == ROUTE_DIRECT
        assert slots["salto"].form == "springe"

    def test_oov_form_with_in_vocab_lemma_goes_through_lemma(self):
        config = replace(tiny_setup(), mode=MODE_HYBRID)
        source = EmbeddingSpace(("saltar",), np.array([[1.0, 0.0]]))
        config = replace(config, source_space=source)
        # "salto" has no rank at all; the lemma is rank 0, so inf > 0.
        candidate = translate_many(config, ["salto"])[0]
        assert candidate.route == ROUTE_LEMMA
        assert candidate.form == "springe"


class TestTranslateOracle:
    def test_matches_base_with_certain_analyzer(self):
        config = tiny_setup()
        oracle_config = replace(config, mode=MODE_ORACLE)
        base = translate_many(config, ["salto"])[0]
        oracle = translate_many(oracle_config, ["salto"], [("saltar", TAG)])[0]
        assert oracle.form == base.form == "springe"
        assert oracle.analyzer_log_prob == 0.0
        assert oracle.translator_log_prob == base.translator_log_prob
        assert oracle.inflector_log_prob == base.inflector_log_prob

    def test_unknown_gold_tag_propagates(self):
        config = replace(tiny_setup(), mode=MODE_ORACLE)
        slot = translate_many(config, ["salto"], [("saltar", parse_tag("N;PL"))])[0]
        assert isinstance(slot, UnknownTagError)

    def test_missing_gold_is_untranslatable(self):
        config = replace(tiny_setup(), mode=MODE_ORACLE)
        assert isinstance(translate_many(config, ["salto"])[0], UntranslatableError)

    def test_unresolvable_gold_lemma_has_no_fallback(self):
        config = replace(tiny_setup(), mode=MODE_ORACLE)
        slot = translate_many(config, ["salto"], [("zzzz", TAG)])[0]
        assert isinstance(slot, UntranslatableError)


class TestJointLogProb:
    def test_lemma_route_sum(self):
        candidate = TranslationCandidate(
            "x", TAG, ROUTE_LEMMA, -0.1, -0.5, -0.2
        )
        assert joint_log_prob(candidate) == pytest.approx(-0.8)

    def test_direct_route_single_factor(self):
        candidate = TranslationCandidate("x", None, ROUTE_DIRECT, None, -0.5, None)
        assert joint_log_prob(candidate) == pytest.approx(-0.5)

    def test_oracle_candidate_skips_nothing_but_analyzer_mass(self):
        candidate = TranslationCandidate("x", TAG, ROUTE_LEMMA, 0.0, -0.4, -0.3)
        assert joint_log_prob(candidate) == pytest.approx(-0.7)

    def test_sum_is_bit_exact(self):
        parts = (-0.123456789, -1.5, -2.25)
        candidate = TranslationCandidate("x", TAG, ROUTE_LEMMA, *parts)
        assert joint_log_prob(candidate) == sum(parts)

    def test_pipeline_candidate_decomposition(self):
        config = tiny_setup()
        candidate = translate_many(config, ["salto"])[0]
        expected = (
            candidate.analyzer_log_prob
            + candidate.translator_log_prob
            + candidate.inflector_log_prob
        )
        assert joint_log_prob(candidate) == expected

    def test_all_scores_nonpositive(self):
        config = tiny_setup()
        for form in ("salto", "saltar"):
            candidate = translate_many(config, [form])[0]
            for part in (
                candidate.analyzer_log_prob,
                candidate.translator_log_prob,
                candidate.inflector_log_prob,
            ):
                if part is not None:
                    assert part <= 0.0 and math.isfinite(part)


class TestDirect:
    def test_direct_never_uses_morphology(self):
        config = tiny_setup()
        candidate = translate_many(replace(config, mode=MODE_DIRECT), ["salto"])[0]
        assert candidate.route == ROUTE_DIRECT
        assert candidate.tag is None
        assert candidate.analyzer_log_prob is None
        assert candidate.inflector_log_prob is None

    def test_fallback_soundness(self):
        # Anything the direct translator handles never raises in base mode.
        config = tiny_setup()
        for word in config.source_space.words:
            for mode in (MODE_DIRECT, MODE_BASE):
                slot = translate_many(replace(config, mode=mode), [word])[0]
                assert isinstance(slot, TranslationCandidate)


# In batch_world, "pivemiu" translates to a lemma that ends in no suffix
# of this tag's rules once the tag has lost its empty-suffix backoff, and
# "mazeu" has a zero source row, so no cosine neighbour.
TAG_WITHOUT_BACKOFF = parse_tag("V;PRS;3;PL")
TAG_2SG = parse_tag("V;PRS;2;SG")
GOLD_WITHOUT_RULE = ("pivemiu", TAG_WITHOUT_BACKOFF)
ZERO_LEMMA = "mazeu"


@functools.lru_cache(maxsize=None)
def batch_world():
    """A small synthetic world with an n-gram table, plus a pool of inputs:
    vocabulary forms, composable OOV forms, an uncomposable form and
    forms unlike any training form, each with gold analyses good and bad.
    The inflector lacks the empty-suffix backoff for one tag, as a loaded
    rule table may, and one lemma's source row is zero."""
    task = build_bilingual_task(seed=2, n_lexemes=16, dim=6)
    rng = np.random.default_rng(2)
    grams = sorted({g for word in task.source_space.words for g in ngrams(word)})
    table = EmbeddingSpace(tuple(grams), rng.normal(size=(len(grams), 6)))
    inflector = learn_inflector(task.target_unimorph)
    del inflector.rules[TAG_WITHOUT_BACKOFF][""]
    vectors = task.source_space.vectors.copy()
    vectors[task.source_space.index_or_none(ZERO_LEMMA)] = 0.0
    config = JointConfig(
        MODE_BASE,
        procrustes_fit(task.seed_pairs, task.source_space, task.target_space),
        replace(task.source_space, vectors=vectors),
        task.target_space,
        learn_analyzer(task.source_unimorph),
        inflector,
        table,
    )
    vocabulary = list(task.source_space.words[::5])
    forms = vocabulary + ["z" + w for w in vocabulary[:4]] + ["qqqq", "xq", "bax"]
    some_gold = next(iter(task.gold_analyses.values()))
    golds = [None, some_gold, ("qqqq", some_gold[1]), (some_gold[0], parse_tag("N;PL;XX"))]
    golds += [task.gold_analyses[f] for f in forms if f in task.gold_analyses][:4]
    golds += [GOLD_WITHOUT_RULE, (ZERO_LEMMA, some_gold[1])]
    return config, forms, golds


@st.composite
def batches(draw):
    config, forms, golds = batch_world()
    mode = draw(st.sampled_from([MODE_BASE, MODE_HYBRID, MODE_ORACLE, MODE_DIRECT]))
    picks = draw(st.lists(st.tuples(st.sampled_from(forms), st.sampled_from(golds)), max_size=12))
    picks += draw(st.lists(st.sampled_from(picks), max_size=4)) if picks else []
    return replace(config, mode=mode), [f for f, _ in picks], [g for _, g in picks]


class TestTranslateMany:
    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_equals_one_translate_per_form(self, batch):
        # One batch gives each slot what a batch of that one form gives.
        config, forms, golds = batch
        results = translate_many(config, forms, golds)
        assert len(results) == len(forms)
        for form, gold, result in zip(forms, golds, results):
            expected = translate_many(config, [form], [gold])[0]
            if isinstance(expected, TRANSLATION_ERRORS):
                assert type(result) is type(expected) and result.args == expected.args
                continue
            assert isinstance(result, TranslationCandidate)
            # One query at a time and a batch of queries sum the same
            # products in a different order, so log-probabilities may
            # differ in the last bits.
            assert replace(result, translator_log_prob=None) == replace(
                expected, translator_log_prob=None
            )
            if expected.translator_log_prob is None:
                assert result.translator_log_prob is None
            else:
                assert result.translator_log_prob == pytest.approx(
                    expected.translator_log_prob, rel=0, abs=1e-12
                )

    def test_pool_covers_every_outcome(self):
        # The property above is only as strong as its pool: every route,
        # and every declared error, must occur.
        config, forms, golds = batch_world()
        seen = set()
        for mode in (MODE_BASE, MODE_HYBRID, MODE_ORACLE, MODE_DIRECT):
            pairs = [(f, g) for f in forms for g in golds]
            results = translate_many(replace(config, mode=mode), *zip(*pairs))
            seen.update(
                r.route if isinstance(r, TranslationCandidate) else type(r) for r in results
            )
        assert {ROUTE_LEMMA, ROUTE_DIRECT, UntranslatableError, UnknownTagError, NoRuleError} <= seen

    @pytest.mark.parametrize("mode", [MODE_BASE, MODE_HYBRID])
    def test_a_lemma_route_failure_after_retrieval_falls_back_to_direct(self, mode):
        # Both forms take the lemma route (their lemmas outrank them): one
        # ends in NoRuleError, the other at a lemma without a neighbour.
        config, _, _ = batch_world()
        forms = ["pivemisa", "mazema"]
        analyses = [analyze(config.analyzer, form) for form in forms]
        assert [(a.lemma, a.tag) for a in analyses] == [GOLD_WITHOUT_RULE, (ZERO_LEMMA, TAG_2SG)]
        slots = translate_many(replace(config, mode=mode), forms)
        assert slots == translate_many(replace(config, mode=MODE_DIRECT), forms)
        assert all(slot.route == ROUTE_DIRECT for slot in slots)

    def test_oracle_keeps_a_lemma_route_failure_after_retrieval(self):
        config, _, _ = batch_world()
        golds = [GOLD_WITHOUT_RULE, (ZERO_LEMMA, TAG_2SG)]
        slots = translate_many(replace(config, mode=MODE_ORACLE), ["pivemisa", "mazema"], golds)
        assert isinstance(slots[0], NoRuleError)
        assert isinstance(slots[1], UntranslatableError) and slots[1].args == (ZERO_LEMMA,)

    @pytest.mark.parametrize(
        "mode, analyses, inflections",
        [(MODE_BASE, 2, 2), (MODE_HYBRID, 2, 1), (MODE_ORACLE, 0, 3), (MODE_DIRECT, 0, 0)],
    )
    def test_routes_each_distinct_input_once(self, monkeypatch, mode, analyses, inflections):
        # Counted through the module-level names that perfbench's tracer
        # hooks, so this also guards that the traced metrics are fed.
        calls = collections.Counter()

        def counted(name):
            function = getattr(pipeline, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(pipeline, name, wrapper)

        counted("analyze")
        counted("inflect")
        # Two distinct forms; three distinct (form, gold) keys in oracle
        # mode. Hybrid sends "saltar", its own lemma, direct.
        forms = ["salto", "salto", "salto", "saltar", "saltar"]
        golds = [("saltar", TAG)] * 2 + [("saltar", TAG_NFIN)] * 3
        slots = translate_many(replace(tiny_setup(), mode=mode), forms, golds)
        assert all(isinstance(slot, TranslationCandidate) for slot in slots)
        assert (calls["analyze"], calls["inflect"]) == (analyses, inflections)

    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from([MODE_BASE, MODE_HYBRID, MODE_ORACLE, MODE_DIRECT]),
        pairs=st.lists(st.tuples(st.text(max_size=10), st.integers(0, 2**16)), max_size=8),
        lemmas=st.lists(st.text(max_size=10), min_size=1, max_size=3),
    )
    def test_every_slot_is_a_candidate_or_a_declared_error(self, mode, pairs, lemmas):
        # Arbitrary text, not only the pool's forms: whatever the form or
        # gold, a slot holds a result or a declared error, never a stray one.
        config, _, pool_golds = batch_world()
        tags = sorted({g[1] for g in pool_golds if g}, key=str)
        golds = pool_golds + [(lemma, tag) for lemma in lemmas for tag in tags]
        forms = [form for form, _ in pairs]
        slot_golds = [golds[i % len(golds)] for _, i in pairs]
        results = translate_many(replace(config, mode=mode), forms, slot_golds)
        assert len(results) == len(forms)
        for result in results:
            assert isinstance(result, (TranslationCandidate, *TRANSLATION_ERRORS))

    def test_stats_count_distinct_forms_and_retrievals(self):
        config = replace(tiny_setup(), mode=MODE_DIRECT)
        stats = BatchStats()
        translate_many(config, ["salto", "saltar", "salto", "nope"], stats=stats)
        counts = (stats.forms, stats.distinct_forms, stats.retrievals, stats.score_blocks)
        assert counts == (4, 3, 2, 1)
        assert str(stats) == (
            "4 forms, 3 distinct, 2 retrievals in 1 score blocks (0.5000 retrievals per form)"
        )
