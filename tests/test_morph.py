import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex.morph import (
    Analysis,
    MorphTag,
    MorphFormatError,
    NoAnalysisError,
    TagParseError,
    UniMorphEntry,
    UnknownTagError,
    analyze,
    analyzer_accuracy,
    inflect,
    inflector_accuracy,
    learn_analyzer,
    learn_inflector,
    load_rule_table,
    parse_tag,
    read_unimorph,
    save_rule_table,
    tag_translate,
)
from morphlex.synthetic import make_language, split_lexemes

features = st.lists(
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ013", min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


class TestParseTag:
    def test_lowercase_input(self):
        tag = parse_tag("v;prs;3;sg")
        assert tag.features == ("V", "PRS", "3", "SG")
        assert tag.canonical == "V;PRS;3;SG"

    def test_order_insensitive_equality(self):
        assert parse_tag("V;PRS;3;SG") == parse_tag("PRS;V;SG;3")
        assert hash(parse_tag("V;PRS;3;SG")) == hash(parse_tag("PRS;V;SG;3"))

    def test_empty_feature_rejected(self):
        with pytest.raises(TagParseError):
            parse_tag("V;;SG")

    def test_empty_string_rejected(self):
        with pytest.raises(TagParseError):
            parse_tag("")

    def test_display_preserves_order(self):
        assert parse_tag("sg;v").canonical == "SG;V"


class TestTagTranslate:
    def test_equal_tags(self):
        tag = parse_tag("V;PRS;3;SG")
        assert tag_translate(tag, tag) == 1.0

    def test_unequal_tags(self):
        assert tag_translate(parse_tag("V;PRS;3;SG"), parse_tag("V;PRS;3;PL")) == 0.0

    def test_permuted_tags_still_equal(self):
        assert tag_translate(parse_tag("V;PRS;3;SG"), parse_tag("PRS;V;3;SG")) == 1.0

    @given(features)
    def test_reflexive_and_symmetric(self, feats):
        tag = MorphTag(feats)
        permuted = MorphTag(list(reversed(feats)))
        assert tag_translate(tag, tag) == 1.0
        assert tag_translate(tag, permuted) == 1.0
        assert tag_translate(permuted, tag) == 1.0

    @given(features, features)
    def test_indicator_matches_equality(self, a, b):
        ta, tb = MorphTag(a), MorphTag(b)
        expected = 1.0 if sorted(ta.features) == sorted(tb.features) else 0.0
        assert tag_translate(ta, tb) == expected
        assert tag_translate(tb, ta) == expected


TAG_1SG = parse_tag("V;PRS;1;SG")


class TestLearnInflector:
    def test_lcp_rule_extraction(self):
        table = learn_inflector([UniMorphEntry("cantar", "canto", TAG_1SG)])
        assert table.rules[TAG_1SG]["ar"] == {"o": 1}

    def test_count_aggregation(self):
        table = learn_inflector(
            [
                UniMorphEntry("cantar", "canto", TAG_1SG),
                UniMorphEntry("saltar", "salto", TAG_1SG),
            ]
        )
        assert table.rules[TAG_1SG]["ar"] == {"o": 2}
        assert table.context_distribution(TAG_1SG, "ar") == {"o": 1.0}

    def test_suppletive_whole_word_rule(self):
        table = learn_inflector([UniMorphEntry("ir", "voy", TAG_1SG)])
        assert table.rules[TAG_1SG]["ir"] == {"voy": 1}

    def test_backoffs_reach_the_empty_suffix(self):
        table = learn_inflector([UniMorphEntry("cantar", "canto", TAG_1SG)])
        assert set(table.rules[TAG_1SG]) == {"ar", "r", ""}

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            learn_inflector([])


class TestInflect:
    def test_suffix_generalization(self):
        table = learn_inflector([UniMorphEntry("cantar", "canto", TAG_1SG)])
        form, log_prob = inflect(table, "saltar", TAG_1SG)
        assert form == "salto"
        assert log_prob == pytest.approx(0.0)

    def test_longest_match_wins_for_suppletives(self):
        table = learn_inflector(
            [
                UniMorphEntry("cantar", "canto", TAG_1SG),
                UniMorphEntry("saltar", "salto", TAG_1SG),
                UniMorphEntry("ir", "voy", TAG_1SG),
            ]
        )
        # by-hand trace: matched suffixes of "ir" are {"ir", "r", ""};
        # "ir" (whole word) is longest and must win over the "r" backoff.
        assert inflect(table, "ir", TAG_1SG) == ("voy", math.log(1.0))
        assert inflect(table, "brincar", TAG_1SG)[0] == "brinco"

    def test_unknown_tag(self):
        table = learn_inflector([UniMorphEntry("cantar", "canto", TAG_1SG)])
        with pytest.raises(UnknownTagError):
            inflect(table, "cantar", parse_tag("N;PL"))

    def test_probability_tie_breaks_lexicographically(self):
        entries = [
            UniMorphEntry("mar", "mo", TAG_1SG),
            UniMorphEntry("par", "pi", TAG_1SG),
        ]
        table = learn_inflector(entries)
        # context (tag, "ar") holds {"o": 1, "i": 1}: tie, pick "i".
        form, log_prob = inflect(table, "zar", TAG_1SG)
        assert form == "zi"
        assert log_prob == pytest.approx(math.log(0.5))

    def test_identity_rule_for_base_pos(self):
        adv = parse_tag("ADV")
        table = learn_inflector([UniMorphEntry("ayer", "ayer", adv)])
        assert inflect(table, "ayer", adv) == ("ayer", 0.0)
        assert inflect(table, "nunca", adv) == ("nunca", 0.0)


class TestLearnAnalyzer:
    def test_syncretism_keeps_smallest_tag(self):
        entries = [
            UniMorphEntry("cantar", "canto", TAG_1SG),
            UniMorphEntry("canto", "canto", parse_tag("N;SG")),
        ]
        table = learn_analyzer(entries)
        result = analyze(table, "canto")
        assert result.lemma == "canto"
        assert result.tag == parse_tag("N;SG")

    def test_inverse_of_inflector_rule(self):
        table = learn_analyzer([UniMorphEntry("cantar", "canto", TAG_1SG)])
        assert table.rules["o"] == {("ar", TAG_1SG): 1}

    def test_no_conflict_keeps_both(self):
        entries = [
            UniMorphEntry("cantar", "canto", TAG_1SG),
            UniMorphEntry("saltar", "saltas", parse_tag("V;PRS;2;SG")),
        ]
        table = learn_analyzer(entries)
        assert analyze(table, "canto").lemma == "cantar"
        assert analyze(table, "saltas").lemma == "saltar"


class TestAnalyze:
    def test_suffix_generalization(self):
        table = learn_analyzer([UniMorphEntry("cantar", "canto", TAG_1SG)])
        result = analyze(table, "salto")
        assert result == Analysis("saltar", TAG_1SG, math.log(1.0))

    def test_training_form_memorized(self):
        entries = [
            UniMorphEntry("ir", "voy", TAG_1SG),
            UniMorphEntry("cantar", "canto", TAG_1SG),
        ]
        table = learn_analyzer(entries)
        assert analyze(table, "voy").lemma == "ir"

    def test_no_rule_matches(self):
        table = learn_analyzer([UniMorphEntry("cantar", "canto", TAG_1SG)])
        with pytest.raises(NoAnalysisError):
            analyze(table, "xyz")

    def test_log_prob_reflects_context_probability(self):
        entries = [
            UniMorphEntry("cantar", "canto", TAG_1SG),
            UniMorphEntry("cantar", "canto", TAG_1SG),
            UniMorphEntry("grande", "grando", parse_tag("ADJ;MASC")),
        ]
        # "o" context: ("ar", 1SG) count 2 vs ("e", ADJ;MASC) count 1 -> p = 2/3.
        table = learn_analyzer(entries)
        result = analyze(table, "salto")
        assert result.tag == TAG_1SG
        assert result.log_prob == pytest.approx(math.log(2.0 / 3.0))

    def test_empty_suffix_rule_only_from_identical_pairs(self):
        table = learn_analyzer([UniMorphEntry("cantar", "canto", TAG_1SG)])
        assert set(table.rules) == {"o"}
        adv = parse_tag("ADV")
        with_base = learn_analyzer(
            [
                UniMorphEntry("cantar", "canto", TAG_1SG),
                UniMorphEntry("ayer", "ayer", adv),
            ]
        )
        assert "" in with_base.rules
        assert analyze(with_base, "xyz") == Analysis("xyz", adv, 0.0)


class TestProperties:
    @given(st.permutations(range(6)))
    @settings(max_examples=30, deadline=None)
    def test_training_order_never_matters(self, order):
        entries = [
            UniMorphEntry("cantar", "canto", TAG_1SG),
            UniMorphEntry("saltar", "salto", TAG_1SG),
            UniMorphEntry("ir", "voy", TAG_1SG),
            UniMorphEntry("cantar", "cantas", parse_tag("V;PRS;2;SG")),
            UniMorphEntry("canto", "canto", parse_tag("N;SG")),
            UniMorphEntry("mesa", "mesas", parse_tag("N;PL")),
        ]
        shuffled = [entries[i] for i in order]
        assert learn_inflector(shuffled).rules == learn_inflector(entries).rules
        assert learn_analyzer(shuffled).rules == learn_analyzer(entries).rules

    def test_context_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        language = make_language("m", rng, 40, irregular_rate=0.1)
        entries = language.entries(range(40))
        inflector = learn_inflector(entries)
        for tag, by_suffix in inflector.rules.items():
            for suffix in by_suffix:
                total = sum(inflector.context_distribution(tag, suffix).values())
                assert total == pytest.approx(1.0, abs=1e-9)
        analyzer = learn_analyzer(entries)
        for suffix in analyzer.rules:
            total = sum(analyzer.context_distribution(suffix).values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_training_set_consistency(self):
        rng = np.random.default_rng(1)
        language = make_language("m", rng, 30)
        entries = language.entries(range(30))
        table = learn_inflector(entries)
        for entry in entries:
            assert inflect(table, entry.lemma, entry.tag)[0] == entry.form

    def test_round_trip_on_held_out_data(self):
        rng = np.random.default_rng(2)
        language = make_language("m", rng, 200)
        train, heldout = split_lexemes(rng, 200, train_fraction=0.8)
        inflector = learn_inflector(language.entries(train))
        analyzer = learn_analyzer(language.entries(train))
        test_entries = language.entries(heldout)
        assert inflector_accuracy(inflector, test_entries) >= 0.95
        assert analyzer_accuracy(analyzer, test_entries) >= 0.90
        round_trips = 0
        for entry in test_entries:
            result = analyze(analyzer, entry.form)
            form, _ = inflect(inflector, result.lemma, result.tag)
            round_trips += form == entry.form
        assert round_trips / len(test_entries) >= 0.90


class TestFiles:
    def test_unimorph_reader(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("cantar\tcanto\tV;PRS;1;SG\n\ncantar\tcantas\tV;PRS;2;SG\n")
        entries = read_unimorph(str(path))
        assert len(entries) == 2
        assert entries[0] == UniMorphEntry("cantar", "canto", TAG_1SG)

    def test_unimorph_bad_columns(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("cantar\tcanto\n")
        with pytest.raises(MorphFormatError, match="line 1"):
            read_unimorph(str(path))

    @pytest.mark.parametrize("learn", [learn_inflector, learn_analyzer])
    def test_rule_table_round_trip(self, tmp_path, learn):
        rng = np.random.default_rng(3)
        language = make_language("m", rng, 25, irregular_rate=0.15)
        table = learn(language.entries(range(25)))
        path = tmp_path / "rules.txt"
        save_rule_table(table, str(path))
        reloaded = load_rule_table(str(path))
        assert reloaded.direction == table.direction
        assert reloaded.rules == table.rules

    def test_rule_table_bad_header(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("NOT-A-TABLE\n")
        with pytest.raises(MorphFormatError):
            load_rule_table(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("MORPHLEX-RULES v1 sideways\n", "unknown direction 'sideways'"),
            ("MORPHLEX-RULES v1 inflect\nV;PRS;1;SG\tar\to\ttwo\n", "line 2: bad count"),
            ("MORPHLEX-RULES v1 inflect\nV;PRS;1;SG\tar\to\t0\n", "line 2: count must be positive"),
            ("MORPHLEX-RULES v1 analyze\no\tar\tV;PRS;1;SG\t-3\n", "line 2: count must be positive"),
        ],
        ids=["direction", "non-integer-count", "zero-count", "negative-count"],
    )
    def test_rule_table_bad_direction_or_count(self, tmp_path, text, message):
        path = tmp_path / "rules.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MorphFormatError) as info:
            load_rule_table(str(path))
        assert str(info.value) == f"{path}: {message}"


class TestAccuracy:
    """An entry the table cannot handle is a miss, not an error."""

    def test_inflector_misses_unknown_tags_and_wrong_forms(self):
        table = learn_inflector([UniMorphEntry("cantar", "canto", TAG_1SG)])
        entries = [
            UniMorphEntry("cantar", "canto", TAG_1SG),
            UniMorphEntry("cantar", "canto", parse_tag("N;PL")),  # UnknownTagError
            UniMorphEntry("cantar", "cantamos", TAG_1SG),  # a wrong form
        ]
        with pytest.raises(UnknownTagError):
            inflect(table, "cantar", parse_tag("N;PL"))
        assert inflector_accuracy(table, entries) == pytest.approx(1 / 3)

    def test_analyzer_misses_unanalyzable_forms(self):
        table = learn_analyzer([UniMorphEntry("cantar", "canto", TAG_1SG)])
        entries = [UniMorphEntry("cantar", "canto", TAG_1SG), UniMorphEntry("qqq", "qqq", TAG_1SG)]
        with pytest.raises(NoAnalysisError):
            analyze(table, "qqq")
        assert analyzer_accuracy(table, entries) == 0.5
