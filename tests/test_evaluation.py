import json

import numpy as np
import pytest

from morphlex.embeddings import EmbeddingSpace
from morphlex.evaluation import (
    DictionaryFormatError,
    EmptyDictionaryError,
    EntryOutcome,
    EvalDictionary,
    EvalEntry,
    NoOverlapError,
    NoTaggedEntriesError,
    extract_identical_seed,
    frequency_bins,
    precision_at_1,
    read_eval_dictionary,
    read_seed_dictionary,
    tag_breakdown,
    write_report,
)
from morphlex.morph import parse_tag
from morphlex.pipeline import ROUTE_DIRECT, TranslationCandidate, UntranslatableError


def space_of(words, dim=2, composed=()):
    """A space whose last ``len(composed)`` words are the composed ones."""
    rng = np.random.default_rng(0)
    return EmbeddingSpace(
        tuple(words), rng.normal(size=(len(words), dim)), len(words) - len(composed)
    )


def dictionary(pairs, tags=None):
    entries = []
    for i, (source, golds) in enumerate(pairs):
        tag = tags[i] if tags else None
        entries.append(EvalEntry(source, frozenset(golds), tag))
    return EvalDictionary(entries, provenance="test")


def slots(system, gold):
    """The ``translate_many`` slot list of a form -> answer system over the
    dictionary's entries: a None answer is an UntranslatableError slot."""
    out = []
    for entry in gold.entries:
        answer = system(entry.source)
        out.append(
            UntranslatableError(entry.source) if answer is None
            else TranslationCandidate(answer, None, ROUTE_DIRECT, None, None, None)
        )
    return out


class TestPrecisionAt1:
    def test_simple_counting(self):
        space = space_of(["a", "b", "c", "d"])
        answers = {"a": "A", "b": "B", "c": "C", "d": "WRONG"}
        gold = dictionary([("a", {"A"}), ("b", {"B"}), ("c", {"C"}), ("d", {"D"})])
        report = precision_at_1(slots(answers.get, gold), gold, space)
        assert report.all_precision == 0.75
        assert report.voc_precision == 0.75

    def test_gold_set_membership(self):
        space = space_of(["w"])
        gold = dictionary([("w", {"a", "b"})])
        report = precision_at_1(slots(lambda _: "b", gold), gold, space)
        assert report.all_correct == 1

    def test_untranslatable_counts_as_incorrect(self):
        space = space_of(["a", "b"])
        gold = dictionary([("a", {"A"}), ("b", {"B"})])

        report = precision_at_1(slots({"b": "B"}.get, gold), gold, space)
        assert report.untranslatable == 1
        assert report.all_precision == 0.5

    def test_voc_excludes_composed_and_missing_sources(self):
        space = space_of(["a", "b", "c"], composed={"c"})
        gold = dictionary([("a", {"A"}), ("c", {"C"}), ("zz", {"ZZ"})])
        report = precision_at_1(slots(str.upper, gold), gold, space)
        assert report.voc_total == 1  # only "a" is file-loaded
        assert report.all_total == 3
        assert report.all_correct == 3

    def test_empty_dictionary_is_an_error(self):
        with pytest.raises(EmptyDictionaryError):
            precision_at_1([], EvalDictionary([], "x"), space_of(["a"]))

    def test_slot_count_must_match_the_entries(self):
        gold = dictionary([("a", {"A"}), ("b", {"B"})])
        with pytest.raises(ValueError):
            precision_at_1(slots(str.upper, gold)[:1], gold, space_of(["a", "b"]))

    def test_matches_hand_scored_table(self):
        # Oracle: ten entries scored by hand against a fixed system.
        words = [f"w{i}" for i in range(10)]
        space = space_of(words)
        system_output = {
            "w0": "g0", "w1": "bad", "w2": "g2", "w3": "g3", "w4": None,
            "w5": "g5", "w6": "bad", "w7": "g7", "w8": "bad", "w9": "g9",
        }
        gold = dictionary([(w, {f"g{i}"}) for i, w in enumerate(words)])
        report = precision_at_1(slots(system_output.get, gold), gold, space)
        # hand count: w0,w2,w3,w5,w7,w9 correct = 6 of 10; one untranslatable.
        assert report.all_correct == 6
        assert report.all_total == 10
        assert report.untranslatable == 1
        assert report.all_precision == 0.6


def outcome(source, rank, correct, tag=None):
    return EntryOutcome(source, rank, tag, "x" if correct else None if correct is None else "y", bool(correct))


class TestFrequencyBins:
    def test_bin_boundaries(self):
        outcomes = [outcome("a", 9999, True), outcome("b", 10000, False)]
        bins = frequency_bins(outcomes, bin_width=10000, num_bins=10)
        assert [b.label for b in bins] == ["0-10000", "10000-20000"]
        assert [b.total for b in bins] == [1, 1]

    def test_degenerate_partition_equals_overall(self):
        outcomes = [outcome(f"w{i}", i, i % 3 == 0) for i in range(30)]
        bins = frequency_bins(outcomes, bin_width=1000, num_bins=10)
        assert len(bins) == 1
        overall = sum(o.correct for o in outcomes) / len(outcomes)
        assert bins[0].accuracy == pytest.approx(overall)

    def test_zipfian_histogram_matches_brute_force(self):
        rng = np.random.default_rng(1)
        ranks = (rng.pareto(1.0, size=400) * 50).astype(int)
        outcomes = [
            outcome(f"w{i}", int(r), bool(rng.integers(2))) for i, r in enumerate(ranks)
        ]
        width, nbins = 25, 4
        bins = frequency_bins(outcomes, bin_width=width, num_bins=nbins)
        # Oracle: brute-force histogram.
        expected: dict[str, list[int]] = {}
        for o in outcomes:
            b = o.rank // width
            label = f"{b * width}-{(b + 1) * width}" if b < nbins else f"{nbins * width}+"
            cell = expected.setdefault(label, [0, 0])
            cell[0] += o.correct
            cell[1] += 1
        got = {b.label: [b.correct, b.total] for b in bins}
        assert got == expected

    def test_oov_bin_collects_unranked(self):
        outcomes = [outcome("a", 0, True), outcome("b", None, False), outcome("c", None, True)]
        bins = frequency_bins(outcomes)
        by_label = {b.label: b for b in bins}
        assert by_label["oov"].total == 2
        assert by_label["oov"].correct == 1

    def test_weighted_mean_equals_overall(self):
        rng = np.random.default_rng(2)
        outcomes = [
            outcome(f"w{i}", int(rng.integers(0, 500)) if rng.random() < 0.8 else None,
                    bool(rng.integers(2)))
            for i in range(300)
        ]
        bins = frequency_bins(outcomes, bin_width=50, num_bins=5)
        weighted = sum(b.accuracy * b.total for b in bins) / sum(b.total for b in bins)
        overall = sum(o.correct for o in outcomes) / len(outcomes)
        assert abs(weighted - overall) < 1e-12

    def test_counts_partition_population(self):
        outcomes = [outcome(f"w{i}", i * 7 if i % 4 else None, i % 2 == 0) for i in range(60)]
        bins = frequency_bins(outcomes, bin_width=40, num_bins=6)
        assert sum(b.total for b in bins) == len(outcomes)


class TestTagBreakdown:
    def test_pure_groups(self):
        nfin, prs = parse_tag("V;NFIN"), parse_tag("V;PRS;2;PL")
        outcomes = [
            outcome("a", 0, True, nfin),
            outcome("b", 1, True, nfin),
            outcome("c", 2, False, prs),
        ]
        stats = {s.label: s for s in tag_breakdown(outcomes, min_count=1)}
        assert stats["V;NFIN"].accuracy == 1.0
        assert stats["V;PRS;2;PL"].accuracy == 0.0

    def test_counts_sum_to_tagged_population(self):
        tags = [parse_tag(t) for t in ("N;SG", "N;PL", "V;NFIN")]
        rng = np.random.default_rng(3)
        outcomes = [
            outcome(f"w{i}", i, bool(rng.integers(2)), tags[i % 3]) for i in range(33)
        ]
        stats = tag_breakdown(outcomes)
        assert sum(s.total for s in stats) == 33

    def test_matches_manual_grouping(self):
        n_sg = parse_tag("N;SG")
        v_3 = parse_tag("V;PRS;3;SG")
        outcomes = [
            outcome("a", 0, True, n_sg),
            outcome("b", 1, False, n_sg),
            outcome("c", 2, True, v_3),
            outcome("d", 3, True, v_3),
            outcome("e", 4, False, v_3),
        ]
        stats = {s.label: (s.correct, s.total) for s in tag_breakdown(outcomes, min_count=3)}
        assert stats == {"N;SG": (1, 2), "V;PRS;3;SG": (2, 3)}

    def test_low_support_flag(self):
        outcomes = [outcome("a", 0, True, parse_tag("N;SG"))]
        (stat,) = tag_breakdown(outcomes, min_count=5)
        assert stat.low_support

    def test_no_tags_is_an_error(self):
        with pytest.raises(NoTaggedEntriesError):
            tag_breakdown([outcome("a", 0, True)])

    def test_untagged_entries_ignored(self):
        outcomes = [outcome("a", 0, True, parse_tag("N;SG")), outcome("b", 1, True)]
        stats = tag_breakdown(outcomes)
        assert sum(s.total for s in stats) == 1


class TestExtractIdenticalSeed:
    def test_intersection(self):
        source = space_of(["casa", "perro", "taxi"])
        target = space_of(["taxi", "maison", "casa"])
        assert extract_identical_seed(source, target) == [("casa", "casa"), ("taxi", "taxi")]

    def test_disjoint_vocabularies(self):
        with pytest.raises(NoOverlapError):
            extract_identical_seed(space_of(["a"]), space_of(["b"]))

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(4)
        make = lambda: [f"w{rng.integers(0, 1500)}" for _ in range(1000)]
        src_words = list(dict.fromkeys(make()))
        tgt_words = list(dict.fromkeys(make()))
        source, target = space_of(src_words), space_of(tgt_words)
        pairs = extract_identical_seed(source, target)
        expected = set(src_words) & set(tgt_words)
        assert {w for w, _ in pairs} == expected
        # ordered by source rank
        indices = [src_words.index(w) for w, _ in pairs]
        assert indices == sorted(indices)

    def test_composed_rows_excluded(self):
        source = space_of(["a", "b"], composed={"b"})
        target = space_of(["b", "c"])
        with pytest.raises(NoOverlapError):
            extract_identical_seed(source, target)


class TestDictionaryFiles:
    def test_eval_dictionary_merges_gold_sets(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("uno\tone\tNUM\nuno\tace\ndos\ttwo\tNUM\n")
        loaded = read_eval_dictionary(str(path))
        assert len(loaded) == 2
        assert loaded.entries[0].golds == frozenset({"one", "ace"})
        assert loaded.entries[0].tag == parse_tag("NUM")

    def test_eval_dictionary_bad_row(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("only-one-column\n")
        with pytest.raises(DictionaryFormatError):
            read_eval_dictionary(str(path))

    def test_seed_dictionary_dedup(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a\tx\nb\ty\na\tx\n")
        assert read_seed_dictionary(str(path)) == [("a", "x"), ("b", "y")]

    def test_report_writers(self, tmp_path):
        space = space_of(["a", "b"])
        gold = dictionary([("a", {"A"}), ("b", {"B"})], tags=[parse_tag("N;SG"), parse_tag("N;PL")])
        report = precision_at_1(slots(str.upper, gold), gold, space)
        write_report(report, str(tmp_path / "run"))
        summary = (tmp_path / "run.summary.tsv").read_text()
        assert "voc\t2\t2\t1.000000" in summary
        assert "bin\tcorrect" in (tmp_path / "run.bins.tsv").read_text()
        assert "N;PL\t1\t1" in (tmp_path / "run.tags.tsv").read_text()
        payload = json.loads((tmp_path / "run.report.json").read_text())
        assert payload["all"]["precision_at_1"] == 1.0
        assert payload["tags"][0]["low_support"] is True
