"""Evaluation harness: precision@1, frequency bins, tag breakdowns.

VOC restricts the population to source forms that are file-loaded words
of the source space; ALL covers every dictionary entry, composed OOV
vectors included. An entry the system cannot translate counts as
incorrect, so both precisions are over the full population, never
coverage-adjusted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .embeddings import EmbeddingSpace
from .morph import MorphTag, TagParseError, parse_tag
from .pipeline import TRANSLATION_ERRORS

logger = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 10_000
DEFAULT_NUM_BINS = 10
DEFAULT_MIN_TAG_COUNT = 5

OOV_BIN_LABEL = "oov"


class DictionaryFormatError(ValueError):
    """A dictionary TSV violates its format."""


class EmptyDictionaryError(ValueError):
    """Evaluation was requested on an empty dictionary."""


class NoTaggedEntriesError(ValueError):
    """A tag breakdown was requested but no entry carries a tag."""


class NoOverlapError(ValueError):
    """The two vocabularies share no identically spelled string."""


@dataclass(frozen=True)
class EvalEntry:
    source: str
    golds: frozenset[str]
    tag: MorphTag | None = None


@dataclass
class EvalDictionary:
    entries: list[EvalEntry]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EntryOutcome:
    """Per-entry scoring record: what was asked, what came back."""

    source: str
    rank: int | None          # None when the source form is not file-loaded
    tag: MorphTag | None
    prediction: str | None    # None when untranslatable
    correct: bool


@dataclass(frozen=True)
class BinStat:
    label: str
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total


@dataclass(frozen=True)
class TagStat:
    tag: str
    correct: int
    total: int
    low_support: bool

    @property
    def accuracy(self) -> float:
        return self.correct / self.total


@dataclass
class EvalReport:
    voc_correct: int
    voc_total: int
    all_correct: int
    all_total: int
    untranslatable: int
    bins: list[BinStat] = field(default_factory=list)
    tags: list[TagStat] = field(default_factory=list)

    @property
    def voc_precision(self) -> float:
        return self.voc_correct / self.voc_total if self.voc_total else 0.0

    @property
    def all_precision(self) -> float:
        return self.all_correct / self.all_total if self.all_total else 0.0


def read_eval_dictionary(path: str) -> EvalDictionary:
    """Read source<TAB>target[<TAB>source_tag] rows, merging gold targets
    of repeated source forms into one set."""
    order: list[str] = []
    golds: dict[str, set[str]] = {}
    tags: dict[str, MorphTag | None] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            columns = line.split("\t")
            if len(columns) not in (2, 3):
                raise DictionaryFormatError(
                    f"{path}: line {lineno}: expected 2 or 3 tab-separated columns"
                )
            source, target = columns[0], columns[1]
            if not source or not target:
                raise DictionaryFormatError(f"{path}: line {lineno}: empty field")
            tag = None
            if len(columns) == 3 and columns[2]:
                try:
                    tag = parse_tag(columns[2])
                except TagParseError as exc:
                    raise DictionaryFormatError(f"{path}: line {lineno}: {exc}") from exc
            if source not in golds:
                order.append(source)
                golds[source] = set()
                tags[source] = tag
            elif tags[source] is None:
                tags[source] = tag
            golds[source].add(target)
    entries = [EvalEntry(s, frozenset(golds[s]), tags[s]) for s in order]
    return EvalDictionary(entries, provenance=path)


def read_seed_dictionary(path: str) -> list[tuple[str, str]]:
    """Read source<TAB>target pairs; duplicate pairs are kept once."""
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            columns = line.split("\t")
            if len(columns) != 2:
                raise DictionaryFormatError(
                    f"{path}: line {lineno}: expected 2 tab-separated columns"
                )
            pair = (columns[0], columns[1])
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
    return pairs


def score_entries(
    system: Callable[[str], str | None],
    dictionary: EvalDictionary,
    source_space: EmbeddingSpace,
) -> list[EntryOutcome]:
    """Run the system over every entry; a declared translation failure
    (``pipeline.TRANSLATION_ERRORS``) counts as a miss."""
    outcomes = []
    for entry in dictionary.entries:
        try:
            prediction = system(entry.source)
        except TRANSLATION_ERRORS:
            prediction = None
        outcomes.append(
            EntryOutcome(
                source=entry.source,
                rank=source_space.frequency_rank(entry.source),
                tag=entry.tag,
                prediction=prediction,
                correct=prediction is not None and prediction in entry.golds,
            )
        )
    return outcomes


def frequency_bins(
    outcomes: Sequence[EntryOutcome],
    bin_width: int = DEFAULT_BIN_WIDTH,
    num_bins: int = DEFAULT_NUM_BINS,
) -> list[BinStat]:
    """Bucket outcomes by source rank: bin floor(rank / bin_width), with
    bins past num_bins merged into an overflow bucket and sources that
    are not file-loaded in a dedicated OOV bucket."""
    if bin_width <= 0 or num_bins <= 0:
        raise ValueError("bin_width and num_bins must be positive")
    overflow_label = f"{num_bins * bin_width}+"
    counts: dict[str, list[int]] = {}
    labels: list[str] = []
    for i in range(num_bins):
        labels.append(f"{i * bin_width}-{(i + 1) * bin_width}")
    labels.append(overflow_label)
    labels.append(OOV_BIN_LABEL)
    for label in labels:
        counts[label] = [0, 0]
    for outcome in outcomes:
        if outcome.rank is None:
            label = OOV_BIN_LABEL
        else:
            bucket = outcome.rank // bin_width
            label = labels[bucket] if bucket < num_bins else overflow_label
        counts[label][0] += outcome.correct
        counts[label][1] += 1
    return [
        BinStat(label, correct, total)
        for label, (correct, total) in counts.items()
        if total > 0
    ]


def tag_breakdown(
    outcomes: Sequence[EntryOutcome],
    min_count: int = DEFAULT_MIN_TAG_COUNT,
) -> list[TagStat]:
    """Per-source-tag precision@1 with counts; small groups are flagged."""
    tagged = [o for o in outcomes if o.tag is not None]
    if not tagged:
        raise NoTaggedEntriesError("no dictionary entry carries a source tag")
    groups: dict[str, list[int]] = {}
    for outcome in tagged:
        cell = groups.setdefault(outcome.tag.canonical, [0, 0])
        cell[0] += outcome.correct
        cell[1] += 1
    return [
        TagStat(tag, correct, total, low_support=total < min_count)
        for tag, (correct, total) in sorted(groups.items())
    ]


def precision_at_1(
    system: Callable[[str], str | None],
    dictionary: EvalDictionary,
    source_space: EmbeddingSpace,
    bin_width: int = DEFAULT_BIN_WIDTH,
    num_bins: int = DEFAULT_NUM_BINS,
    min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
) -> EvalReport:
    """Score the dictionary and assemble the full report.

    A prediction is correct iff it is a member of the entry's gold set.
    """
    if not dictionary.entries:
        raise EmptyDictionaryError(dictionary.provenance or "empty dictionary")
    outcomes = score_entries(system, dictionary, source_space)
    voc = [o for o in outcomes if o.rank is not None]
    has_tags = any(o.tag is not None for o in outcomes)
    return EvalReport(
        voc_correct=sum(o.correct for o in voc),
        voc_total=len(voc),
        all_correct=sum(o.correct for o in outcomes),
        all_total=len(outcomes),
        untranslatable=sum(o.prediction is None for o in outcomes),
        bins=frequency_bins(outcomes, bin_width, num_bins),
        tags=tag_breakdown(outcomes, min_tag_count) if has_tags else [],
    )


def extract_identical_seed(
    source_space: EmbeddingSpace,
    target_space: EmbeddingSpace,
) -> list[tuple[str, str]]:
    """Weak supervision: all strings spelled identically in both
    file-loaded vocabularies, ordered by source rank."""
    target_words = {
        w for w, composed in zip(target_space.words, target_space.composed_flags)
        if not composed
    }
    pairs = [
        (w, w)
        for w, composed in zip(source_space.words, source_space.composed_flags)
        if not composed and w in target_words
    ]
    if not pairs:
        raise NoOverlapError("the vocabularies share no identically spelled string")
    return pairs


def summary_rows(report: EvalReport) -> list[tuple[str, str, str, str]]:
    return [
        ("voc", str(report.voc_correct), str(report.voc_total), f"{report.voc_precision:.6f}"),
        ("all", str(report.all_correct), str(report.all_total), f"{report.all_precision:.6f}"),
        ("untranslatable", "-", str(report.untranslatable), "-"),
    ]


def write_summary_tsv(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("population\tcorrect\ttotal\tprecision_at_1\n")
        for row in summary_rows(report):
            handle.write("\t".join(row) + "\n")


def write_bins_tsv(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("bin\tcorrect\ttotal\tprecision_at_1\n")
        for stat in report.bins:
            handle.write(f"{stat.label}\t{stat.correct}\t{stat.total}\t{stat.accuracy:.6f}\n")


def write_tags_tsv(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("tag\tcorrect\ttotal\tprecision_at_1\tlow_support\n")
        for stat in report.tags:
            handle.write(
                f"{stat.tag}\t{stat.correct}\t{stat.total}\t"
                f"{stat.accuracy:.6f}\t{int(stat.low_support)}\n"
            )


def report_as_dict(report: EvalReport) -> dict:
    """Machine-readable mirror of the report, for the JSON output."""
    return {
        "voc": {
            "correct": report.voc_correct,
            "total": report.voc_total,
            "precision_at_1": report.voc_precision,
        },
        "all": {
            "correct": report.all_correct,
            "total": report.all_total,
            "precision_at_1": report.all_precision,
        },
        "untranslatable": report.untranslatable,
        "bins": [
            {"bin": s.label, "correct": s.correct, "total": s.total, "precision_at_1": s.accuracy}
            for s in report.bins
        ],
        "tags": [
            {
                "tag": s.tag,
                "correct": s.correct,
                "total": s.total,
                "precision_at_1": s.accuracy,
                "low_support": s.low_support,
            }
            for s in report.tags
        ],
    }
