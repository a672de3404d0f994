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
from .morph import MorphTag, parse_tag
from .pipeline import TRANSLATION_ERRORS
from .textio import read_tsv, write_json, write_tsv

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
    of repeated source forms into one set; a source's tag is the first
    non-empty one among its rows."""

    def parse_row(row: list[str]) -> tuple[str, str, MorphTag | None]:
        if not row[0] or not row[1]:
            raise ValueError("empty field")
        return row[0], row[1], parse_tag(row[2]) if len(row) == 3 and row[2] else None

    golds: dict[str, set[str]] = {}
    tags: dict[str, MorphTag | None] = {}
    for source, target, tag in read_tsv(path, (2, 3), DictionaryFormatError, parse_row):
        golds.setdefault(source, set()).add(target)
        if tags.get(source) is None:
            tags[source] = tag
    entries = [EvalEntry(s, frozenset(g), tags[s]) for s, g in golds.items()]
    return EvalDictionary(entries, provenance=path)


def read_seed_dictionary(path: str) -> list[tuple[str, str]]:
    """Read source<TAB>target pairs; duplicate pairs are kept once."""
    return list(dict.fromkeys(read_tsv(path, 2, DictionaryFormatError, tuple)))


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


def write_report(report: EvalReport, prefix: str) -> None:
    """Write ``<prefix>.summary.tsv``, ``.bins.tsv``, ``.tags.tsv`` and
    ``.report.json``."""
    columns = ("correct", "total", "precision_at_1")
    write_tsv(f"{prefix}.summary.tsv", ("population", *columns), [
        ("voc", report.voc_correct, report.voc_total, f"{report.voc_precision:.6f}"),
        ("all", report.all_correct, report.all_total, f"{report.all_precision:.6f}"),
        ("untranslatable", "-", report.untranslatable, "-"),
    ])
    write_tsv(f"{prefix}.bins.tsv", ("bin", *columns), [
        (s.label, s.correct, s.total, f"{s.accuracy:.6f}") for s in report.bins
    ])
    write_tsv(f"{prefix}.tags.tsv", ("tag", *columns, "low_support"), [
        (s.tag, s.correct, s.total, f"{s.accuracy:.6f}", int(s.low_support)) for s in report.tags
    ])
    write_json(f"{prefix}.report.json", _report_as_dict(report))


def _report_as_dict(report: EvalReport) -> dict:
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
