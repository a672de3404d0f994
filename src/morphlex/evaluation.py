"""Evaluation harness: precision@1, frequency bins, tag breakdowns.

VOC restricts the population to source forms with a row in the source
space; ALL covers every dictionary entry, forms composed from n-grams
included. An entry whose ``translate_many`` slot holds an error
counts as untranslatable and incorrect, so both precisions are over the
full population, never coverage-adjusted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .embeddings import EmbeddingSpace
from .morph import MorphTag, parse_tag
from .textio import DataError, UntrainableError, read_tsv, write_json, write_tsv

logger = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 10_000
DEFAULT_NUM_BINS = 10
DEFAULT_MIN_TAG_COUNT = 5

OOV_BIN_LABEL = "oov"


class DictionaryFormatError(DataError):
    """A dictionary TSV violates its format."""


class EmptyDictionaryError(UntrainableError):
    """Evaluation was requested on an empty dictionary."""


class NoOverlapError(UntrainableError):
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
    rank: int | None          # None when the source form has no row
    tag: MorphTag | None
    prediction: str | None    # None when untranslatable
    correct: bool


@dataclass(frozen=True)
class Tally:
    """One row of a report table: a population, a frequency bin or a
    source tag. ``low_support`` flags a tag row under the minimum count."""

    label: str
    correct: int
    total: int
    low_support: bool = False

    @property
    def accuracy(self) -> float:
        """correct / total; 0.0 for an empty population (no VOC forms)."""
        return self.correct / self.total if self.total else 0.0


@dataclass
class EvalReport:
    """The report's rows: the VOC and ALL populations, the untranslatable
    count, and the frequency-bin and source-tag tables."""

    voc: Tally
    all: Tally
    untranslatable: int
    bins: list[Tally]
    tags: list[Tally]


def _keyed_row(row: list[str]) -> tuple[str, ...]:
    """The fields of a dictionary-like row, whose first two (source and
    target, or form and lemma) must not be empty."""
    if not row[0] or not row[1]:
        raise ValueError("empty field")
    return tuple(row)


def read_eval_dictionary(path: str) -> EvalDictionary:
    """Read source<TAB>target[<TAB>source_tag] rows, merging gold targets
    of repeated source forms into one set; a source's tag is the smallest
    canonical one among its rows' tags (as ``learn_analyzer`` settles
    syncretism), so the row order does not matter."""

    def parse_row(row: list[str]) -> tuple[str, str, MorphTag | None]:
        source, target, *tag = _keyed_row(row)
        return source, target, parse_tag(tag[0]) if tag and tag[0] else None

    golds: dict[str, set[str]] = {}
    tags: dict[str, MorphTag | None] = {}
    for source, target, tag in read_tsv(path, (2, 3), DictionaryFormatError, parse_row):
        golds.setdefault(source, set()).add(target)
        kept = tags.get(source)
        if kept is None or (tag is not None and tag.canonical < kept.canonical):
            tags[source] = tag
    entries = [EvalEntry(s, frozenset(g), tags[s]) for s, g in golds.items()]
    return EvalDictionary(entries, provenance=path)


def read_seed_dictionary(path: str) -> list[tuple[str, str]]:
    """Read source<TAB>target pairs; duplicate pairs are kept once."""
    return list(dict.fromkeys(read_tsv(path, 2, DictionaryFormatError, _keyed_row)))


def _count(outcomes: Sequence[EntryOutcome], label_of) -> dict[str, list[int]]:
    """[correct, total] per label of the outcomes."""
    counts: dict[str, list[int]] = {}
    for outcome in outcomes:
        cell = counts.setdefault(label_of(outcome), [0, 0])
        cell[0] += outcome.correct
        cell[1] += 1
    return counts


def frequency_bins(
    outcomes: Sequence[EntryOutcome],
    bin_width: int = DEFAULT_BIN_WIDTH,
    num_bins: int = DEFAULT_NUM_BINS,
) -> list[Tally]:
    """Bucket outcomes by source rank: bin floor(rank / bin_width), with
    bins past num_bins merged into an overflow bucket and sources
    without a row in a dedicated OOV bucket. Empty bins are left
    out; the others come in rank order, overflow and OOV last."""
    if bin_width <= 0 or num_bins <= 0:
        raise ValueError("bin_width and num_bins must be positive")
    labels = [f"{i * bin_width}-{(i + 1) * bin_width}" for i in range(num_bins)]
    labels += [f"{num_bins * bin_width}+", OOV_BIN_LABEL]
    counts = _count(outcomes, lambda o: OOV_BIN_LABEL if o.rank is None
                    else labels[min(o.rank // bin_width, num_bins)])
    return [Tally(label, *counts[label]) for label in labels if label in counts]


def tag_breakdown(
    outcomes: Sequence[EntryOutcome],
    min_count: int = DEFAULT_MIN_TAG_COUNT,
) -> list[Tally]:
    """Per-source-tag precision@1 with counts, in tag order; small groups
    are flagged. Tags equal up to feature order share one row, labelled
    with their smallest spelling, the rule of ``read_eval_dictionary``.
    Untagged outcomes are left out, so outcomes without any tag give no
    rows."""
    tagged = [o for o in outcomes if o.tag is not None]
    labels: dict[MorphTag, str] = {}
    for o in tagged:
        labels[o.tag] = min(o.tag.canonical, labels.get(o.tag, o.tag.canonical))
    counts = _count(tagged, lambda o: labels[o.tag])
    return [
        Tally(tag, correct, total, low_support=total < min_count)
        for tag, (correct, total) in sorted(counts.items())
    ]


def precision_at_1(
    slots: Sequence,
    dictionary: EvalDictionary,
    source_space: EmbeddingSpace,
    bin_width: int = DEFAULT_BIN_WIDTH,
    num_bins: int = DEFAULT_NUM_BINS,
    min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
) -> EvalReport:
    """Score one ``translate_many`` slot per dictionary entry, in entry
    order, and assemble the full report.

    A slot that is an exception is a miss and counts as untranslatable;
    any other slot's ``.form`` is correct iff it is a member of the
    entry's gold set. A slot list of another length is a ValueError.
    """
    if not dictionary.entries:
        raise EmptyDictionaryError(dictionary.provenance or "empty dictionary")
    outcomes = []
    for entry, slot in zip(dictionary.entries, slots, strict=True):
        prediction = None if isinstance(slot, Exception) else slot.form
        outcomes.append(EntryOutcome(
            entry.source, source_space.index_or_none(entry.source), entry.tag,
            prediction, prediction in entry.golds,
        ))
    voc = [o for o in outcomes if o.rank is not None]
    return EvalReport(
        voc=Tally("voc", sum(o.correct for o in voc), len(voc)),
        all=Tally("all", sum(o.correct for o in outcomes), len(outcomes)),
        untranslatable=sum(o.prediction is None for o in outcomes),
        bins=frequency_bins(outcomes, bin_width, num_bins),
        tags=tag_breakdown(outcomes, min_tag_count),
    )


def extract_identical_seed(
    source_space: EmbeddingSpace,
    target_space: EmbeddingSpace,
) -> list[tuple[str, str]]:
    """Weak supervision: all strings spelled identically in both
    vocabularies, ordered by source rank."""
    pairs = [(w, w) for w in source_space.words if w in target_space]
    if not pairs:
        raise NoOverlapError("the vocabularies share no identically spelled string")
    return pairs


# The columns of each report table, in TSV order. report.json holds the
# same rows under these names, with full-precision floats and true/false
# flags where the TSVs print six decimals and 1/0.
_TABLE_COLUMNS = {
    "summary": ("population", "correct", "total", "precision_at_1"),
    "bins": ("bin", "correct", "total", "precision_at_1"),
    "tags": ("tag", "correct", "total", "precision_at_1", "low_support"),
}


def _tsv_field(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    return f"{value:.6f}" if isinstance(value, float) else value


def report_paths(prefix: str) -> dict[str, str]:
    """The file of each report ``write_report`` writes, by name: one TSV
    per table, then ``<prefix>.report.json``."""
    return {**{name: f"{prefix}.{name}.tsv" for name in _TABLE_COLUMNS},
            "report": f"{prefix}.report.json"}


def write_report(report: EvalReport, prefix: str) -> None:
    """Write the files of ``report_paths(prefix)``, all from one set of
    rows."""
    paths = report_paths(prefix)
    tables = {"summary": [report.voc, report.all], "bins": report.bins, "tags": report.tags}
    rows = {
        name: [
            dict(zip(_TABLE_COLUMNS[name], (t.label, t.correct, t.total, t.accuracy, t.low_support)))
            for t in tallies
        ]
        for name, tallies in tables.items()
    }
    for name, columns in _TABLE_COLUMNS.items():
        lines = [[_tsv_field(value) for value in row.values()] for row in rows[name]]
        if name == "summary":
            lines.append(("untranslatable", "-", report.untranslatable, "-"))
        write_tsv(paths[name], columns, lines)
    document = {row.pop("population"): row for row in rows.pop("summary")}
    document.update(rows, untranslatable=report.untranslatable)
    write_json(paths["report"], document)
