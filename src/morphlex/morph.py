"""Morpho-syntactic tags, UniMorph-style triples, suffix-rule transducers.

The transducers are probabilistic suffix-replacement tables. Learning
splits each (lemma, form) pair at their longest common prefix and records
the trailing pieces as a rule, plus backoff rows for every shorter
matched suffix down to the empty string so that decoding can always
fire for a known tag. Both directions decode with one greedy 1-best
rule (``_best_rule``): longest matched suffix, then highest probability,
then the lexicographically smallest output, so identical training data
yields identical behavior regardless of input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .textio import DataError, open_text, read_tsv, write_tsv

DIRECTION_INFLECT = "inflect"
DIRECTION_ANALYZE = "analyze"

RULES_MAGIC = "MORPHLEX-RULES"
RULES_VERSION = "v1"


class TagParseError(DataError):
    """A raw tag string cannot be parsed into features."""


class UnknownTagError(KeyError):
    """The requested tag never occurred in the rule table's training data."""


class NoRuleError(LookupError):
    """No rule of the requested tag matches the lemma."""


class NoAnalysisError(LookupError):
    """No rule suffix matches the surface form."""


class MorphFormatError(DataError):
    """A UniMorph or rule-table file violates its format."""


class MorphTag:
    """A bundle of grammatical features such as V;PRS;3;SG.

    Feature order is preserved for display, but equality and hashing
    treat the features as a multiset: V;PRS;3;SG == PRS;V;3;SG.
    """

    __slots__ = ("features", "_key")

    def __init__(self, features: Iterable[str]):
        feats = tuple(str(f).upper() for f in features)
        if not feats:
            raise TagParseError("a tag needs at least one feature")
        for feat in feats:
            if not feat or ";" in feat:
                raise TagParseError(f"invalid feature {feat!r}")
        self.features = feats
        self._key = tuple(sorted(feats))

    @property
    def canonical(self) -> str:
        return ";".join(self.features)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MorphTag) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"MorphTag({self.canonical!r})"

    def __str__(self) -> str:
        return self.canonical


def parse_tag(raw: str) -> MorphTag:
    """Parse "v;prs;3;sg" into an uppercase feature bundle."""
    if not raw or not raw.strip():
        raise TagParseError("empty tag string")
    feats = [part.strip() for part in raw.split(";")]
    if any(not f for f in feats):
        raise TagParseError(f"empty feature in tag {raw!r}")
    return MorphTag(feats)


def tag_translate(source_tag: MorphTag, target_tag: MorphTag) -> float:
    """Indicator tag translator: 1.0 when the tags are equal, else 0.0."""
    return 1.0 if source_tag == target_tag else 0.0


@dataclass(frozen=True)
class UniMorphEntry:
    lemma: str
    form: str
    tag: MorphTag

    def __post_init__(self) -> None:
        if not self.lemma or not self.form:
            raise ValueError("lemma and form must be non-empty")


@dataclass(frozen=True)
class Analysis:
    """One decoded (lemma, tag) reading of a surface form."""

    lemma: str
    tag: MorphTag
    log_prob: float


@dataclass
class SuffixRuleTable:
    """Learned suffix-replacement rules for one direction.

    ``inflect``: rules[tag][matched_lemma_suffix][form_suffix] = count.
    ``analyze``: rules[matched_form_suffix][(lemma_suffix, tag)] = count.
    Per conditioning context, counts normalize to a probability
    distribution over outputs.
    """

    direction: str
    rules: dict

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_INFLECT, DIRECTION_ANALYZE):
            raise ValueError(f"unknown direction {self.direction!r}")

    @property
    def tags(self) -> frozenset[MorphTag]:
        if self.direction == DIRECTION_INFLECT:
            return frozenset(self.rules)
        return frozenset(tag for outputs in self.rules.values() for _, tag in outputs)

    def num_rules(self) -> int:
        if self.direction == DIRECTION_INFLECT:
            return sum(
                len(outputs)
                for by_suffix in self.rules.values()
                for outputs in by_suffix.values()
            )
        return sum(len(outputs) for outputs in self.rules.values())

    def context_distribution(self, *key) -> dict:
        """Normalized output probabilities of one conditioning context."""
        if self.direction == DIRECTION_INFLECT:
            tag, suffix = key
            outputs = self.rules[tag][suffix]
        else:
            (suffix,) = key
            outputs = self.rules[suffix]
        total = sum(outputs.values())
        return {out: count / total for out, count in outputs.items()}


def _split_suffixes(entry: UniMorphEntry) -> tuple[str, str]:
    """The lemma and form suffixes after their longest common prefix."""
    lemma, form = entry.lemma, entry.form
    split = 0
    while split < min(len(lemma), len(form)) and lemma[split] == form[split]:
        split += 1
    return lemma[split:], form[split:]


def learn_inflector(entries: Sequence[UniMorphEntry]) -> SuffixRuleTable:
    """Extract tag-conditioned lemma-suffix -> form-suffix rules.

    Each entry contributes its exact rule plus backoff rows for every
    shorter matched suffix down to the empty string; backoffs reuse the
    entry's replacement, so decoding always fires for a known tag.
    """
    if not entries:
        raise ValueError("no training entries")
    rules: dict[MorphTag, dict[str, dict[str, int]]] = {}
    for entry in entries:
        lemma_suffix, form_suffix = _split_suffixes(entry)
        by_suffix = rules.setdefault(entry.tag, {})
        for start in range(len(lemma_suffix) + 1):
            outputs = by_suffix.setdefault(lemma_suffix[start:], {})
            outputs[form_suffix] = outputs.get(form_suffix, 0) + 1
    return SuffixRuleTable(DIRECTION_INFLECT, rules)


def _best_rule(by_suffix: dict, word: str, tie_key, error: Exception) -> tuple[str, object, float]:
    """The module's decoding rule on ``word`` over ``by_suffix`` (matched
    suffix -> output -> count), ties to the smallest ``tie_key`` of an
    output (None: the output itself). Returns the unmatched stem of
    ``word``, the output and its log probability; raises ``error`` when no
    suffix matches."""
    for start in range(len(word) + 1):
        outputs = by_suffix.get(word[start:])
        if outputs is not None:
            best_count = max(outputs.values())
            best = min((out for out, count in outputs.items() if count == best_count), key=tie_key)
            return word[:start], best, math.log(best_count / sum(outputs.values()))
    raise error


def inflect(table: SuffixRuleTable, lemma: str, tag: MorphTag) -> tuple[str, float]:
    """Greedy 1-best inflection of ``lemma`` for ``tag`` under the module's
    decoding rule, ties to the smallest replacement. Returns the form and
    the chosen rule's log probability."""
    if table.direction != DIRECTION_INFLECT:
        raise ValueError("table direction must be 'inflect'")
    by_suffix = table.rules.get(tag)
    if by_suffix is None:
        raise UnknownTagError(tag.canonical)
    stem, replacement, log_prob = _best_rule(
        by_suffix, lemma, None, NoRuleError(f"no rule of tag {tag.canonical} matches {lemma!r}")
    )
    return stem + replacement, log_prob


def learn_analyzer(entries: Sequence[UniMorphEntry]) -> SuffixRuleTable:
    """Extract form-suffix -> (lemma-suffix, tag) rules.

    Syncretic forms (several analyses for one surface form) are resolved
    first: the analysis with the smallest canonical tag string wins,
    ties on the tag broken by the smallest lemma. Only the winning
    analysis of each form contributes rules.

    Unlike the inflector, backoffs stop at single-character suffixes:
    an empty matched suffix exists only where lemma == form, so analysis
    of a form resembling no training form can still fail (the pipeline
    owns the fallback).
    """
    if not entries:
        raise ValueError("no training entries")
    winner: dict[str, tuple[str, str]] = {}
    for entry in entries:
        key = (entry.tag.canonical, entry.lemma)
        if entry.form not in winner or key < winner[entry.form]:
            winner[entry.form] = key
    rules: dict[str, dict[tuple[str, MorphTag], int]] = {}
    for entry in entries:
        if (entry.tag.canonical, entry.lemma) != winner[entry.form]:
            continue
        lemma_suffix, form_suffix = _split_suffixes(entry)
        for start in range(max(len(form_suffix), 1)):
            outputs = rules.setdefault(form_suffix[start:], {})
            key = (lemma_suffix, entry.tag)
            outputs[key] = outputs.get(key, 0) + 1
    return SuffixRuleTable(DIRECTION_ANALYZE, rules)


def analyze(table: SuffixRuleTable, form: str) -> Analysis:
    """Greedy 1-best analysis of a surface form under the module's decoding
    rule, ties to the smallest (tag, lemma-suffix)."""
    if table.direction != DIRECTION_ANALYZE:
        raise ValueError("table direction must be 'analyze'")
    stem, (lemma_suffix, tag), log_prob = _best_rule(
        table.rules, form, lambda out: (out[1].canonical, out[0]),
        NoAnalysisError(f"no rule matches {form!r}"),
    )
    return Analysis(stem + lemma_suffix, tag, log_prob)


def read_unimorph(path: str) -> list[UniMorphEntry]:
    """Read lemma<TAB>form<TAB>tag triples; blank lines are skipped."""
    return read_tsv(
        path, 3, MorphFormatError, lambda row: UniMorphEntry(row[0], row[1], parse_tag(row[2]))
    )


def save_rule_table(table: SuffixRuleTable, path: str) -> None:
    """Write the versioned text format, one rule per line, sorted."""
    if table.direction == DIRECTION_INFLECT:
        rows = [
            (tag.canonical, matched, replacement, count)
            for tag in sorted(table.rules, key=lambda t: t.canonical)
            for matched, outputs in sorted(table.rules[tag].items())
            for replacement, count in sorted(outputs.items())
        ]
    else:
        rows = [
            (matched, lemma_suffix, tag.canonical, outputs[lemma_suffix, tag])
            for matched, outputs in sorted(table.rules.items())
            for lemma_suffix, tag in sorted(outputs, key=lambda key: (key[0], key[1].canonical))
        ]
    write_tsv(path, [f"{RULES_MAGIC} {RULES_VERSION} {table.direction}"], rows)


def load_rule_table(path: str) -> SuffixRuleTable:
    with open_text(path) as handle:
        header = handle.readline().split()
    if len(header) != 3 or header[0] != RULES_MAGIC or header[1] != RULES_VERSION:
        raise MorphFormatError(f"{path}: bad rule-table header")
    direction = header[2]
    if direction not in (DIRECTION_INFLECT, DIRECTION_ANALYZE):
        raise MorphFormatError(f"{path}: unknown direction {direction!r}")
    inflect_rows = direction == DIRECTION_INFLECT

    def parse_row(row: list[str]) -> tuple[list[str], MorphTag, int]:
        try:
            count = int(row[3])
        except ValueError:
            raise ValueError("bad count") from None
        if count <= 0:
            raise ValueError("count must be positive")
        return row, parse_tag(row[0] if inflect_rows else row[2]), count

    rules: dict = {}
    for row, tag, count in read_tsv(path, 4, MorphFormatError, parse_row, first_lineno=2):
        if inflect_rows:
            outputs, key = rules.setdefault(tag, {}).setdefault(row[1], {}), row[2]
        else:
            outputs, key = rules.setdefault(row[0], {}), (row[1], tag)
        outputs[key] = outputs.get(key, 0) + count
    return SuffixRuleTable(direction, rules)


def inflector_accuracy(table: SuffixRuleTable, entries: Sequence[UniMorphEntry]) -> float:
    """Fraction of entries whose (lemma, tag) re-inflects to the gold form."""
    if not entries:
        raise ValueError("no evaluation entries")
    hits = 0
    for entry in entries:
        try:
            form, _ = inflect(table, entry.lemma, entry.tag)
        except (UnknownTagError, NoRuleError):
            continue
        hits += form == entry.form
    return hits / len(entries)


def analyzer_accuracy(table: SuffixRuleTable, entries: Sequence[UniMorphEntry]) -> float:
    """Fraction of entries whose form analyzes to the gold lemma and tag."""
    if not entries:
        raise ValueError("no evaluation entries")
    hits = 0
    for entry in entries:
        try:
            result = analyze(table, entry.form)
        except NoAnalysisError:
            continue
        hits += result.lemma == entry.lemma and result.tag == entry.tag
    return hits / len(entries)
