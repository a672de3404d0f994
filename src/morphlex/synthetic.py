"""Synthetic suffix-grammar languages and bilingual benchmark tasks.

The generators exist for tests and the runnable benchmark script. A
language is a set of stems crossed with paradigm slots realized by pure
suffixation (optionally sprinkled with suppletive forms), so the right
answers are known by construction. The bilingual builder pairs two such
languages over a shared lexeme inventory and emits embedding spaces
related by a random orthogonal map, with per-form noise that grows with
frequency rank: rare surface forms carry poor vectors while lemmata and
other frequent forms stay clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingSpace, preprocess
from .evaluation import EvalDictionary, EvalEntry
from .morph import MorphTag, UniMorphEntry, parse_tag

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_MIN_SYLLABLES, _MAX_SYLLABLES = 2, 3  # per stem

# The shape of ``build_bilingual_task``'s worlds: a form of rank r among
# V gets noise of standard deviation
# _NOISE_FLOOR + _NOISE_SCALE * (r / (V - 1)) ** _NOISE_POWER.
_ZIPF_EXPONENT = 1.0
_HELDOUT_STRIDE = 4
_SEED_TOP_FRACTION = 0.08
_SLOT_SCALE = 0.55
_NOISE_FLOOR = 0.03
_NOISE_SCALE = 2.2
_NOISE_POWER = 1.3


@dataclass(frozen=True)
class ParadigmSlot:
    tag: MorphTag
    suffix: str
    weight: float  # relative corpus weight of the slot


# Slot 0 is the citation form; its suffix doubles as the lemma marker.
# The citation tag must sort lexicographically before the others so that
# bare-stem backoff ties resolve toward it, and no inflectional suffix
# may end with the lemma marker (keeps suffix matches unambiguous).
DEFAULT_SOURCE_SLOTS: tuple[ParadigmSlot, ...] = (
    ParadigmSlot(parse_tag("V;NFIN"), "u", 9.0),
    ParadigmSlot(parse_tag("V;PRS;1;SG"), "ko", 1.2),
    ParadigmSlot(parse_tag("V;PRS;2;SG"), "ma", 0.8),
    ParadigmSlot(parse_tag("V;PRS;3;SG"), "ti", 1.5),
    ParadigmSlot(parse_tag("V;PRS;1;PL"), "pe", 0.6),
    ParadigmSlot(parse_tag("V;PRS;3;PL"), "sa", 0.9),
    ParadigmSlot(parse_tag("V;PST;1;SG"), "ne", 0.45),
    ParadigmSlot(parse_tag("V;PST;3;SG"), "bo", 0.3),
)

DEFAULT_TARGET_SLOTS: tuple[ParadigmSlot, ...] = (
    ParadigmSlot(parse_tag("V;NFIN"), "e", 9.0),
    ParadigmSlot(parse_tag("V;PRS;1;SG"), "go", 1.2),
    ParadigmSlot(parse_tag("V;PRS;2;SG"), "ra", 0.8),
    ParadigmSlot(parse_tag("V;PRS;3;SG"), "zu", 1.5),
    ParadigmSlot(parse_tag("V;PRS;1;PL"), "mi", 0.6),
    ParadigmSlot(parse_tag("V;PRS;3;PL"), "vo", 0.9),
    ParadigmSlot(parse_tag("V;PST;1;SG"), "la", 0.45),
    ParadigmSlot(parse_tag("V;PST;3;SG"), "du", 0.3),
)


def _check_slots(slots: Sequence[ParadigmSlot]) -> None:
    marker = slots[0].suffix
    inflectional = [slot.suffix for slot in slots[1:]]
    if len(set(inflectional)) != len(inflectional):
        raise ValueError("inflectional suffixes must be distinct")
    if len({len(s) for s in inflectional}) != 1:
        raise ValueError("inflectional suffixes must share one length")
    if any(s.endswith(marker[-1]) for s in inflectional):
        raise ValueError("no inflectional suffix may end with the lemma marker")
    citation = slots[0].tag.canonical
    if any(slot.tag.canonical <= citation for slot in slots[1:]):
        raise ValueError("the citation tag must sort before every inflectional tag")


def _random_stem(rng: np.random.Generator) -> str:
    n = int(rng.integers(_MIN_SYLLABLES, _MAX_SYLLABLES + 1))
    parts = []
    for _ in range(n):
        parts.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
        parts.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
    return "".join(parts)


def random_stems(rng: np.random.Generator, n: int) -> tuple[str, ...]:
    stems: list[str] = []
    used: set[str] = set()
    attempts = 0
    while len(stems) < n:
        attempts += 1
        if attempts > 100 * n:
            raise RuntimeError("cannot generate enough unique stems")
        stem = _random_stem(rng)
        if stem in used:
            continue
        used.add(stem)
        stems.append(stem)
    return tuple(stems)


@dataclass
class SyntheticLanguage:
    """One generated language: stems x slots, with known gold forms."""

    name: str
    slots: tuple[ParadigmSlot, ...]
    stems: tuple[str, ...]
    forms: dict[tuple[int, int], str]  # (lexeme, slot) -> surface form

    @property
    def n_lexemes(self) -> int:
        return len(self.stems)

    def lemma(self, lexeme: int) -> str:
        return self.forms[(lexeme, 0)]

    def form(self, lexeme: int, slot: int) -> str:
        return self.forms[(lexeme, slot)]

    def entries(self, lexemes: Sequence[int]) -> list[UniMorphEntry]:
        return [
            UniMorphEntry(self.lemma(lex), self.forms[(lex, slot)], self.slots[slot].tag)
            for lex in lexemes
            for slot in range(len(self.slots))
        ]


def make_language(
    name: str,
    rng: np.random.Generator,
    n_lexemes: int,
    slots: Sequence[ParadigmSlot] = DEFAULT_SOURCE_SLOTS,
    irregular_rate: float = 0.0,
) -> SyntheticLanguage:
    """Generate stems and their paradigms; a few lexemes may receive one
    suppletive (memorization-only) slot when irregular_rate > 0."""
    slots = tuple(slots)
    _check_slots(slots)
    stems = random_stems(rng, n_lexemes)
    forms = {
        (lex, slot): stems[lex] + slots[slot].suffix
        for lex in range(n_lexemes)
        for slot in range(len(slots))
    }
    used = set(forms.values())
    if irregular_rate > 0.0:
        for lex in range(n_lexemes):
            if rng.random() >= irregular_rate:
                continue
            slot = int(rng.integers(1, len(slots)))
            while True:
                suppletive = _random_stem(rng)
                if suppletive not in used:
                    break
            used.add(suppletive)
            forms[(lex, slot)] = suppletive
    return SyntheticLanguage(name, slots, stems, forms)


def split_lexemes(
    rng: np.random.Generator, n_lexemes: int, train_fraction: float = 0.8
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Random lexeme-level split: no form of a held-out lexeme is seen."""
    order = rng.permutation(n_lexemes)
    cut = int(round(n_lexemes * train_fraction))
    return (
        tuple(sorted(int(i) for i in order[:cut])),
        tuple(sorted(int(i) for i in order[cut:])),
    )


@dataclass
class BilingualTask:
    """One complete benchmark instance over a shared lexeme inventory."""

    source: SyntheticLanguage
    target: SyntheticLanguage
    source_space: EmbeddingSpace
    target_space: EmbeddingSpace
    train_lexemes: tuple[int, ...]
    heldout_lexemes: tuple[int, ...]
    seed_pairs: list[tuple[str, str]]
    eval_dictionary: EvalDictionary
    gold_analyses: dict[str, tuple[str, MorphTag]]
    source_unimorph: list[UniMorphEntry]
    target_unimorph: list[UniMorphEntry]
    source_ranks: dict[tuple[int, int], int]


def _rank_forms(
    rng: np.random.Generator,
    language: SyntheticLanguage,
    lexeme_weights: np.ndarray,
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    keys = sorted(language.forms)
    weights = {
        key: lexeme_weights[key[0]]
        * language.slots[key[1]].weight
        * rng.uniform(0.85, 1.15)
        for key in keys
    }
    ordered = sorted(keys, key=lambda key: -weights[key])
    ranks = {key: rank for rank, key in enumerate(ordered)}
    return ordered, ranks


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def build_bilingual_task(
    seed: int = 0,
    n_lexemes: int = 120,
    dim: int = 24,
    apply_preprocessing: bool = True,
) -> BilingualTask:
    """Two suffix-grammar languages whose embedding spaces are related by
    a random orthogonal map plus rank-dependent noise.

    Every fourth lexeme is held out: none of its forms enters the seed
    dictionary or the transducer training data. The seed dictionary
    holds the lemma pairs of training lexemes plus their inflected forms
    ranked inside the top 8% of both vocabularies. The evaluation
    dictionary lists the non-lemma forms of held-out lexemes.
    """
    rng = np.random.default_rng(seed)
    source = make_language("src", rng, n_lexemes, DEFAULT_SOURCE_SLOTS)
    target = make_language("tgt", rng, n_lexemes, DEFAULT_TARGET_SLOTS)
    n_slots = len(source.slots)

    lexeme_vectors = rng.normal(size=(n_lexemes, dim))
    slot_vectors = rng.normal(size=(n_slots, dim)) * _SLOT_SCALE
    slot_vectors[0] = 0.0  # the citation form sits exactly on the lexeme vector
    rotation = _random_orthogonal(rng, dim)

    lexeme_weights = 1.0 / np.arange(1, n_lexemes + 1) ** _ZIPF_EXPONENT
    source_order, source_ranks = _rank_forms(rng, source, lexeme_weights)
    target_order, target_ranks = _rank_forms(rng, target, lexeme_weights)

    vocab_size = n_lexemes * n_slots

    def noise_std(rank: int) -> float:
        return _NOISE_FLOOR + _NOISE_SCALE * (rank / max(vocab_size - 1, 1)) ** _NOISE_POWER

    def build_space(order, language, rotate):
        words = []
        rows = []
        for rank, (lex, slot) in enumerate(order):
            base = lexeme_vectors[lex] + slot_vectors[slot]
            if rotate:
                base = rotation @ base
            words.append(language.forms[(lex, slot)])
            rows.append(base + noise_std(rank) * rng.normal(size=dim))
        return EmbeddingSpace(tuple(words), np.vstack(rows))

    source_space = build_space(source_order, source, rotate=False)
    target_space = build_space(target_order, target, rotate=True)
    if apply_preprocessing:
        source_space, _ = preprocess(source_space)
        target_space, _ = preprocess(target_space)

    heldout = tuple(lex for lex in range(n_lexemes) if lex % _HELDOUT_STRIDE == _HELDOUT_STRIDE - 1)
    heldout_set = set(heldout)
    train = tuple(lex for lex in range(n_lexemes) if lex not in heldout_set)

    top_k = max(1, int(round(vocab_size * _SEED_TOP_FRACTION)))
    seed_pairs: list[tuple[str, str]] = []
    for lex in train:
        seed_pairs.append((source.lemma(lex), target.lemma(lex)))
    for lex in train:
        for slot in range(1, n_slots):
            key = (lex, slot)
            if source_ranks[key] < top_k and target_ranks[key] < top_k:
                seed_pairs.append((source.forms[key], target.forms[key]))

    eval_entries = [
        EvalEntry(
            source.forms[(lex, slot)],
            frozenset({target.forms[(lex, slot)]}),
            source.slots[slot].tag,
        )
        for lex in heldout
        for slot in range(1, n_slots)
    ]
    gold_analyses = {
        source.forms[(lex, slot)]: (source.lemma(lex), source.slots[slot].tag)
        for lex in range(n_lexemes)
        for slot in range(n_slots)
    }
    return BilingualTask(
        source=source,
        target=target,
        source_space=source_space,
        target_space=target_space,
        train_lexemes=train,
        heldout_lexemes=heldout,
        seed_pairs=seed_pairs,
        eval_dictionary=EvalDictionary(eval_entries, provenance=f"synthetic(seed={seed})"),
        gold_analyses=gold_analyses,
        source_unimorph=source.entries(train),
        target_unimorph=target.entries(train),
        source_ranks=source_ranks,
    )
