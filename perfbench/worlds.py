"""Workload inputs: generate a synthetic world from a seed and write it to
disk with the program's own writers.

Each builder returns the paths the CLI reads plus the raw arrays and
grammar facts the independent reference checker needs. Nothing here is
timed except as a whole (``setup_s``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from morphlex.baseline import procrustes_fit
from morphlex.embeddings import ngrams, preprocess, save_vec_file
from morphlex.morph import learn_analyzer, learn_inflector, save_rule_table
from morphlex.synthetic import build_bilingual_task, random_stems
from morphlex.translator import save_model

# evaluate-large / train-large: 2000 lexemes x 8 slots = 16k forms per language.
LARGE_LEXEMES = 2000
LARGE_DIM = 300
EVAL_FORMS = 300
BIN_WIDTH = 2000
NUM_BINS = 8
TRAIN_EPOCHS = 2

# translate-stream: the default 960-form world.
STREAM_LEXEMES = 120
STREAM_DIM = 24
STREAM_TOKENS = 40_000
STREAM_OOV_TOKENS = 2_000  # 5% of the stream
NOVEL_STEMS = 150          # x 8 slots = 1200 novel OOV forms
ZIPF_EXPONENT = 1.0


@dataclass
class World:
    """Files written for the CLI plus plain data for the reference."""

    files: dict[str, str]
    src_words: list[str]
    tgt_words: list[str]
    src_raw: np.ndarray
    tgt_raw: np.ndarray
    # Paradigm facts, as plain strings: tag -> target suffix, citation tag.
    tgt_suffixes: dict[str, str]
    tgt_marker: str
    citation_tag: str
    # form -> (lemma, tag) for every source form the workload sends, and
    # the generator's frequency rank of every in-vocabulary source form.
    analyses: dict[str, tuple[str, str]]
    ranks: dict[str, int]
    omega: np.ndarray | None = None
    seed_pairs: list[tuple[str, str]] = field(default_factory=list)
    # evaluate-large: (form, gold target, tag) in dictionary order.
    eval_entries: list[tuple[str, str, str]] = field(default_factory=list)
    # translate-stream: the token stream, the n-gram rows and the gold
    # target of every in-vocabulary source form.
    tokens: list[str] = field(default_factory=list)
    ngram_rows: dict[str, np.ndarray] = field(default_factory=dict)
    golds: dict[str, str] = field(default_factory=dict)


def _write_tsv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write("\t".join(row) + "\n")


def _paradigm_facts(task) -> tuple[dict[str, str], str, str]:
    slots = task.target.slots
    suffixes = {slot.tag.canonical: slot.suffix for slot in slots}
    return suffixes, slots[0].suffix, slots[0].tag.canonical


def _source_analyses(task) -> dict[str, tuple[str, str]]:
    source = task.source
    return {
        source.form(lex, slot): (source.lemma(lex), source.slots[slot].tag.canonical)
        for lex in range(source.n_lexemes)
        for slot in range(len(source.slots))
    }


def _source_ranks(task) -> dict[str, int]:
    return {task.source.forms[key]: rank for key, rank in task.source_ranks.items()}


def _write_spaces(task, work_dir: str) -> dict[str, str]:
    files = {"src": os.path.join(work_dir, "src.vec"), "tgt": os.path.join(work_dir, "tgt.vec")}
    save_vec_file(task.source_space, files["src"])
    save_vec_file(task.target_space, files["tgt"])
    return files


def _write_model_and_rules(task, files: dict[str, str], work_dir: str) -> np.ndarray:
    """Procrustes fit on the preprocessed spaces, as the CLI will see them."""
    source, _ = preprocess(task.source_space)
    target, _ = preprocess(task.target_space)
    model = procrustes_fit(task.seed_pairs, source, target)
    files["model"] = os.path.join(work_dir, "model.omega")
    files["analyzer"] = os.path.join(work_dir, "analyzer.rules")
    files["inflector"] = os.path.join(work_dir, "inflector.rules")
    save_model(model, files["model"])
    save_rule_table(learn_analyzer(task.source_unimorph), files["analyzer"])
    save_rule_table(learn_inflector(task.target_unimorph), files["inflector"])
    return model.omega


def _world(task, files, analyses=None, **extra) -> World:
    suffixes, marker, citation = _paradigm_facts(task)
    return World(
        files=files,
        src_words=list(task.source_space.words),
        tgt_words=list(task.target_space.words),
        src_raw=np.array(task.source_space.vectors),
        tgt_raw=np.array(task.target_space.vectors),
        tgt_suffixes=suffixes,
        tgt_marker=marker,
        citation_tag=citation,
        analyses=analyses or _source_analyses(task),
        ranks=_source_ranks(task),
        seed_pairs=list(task.seed_pairs),
        **extra,
    )


def build_evaluate_large(seed: int, work_dir: str) -> World:
    """16k-form, dim-300 world; EVAL_FORMS held-out forms spread over the
    rank range (one drawn from each of EVAL_FORMS equal rank slices)."""
    task = build_bilingual_task(
        seed=seed, n_lexemes=LARGE_LEXEMES, dim=LARGE_DIM, apply_preprocessing=False
    )
    files = _write_spaces(task, work_dir)
    omega = _write_model_and_rules(task, files, work_dir)
    rank = {w: i for i, w in enumerate(task.source_space.words)}
    entries = sorted(task.eval_dictionary.entries, key=lambda e: rank[e.source])
    rng = np.random.default_rng([seed, 1])
    chunks = np.array_split(np.arange(len(entries)), EVAL_FORMS)
    picked = [entries[int(rng.choice(chunk))] for chunk in chunks]
    rows = [(e.source, next(iter(e.golds)), e.tag.canonical) for e in picked]
    files["dict"] = os.path.join(work_dir, "eval.tsv")
    _write_tsv(files["dict"], rows)
    return _world(task, files, omega=omega, eval_entries=rows)


def build_train_large(seed: int, work_dir: str) -> World:
    """The evaluate-large world with its seed dictionary; no model."""
    task = build_bilingual_task(
        seed=seed, n_lexemes=LARGE_LEXEMES, dim=LARGE_DIM, apply_preprocessing=False
    )
    files = _write_spaces(task, work_dir)
    files["seed_dict"] = os.path.join(work_dir, "seed.tsv")
    _write_tsv(files["seed_dict"], task.seed_pairs)
    return _world(task, files)


def _zipf_draws(rng: np.random.Generator, n_items: int, n_draws: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_EXPONENT
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())


def build_translate_stream(seed: int, work_dir: str) -> World:
    """960-form world; STREAM_TOKENS tokens drawn Zipf-wise over the source
    ranks, STREAM_OOV_TOKENS of them replaced by novel forms (new stems
    through the source paradigm) drawn uniformly, as rare words are, each
    composable from the n-gram table."""
    task = build_bilingual_task(
        seed=seed, n_lexemes=STREAM_LEXEMES, dim=STREAM_DIM, apply_preprocessing=False
    )
    files = _write_spaces(task, work_dir)
    omega = _write_model_and_rules(task, files, work_dir)
    rng = np.random.default_rng([seed, 2])

    source = task.source
    known = set(source.stems)
    stems = [s for s in random_stems(rng, NOVEL_STEMS + len(known)) if s not in known]
    analyses = _source_analyses(task)
    novel = []
    for stem in stems[:NOVEL_STEMS]:
        lemma = stem + source.slots[0].suffix
        for slot in source.slots:
            form = stem + slot.suffix
            novel.append(form)
            analyses[form] = (lemma, slot.tag.canonical)

    vocab = list(task.source_space.words)
    tokens = [vocab[i] for i in _zipf_draws(rng, len(vocab), STREAM_TOKENS)]
    oov_slots = rng.choice(STREAM_TOKENS, size=STREAM_OOV_TOKENS, replace=False)
    for position, draw in zip(oov_slots, rng.choice(len(novel), size=STREAM_OOV_TOKENS)):
        tokens[position] = novel[draw]

    # N-gram rows are multiples of 1/64, so "%.6f" writes them exactly; the
    # program has no writer for this table.
    grams = sorted({g for form in vocab + novel for g in ngrams(form)})
    table = rng.integers(-192, 193, size=(len(grams), STREAM_DIM)) / 64.0
    files["ngrams"] = os.path.join(work_dir, "src.ngrams")
    row_format = " ".join(["%.6f"] * STREAM_DIM)
    with open(files["ngrams"], "w", encoding="utf-8") as handle:
        for gram, row in zip(grams, table):
            handle.write(gram + " " + row_format % tuple(row) + "\n")
    files["input"] = os.path.join(work_dir, "tokens.txt")
    with open(files["input"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(tokens) + "\n")

    target = task.target
    golds = {
        source.form(lex, slot): target.form(lex, slot)
        for lex in range(source.n_lexemes)
        for slot in range(len(source.slots))
    }
    return _world(
        task, files, analyses=analyses, omega=omega, tokens=tokens,
        ngram_rows=dict(zip(grams, table)), golds=golds,
    )

