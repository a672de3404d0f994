"""The three workloads: the CLI arguments of one round and the check of
that round's outputs against the reference."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import reference
import worlds


@dataclass
class Round:
    """Operations, failures and check results of one round."""

    traced: bool
    exit_code: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    invocations: int = 0
    forms: int = 0
    failed: int = 0
    items: float = 0.0      # forms, or seed pair-epochs on train-large
    problems: list = field(default_factory=list)
    near_ties: int = 0
    sha256: str = ""
    precision: float | None = None
    nll: dict | None = None
    layers: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)


def evaluate_args(world, out: str, seed: int) -> list:
    f = world.files
    return [
        "evaluate", "--model", f["model"], "--src", f["src"], "--tgt", f["tgt"],
        "--analyzer", f["analyzer"], "--inflector", f["inflector"], "--mode", "base",
        "--dict", f["dict"], "--out-prefix", os.path.join(out, "run"),
        "--bin-width", str(worlds.BIN_WIDTH), "--num-bins", str(worlds.NUM_BINS),
    ]


def evaluate_expect(world, ref):
    return {form: ref.expect(form, "base") for form, _, _ in world.eval_entries}


def check_evaluate(world, expected, rnd: Round, out: str, stdout: str) -> None:
    rnd.forms += len(world.eval_entries)
    rnd.items += len(world.eval_entries)
    path = os.path.join(out, "run.report.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    problems, near_ties = reference.check_evaluate_report(
        report, world.eval_entries, expected, world.ranks, worlds.BIN_WIDTH, worlds.NUM_BINS
    )
    rnd.problems += problems
    rnd.near_ties += near_ties
    rnd.failed += report["untranslatable"]
    rnd.sha256 = reference.sha256_file(path)
    rnd.precision = report["all"]["precision_at_1"]


def train_args(world, out: str, seed: int) -> list:
    f = world.files
    return [
        "train-translator", "--src", f["src"], "--tgt", f["tgt"],
        "--seed-dict", f["seed_dict"], "--out", os.path.join(out, "model.omega"),
        "--max-epochs", str(worlds.TRAIN_EPOCHS), "--seed", str(seed),
    ]


def check_train(world, ref, rnd: Round, out: str, stdout: str) -> None:
    path = os.path.join(out, "model.omega")
    problems, nll = reference.check_trained_model(path, ref, world.seed_pairs, len(world.tgt_words))
    rnd.problems += problems
    epochs = int(stdout.split("epochs run:")[1].split(";")[0])
    rnd.items += epochs * len(world.seed_pairs)
    rnd.sha256 = reference.sha256_file(path)
    rnd.nll = nll


def translate_args(world, out: str, seed: int) -> list:
    f = world.files
    return [
        "translate", "--model", f["model"], "--src", f["src"], "--tgt", f["tgt"],
        "--analyzer", f["analyzer"], "--inflector", f["inflector"], "--ngrams", f["ngrams"],
        "--mode", "hybrid", "--input", f["input"], "--output", os.path.join(out, "preds.tsv"),
    ]


def translate_expect(world, ref):
    return {token: ref.expect(token, "hybrid") for token in set(world.tokens)}


def check_translate(world, expected, rnd: Round, out: str, stdout: str) -> None:
    rnd.forms += len(world.tokens)
    rnd.items += len(world.tokens)
    path = os.path.join(out, "preds.tsv")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    problems, near_ties, untranslatable = reference.check_translate_output(
        lines, world.tokens, expected
    )
    rnd.problems += problems
    rnd.near_ties += near_ties
    rnd.failed += untranslatable
    rnd.sha256 = reference.sha256_file(path)
    hits = [
        line.split("\t")[1] == world.golds[token]
        for line, token in zip(lines, world.tokens)
        if token in world.golds
    ]
    rnd.precision = sum(hits) / len(hits) if hits else None


def make_reference(world) -> reference.Reference:
    return reference.Reference(
        world.src_words, world.src_raw, world.tgt_words, world.tgt_raw,
        world.omega, len(world.tgt_words),
        world.tgt_suffixes, world.tgt_marker, world.citation_tag,
        world.analyses, world.ranks, world.ngram_rows,
    )


@dataclass
class Workload:
    build: Callable      # (seed, work_dir) -> World
    setup_repeats: int   # several when set-up is cheap, so setup_s is a median
    args: Callable       # (world, out_dir, seed) -> CLI arguments of one round
    expect: Callable     # (world, reference) -> what the check compares against
    check: Callable      # (world, expected, round, out_dir, stdout) -> None
    items: str           # what ``throughput`` counts per second


WORKLOADS = {
    "evaluate-large": Workload(
        worlds.build_evaluate_large, 1, evaluate_args, evaluate_expect, check_evaluate,
        "source forms",
    ),
    "train-large": Workload(
        worlds.build_train_large, 1, train_args, lambda world, ref: ref, check_train,
        "seed pair-epochs",
    ),
    "translate-stream": Workload(
        worlds.build_translate_stream, 15, translate_args, translate_expect, check_translate,
        "source forms",
    ),
}
