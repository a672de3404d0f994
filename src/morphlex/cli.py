"""Command-line front-end: training, translation, evaluation and seed
extraction.

Exit codes are a stable contract for scripting: 0 success, 1 usage
error, 2 data/format error, 3 untrainable or unevaluable condition.
Every subcommand writes a run manifest (inputs, flags, seed, versions)
next to its primary output. A ``train-translator`` hyperparameter (one
flag per ``TrainConfig`` field) or ``--max-words`` that overrides its
stock default is echoed to stderr for provenance.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import logging
import os
import platform
import sys
from collections import OrderedDict
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .embeddings import (
    DEFAULT_MAX_WORDS,
    VecFormatError,
    load_ngram_table,
    load_space,
    load_spaces,
)
from .evaluation import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_MIN_TAG_COUNT,
    DEFAULT_NUM_BINS,
    DictionaryFormatError,
    EmptyDictionaryError,
    NoOverlapError,
    extract_identical_seed,
    precision_at_1,
    read_eval_dictionary,
    read_seed_dictionary,
    write_report,
)
from .morph import (
    MorphFormatError,
    MorphTag,
    TagParseError,
    analyzer_accuracy,
    inflector_accuracy,
    learn_analyzer,
    learn_inflector,
    load_rule_table,
    parse_tag,
    read_unimorph,
    save_rule_table,
)
from .pipeline import (
    MODE_BASE,
    MODE_COMPONENTS,
    MODE_ORACLE,
    MODES,
    BatchStats,
    JointConfig,
    SupportMismatchError,
    TranslationCandidate,
    joint_log_prob,
    translate_many,
)
from .textio import read_tsv, write_json, write_tsv
from .translator import (
    ModelFormatError,
    NoTrainablePairsError,
    TrainConfig,
    load_model,
    save_model,
    train,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_UNTRAINABLE = 3

NONE_FIELD = "<NONE>"

# translate reads its input in blocks of this many lines, one batched
# translate_many call each for the lines it has not translated before:
# large enough to share the retrievals of new forms, small enough to keep
# memory flat on a long stream.
INPUT_BLOCK_LINES = 1024

# The most (form, gold) keys whose output lines translate keeps across
# blocks, evicting the oldest first: a few MB at worst, so memory stays
# flat on an unbounded stream while repeated forms are translated once.
LINE_CACHE_KEYS = 16 * INPUT_BLOCK_LINES

_DATA_ERRORS = (
    VecFormatError,
    ModelFormatError,
    SupportMismatchError,
    MorphFormatError,
    DictionaryFormatError,
    TagParseError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    UnicodeDecodeError,
)

_UNTRAINABLE_ERRORS = (
    NoTrainablePairsError,
    EmptyDictionaryError,
    NoOverlapError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """The argparse type of a decimal integer no smaller than ``low``."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _train_config_value(field):
    """The argparse type of a ``TrainConfig`` field: ``TrainConfig`` checks
    the value, with every other field at its default."""
    convert = type(field.default)

    def parse(text: str):
        value = convert(text)
        try:
            TrainConfig(**{field.name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _echo_overrides(args: argparse.Namespace) -> None:
    """Echo each ``TrainConfig`` flag and ``--max-words`` that differs from
    its stock default: the table those flags are generated from."""
    stock = {**asdict(TrainConfig()), "max_words": DEFAULT_MAX_WORDS}
    for name, default in stock.items():
        value = getattr(args, name, None)
        if value is not None and value != default:
            print(
                f"note: --{name.replace('_', '-')} {value} overrides the default {default}",
                file=sys.stderr,
            )


def _write_manifest(output_path: str, args: argparse.Namespace) -> None:
    arguments = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command", "verbose") and not callable(value)
    }
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "seed": getattr(args, "seed", None),
        "versions": {
            "morphlex": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    write_json(f"{output_path}.manifest.json", manifest)


def _require_directory(path: str) -> None:
    """Raise the FileNotFoundError that writing ``path`` would raise when
    its directory does not exist, before any input is read."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _load_spaces(args: argparse.Namespace, preprocessed: bool):
    """The source and target spaces of a command. Both loads go through
    this module's ``load_space`` binding, which perfbench's tracer wraps."""
    return load_spaces(
        args.src, args.tgt, args.max_words, preprocessed=preprocessed, load=load_space
    )


def cmd_train_translator(args: argparse.Namespace) -> int:
    _echo_overrides(args)
    _require_directory(args.out)
    source_space, target_space = _load_spaces(args, preprocessed=True)
    seed_pairs = read_seed_dictionary(args.seed_dict)
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    result = train(seed_pairs, source_space, target_space, config)
    metadata = {
        "source_path": args.src,
        "target_path": args.tgt,
        "unit_normalized": True,
        "source_center": source_space.center.tolist(),
        "target_center": target_space.center.tolist(),
        "dropped_pairs": result.dropped_pairs,
    }
    save_model(result.model, args.out, metadata=metadata)
    _write_manifest(args.out, args)
    print(
        f"epochs run: {result.epochs_run}; final dev loss: {result.dev_losses[-1]:.6f}; "
        f"best dev loss: {result.best_dev_loss:.6f} (epoch {result.best_epoch}); "
        f"dropped pairs: {result.dropped_pairs}"
    )
    return EXIT_OK


def cmd_train_morph(args: argparse.Namespace) -> int:
    if not args.analyzer_out and not args.inflector_out:
        print("error: provide --analyzer-out and/or --inflector-out", file=sys.stderr)
        return EXIT_USAGE
    entries = read_unimorph(args.data)
    if args.exclude:
        excluded = read_eval_dictionary(args.exclude)
        drop = {e.source for e in excluded.entries}
        drop.update(g for e in excluded.entries for g in e.golds)
        before = len(entries)
        entries = [e for e in entries if e.form not in drop]
        print(f"exclusion: removed {before - len(entries)} of {before} entries", file=sys.stderr)
    if not entries:
        print("error: no training entries remain after exclusion", file=sys.stderr)
        return EXIT_UNTRAINABLE
    dev_entries = read_unimorph(args.dev) if args.dev else None
    for name, out, learn, accuracy in (
        ("analyzer", args.analyzer_out, learn_analyzer, analyzer_accuracy),
        ("inflector", args.inflector_out, learn_inflector, inflector_accuracy),
    ):
        if out:
            table = learn(entries)
            save_rule_table(table, out)
            _write_manifest(out, args)
            line = f"{name}: {table.num_rules()} rules, {len(table.tags)} tags"
            if dev_entries:
                line += f", dev accuracy {accuracy(table, dev_entries):.4f}"
            print(line)
    return EXIT_OK


def _build_joint_config(args: argparse.Namespace) -> JointConfig:
    model = load_model(args.model)
    source_space, target_space = _load_spaces(args, preprocessed=True)
    analyzer = load_rule_table(args.analyzer) if args.analyzer else None
    inflector = load_rule_table(args.inflector) if args.inflector else None
    ngram_table = load_ngram_table(args.ngrams, source_space.dim) if args.ngrams else None
    return JointConfig(
        mode=args.mode,
        model=model,
        source_space=source_space,
        target_space=target_space,
        analyzer=analyzer,
        inflector=inflector,
        ngram_table=ngram_table,
    )


def _require_components(args: argparse.Namespace) -> str | None:
    """The usage error of a mode without its components, checked before any
    file is read; each component's flag is named after its field."""
    needed = MODE_COMPONENTS[args.mode]
    if all(getattr(args, name) for name in needed):
        return None
    return f"mode {args.mode!r} needs " + " and ".join(f"--{name}" for name in needed)


def _oracle_row(row: list[str]) -> tuple[str, tuple[str, MorphTag]]:
    """A form<TAB>lemma<TAB>tag row as (form, (lemma, tag))."""
    return row[0], (row[1], parse_tag(row[2]))


def _read_oracle_analyses(path: str) -> dict[str, tuple[str, MorphTag]]:
    """The --oracle-analyses file: form -> (lemma, tag); a later row of a
    form replaces an earlier one."""
    return dict(read_tsv(path, 3, DictionaryFormatError, _oracle_row))


def _oracle_gold(line: str) -> tuple[str, MorphTag] | None:
    """The (lemma, tag) of an oracle input line, or None, which makes the
    line untranslatable: a line without three columns draws a warning, a
    tag that does not parse none."""
    columns = line.split("\t")
    if len(columns) != 3:
        print(f"warning: oracle input needs form<TAB>lemma<TAB>tag, got {line!r}", file=sys.stderr)
        return None
    try:
        return _oracle_row(columns)[1]
    except TagParseError:
        return None


def cmd_translate(args: argparse.Namespace) -> int:
    _echo_overrides(args)
    problem = _require_components(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    if args.output != "-":
        _require_directory(args.output)
    config = _build_joint_config(args)
    in_handle = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    out_handle = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    oracle = config.mode == MODE_ORACLE
    stats = BatchStats()
    # (form, gold) -> output line; gold is None outside oracle mode, as in
    # translate_many's own deduplication.
    cache: OrderedDict[tuple, str] = OrderedDict()
    try:
        lines = (raw.rstrip("\n") for raw in in_handle if raw.strip())
        for block in iter(lambda: list(itertools.islice(lines, INPUT_BLOCK_LINES)), []):
            keys = [(line.partition("\t")[0], _oracle_gold(line) if oracle else None)
                    for line in block]
            # The block's own lines, kept apart from the cache, which may
            # evict some of them before the block is written.
            block_lines = {key: cache.get(key) for key in keys}
            fresh = [key for key, line in block_lines.items() if line is None]
            results = translate_many(
                config, [form for form, _ in fresh], [gold for _, gold in fresh], stats
            )
            for (form, gold), result in zip(fresh, results):
                if isinstance(result, TranslationCandidate):
                    line = f"{form}\t{result.form}\t{result.route}\t{joint_log_prob(result):.6f}\n"
                else:
                    line = f"{form}\t{NONE_FIELD}\t-\t-\n"
                block_lines[form, gold] = line
                if len(cache) >= LINE_CACHE_KEYS:
                    cache.popitem(last=False)
                cache[form, gold] = line
            stats.forms += len(keys) - len(fresh)
            out_handle.write("".join(block_lines[key] for key in keys))
    finally:
        if in_handle is not sys.stdin:
            in_handle.close()
        if out_handle is not sys.stdout:
            out_handle.close()
    logger.info("translate: %s", stats)
    if args.output != "-":
        _write_manifest(args.output, args)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    _echo_overrides(args)
    problem = _require_components(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == MODE_ORACLE and not args.oracle_analyses:
        print("error: mode 'oracle' needs --oracle-analyses", file=sys.stderr)
        return EXIT_USAGE
    _require_directory(args.out_prefix)
    config = _build_joint_config(args)
    dictionary = read_eval_dictionary(args.dict)
    gold = _read_oracle_analyses(args.oracle_analyses) if args.mode == MODE_ORACLE else {}

    forms = [entry.source for entry in dictionary.entries]
    stats = BatchStats()
    slots = translate_many(config, forms, [gold.get(form) for form in forms], stats)
    logger.info("evaluate: %s", stats)
    report = precision_at_1(
        slots,
        dictionary,
        config.source_space,
        bin_width=args.bin_width,
        num_bins=args.num_bins,
        min_tag_count=args.min_tag_count,
    )
    write_report(report, args.out_prefix)
    _write_manifest(f"{args.out_prefix}.summary.tsv", args)
    print(
        f"precision@1: voc {report.voc.accuracy:.4f} ({report.voc.total}), "
        f"all {report.all.accuracy:.4f} ({report.all.total}), "
        f"untranslatable {report.untranslatable}"
    )
    return EXIT_OK


def cmd_extract_seed(args: argparse.Namespace) -> int:
    _require_directory(args.out)
    source_space, target_space = _load_spaces(args, preprocessed=False)
    pairs = extract_identical_seed(source_space, target_space)
    write_tsv(args.out, None, pairs)
    _write_manifest(args.out, args)
    print(f"{len(pairs)} identical strings written to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="morphlex", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_max_words(p):
        p.add_argument("--max-words", type=_int_at_least(1), default=DEFAULT_MAX_WORDS,
                       help="vocabulary cap per space (default %(default)s)")

    p = commands.add_parser("train-translator", help="fit the log-bilinear mapping")
    p.add_argument("--src", required=True, help="source .vec file")
    p.add_argument("--tgt", required=True, help="target .vec file")
    p.add_argument("--seed-dict", required=True, help="seed dictionary TSV")
    p.add_argument("--out", required=True, help="output model file")
    for f in fields(TrainConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_train_config_value(f), default=f.default,
                       help="(default %(default)s)")
    add_max_words(p)
    p.set_defaults(func=cmd_train_translator)

    p = commands.add_parser("train-morph", help="learn suffix-rule transducers")
    p.add_argument("--data", required=True, help="UniMorph TSV (lemma, form, tag)")
    p.add_argument("--analyzer-out", help="output analyzer rule table")
    p.add_argument("--inflector-out", help="output inflector rule table")
    p.add_argument("--exclude", help="evaluation dictionary whose forms are excluded")
    p.add_argument("--dev", help="UniMorph TSV for held-out accuracy reporting")
    p.set_defaults(func=cmd_train_morph)

    def add_pipeline_flags(p):
        p.add_argument("--model", required=True, help="trained omega file")
        p.add_argument("--src", required=True, help="source .vec file")
        p.add_argument("--tgt", required=True, help="target .vec file")
        p.add_argument("--analyzer", help="source analyzer rule table")
        p.add_argument("--inflector", help="target inflector rule table")
        p.add_argument("--ngrams", help="source n-gram table for OOV composition")
        p.add_argument("--mode", choices=MODES, default=MODE_BASE)
        add_max_words(p)

    p = commands.add_parser("translate", help="translate forms, one per line")
    add_pipeline_flags(p)
    p.add_argument("--input", default="-", help="input file, '-' for stdin")
    p.add_argument("--output", default="-", help="output file, '-' for stdout")
    p.set_defaults(func=cmd_translate)

    p = commands.add_parser("evaluate", help="precision@1 with breakdowns")
    add_pipeline_flags(p)
    p.add_argument("--dict", required=True, help="evaluation dictionary TSV")
    p.add_argument("--out-prefix", required=True, help="prefix for report files")
    p.add_argument("--oracle-analyses", help="form<TAB>lemma<TAB>tag file for oracle mode")
    p.add_argument("--bin-width", type=_int_at_least(1), default=DEFAULT_BIN_WIDTH)
    p.add_argument("--num-bins", type=_int_at_least(1), default=DEFAULT_NUM_BINS)
    p.add_argument("--min-tag-count", type=_int_at_least(0), default=DEFAULT_MIN_TAG_COUNT)
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("extract-seed", help="identical-string weak supervision")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    add_max_words(p)
    p.set_defaults(func=cmd_extract_seed)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _DATA_ERRORS + _UNTRAINABLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, _DATA_ERRORS) else EXIT_UNTRAINABLE


if __name__ == "__main__":
    sys.exit(main())
