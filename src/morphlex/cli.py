"""Command-line front-end: training, translation, evaluation and seed
extraction.

Exit codes are a stable contract for scripting: 0 success, 1 usage
error, 2 data/format error (a ``DataError``, undecodable UTF-8 among
them, or any ``OSError``), 3 untrainable or unevaluable condition (an
``UntrainableError``). A reader that closes stdout early, as ``head``
does, is no failure: the command stops quietly with exit 0. A broken pipe
on any other handle, such as a FIFO given as an output, is exit 2.

Each subparser declares ``outputs``: a function of the parsed arguments
that raises the command's usage error or returns the paths it writes; and
``inputs``: the flags of the files it reads. A command writes those
files, a run manifest (inputs, flags, seed, versions, results) beside
each, and nothing else. ``main`` does every command's bookkeeping once:
it echoes to stderr, for provenance, each ``train-translator``
hyperparameter (one flag per ``TrainConfig`` field) and ``--max-words``
that overrides its stock default, runs the usage check, refuses two of
those paths that name one file and one that names an input file, checks
each of them before any input is read, runs the command, maps its errors
to exit codes and, on success, writes the manifests with the command's
return value as their ``results``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import logging
import os
import platform
import select
import sys
from collections import OrderedDict
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .embeddings import DEFAULT_MAX_WORDS, load_ngram_table, load_space, load_spaces
from .evaluation import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_MIN_TAG_COUNT,
    DEFAULT_NUM_BINS,
    DictionaryFormatError,
    _keyed_row,
    extract_identical_seed,
    precision_at_1,
    read_eval_dictionary,
    read_seed_dictionary,
    report_paths,
    write_report,
)
from .morph import (
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
    TranslationCandidate,
    joint_log_prob,
    translate_many,
)
from .textio import (
    DataError,
    UntrainableError,
    decode_errors_named,
    open_output,
    open_text,
    read_tsv,
    write_json,
    write_tsv,
)
from .translator import TrainConfig, load_model, save_model, seed_rows, train

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

_DATA_ERRORS = (DataError, OSError)

# The environment variables that set the BLAS thread count. Model bytes are
# identical for equal seeds and inputs only under the same numpy/BLAS build
# and thread count, so each manifest records them.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _UsageError(Exception):
    """A command's flags are inconsistent: its outputs declaration raises
    this, and ``main`` prints it and exits 1 before any file is touched."""


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


def _blas_build() -> dict | None:
    """The name and version of the BLAS numpy was built with, or None where
    numpy does not report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 takes no mode
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_manifest(path: str, args: argparse.Namespace, results: dict | None) -> None:
    arguments = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command", "verbose") and not callable(value)
    }
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "seed": getattr(args, "seed", None),
        "results": results,
        "versions": {
            "morphlex": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": _blas_build(),
        },
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
    }
    write_json(path, manifest)


def _log_peak_rss() -> None:
    """One INFO line, from the package's logger, of this process's peak RSS
    and the largest of its reaped forked children's, such as the target
    loader of ``load_spaces``; nothing where ``resource`` is missing."""
    package = logging.getLogger(__package__)
    if not package.isEnabledFor(logging.INFO):
        return  # a run without --verbose does not even import resource
    try:
        import resource
    except ImportError:  # not on Windows
        return
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere.
    per_mb = 1 << (20 if sys.platform == "darwin" else 10)
    package.info(
        "peak RSS %.1f MB; forked children %.1f MB",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / per_mb,
    )


def _same_file(first: str, second: str) -> bool:
    """The two paths name one file: the same file when both exist, else the
    same resolved path."""
    try:
        return os.path.samefile(first, second)
    except OSError:
        return os.path.realpath(first) == os.path.realpath(second)


def _require_output_path(path: str) -> None:
    """Raise, before any input is read, the OSError naming ``path`` that
    opening it for writing would raise because it is a directory or cannot
    be looked up: its parent is missing or not a directory, it loops, its
    name is too long. A path that does not exist yet in an existing
    directory passes; for a dangling symlink, that is the directory of the
    path it resolves to."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        os.stat(path)
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(os.path.realpath(path))):
            raise


def _given(*names: str):
    """The ``inputs`` declaration of a command that reads the files of the
    flags ``names`` (argparse dests): a function of the parsed arguments
    that returns each given one as (flag, path), standard input left out."""

    def given(args: argparse.Namespace) -> list[tuple[str, str]]:
        return [
            (f"--{name.replace('_', '-')}", path)
            for name in names
            if (path := getattr(args, name)) not in (None, "-")
        ]

    return given


def _stdout_closed() -> bool:
    """stdout is a pipe whose reader has gone: polling its write end
    reports an error."""
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (AttributeError, OSError, ValueError):  # no poll(), or no descriptor
        return False
    return any(events & select.POLLERR for _, events in poller.poll(0))


def _load_spaces(args: argparse.Namespace, preprocessed: bool):
    """The source and target spaces of a command. Both loads go through
    this module's ``load_space`` binding, which perfbench's tracer wraps.
    A target that ``load_spaces`` loads in a forked child runs the wrapper
    there, so that call is wrapped but recorded in no process."""
    return load_spaces(
        args.src, args.tgt, args.max_words, preprocessed=preprocessed, load=load_space
    )


def cmd_train_translator(args: argparse.Namespace) -> dict:
    source_space, target_space = _load_spaces(args, preprocessed=True)
    seeds = seed_rows(read_seed_dictionary(args.seed_dict), source_space, target_space)
    del source_space  # training reads only the seed pairs' rows, which seeds holds
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    result = train(seeds, target_space, config)
    save_model(result.model, args.out)
    print(
        f"epochs run: {result.epochs_run}; final dev loss: {result.dev_losses[-1]:.6f}; "
        f"best dev loss: {result.best_dev_loss:.6f} (epoch {result.best_epoch}); "
        f"dropped pairs: {result.dropped_pairs}"
    )
    return {"dropped_pairs": result.dropped_pairs}


def _train_morph_outputs(args: argparse.Namespace) -> list[str]:
    """The rule tables train-morph is asked for: at least one."""
    outputs = [path for path in (args.analyzer_out, args.inflector_out) if path]
    if not outputs:
        raise _UsageError("provide --analyzer-out and/or --inflector-out")
    return outputs


def cmd_train_morph(args: argparse.Namespace) -> None:
    entries = read_unimorph(args.data)
    if args.exclude:
        excluded = read_eval_dictionary(args.exclude)
        drop = {e.source for e in excluded.entries}
        drop.update(g for e in excluded.entries for g in e.golds)
        before = len(entries)
        entries = [e for e in entries if e.form not in drop]
        print(f"exclusion: removed {before - len(entries)} of {before} entries", file=sys.stderr)
    if not entries:
        raise UntrainableError("no training entries remain after exclusion")
    dev_entries = read_unimorph(args.dev) if args.dev else None
    for name, out, learn, accuracy in (
        ("analyzer", args.analyzer_out, learn_analyzer, analyzer_accuracy),
        ("inflector", args.inflector_out, learn_inflector, inflector_accuracy),
    ):
        if out:
            table = learn(entries)
            save_rule_table(table, out)
            line = f"{name}: {table.num_rules()} rules, {len(table.tags)} tags"
            if dev_entries:
                line += f", dev accuracy {accuracy(table, dev_entries):.4f}"
            print(line)


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


def _oracle_row(row: list[str]) -> tuple[str, tuple[str, MorphTag]]:
    """A form<TAB>lemma<TAB>tag row as (form, (lemma, tag))."""
    form, lemma, tag = _keyed_row(row)
    return form, (lemma, parse_tag(tag))


def _read_oracle_analyses(path: str) -> dict[str, tuple[str, MorphTag]]:
    """The --oracle-analyses file: form -> (lemma, tag); a later row of a
    form replaces an earlier one."""
    return dict(read_tsv(path, 3, DictionaryFormatError, _oracle_row))


def _oracle_gold(line: str) -> tuple[str, MorphTag] | None:
    """The (lemma, tag) of an oracle input line, or None, which makes the
    line untranslatable: a line without three columns, or with an empty
    form or lemma, draws a warning, a tag that does not parse none."""
    columns = line.split("\t")
    try:
        if len(columns) == 3:
            return _oracle_row(columns)[1]
    except TagParseError:
        return None
    except ValueError:  # an empty form or lemma
        pass
    print(f"warning: oracle input needs form<TAB>lemma<TAB>tag, got {line!r}", file=sys.stderr)
    return None


def cmd_translate(args: argparse.Namespace) -> None:
    config = _build_joint_config(args)
    oracle = config.mode == MODE_ORACLE
    stats = BatchStats()
    # (form, gold) -> output line; gold is None outside oracle mode, as in
    # translate_many's own deduplication.
    cache: OrderedDict[tuple, str] = OrderedDict()
    with contextlib.ExitStack() as files:
        if args.input == "-":
            in_handle = sys.stdin
            # Strict UTF-8, whatever the locale, and universal newlines, as
            # open_text reads a file: "\r\n" and "\r" end a line.
            if hasattr(in_handle, "reconfigure"):
                in_handle.reconfigure(encoding="utf-8", errors="strict", newline=None)
            files.enter_context(decode_errors_named("-"))
        else:
            in_handle = files.enter_context(open_text(args.input))
        out_handle = (sys.stdout if args.output == "-"
                      else files.enter_context(open_output(args.output)))
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
    logger.info("translate: %s", stats)


def _translate_outputs(args: argparse.Namespace) -> list[str]:
    """translate's output file, if it has one."""
    return [] if args.output == "-" else [args.output]


def _evaluate_outputs(args: argparse.Namespace) -> list[str]:
    """evaluate's four reports, once oracle mode has its analyses."""
    if args.mode == MODE_ORACLE and not args.oracle_analyses:
        raise _UsageError("mode 'oracle' needs --oracle-analyses")
    return list(report_paths(args.out_prefix).values())


def cmd_evaluate(args: argparse.Namespace) -> None:
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
    print(
        f"precision@1: voc {report.voc.accuracy:.4f} ({report.voc.total}), "
        f"all {report.all.accuracy:.4f} ({report.all.total}), "
        f"untranslatable {report.untranslatable}"
    )


def cmd_extract_seed(args: argparse.Namespace) -> None:
    source_space, target_space = _load_spaces(args, preprocessed=False)
    pairs = extract_identical_seed(source_space, target_space)
    write_tsv(args.out, None, pairs)
    print(f"{len(pairs)} identical strings written to {args.out}")


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
    p.set_defaults(func=cmd_train_translator, outputs=lambda args: [args.out],
                   inputs=_given("src", "tgt", "seed_dict"))

    p = commands.add_parser("train-morph", help="learn suffix-rule transducers")
    p.add_argument("--data", required=True, help="UniMorph TSV (lemma, form, tag)")
    p.add_argument("--analyzer-out", help="output analyzer rule table")
    p.add_argument("--inflector-out", help="output inflector rule table")
    p.add_argument("--exclude", help="evaluation dictionary whose forms are excluded")
    p.add_argument("--dev", help="UniMorph TSV for held-out accuracy reporting")
    p.set_defaults(func=cmd_train_morph, outputs=_train_morph_outputs,
                   inputs=_given("data", "exclude", "dev"))

    def add_pipeline_flags(p, outputs, *inputs):
        """The flags of the joint pipeline, ``outputs`` after the usage
        check of a mode without its components, each component's flag
        named after its field, and the pipeline's input flags with the
        command's own ``inputs``."""

        def checked_outputs(args):
            needed = MODE_COMPONENTS[args.mode]
            if not all(getattr(args, name) for name in needed):
                flags = " and ".join(f"--{name}" for name in needed)
                raise _UsageError(f"mode {args.mode!r} needs {flags}")
            return outputs(args)

        p.add_argument("--model", required=True, help="trained omega file")
        p.add_argument("--src", required=True, help="source .vec file")
        p.add_argument("--tgt", required=True, help="target .vec file")
        p.add_argument("--analyzer", help="source analyzer rule table")
        p.add_argument("--inflector", help="target inflector rule table")
        p.add_argument("--ngrams", help="source n-gram table for OOV composition")
        p.add_argument("--mode", choices=MODES, default=MODE_BASE)
        add_max_words(p)
        p.set_defaults(
            outputs=checked_outputs,
            inputs=_given("model", "src", "tgt", "analyzer", "inflector", "ngrams", *inputs),
        )

    p = commands.add_parser("translate", help="translate forms, one per line")
    add_pipeline_flags(p, _translate_outputs, "input")
    p.add_argument("--input", default="-", help="input file, '-' for stdin")
    p.add_argument("--output", default="-", help="output file, '-' for stdout")
    p.set_defaults(func=cmd_translate)

    p = commands.add_parser("evaluate", help="precision@1 with breakdowns")
    add_pipeline_flags(p, _evaluate_outputs, "dict", "oracle_analyses")
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
    p.set_defaults(func=cmd_extract_seed, outputs=lambda args: [args.out],
                   inputs=_given("src", "tgt"))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    _echo_overrides(args)
    try:
        outputs = args.outputs(args)
        manifests = [f"{path}.manifest.json" for path in outputs]
        for first, second in itertools.combinations(outputs + manifests, 2):
            if _same_file(first, second):
                raise _UsageError(f"two outputs name one file: {first!r} and {second!r}")
        for path, (flag, source) in itertools.product(outputs + manifests, args.inputs(args)):
            if _same_file(path, source):
                raise _UsageError(f"output {path!r} is the {flag} file")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        for path in outputs + manifests:
            _require_output_path(path)
        results = args.func(args)
        for path in manifests:
            _write_manifest(path, args, results)
        sys.stdout.flush()
    except (*_DATA_ERRORS, UntrainableError) as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            # What stdout still buffers goes nowhere, so the exit flush is quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_OK
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, _DATA_ERRORS) else EXIT_UNTRAINABLE
    finally:
        _log_peak_rss()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
