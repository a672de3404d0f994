import argparse
import errno
import functools
import io
import itertools
import json
import logging
import os
import pathlib
import re
import select
import subprocess
import sys
import threading
import weakref
from collections import OrderedDict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex import cli, embeddings
from morphlex.baseline import procrustes_fit
from morphlex.cli import EXIT_DATA, EXIT_OK, EXIT_UNTRAINABLE, EXIT_USAGE, main
from morphlex.embeddings import EmbeddingSpace, load_space, ngrams, save_vec_file
from morphlex.morph import learn_analyzer, learn_inflector
from morphlex.pipeline import (
    MODE_DIRECT,
    MODE_HYBRID,
    MODE_ORACLE,
    JointConfig,
    TranslationCandidate,
    joint_log_prob,
    translate_many,
)
from morphlex.synthetic import build_bilingual_task
from morphlex.translator import TrainConfig, TranslationModel, save_model, seed_rows

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m morphlex.cli`` with this checkout's sources, in a child
    process, so that a traceback shows on its stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC_DIR] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )}
    return subprocess.run(
        [sys.executable, "-m", "morphlex.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A miniature bilingual corpus on disk, raw (unpreprocessed) spaces."""
    root = tmp_path_factory.mktemp("corpus")
    task = build_bilingual_task(
        seed=5, n_lexemes=30, dim=10, apply_preprocessing=False
    )
    paths = {
        "src": str(root / "src.vec"),
        "tgt": str(root / "tgt.vec"),
        "seed": str(root / "seed.tsv"),
        "unimorph_src": str(root / "unimorph_src.tsv"),
        "unimorph_tgt": str(root / "unimorph_tgt.tsv"),
        "eval": str(root / "eval.tsv"),
        "oracle": str(root / "oracle.tsv"),
        "forms": str(root / "forms.txt"),
    }
    save_vec_file(task.source_space, paths["src"])
    save_vec_file(task.target_space, paths["tgt"])
    with open(paths["seed"], "w") as handle:
        for s, t in task.seed_pairs:
            handle.write(f"{s}\t{t}\n")
    for key, entries in (("unimorph_src", task.source_unimorph), ("unimorph_tgt", task.target_unimorph)):
        with open(paths[key], "w") as handle:
            for e in entries:
                handle.write(f"{e.lemma}\t{e.form}\t{e.tag.canonical}\n")
    with open(paths["eval"], "w") as handle:
        for entry in task.eval_dictionary.entries:
            for gold in sorted(entry.golds):
                handle.write(f"{entry.source}\t{gold}\t{entry.tag.canonical}\n")
    with open(paths["oracle"], "w") as handle:
        for form, (lemma, tag) in sorted(task.gold_analyses.items()):
            handle.write(f"{form}\t{lemma}\t{tag.canonical}\n")
    with open(paths["forms"], "w") as handle:
        handle.write("\n".join(e.source for e in task.eval_dictionary.entries[:3]) + "\n")
    paths["task"] = task
    return paths


@pytest.fixture()
def trained(corpus, tmp_path_factory):
    """Model and rule tables trained once through the CLI itself."""
    out = tmp_path_factory.mktemp("artifacts")
    model = str(out / "model.omega")
    analyzer = str(out / "analyzer.rules")
    inflector = str(out / "inflector.rules")
    code = main([
        "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
        "--seed-dict", corpus["seed"], "--out", model,
        "--max-epochs", "12", "--seed", "3",
    ])
    assert code == EXIT_OK
    code = main([
        "train-morph", "--data", corpus["unimorph_src"], "--analyzer-out", analyzer,
    ])
    assert code == EXIT_OK
    code = main([
        "train-morph", "--data", corpus["unimorph_tgt"], "--inflector-out", inflector,
    ])
    assert code == EXIT_OK
    return {"model": model, "analyzer": analyzer, "inflector": inflector}


class TestTrainTranslator:
    def test_empty_seed_field_is_a_data_error(self, corpus, tmp_path, capsys):
        # A pair with an empty word is refused, not counted as dropped.
        seed = tmp_path / "seed.tsv"
        with open(corpus["seed"], encoding="utf-8") as handle:
            good = handle.readline()
        seed.write_text(good + good.split("\t")[0] + "\t\n", encoding="utf-8")
        code = main([
            "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
            "--seed-dict", str(seed), "--out", str(tmp_path / "m.omega"),
        ])
        assert code == EXIT_DATA
        assert f"error: {seed}: line 2: empty field" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["seed.tsv"]

    def test_writes_model_metadata_and_manifest(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "m.omega")
        code = main([
            "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
            "--seed-dict", corpus["seed"], "--out", out,
            "--max-epochs", "2", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "m.omega", "m.omega.manifest.json",
        ]
        manifest = json.loads((tmp_path / "m.omega.manifest.json").read_text())
        assert manifest["command"] == "train-translator"
        assert manifest["seed"] == 1
        assert manifest["results"] == {"dropped_pairs": 0}
        arguments = manifest["arguments"]
        assert (arguments["src"], arguments["tgt"]) == (corpus["src"], corpus["tgt"])
        assert "final dev loss" in capsys.readouterr().out

    @pytest.mark.parametrize("fork_floor", [None, 0], ids=["in-process", "forked-target"])
    def test_source_space_is_released_before_training(self, tmp_path, monkeypatch, fork_floor):
        # Training reads only the seed pairs' source rows, so the loaded
        # source matrix is gone once train is entered, and the model has
        # the bytes of training over both full spaces.
        if fork_floor is not None:
            monkeypatch.setattr(embeddings, "_FORK_MIN_VALUES", fork_floor)
        task = build_bilingual_task(seed=1, n_lexemes=250, dim=64, apply_preprocessing=False)
        src, tgt = str(tmp_path / "src.vec"), str(tmp_path / "tgt.vec")
        save_vec_file(task.source_space, src)
        save_vec_file(task.target_space, tgt)
        seed = tmp_path / "seed.tsv"
        seed.write_text("".join(f"{s}\t{t}\n" for s, t in task.seed_pairs))
        source_rows = []
        released = []

        def load(path, *args, **kwargs):
            space = cli_load_space(path, *args, **kwargs)
            if path == src:
                source_rows.append(weakref.ref(space.vectors))
            return space

        def train(*args, **kwargs):
            released.append([ref() is None for ref in source_rows])
            return real_train(*args, **kwargs)

        cli_load_space, real_train = cli.load_space, cli.train
        monkeypatch.setattr(cli, "load_space", load)
        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "m.omega"
        assert main([
            "train-translator", "--src", src, "--tgt", tgt, "--seed-dict", str(seed),
            "--out", str(out), "--max-epochs", "2", "--seed", "1",
        ]) == EXIT_OK
        assert released == [[True]]

        source, target = (load_space(path, preprocessed=True) for path in (src, tgt))
        config = TrainConfig(max_epochs=2, seed=1)
        full = real_train(seed_rows(task.seed_pairs, source, target), target, config)
        save_model(full.model, str(tmp_path / "full.omega"))
        assert out.read_bytes() == (tmp_path / "full.omega").read_bytes()

    def test_verbose_logs_peak_rss_and_leaves_outputs_unchanged(
        self, corpus, tmp_path, capsys, caplog
    ):
        pytest.importorskip("resource")

        def run(name, *verbose):
            out = tmp_path / name / "m.omega"
            out.parent.mkdir()
            assert main([
                *verbose, "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
                "--seed-dict", corpus["seed"], "--out", str(out), "--max-epochs", "2",
            ]) == EXIT_OK
            files = {path.name: path.read_bytes() for path in out.parent.iterdir()}
            return files, capsys.readouterr().out

        quiet = run("quiet")
        with caplog.at_level(logging.INFO, logger="morphlex"):
            loud = run("loud", "--verbose")
        assert loud[1] == quiet[1]
        assert loud[0]["m.omega"] == quiet[0]["m.omega"]
        manifests = [json.loads(files["m.omega.manifest.json"]) for files, _ in (quiet, loud)]
        for manifest in manifests:
            manifest["arguments"]["out"] = None
        assert manifests[0] == manifests[1]
        lines = [r.getMessage() for r in caplog.records if r.name == "morphlex"]
        assert len(lines) == 1
        assert re.fullmatch(r"peak RSS \d+\.\d MB; forked children \d+\.\d MB", lines[0])

    def test_max_epochs_zero_writes_initial_model(self, corpus, tmp_path):
        out = str(tmp_path / "m.omega")
        code = main([
            "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
            "--seed-dict", corpus["seed"], "--out", out, "--max-epochs", "0",
        ])
        assert code == EXIT_OK
        from morphlex.translator import load_model

        np.testing.assert_array_equal(load_model(out).omega, np.eye(10))

    def test_alpha_default_is_ten(self, corpus):
        parser_args = ["train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
                       "--seed-dict", corpus["seed"], "--out", "x"]
        from morphlex.cli import build_parser

        args = build_parser().parse_args(parser_args)
        assert args.alpha == 10.0

    def test_override_is_echoed(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "m.omega")
        main([
            "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
            "--seed-dict", corpus["seed"], "--out", out,
            "--max-epochs", "1", "--alpha", "5",
        ])
        err = capsys.readouterr().err
        assert "overrides the default 10" in err
        assert "--max-epochs 1 overrides the default 50" in err

    def test_unreadable_file_is_data_error(self, corpus, tmp_path):
        code = main([
            "train-translator", "--src", str(tmp_path / "missing.vec"),
            "--tgt", corpus["tgt"], "--seed-dict", corpus["seed"],
            "--out", str(tmp_path / "m"),
        ])
        assert code == EXIT_DATA

    def test_malformed_vec_is_data_error(self, corpus, tmp_path):
        bad = tmp_path / "bad.vec"
        bad.write_text("2 3\na 1 2 3\nb 1 2\n")
        code = main([
            "train-translator", "--src", str(bad), "--tgt", corpus["tgt"],
            "--seed-dict", corpus["seed"], "--out", str(tmp_path / "m"),
        ])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("row", ["b 1 nan 3", "b 1 inf 3"])
    def test_non_finite_vec_is_data_error(self, corpus, tmp_path, capsys, row):
        bad = tmp_path / "bad.vec"
        bad.write_text(f"2 3\na 1 2 3\n{row}\n")
        code = main([
            "train-translator", "--src", str(bad), "--tgt", corpus["tgt"],
            "--seed-dict", corpus["seed"], "--out", str(tmp_path / "m"),
        ])
        assert code == EXIT_DATA
        assert "non-finite value" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train-translator", "--src", "x.vec"])
        assert excinfo.value.code == EXIT_USAGE


class TestTrainMorph:
    def test_exclusion_file(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "a.rules")
        code = main([
            "train-morph", "--data", corpus["unimorph_src"],
            "--analyzer-out", out, "--exclude", corpus["eval"],
        ])
        assert code == EXIT_OK
        assert "exclusion: removed" in capsys.readouterr().err

    def test_dev_accuracy_reported(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "i.rules")
        code = main([
            "train-morph", "--data", corpus["unimorph_tgt"],
            "--inflector-out", out, "--dev", corpus["unimorph_tgt"],
        ])
        assert code == EXIT_OK
        assert "dev accuracy 1.0000" in capsys.readouterr().out

    def test_empty_after_exclusion(self, corpus, tmp_path, capsys):
        # The exclusion dictionary lists every training form.
        kill = tmp_path / "kill.tsv"
        with open(corpus["unimorph_src"]) as handle:
            forms = [line.split("\t")[1] for line in handle if line.strip()]
        kill.write_text("".join(f"x\t{f}\n" for f in forms))
        code = main([
            "train-morph", "--data", corpus["unimorph_src"],
            "--analyzer-out", str(tmp_path / "a.rules"), "--exclude", str(kill),
        ])
        assert code == EXIT_UNTRAINABLE
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: no training entries remain after exclusion"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["kill.tsv"]  # no manifest

    def test_no_output_flag_is_usage_error(self, corpus):
        code = main(["train-morph", "--data", corpus["unimorph_src"]])
        assert code == EXIT_USAGE


class TestTranslate:
    def test_base_mode_line_format(self, corpus, trained, tmp_path):
        out = tmp_path / "preds.tsv"
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "base",
            "--input", corpus["forms"], "--output", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            source, prediction, route, log_prob = line.split("\t")
            assert route in ("lemma-route", "direct-route")
            if prediction != "<NONE>":
                assert float(log_prob) <= 0.0
        manifest = json.loads((tmp_path / "preds.tsv.manifest.json").read_text())
        assert manifest["seed"] is None and "seed" not in manifest["arguments"]

    def test_untranslatable_line_yields_none_and_zero_exit(self, corpus, trained, tmp_path):
        forms = tmp_path / "forms.txt"
        forms.write_text("qqqqqq\n")
        out = tmp_path / "preds.tsv"
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--mode", "direct",
            "--input", str(forms), "--output", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text().startswith("qqqqqq\t<NONE>")

    def test_oracle_mode_needs_three_columns(self, corpus, trained, tmp_path, capsys):
        forms = tmp_path / "forms.txt"
        task = corpus["task"]
        good = task.eval_dictionary.entries[0].source
        lemma, tag = task.gold_analyses[good]
        forms.write_text(f"only-one-column\n{good}\t{lemma}\t{tag.canonical}\n")
        out = tmp_path / "preds.tsv"
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--inflector", trained["inflector"],
            "--mode", "oracle", "--input", str(forms), "--output", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].split("\t")[1] == "<NONE>"
        assert "oracle input needs" in capsys.readouterr().err
        assert lines[1].split("\t")[1] != "<NONE>"

    @pytest.mark.parametrize("mode", ["base", "oracle"])
    def test_crlf_lines_read_the_same_from_stdin_and_a_file(self, corpus, trained, tmp_path, mode):
        # A file is read with universal newlines, and so is standard input:
        # no "\r" stays on a form, whatever the mode.
        task = corpus["task"]
        lines = []
        for entry in task.eval_dictionary.entries[:5]:
            lemma, tag = task.gold_analyses[entry.source]
            lines.append(f"{entry.source}\t{lemma}\t{tag.canonical}" if mode == "oracle"
                         else entry.source)
        data = "".join(line + "\r\n" for line in lines).encode()
        forms = tmp_path / "forms.txt"
        forms.write_bytes(data)
        argv = [
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", mode, "--output", "-",
        ]
        env = {**os.environ, "PYTHONPATH": SRC_DIR}

        def stdout(source, stdin):
            result = subprocess.run(
                [sys.executable, "-m", "morphlex.cli", *argv, "--input", source],
                input=stdin, capture_output=True, env=env, timeout=120,
            )
            assert result.returncode == EXIT_OK, result.stderr
            return result.stdout

        from_file = stdout(str(forms), b"")
        assert len(from_file.splitlines()) == 5 and b"\r" not in from_file
        assert stdout("-", data) == from_file

    def test_base_mode_without_analyzer_is_usage_error(self, corpus, trained, capsys):
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--mode", "base",
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: mode 'base' needs --analyzer and --inflector\n"

    def test_hybrid_routing_field_varies(self, corpus, trained, tmp_path):
        # Evaluation forms are rare: base mode sends them through the
        # lemma; at least the lemma forms themselves must go direct.
        task = corpus["task"]
        lemma_form = task.source.lemma(task.train_lexemes[0])
        forms = tmp_path / "forms.txt"
        forms.write_text(f"{lemma_form}\n")
        out = tmp_path / "preds.tsv"
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "hybrid",
            "--input", str(forms), "--output", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text().split("\t")[2] == "direct-route"


    def test_max_words_below_model_support_is_data_error(self, corpus, trained, tmp_path, capsys):
        support = len(corpus["task"].target_space)
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "hybrid", "--max-words", "7",
            "--input", corpus["forms"], "--output", str(tmp_path / "preds.tsv"),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"support of {support} words" in err and "7 rows" in err

    def test_programming_error_is_not_reported_as_none(
        self, corpus, trained, tmp_path, monkeypatch
    ):
        # Only the declared domain errors become <NONE> or a miss; a bare
        # KeyError from inside the pipeline must propagate.
        import morphlex.pipeline

        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(morphlex.pipeline, "retrieve", broken)
        common = [
            "--model", trained["model"], "--src", corpus["src"], "--tgt", corpus["tgt"],
            "--mode", "direct",
        ]
        with pytest.raises(KeyError, match="bug"):
            main(["translate", *common, "--input", corpus["forms"],
                  "--output", str(tmp_path / "preds.tsv")])
        with pytest.raises(KeyError, match="bug"):
            main(["evaluate", *common, "--dict", corpus["eval"],
                  "--out-prefix", str(tmp_path / "run")])


    def test_non_finite_ngram_table_is_data_error(self, corpus, trained, tmp_path, capsys):
        table = tmp_path / "bad.ngrams"
        table.write_text("<sa " + " ".join(["1"] * 9 + ["inf"]) + "\n")
        code = main([
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--ngrams", str(table), "--mode", "direct",
            "--input", corpus["forms"], "--output", str(tmp_path / "preds.tsv"),
        ])
        assert code == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    def test_verbose_logs_batch_counts_and_leaves_output_unchanged(
        self, corpus, trained, tmp_path, caplog
    ):
        forms = tmp_path / "forms.txt"
        forms.write_text(pathlib.Path(corpus["forms"]).read_text() * 2)
        common = [
            "translate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "base", "--input", str(forms),
        ]
        quiet, verbose = tmp_path / "quiet.tsv", tmp_path / "verbose.tsv"
        assert main(common + ["--output", str(quiet)]) == EXIT_OK
        with caplog.at_level(logging.INFO, logger="morphlex.cli"):
            assert main(["--verbose", *common, "--output", str(verbose)]) == EXIT_OK
        assert verbose.read_bytes() == quiet.read_bytes()
        lines = [r.getMessage() for r in caplog.records if r.name == "morphlex.cli"]
        assert len(lines) == 1
        assert re.fullmatch(
            r"translate: 6 forms, 3 distinct, \d+ retrievals in \d+ score blocks "
            r"\(\d\.\d{4} retrievals per form\)",
            lines[0],
        )

    def test_zero_rows_warn_once_naming_the_file(self, corpus, trained, tmp_path, caplog):
        lines = pathlib.Path(corpus["src"]).read_text().splitlines()
        dim = int(lines[0].split()[1])
        for i in (3, 5):
            lines[i] = lines[i].split()[0] + " 0.0" * dim
        src = tmp_path / "src.vec"
        src.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            code = main([
                "translate", "--model", trained["model"], "--src", str(src),
                "--tgt", corpus["tgt"], "--mode", "direct",
                "--input", corpus["forms"], "--output", str(tmp_path / "preds.tsv"),
            ])
        assert code == EXIT_OK
        zero = [r.getMessage() for r in caplog.records if "zero" in r.getMessage()]
        assert zero == [f"{src}: 2 zero vectors could not be normalized"]

    def test_verbose_counts_each_distinct_line_once_across_blocks(
        self, corpus, trained, tmp_path, caplog, monkeypatch
    ):
        monkeypatch.setattr(cli, "INPUT_BLOCK_LINES", 2)
        distinct = pathlib.Path(corpus["forms"]).read_text().split()
        forms = tmp_path / "forms.txt"
        forms.write_text("".join(f"{form}\n" * 4 for form in distinct))
        with caplog.at_level(logging.INFO, logger="morphlex.cli"):
            assert main([
                "--verbose", "translate", "--model", trained["model"], "--src", corpus["src"],
                "--tgt", corpus["tgt"], "--mode", "direct",
                "--input", str(forms), "--output", str(tmp_path / "preds.tsv"),
            ]) == EXIT_OK
        lines = [r.getMessage() for r in caplog.records if r.name == "morphlex.cli"]
        assert len(lines) == 1
        assert re.fullmatch(
            r"translate: 12 forms, 3 distinct, 3 retrievals in 3 score blocks "
            r"\(0\.2500 retrievals per form\)",
            lines[0],
        )
        assert len((tmp_path / "preds.tsv").read_text().splitlines()) == 12


@functools.lru_cache(maxsize=None)
def stream_world():
    """An in-memory config and a pool of ``translate`` input lines:
    vocabulary forms, composable and uncomposable OOV forms, unanalyzable
    forms, and oracle lines whose tags list the same features in another
    order, lack a column or do not parse."""
    task = build_bilingual_task(seed=4, n_lexemes=16, dim=6)
    rng = np.random.default_rng(4)
    grams = sorted({g for word in task.source_space.words for g in ngrams(word)})
    config = JointConfig(
        MODE_HYBRID,
        procrustes_fit(task.seed_pairs, task.source_space, task.target_space),
        task.source_space,
        task.target_space,
        learn_analyzer(task.source_unimorph),
        learn_inflector(task.target_unimorph),
        EmbeddingSpace(tuple(grams), rng.normal(size=(len(grams), 6))),
    )
    vocabulary = list(task.source_space.words[::4])
    lines = vocabulary + ["z" + w for w in vocabulary[:3]] + ["qqqq", "xq"]
    for form, (lemma, tag) in sorted(task.gold_analyses.items())[:4]:
        lines.append(form)
        lines.append(f"{form}\t{lemma}\t{tag.canonical}")
        lines.append(f"{form}\t{lemma}\t{';'.join(reversed(tag.features)).lower()}")
    lines += [f"{vocabulary[0]}\tno-tag", "qqqq\tqq\tV;PRS", f"{vocabulary[1]}\tx\tN;;PL"]
    return config, lines


def translate_stream(mode: str, text: str, block_lines: int, cache_keys: int):
    """stdout and stderr of ``translate`` reading ``text`` on stdin, with
    ``stream_world``'s config, in blocks of ``block_lines`` lines and a
    cache of at most ``cache_keys`` keys."""
    config, _ = stream_world()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.multiple(
        cli,
        INPUT_BLOCK_LINES=block_lines,
        LINE_CACHE_KEYS=cache_keys,
        _build_joint_config=lambda args: replace(config, mode=mode),
    ), mock.patch.multiple(sys, stdin=io.StringIO(text), stdout=out, stderr=err):
        argv = ["translate", "--model", "m", "--src", "s", "--tgt", "t", "--mode", mode,
                "--analyzer", "a", "--inflector", "i"]
        assert main(argv) == EXIT_OK
    return out.getvalue(), err.getvalue()


def uncached_translation(mode: str, text: str) -> str:
    """The output of one ``translate_many`` call over every line of
    ``text``, formatted as ``translate`` writes it."""
    config, _ = stream_world()
    lines = [line for line in text.splitlines() if line.strip()]
    forms = [line.partition("\t")[0] for line in lines]
    with mock.patch.object(sys, "stderr", io.StringIO()):
        golds = [cli._oracle_gold(line) for line in lines]
    results = translate_many(replace(config, mode=mode), forms, golds)
    return "".join(
        f"{form}\t{r.form}\t{r.route}\t{joint_log_prob(r):.6f}\n"
        if isinstance(r, TranslationCandidate) else f"{form}\t<NONE>\t-\t-\n"
        for form, r in zip(forms, results)
    )


def assert_same_translations(output: str, expected: str) -> None:
    """Equal outputs, but for the last printed digit of a log-probability:
    batches of other sizes sum the same products in another order."""
    rows = [line.split("\t") for line in output.splitlines()]
    expected_rows = [line.split("\t") for line in expected.splitlines()]
    assert [row[:3] for row in rows] == [row[:3] for row in expected_rows]
    for row, expected_row in zip(rows, expected_rows):
        if expected_row[3] == "-":
            assert row[3] == "-"
        else:
            assert float(row[3]) == pytest.approx(float(expected_row[3]), rel=0, abs=1.5e-6)


class TestTranslateLineCache:
    """``translate`` translates each distinct (form, gold) once per stream,
    up to ``LINE_CACHE_KEYS`` keys, whatever the block size."""

    def test_pool_covers_every_outcome(self):
        # The property below is only as strong as its pool.
        _, pool = stream_world()
        text = "\n".join(pool) + "\n"
        hybrid, _ = translate_stream(MODE_HYBRID, text, 1024, 1024)
        oracle, warnings = translate_stream(MODE_ORACLE, text, 1024, 1024)
        routes = {line.split("\t")[2] for line in (hybrid + oracle).splitlines()}
        assert {"lemma-route", "direct-route", "-"} <= routes
        assert "oracle input needs" in warnings

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from([MODE_HYBRID, MODE_ORACLE, MODE_DIRECT]),
        picks=st.lists(st.integers(0, 10**6), max_size=24),
        repeats=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_output_is_independent_of_block_size_and_cap(self, mode, picks, repeats):
        _, pool = stream_world()
        stream = [pool[i % len(pool)] for i in picks]
        stream += [stream[i % len(stream)] for i in repeats] if stream else []
        text = "".join(f"{line}\n" for line in stream)
        expected = uncached_translation(mode, text)
        warnings = set()
        for block_lines, cache_keys in itertools.product((1, 2, 1024), (1, 2, sys.maxsize)):
            out, err = translate_stream(mode, text, block_lines, cache_keys)
            assert_same_translations(out, expected)
            warnings.add(err)
        # Per-line warnings are written whatever the cache holds.
        assert len(warnings) == 1

    def test_a_warning_per_line_without_three_columns(self):
        text = "no-tag-here\n" * 5
        out, err = translate_stream(MODE_ORACLE, text, 2, sys.maxsize)
        assert out == "no-tag-here\t<NONE>\t-\t-\n" * 5
        assert err.count("oracle input needs form<TAB>lemma<TAB>tag") == 5

    def test_an_empty_form_or_lemma_is_a_line_without_three_columns(self):
        _, pool = stream_world()
        form, lemma, tag = next(line for line in pool if line.count("\t") == 2).split("\t")
        text = f"\t{lemma}\t{tag}\n{form}\t\t{tag}\n"
        out, err = translate_stream(MODE_ORACLE, text, 1024, 1024)
        assert out == f"\t<NONE>\t-\t-\n{form}\t<NONE>\t-\t-\n"
        assert err.count("oracle input needs form<TAB>lemma<TAB>tag") == 2

    def test_cache_holds_at_most_its_cap(self, monkeypatch):
        sizes = []

        class RecordingDict(OrderedDict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        monkeypatch.setattr(cli, "OrderedDict", RecordingDict)
        _, pool = stream_world()
        text = "".join(f"{line}\n" for line in pool[:6] * 3)
        out, _ = translate_stream(MODE_DIRECT, text, 4, 2)
        assert max(sizes) == 2
        # Six distinct lines cycling through a cache of two miss every time.
        assert len(sizes) == 18
        assert out == translate_stream(MODE_DIRECT, text, 4, sys.maxsize)[0]


class TestEvaluate:
    def test_report_files_written(self, corpus, trained, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = main([
            "evaluate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "base",
            "--dict", corpus["eval"], "--out-prefix", prefix,
            "--bin-width", "40", "--num-bins", "5",
        ])
        assert code == EXIT_OK
        for suffix in (".summary.tsv", ".bins.tsv", ".tags.tsv", ".report.json"):
            assert (tmp_path / f"run{suffix}").exists()
        assert "precision@1" in capsys.readouterr().out
        payload = json.loads((tmp_path / "run.report.json").read_text())
        # weighted mean of bins equals the overall ALL precision
        weighted = sum(b["precision_at_1"] * b["total"] for b in payload["bins"])
        assert weighted / payload["all"]["total"] == pytest.approx(
            payload["all"]["precision_at_1"], abs=1e-12
        )

    def test_oracle_mode_with_gold_analyses(self, corpus, trained, tmp_path):
        prefix = str(tmp_path / "oracle")
        code = main([
            "evaluate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--inflector", trained["inflector"],
            "--mode", "oracle", "--dict", corpus["eval"], "--out-prefix", prefix,
            "--oracle-analyses", corpus["oracle"],
        ])
        assert code == EXIT_OK

    def test_bad_oracle_analysis_names_file_and_line(self, corpus, trained, tmp_path, capsys):
        analyses = tmp_path / "oracle.tsv"
        with open(corpus["oracle"], encoding="utf-8") as handle:
            good = handle.readline()
        analyses.write_text(good + "\n" + good + "x\ty\tV;;SG\n", encoding="utf-8")
        code = main([
            "evaluate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--inflector", trained["inflector"],
            "--mode", "oracle", "--dict", corpus["eval"], "--out-prefix", str(tmp_path / "o"),
            "--oracle-analyses", str(analyses),
        ])
        assert code == EXIT_DATA
        assert f"error: {analyses}: line 4: empty feature in tag 'V;;SG'" in capsys.readouterr().err

    def test_verbose_logs_batch_counts_and_leaves_reports_unchanged(
        self, corpus, trained, tmp_path, caplog
    ):
        common = [
            "evaluate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "hybrid", "--dict", corpus["eval"],
        ]
        assert main(common + ["--out-prefix", str(tmp_path / "quiet")]) == EXIT_OK
        with caplog.at_level(logging.INFO, logger="morphlex.cli"):
            assert main(["--verbose", *common, "--out-prefix", str(tmp_path / "loud")]) == EXIT_OK
        for suffix in (".summary.tsv", ".bins.tsv", ".tags.tsv", ".report.json"):
            loud, quiet = tmp_path / f"loud{suffix}", tmp_path / f"quiet{suffix}"
            assert loud.read_bytes() == quiet.read_bytes()
        n = len(corpus["task"].eval_dictionary)
        lines = [r.getMessage() for r in caplog.records if r.name == "morphlex.cli"]
        assert len(lines) == 1 and lines[0].startswith(f"evaluate: {n} forms, {n} distinct, ")

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            ("base", ["--inflector", "x.rules"], "mode 'base' needs --analyzer and --inflector"),
            ("oracle", ["--inflector", "x.rules"], "mode 'oracle' needs --oracle-analyses"),
        ],
        ids=["missing-component", "missing-oracle-analyses"],
    )
    def test_usage_error_before_any_input_is_read(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, mode, flags, message
    ):
        argv = command_argv("evaluate", corpus, trained, str(tmp_path / "run"))
        argv[argv.index("--mode") + 1] = mode
        assert main(["evaluate", *argv, *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_empty_dictionary_is_unevaluable(self, corpus, trained, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main([
            "evaluate", "--model", trained["model"], "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--mode", "direct",
            "--dict", str(empty), "--out-prefix", str(tmp_path / "x"),
        ])
        assert code == EXIT_UNTRAINABLE


class TestExtractSeed:
    def test_intersection_written(self, tmp_path):
        a, b = tmp_path / "a.vec", tmp_path / "b.vec"
        a.write_text("3 2\ncasa 1 0\nperro 0 1\ntaxi 1 1\n")
        b.write_text("3 2\ntaxi 1 0\nmaison 0 1\ncasa 1 1\n")
        out = tmp_path / "seed.tsv"
        code = main(["extract-seed", "--src", str(a), "--tgt", str(b), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == "casa\tcasa\ntaxi\ttaxi\n"

    def test_max_words_override_is_echoed(self, tmp_path, capsys):
        a = tmp_path / "a.vec"
        a.write_text("2 2\ncasa 1 0\ntaxi 1 1\n")
        out = tmp_path / "seed.tsv"
        code = main(["extract-seed", "--src", str(a), "--tgt", str(a), "--out", str(out),
                     "--max-words", "1"])
        assert code == EXIT_OK
        assert out.read_text() == "casa\tcasa\n"
        assert capsys.readouterr().err == (
            f"note: --max-words 1 overrides the default {embeddings.DEFAULT_MAX_WORDS}\n"
        )

    def test_disjoint_vocabularies_exit_3(self, tmp_path):
        a, b = tmp_path / "a.vec", tmp_path / "b.vec"
        a.write_text("1 2\nuno 1 0\n")
        b.write_text("1 2\ndue 1 0\n")
        code = main(["extract-seed", "--src", str(a), "--tgt", str(b),
                     "--out", str(tmp_path / "seed.tsv")])
        assert code == EXIT_UNTRAINABLE


class TestDeterminism:
    def test_same_seed_bit_identical_outputs(self, corpus, tmp_path):
        def run(workdir):
            workdir.mkdir()
            model = str(workdir / "model.omega")
            analyzer = str(workdir / "analyzer.rules")
            inflector = str(workdir / "inflector.rules")
            prefix = str(workdir / "eval")
            assert main([
                "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
                "--seed-dict", corpus["seed"], "--out", model,
                "--max-epochs", "6", "--seed", "11",
            ]) == EXIT_OK
            assert main([
                "train-morph", "--data", corpus["unimorph_src"],
                "--analyzer-out", analyzer,
            ]) == EXIT_OK
            assert main([
                "train-morph", "--data", corpus["unimorph_tgt"],
                "--inflector-out", inflector,
            ]) == EXIT_OK
            assert main([
                "evaluate", "--model", model, "--src", corpus["src"],
                "--tgt", corpus["tgt"], "--analyzer", analyzer,
                "--inflector", inflector, "--mode", "hybrid",
                "--dict", corpus["eval"], "--out-prefix", prefix,
            ]) == EXIT_OK
            names = ["model.omega", "analyzer.rules", "inflector.rules",
                     "eval.summary.tsv", "eval.bins.tsv", "eval.tags.tsv", "eval.report.json"]
            return {name: (workdir / name).read_bytes() for name in names}

        first = run(tmp_path / "run1")
        second = run(tmp_path / "run2")
        assert first == second


class TestEmptyVecFile:
    """A .vec file with no rows has nothing to preprocess: a data error."""

    @pytest.mark.parametrize("command", ["train-translator", "translate", "evaluate"])
    def test_data_error_without_traceback(self, corpus, trained, tmp_path, command):
        empty = tmp_path / "empty.vec"
        empty.write_text("0 10\n")
        spaces = ["--src", str(empty), "--tgt", corpus["tgt"]]
        pipeline = ["--model", trained["model"], *spaces, "--mode", "direct"]
        argv = {
            "translate": [*pipeline, "--input", corpus["forms"], "--output", str(tmp_path / "p")],
            "evaluate": [*pipeline, "--dict", corpus["eval"], "--out-prefix", str(tmp_path / "r")],
            "train-translator": [*spaces, "--seed-dict", corpus["seed"],
                                 "--out", str(tmp_path / "m"), "--max-epochs", "1"],
        }[command]
        result = run_cli_process(command, *argv)
        assert result.returncode == EXIT_DATA
        assert "Traceback" not in result.stderr
        assert f"error: {empty}: no vectors to preprocess" in result.stderr


@pytest.fixture(scope="module")
def seed_zero_world(tmp_path_factory):
    """The default seed-0 world on disk, with a model trained through the
    CLI on the first 600 of its 960 target rows."""
    root = tmp_path_factory.mktemp("seed0")
    task = build_bilingual_task(seed=0, apply_preprocessing=False)
    paths = {name: str(root / name) for name in ("src.vec", "tgt.vec", "seed.tsv", "eval.tsv",
                                                 "forms.txt", "model.omega")}
    save_vec_file(task.source_space, paths["src.vec"])
    save_vec_file(task.target_space, paths["tgt.vec"])
    pathlib.Path(paths["seed.tsv"]).write_text("".join(f"{s}\t{t}\n" for s, t in task.seed_pairs))
    entries = task.eval_dictionary.entries
    pathlib.Path(paths["eval.tsv"]).write_text("".join(
        f"{entry.source}\t{gold}\n" for entry in entries for gold in sorted(entry.golds)
    ))
    pathlib.Path(paths["forms.txt"]).write_text("".join(f"{e.source}\n" for e in entries))
    assert len(task.target_space) == 960
    code = main([
        "train-translator", "--src", paths["src.vec"], "--tgt", paths["tgt.vec"],
        "--seed-dict", paths["seed.tsv"], "--out", paths["model.omega"], "--max-words", "600",
    ])
    assert code == EXIT_OK
    return paths


class TestModelFitOnFewerTargetRows:
    """A model scores only the target rows it was fit on: applied to more
    rows, a winner past its support would print a made-up joint score of
    0.000000, so the command is a data error naming both counts, and
    writes nothing."""

    @pytest.mark.parametrize("command", ["translate", "evaluate"])
    def test_data_error_naming_both_counts(self, seed_zero_world, tmp_path, capsys, command):
        paths = seed_zero_world
        out = str(tmp_path / "out")
        argv = ["--model", paths["model.omega"], "--src", paths["src.vec"],
                "--tgt", paths["tgt.vec"], "--mode", "direct", "--max-words", "960"]
        argv += {
            "translate": ["--input", paths["forms.txt"], "--output", out],
            "evaluate": ["--dict", paths["eval.tsv"], "--out-prefix", out],
        }[command]
        assert main([command, *argv]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: the model's softmax support of 600 words differs from the 960 rows of "
            "the target space; pass the --max-words it was trained with"
        )
        assert not list(tmp_path.iterdir())

    def test_the_training_max_words_translates(self, seed_zero_world, tmp_path):
        paths = seed_zero_world
        out = tmp_path / "preds.tsv"
        assert main([
            "translate", "--model", paths["model.omega"], "--src", paths["src.vec"],
            "--tgt", paths["tgt.vec"], "--mode", "direct", "--max-words", "600",
            "--input", paths["forms.txt"], "--output", str(out),
        ]) == EXIT_OK
        scores = [line.split("\t")[3] for line in out.read_text().splitlines()]
        assert len(scores) == 210 and "0.000000" not in scores


class TestModelDoesNotFitTheSpaces:
    """An omega whose shape differs from the spaces' dimensions is a data
    error naming both shapes, not a traceback from inside retrieval."""

    @pytest.mark.parametrize("command", ["translate", "evaluate"])
    @pytest.mark.parametrize("shape", [(6, 10), (10, 6)])
    def test_data_error_without_traceback(self, corpus, tmp_path, command, shape):
        model = tmp_path / "model.omega"
        save_model(TranslationModel(np.eye(*shape), len(corpus["task"].target_space)), str(model))
        pipeline = ["--model", str(model), "--src", corpus["src"], "--tgt", corpus["tgt"],
                    "--mode", "direct"]
        argv = {
            "translate": [*pipeline, "--input", corpus["forms"], "--output", str(tmp_path / "p")],
            "evaluate": [*pipeline, "--dict", corpus["eval"], "--out-prefix", str(tmp_path / "r")],
        }[command]
        result = run_cli_process(command, *argv)
        assert result.returncode == EXIT_DATA
        assert "Traceback" not in result.stderr
        assert (f"error: the model's omega is {shape[0]}x{shape[1]} (target x source), "
                "the spaces are 10x10") in result.stderr


class TestZeroQuery:
    """A source vector the model maps to zero has no cosine neighbour: its
    line is <NONE>, and the other lines are translated."""

    def test_one_word_source_space_centres_to_zero(self, corpus, trained, tmp_path):
        with open(corpus["src"], encoding="utf-8") as handle:
            _, dim = handle.readline().split()
            row = handle.readline()
        space = tmp_path / "one.vec"
        space.write_text(f"1 {dim}\n{row}", encoding="utf-8")
        word = row.split(" ")[0]
        forms = tmp_path / "forms.txt"
        forms.write_text(f"{word}\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        code = main([
            "translate", "--model", trained["model"], "--src", str(space),
            "--tgt", corpus["tgt"], "--mode", "direct",
            "--input", str(forms), "--output", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text() == f"{word}\t<NONE>\t-\t-\n"

    def test_one_word_target_space_has_no_neighbour(self, corpus, trained, tmp_path):
        # The only target row centres to zero, so no query has a cosine
        # neighbour and every form is untranslatable in every route.
        with open(corpus["tgt"], encoding="utf-8") as handle:
            _, dim = handle.readline().split()
            row = handle.readline()
        space = tmp_path / "one.vec"
        space.write_text(f"1 {dim}\n{row}", encoding="utf-8")
        model = tmp_path / "eye.omega"
        save_model(TranslationModel(np.eye(corpus["task"].source_space.dim), 1), str(model))
        forms = pathlib.Path(corpus["forms"]).read_text().split()
        for mode in ("base", "hybrid", "direct"):
            out = tmp_path / f"{mode}.tsv"
            code = main([
                "translate", "--model", str(model), "--src", corpus["src"],
                "--tgt", str(space), "--analyzer", trained["analyzer"],
                "--inflector", trained["inflector"], "--mode", mode,
                "--input", corpus["forms"], "--output", str(out),
            ])
            assert code == EXIT_OK, mode
            assert out.read_text() == "".join(f"{form}\t<NONE>\t-\t-\n" for form in forms), mode

    @staticmethod
    def zero_model(corpus, tmp_path):
        """A model file whose omega is finite and all zeros."""
        model = tmp_path / "zero.omega"
        task = corpus["task"]
        dim = task.source_space.dim
        save_model(TranslationModel(np.zeros((dim, dim)), len(task.target_space)), str(model))
        return str(model)

    def test_zero_omega_maps_every_source_to_zero(self, corpus, trained, tmp_path):
        model = self.zero_model(corpus, tmp_path)
        forms = pathlib.Path(corpus["forms"]).read_text().split()
        analyses = corpus["task"].gold_analyses
        oracle_input = tmp_path / "oracle.txt"
        oracle_input.write_text("".join(
            f"{form}\t{analyses[form][0]}\t{analyses[form][1].canonical}\n" for form in forms
        ))
        for mode in ("base", "hybrid", "oracle", "direct"):
            out = tmp_path / f"{mode}.tsv"
            code = main([
                "translate", "--model", model, "--src", corpus["src"],
                "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
                "--inflector", trained["inflector"], "--mode", mode,
                "--input", str(oracle_input if mode == "oracle" else corpus["forms"]),
                "--output", str(out),
            ])
            assert code == EXIT_OK, mode
            assert out.read_text() == "".join(f"{form}\t<NONE>\t-\t-\n" for form in forms), mode

    def test_evaluate_counts_every_entry_untranslatable(self, corpus, trained, tmp_path):
        prefix = tmp_path / "run"
        code = main([
            "evaluate", "--model", self.zero_model(corpus, tmp_path), "--src", corpus["src"],
            "--tgt", corpus["tgt"], "--analyzer", trained["analyzer"],
            "--inflector", trained["inflector"], "--mode", "base",
            "--dict", corpus["eval"], "--out-prefix", str(prefix),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["untranslatable"] == report["all"]["total"] > 0
        assert report["all"]["correct"] == 0


class TestBadSidecar:
    """A .meta.json sidecar beside a .vec file, as the retired
    OOV-composition subcommand left, is a data error naming it, whatever
    it holds."""

    def test_data_error_without_traceback(self, corpus, trained, tmp_path):
        with open(corpus["src"], encoding="utf-8") as handle:
            _, dim = map(int, handle.readline().split())
            first_word = handle.readline().split(" ")[0]
        space = tmp_path / "src.vec"
        space.write_text(pathlib.Path(corpus["src"]).read_text(encoding="utf-8"), encoding="utf-8")
        sidecar = tmp_path / "src.vec.meta.json"
        for meta in (
            {"composed": [], "unit_normalized": False, "center": None},
            {"composed": [first_word], "unit_normalized": True, "center": [0.5] * dim},
        ):
            sidecar.write_text(json.dumps(meta), encoding="utf-8")
            result = run_cli_process(
                "translate", "--model", trained["model"], "--src", str(space),
                "--tgt", corpus["tgt"], "--mode", "direct",
                "--input", corpus["forms"], "--output", str(tmp_path / "p"),
            )
            assert result.returncode == EXIT_DATA
            assert "Traceback" not in result.stderr
            assert f"error: {sidecar}: spaces with stored composed rows are no longer read; " \
                "translate with --ngrams on the raw space instead" in result.stderr


class TestSubcommands:
    README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

    def test_readme_walkthrough_names_exactly_the_parsers_subcommands(self):
        text = self.README.read_text(encoding="utf-8")
        walkthrough = text.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"\bmorphlex ([a-z][a-z-]*)", walkthrough))
        (subparsers,) = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert documented == set(subparsers.choices)

    def test_retired_compose_oov_is_a_usage_error(self, tmp_path):
        result = run_cli_process("compose-oov", "--space", str(tmp_path / "s.vec"),
                                 "--ngrams", str(tmp_path / "t.ngrams"),
                                 "--forms", str(tmp_path / "f.txt"), "--out", str(tmp_path / "o.vec"))
        assert result.returncode == EXIT_USAGE
        assert "Traceback" not in result.stderr
        assert "invalid choice: 'compose-oov'" in result.stderr
        assert not list(tmp_path.iterdir())


class TestBadFlagValues:
    """Out-of-range flag values end at parse time, in a usage error."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("translate", "--max-words", "0"),
            ("translate", "--max-words", "-5"),
            ("evaluate", "--bin-width", "0"),
            ("evaluate", "--num-bins", "-1"),
            ("evaluate", "--min-tag-count", "-1"),
            ("train-translator", "--batch-size", "0"),
            ("train-translator", "--dev-fraction", "1.5"),
            ("train-translator", "--alpha", "nan"),
            ("train-translator", "--learning-rate", "nan"),
            ("train-translator", "--min-learning-rate", "inf"),
            ("train-translator", "--seed", "-1"),
        ],
    )
    def test_usage_error_without_traceback(self, corpus, trained, tmp_path, command, flag, value):
        spaces = ["--src", corpus["src"], "--tgt", corpus["tgt"]]
        pipeline = ["--model", trained["model"], *spaces, "--mode", "direct"]
        argv = {
            "translate": [*pipeline, "--input", corpus["forms"], "--output", str(tmp_path / "p")],
            "evaluate": [*pipeline, "--dict", corpus["eval"], "--out-prefix", str(tmp_path / "r")],
            "train-translator": [*spaces, "--seed-dict", corpus["seed"],
                                 "--out", str(tmp_path / "m"), "--max-epochs", "1"],
        }[command]
        result = run_cli_process(command, *argv, flag, value)
        assert result.returncode == EXIT_USAGE
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("usage: morphlex " + command)
        assert f"error: argument {flag}:" in result.stderr
        assert not list(tmp_path.iterdir())


def command_argv(command, corpus, trained, out):
    """The arguments of ``command`` on the corpus, writing to ``out``."""
    spaces = ["--src", corpus["src"], "--tgt", corpus["tgt"]]
    pipeline = ["--model", trained["model"], *spaces, "--mode", "direct"]
    return {
        "translate": [*pipeline, "--input", corpus["forms"], "--output", out],
        "evaluate": [*pipeline, "--dict", corpus["eval"], "--out-prefix", out],
        "train-translator": [*spaces, "--seed-dict", corpus["seed"], "--out", out,
                             "--max-epochs", "1"],
        "extract-seed": [*spaces, "--out", out],
        "train-morph": ["--data", corpus["unimorph_src"], "--analyzer-out", out],
    }[command]


def first_output(command, out):
    """The file ``command`` writes first to ``out``, its output argument."""
    return f"{out}.summary.tsv" if command == "evaluate" else out


# The outputs each command declares, in order, when ``written_argv`` runs it
# in a directory: ``out`` is its output argument, and ``i.rules`` is
# train-morph's second output.
DECLARED = {
    "train-translator": ["out"],
    "train-morph": ["out", "i.rules"],
    "translate": ["out"],
    "evaluate": ["out.summary.tsv", "out.bins.tsv", "out.tags.tsv", "out.report.json"],
    "extract-seed": ["out"],
}

# The flags of the files each command reads.
PIPELINE_INPUTS = ["--model", "--src", "--tgt", "--analyzer", "--inflector", "--ngrams"]
INPUT_FLAGS = {
    "train-translator": ["--src", "--tgt", "--seed-dict"],
    "train-morph": ["--data", "--exclude", "--dev"],
    "translate": [*PIPELINE_INPUTS, "--input"],
    "evaluate": [*PIPELINE_INPUTS, "--dict", "--oracle-analyses"],
    "extract-seed": ["--src", "--tgt"],
}

# Every path a command writes there: its declared outputs, then their manifests.
WRITTEN = {
    command: [*names, *(f"{name}.manifest.json" for name in names)]
    for command, names in DECLARED.items()
}


def written_argv(command, corpus, trained, directory):
    """The arguments that make ``command`` succeed writing ``DECLARED[command]``
    into ``directory``."""
    argv = command_argv(command, corpus, trained, str(directory / "out"))
    if command == "train-morph":
        argv += ["--inflector-out", str(directory / "i.rules")]
    if command == "extract-seed":  # the corpus spaces share no string
        argv[argv.index("--tgt") + 1] = corpus["src"]
    return argv


@pytest.fixture
def refuse_inputs(monkeypatch):
    """Reading a space, a model or UniMorph triples fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("load_space", "load_spaces", "load_model", "read_unimorph"):
        monkeypatch.setattr(cli, name, refuse)


class TestOutputDirectoryChecked:
    """An output that cannot be opened for writing, because its directory
    is missing or is a regular file or because it is a directory itself,
    is a data error raised before any input is read, not after training
    or loading. Every declared output is checked, ``evaluate``'s four
    reports among them, and so is each output's manifest."""

    @pytest.mark.parametrize(
        "command, name", [(command, name) for command, names in WRITTEN.items() for name in names]
    )
    def test_each_written_path_is_checked_before_loading(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, command, name
    ):
        blocked = tmp_path / name
        blocked.mkdir()
        assert main([command, *written_argv(command, corpus, trained, tmp_path)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 21] Is a directory: {str(blocked)!r}"
        )
        assert list(tmp_path.iterdir()) == [blocked]
        assert not list(blocked.iterdir())

    @pytest.mark.parametrize(
        "command", ["train-translator", "train-morph", "translate", "evaluate", "extract-seed"]
    )
    def test_missing_directory_fails_before_loading(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, command
    ):
        out = str(tmp_path / "missing" / "out")
        assert main([command, *command_argv(command, corpus, trained, out)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 2] No such file or directory: {first_output(command, out)!r}"
        )

    @pytest.mark.parametrize(
        "command", ["train-translator", "train-morph", "translate", "evaluate", "extract-seed"]
    )
    def test_directory_that_is_a_file_fails_before_loading(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, command
    ):
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        assert main([command, *command_argv(command, corpus, trained, out)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 20] Not a directory: {first_output(command, out)!r}"
        )

    @pytest.mark.parametrize("command", ["train-translator", "train-morph", "translate", "extract-seed"])
    def test_output_that_is_a_directory_fails_before_loading(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, command
    ):
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, *command_argv(command, corpus, trained, str(out))]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 21] Is a directory: {str(out)!r}"
        )
        assert not list(out.iterdir())

    def test_train_morph_checks_its_second_output_before_writing_the_first(
        self, corpus, trained, tmp_path, capsys, refuse_inputs
    ):
        inflector = tmp_path / "i.rules"
        inflector.mkdir()
        argv = [*command_argv("train-morph", corpus, trained, str(tmp_path / "a.rules")),
                "--inflector-out", str(inflector)]
        assert main(["train-morph", *argv]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 21] Is a directory: {str(inflector)!r}"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["i.rules"]
        assert not list(inflector.iterdir())

    @pytest.mark.parametrize("code", [errno.ENAMETOOLONG, errno.ELOOP])
    def test_unusable_name_is_a_data_error_without_traceback(self, corpus, tmp_path, code):
        if code == errno.ELOOP:
            out = tmp_path / "loop"
            out.symlink_to("loop")
        else:
            out = tmp_path / ("x" * 300)
        result = run_cli_process("train-morph", "--data", corpus["unimorph_src"],
                                 "--analyzer-out", str(out))
        assert result.returncode == EXIT_DATA
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines()[-1] == (
            f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}"
        )

    @pytest.mark.parametrize(
        "command", ["train-translator", "train-morph", "translate", "evaluate", "extract-seed"]
    )
    def test_dangling_link_into_a_missing_directory_fails_before_loading(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, command
    ):
        # The link's own directory exists; the one it points into does not.
        out = str(tmp_path / "out")
        link = first_output(command, out)
        os.symlink(tmp_path / "missing" / "x", link)
        assert main([command, *command_argv(command, corpus, trained, out)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 2] No such file or directory: {link!r}"
        )

    def test_dangling_link_is_named_before_a_missing_model(self, corpus, trained, tmp_path):
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "missing" / "preds.tsv")
        argv = command_argv("translate", corpus, {**trained, "model": str(tmp_path / "no")},
                            str(out))
        result = run_cli_process("translate", *argv)
        assert result.returncode == EXIT_DATA
        assert result.stderr == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_translate_closes_its_input_when_its_output_fails_to_open(
        self, corpus, trained, tmp_path, capsys, monkeypatch
    ):
        # An output that passes the check but cannot be opened: the check
        # is switched off, so a dangling link into a missing directory gets
        # as far as open. An input left open fails the test through the
        # ResourceWarning filter in pyproject.toml or the descriptor guard
        # in conftest.py.
        monkeypatch.setattr(cli, "_require_output_path", lambda path: None)
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "missing" / "preds.tsv")
        argv = command_argv("translate", corpus, trained, str(out))
        assert main(["translate", *argv]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}"
        )

    def test_evaluate_prefix_that_is_a_directory_writes_beside_it(self, corpus, trained, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["evaluate", *command_argv("evaluate", corpus, trained, str(out))]) == EXIT_OK
        assert (tmp_path / "run.summary.tsv").exists()
        assert not list(out.iterdir())

    def test_summary_that_is_a_directory_fails_before_loading(
        self, corpus, trained, tmp_path, capsys, refuse_inputs
    ):
        (tmp_path / "run.summary.tsv").mkdir()
        out = str(tmp_path / "run")
        assert main(["evaluate", *command_argv("evaluate", corpus, trained, out)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 21] Is a directory: {out + '.summary.tsv'!r}"
        )


class TestOneFileNamedTwice:
    """An output or manifest that is one of the command's input files, and
    two paths a command writes that name one file, are a usage error before
    any file is opened."""

    @pytest.mark.parametrize("spelling", ["same", "symlink", "hardlink"])
    def test_translate_output_that_is_its_input(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, spelling
    ):
        forms = tmp_path / "forms.txt"
        forms.write_bytes(pathlib.Path(corpus["forms"]).read_bytes())
        output = forms if spelling == "same" else tmp_path / spelling
        if spelling == "symlink":
            output.symlink_to(forms)
        elif spelling == "hardlink":
            os.link(forms, output)
        listing = sorted(tmp_path.iterdir())
        argv = command_argv("translate", corpus, trained, str(output))
        argv[argv.index(corpus["forms"])] = str(forms)
        assert main(["translate", *argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: output {str(output)!r} is the --input file\n"
        assert forms.read_bytes() == pathlib.Path(corpus["forms"]).read_bytes()
        assert sorted(tmp_path.iterdir()) == listing

    @pytest.mark.parametrize("written", ["output", "manifest"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in INPUT_FLAGS.items() for flag in flags
    ])
    def test_output_that_is_an_input(
        self, corpus, trained, tmp_path, capsys, refuse_inputs, command, flag, written
    ):
        out = str(tmp_path / "out")
        path = first_output(command, out) + (".manifest.json" if written == "manifest" else "")
        source = pathlib.Path(corpus["src"]).read_bytes()
        pathlib.Path(path).write_bytes(source)
        argv = command_argv(command, corpus, trained, out)
        if flag in argv:
            argv[argv.index(flag) + 1] = path
        else:
            argv += [flag, path]
        assert main([command, *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: output {path!r} is the {flag} file"
        assert pathlib.Path(path).read_bytes() == source
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]

    @pytest.mark.parametrize("inflector", ["x.rules", "x.rules.manifest.json"])
    def test_two_outputs_that_name_one_file(
        self, corpus, tmp_path, capsys, refuse_inputs, inflector
    ):
        analyzer, inflector = str(tmp_path / "x.rules"), str(tmp_path / inflector)
        assert main(["train-morph", "--data", corpus["unimorph_src"],
                     "--analyzer-out", analyzer, "--inflector-out", inflector]) == EXIT_USAGE
        # The inflector table is the analyzer table, or the analyzer's manifest.
        assert capsys.readouterr().err == (
            f"error: two outputs name one file: {inflector!r} and {inflector!r}\n"
        )
        assert not list(tmp_path.iterdir())


class TestManifests:
    """A command that succeeds writes the outputs it declares, one manifest
    beside each, and nothing else: a sidecar fails here."""

    @pytest.mark.parametrize(
        "command, manifests",
        [("train-translator", ["out"]), ("translate", ["out"]),
         ("evaluate", ["out.bins.tsv", "out.report.json", "out.summary.tsv", "out.tags.tsv"]),
         ("extract-seed", ["out"]), ("train-morph", ["i.rules", "out"])],
    )
    def test_one_manifest_per_declared_output(self, corpus, trained, tmp_path, command, manifests):
        argv = written_argv(command, corpus, trained, tmp_path)
        args = cli.build_parser().parse_args([command, *argv])
        assert args.outputs(args) == [str(tmp_path / name) for name in DECLARED[command]]
        assert main([command, *argv]) == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(WRITTEN[command])
        results = {"dropped_pairs": 0} if command == "train-translator" else None
        for name in manifests:
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert (manifest["command"], manifest["results"]) == (command, results)


    def test_records_the_blas_build_and_thread_variables(
        self, corpus, tmp_path, monkeypatch
    ):
        # Model bytes depend on the BLAS build and thread count, so the
        # manifest records both; the package pins no thread count itself.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        out = tmp_path / "m.omega"
        assert main([
            "train-translator", "--src", corpus["src"], "--tgt", corpus["tgt"],
            "--seed-dict", corpus["seed"], "--out", str(out), "--max-epochs", "1",
        ]) == EXIT_OK
        manifest = json.loads((tmp_path / "m.omega.manifest.json").read_text())
        assert manifest["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3",
        }
        blas = manifest["versions"]["blas"]
        assert blas is None or set(blas) == {"name", "version"}
        if "Build Dependencies" in np.show_config(mode="dicts"):
            assert blas["name"] and blas["version"]


class TestInputUnderAFile:
    """An input path under a regular file is a data error naming the path."""

    @pytest.mark.parametrize(
        "command, flag",
        [("extract-seed", "--src"), ("extract-seed", "--tgt"), ("translate", "--model"),
         ("evaluate", "--dict"), ("train-translator", "--seed-dict")],
    )
    def test_is_a_data_error_without_traceback(self, corpus, trained, tmp_path, capsys, command, flag):
        argv = command_argv(command, corpus, trained, str(tmp_path / "out"))
        bad = str(pathlib.Path(corpus["src"]) / "under-a-file")
        argv[argv.index(flag) + 1] = bad
        assert main([command, *argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"error: [Errno 20] Not a directory: {bad!r}"


class TestForkedLoad:
    """Above the load floor the target parses in a forked child; the CLI
    sees the serial spaces and errors."""

    @pytest.fixture(autouse=True)
    def no_floor(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_FORK_MIN_VALUES", 0)

    def test_outputs_match_the_serial_load(self, corpus, trained, tmp_path, monkeypatch):
        def run(name):
            prefix = str(tmp_path / name)
            assert main(["evaluate", *command_argv("evaluate", corpus, trained, prefix)]) == EXIT_OK
            return (tmp_path / f"{name}.report.json").read_bytes()

        forked = run("forked")
        monkeypatch.setattr(embeddings, "_FORK_MIN_VALUES", 10**12)
        assert forked == run("serial")

    @pytest.mark.parametrize("command", ["train-translator", "translate", "evaluate", "extract-seed"])
    def test_bad_target_is_a_data_error(self, corpus, trained, tmp_path, capsys, command):
        lines = pathlib.Path(corpus["tgt"]).read_text(encoding="utf-8").splitlines()
        words = lines[3].split(" ")
        lines[3] = " ".join([words[0], "nan", *words[2:]])
        tgt = tmp_path / "tgt.vec"
        tgt.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = command_argv(command, corpus, trained, str(tmp_path / "out"))
        argv[argv.index(corpus["tgt"])] = str(tgt)
        assert main([command, *argv]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {tgt}: line 4: non-finite value in the vector of {words[0]!r}"
        )

    @pytest.mark.parametrize("command", ["train-translator", "translate", "evaluate", "extract-seed"])
    def test_failed_fork_loads_in_process(
        self, corpus, trained, tmp_path, monkeypatch, caplog, command
    ):
        def fail():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fail)
        argv = command_argv(command, corpus, trained, str(tmp_path / "out"))
        tgt = corpus["tgt"]
        if command == "extract-seed":  # the corpus's two languages share no word
            argv[argv.index(tgt)] = corpus["src"]
            tgt = corpus["src"]
        with caplog.at_level(logging.WARNING, logger="morphlex.embeddings"):
            assert main([command, *argv]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if r.name == "morphlex.embeddings"] == [
            f"{tgt}: cannot load in a forked child ([Errno 11] Resource temporarily "
            "unavailable), loading it in-process"
        ]

    def test_verbose_logs_each_load_and_leaves_output_unchanged(
        self, corpus, trained, tmp_path, caplog
    ):
        def run(name, *verbose):
            prefix = str(tmp_path / name)
            argv = command_argv("evaluate", corpus, trained, prefix)
            assert main([*verbose, "evaluate", *argv]) == EXIT_OK
            return (tmp_path / f"{name}.report.json").read_bytes()

        quiet = run("quiet")
        with caplog.at_level(logging.INFO):
            loud = run("loud", "--verbose")
        assert loud == quiet
        lines = [r.getMessage() for r in caplog.records if r.name == "morphlex.embeddings"]
        assert [line.split(": ")[0] for line in lines] == [corpus["src"], corpus["tgt"]]
        assert lines[0].endswith(", in-process")
        assert lines[1].endswith(", in a forked child")


def write_undecodable(path, header, body):
    """``header`` lines, then ``body`` lines repeated past 12 KB, with byte
    0xff opening the first body line that starts past the text decoder's
    first 8 KB chunk. Returns that line's number."""
    lines = [line.encode() for line in header]
    while sum(map(len, lines)) <= 12 * 1024:
        lines += [line.encode() for line in body]
    offsets = itertools.accumulate(map(len, lines), initial=0)
    bad = next(i for i, offset in enumerate(offsets) if i >= len(header) and offset > 8192)
    lines[bad] = b"\xff" + lines[bad]
    path.write_bytes(b"".join(lines))
    return bad + 1


def file_lines(path):
    return pathlib.Path(path).read_text(encoding="utf-8").splitlines(keepends=True)


class TestUndecodableInput:
    """A file that is not UTF-8 is a data error naming the file and its
    first line that does not decode, whichever reader meets it."""

    @pytest.mark.parametrize(
        "case", ["seed", "eval", "unimorph", "vec", "ngrams", "model", "rules", "input"]
    )
    def test_names_the_file_and_line(self, corpus, trained, tmp_path, capsys, case):
        bad = tmp_path / f"bad.{case}"
        spaces = ["--src", corpus["src"], "--tgt", corpus["tgt"]]
        pipeline = ["--model", trained["model"], *spaces, "--mode", "direct"]
        translate = ["translate", *pipeline, "--input", corpus["forms"],
                     "--output", str(tmp_path / "out")]
        if case == "seed":
            lineno = write_undecodable(bad, [], file_lines(corpus["seed"]))
            argv = ["train-translator", *spaces, "--seed-dict", str(bad),
                    "--out", str(tmp_path / "out")]
        elif case == "eval":
            lineno = write_undecodable(bad, [], file_lines(corpus["eval"]))
            argv = ["evaluate", *pipeline, "--dict", str(bad), "--out-prefix", str(tmp_path / "r")]
        elif case == "unimorph":
            lineno = write_undecodable(bad, [], file_lines(corpus["unimorph_src"]))
            argv = ["train-morph", "--data", str(bad), "--analyzer-out", str(tmp_path / "out")]
        elif case == "vec":
            header, *rows = file_lines(corpus["src"])
            lineno = write_undecodable(bad, [header], rows)
            argv = ["extract-seed", "--src", str(bad), "--tgt", corpus["tgt"],
                    "--out", str(tmp_path / "out")]
        elif case == "ngrams":
            words = corpus["task"].source_space.words
            grams = sorted({g for word in words for g in ngrams(word)})
            rows = [f"{g} " + " ".join(["0.5"] * 10) + "\n" for g in grams]
            lineno = write_undecodable(bad, [], rows)
            argv = [*translate, "--ngrams", str(bad)]
        elif case == "model":
            rows = [" ".join([repr(0.1 + i)] * 10) + "\n" for i in range(100)]
            lineno = write_undecodable(bad, ["MORPHLEX-OMEGA v1 100 10 240\n"], rows)
            argv = translate
            argv[argv.index(trained["model"])] = str(bad)
        elif case == "rules":
            header, *rows = file_lines(trained["analyzer"])
            lineno = write_undecodable(bad, [header], rows)
            argv = [*translate, "--analyzer", str(bad), "--inflector", trained["inflector"],
                    "--mode", "base"]
        else:
            lineno = write_undecodable(bad, [], file_lines(corpus["forms"]))
            argv = translate
            argv[argv.index(corpus["forms"])] = str(bad)
        assert lineno > 1
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"error: {bad}: line {lineno}: not UTF-8"

    def test_fifo_is_named_without_a_line(self, corpus, trained, tmp_path, capsys):
        # A FIFO cannot be read a second time to find the line.
        data = tmp_path / "bad.txt"
        write_undecodable(data, [], file_lines(corpus["forms"]))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(data.read_bytes()), daemon=True)
        writer.start()
        argv = command_argv("translate", corpus, trained, str(tmp_path / "out"))
        argv[argv.index(corpus["forms"])] = str(fifo)
        try:
            assert main(["translate", *argv]) == EXIT_DATA
        finally:
            writer.join(timeout=60)
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {fifo}: not UTF-8"

    def test_standard_input_is_named_stdin(self, corpus, trained):
        forms = pathlib.Path(corpus["forms"]).read_bytes()
        argv = command_argv("translate", corpus, trained, "-")
        argv[argv.index(corpus["forms"])] = "-"
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "LC_ALL": "C"}
        result = subprocess.run(
            [sys.executable, "-m", "morphlex.cli", "translate", *argv],
            input=forms * 400 + b"ab\xffc\n", capture_output=True, env=env, timeout=120,
        )
        assert result.returncode == EXIT_DATA
        assert result.stderr.decode() == "error: <stdin>: not UTF-8\n"


def translate_process(corpus, trained, tmp_path, output):
    """A child ``translate`` of 30,000 input lines, far more output than a
    pipe buffers, writing to ``output``, its stdout and stderr piped."""
    forms = pathlib.Path(corpus["forms"]).read_text().split()
    lines = tmp_path / "many-forms.txt"
    lines.write_text("".join(f"{form}\n" for form in forms) * 10_000)
    argv = command_argv("translate", corpus, trained, output)
    argv[argv.index(corpus["forms"])] = str(lines)
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    return subprocess.Popen(
        [sys.executable, "-m", "morphlex.cli", "translate", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


class TestClosedPipe:
    def test_closed_stdout_ends_quietly(self, corpus, trained, tmp_path):
        # As `morphlex translate ... | head -1` closes the pipe.
        with translate_process(corpus, trained, tmp_path, "-") as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=120) == EXIT_OK
        assert first.split("\t")[0] == pathlib.Path(corpus["forms"]).read_text().split()[0]
        assert err == ""

    def test_closed_output_fifo_is_a_data_error(self, corpus, trained, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with translate_process(corpus, trained, tmp_path, str(fifo)) as child:
            # Opening without blocking lets a child that fails early be seen.
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            try:
                assert select.select([reader], [], [], 120)[0]
                assert os.read(reader, 1)
            finally:
                os.close(reader)
            out, err = child.communicate(timeout=120)
        assert child.returncode == EXIT_DATA
        assert out == "" and err == f"error: [Errno 32] Broken pipe: {str(fifo)!r}\n"
