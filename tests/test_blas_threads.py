"""Training and evaluation at one and two BLAS threads.

Model bytes are identical only under one BLAS thread count: another count
may sum training's products in another order. So the models must agree to
rounding, and the reports, whose decisions do not turn on the last bits,
must be byte-identical. The world is the smallest tried whose products
OpenBLAS threads: at 120 lexemes and dim 48 the two models were
byte-identical. No child starts more than two threads.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from morphlex.embeddings import save_vec_file
from morphlex.evaluation import report_paths
from morphlex.synthetic import build_bilingual_task
from morphlex.translator import load_model

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("threads")
    task = build_bilingual_task(seed=1, n_lexemes=250, dim=64, apply_preprocessing=False)
    save_vec_file(task.source_space, str(root / "src.vec"))
    save_vec_file(task.target_space, str(root / "tgt.vec"))
    (root / "seed.tsv").write_text("".join(f"{s}\t{t}\n" for s, t in task.seed_pairs))
    (root / "eval.tsv").write_text("".join(
        f"{entry.source}\t{gold}\t{entry.tag.canonical}\n"
        for entry in task.eval_dictionary.entries for gold in sorted(entry.golds)
    ))
    return root


def run_at(threads: int, *argv: str) -> None:
    """``python -m morphlex.cli`` in a child at ``threads`` BLAS threads."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR, **{name: str(threads) for name in THREAD_VARIABLES}}
    subprocess.run([sys.executable, "-m", "morphlex.cli", *argv],
                   env=env, capture_output=True, check=True, timeout=120)


def test_models_agree_and_reports_match_across_thread_counts(world):
    spaces = ["--src", str(world / "src.vec"), "--tgt", str(world / "tgt.vec")]
    for threads in (1, 2):
        run_at(threads, "train-translator", *spaces, "--seed-dict", str(world / "seed.tsv"),
               "--out", str(world / f"m{threads}.omega"), "--max-epochs", "2", "--seed", "1")
        run_at(threads, "evaluate", "--model", str(world / "m1.omega"), *spaces,
               "--mode", "direct", "--dict", str(world / "eval.tsv"),
               "--out-prefix", str(world / f"r{threads}"))
    one, two = (load_model(str(world / f"m{threads}.omega")).omega for threads in (1, 2))
    np.testing.assert_allclose(two, one, rtol=0, atol=1e-12)
    reports = (report_paths(str(world / f"r{threads}")).values() for threads in (1, 2))
    for at_one, at_two in zip(*reports):
        assert pathlib.Path(at_one).read_bytes() == pathlib.Path(at_two).read_bytes(), at_one
