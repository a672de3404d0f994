"""Acceptance suite: one test per release criterion, pinned tolerances.

Each criterion prints its own [PASS]/[FAIL] line (run with -s or -v to
see them on success) and then asserts, so a red line always fails the
suite. Runtime budgets are asserted where the criterion carries one.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex.baseline import procrustes_fit
from morphlex.cli import EXIT_OK, main
from morphlex.embeddings import EmbeddingSpace, save_vec_file
from morphlex.evaluation import precision_at_1
from morphlex.morph import (
    MorphTag,
    analyze,
    analyzer_accuracy,
    inflector_accuracy,
    learn_analyzer,
    learn_inflector,
    tag_translate,
)
from morphlex.pipeline import JointConfig, translate_many
from morphlex.synthetic import build_bilingual_task, make_language, split_lexemes
from morphlex.translator import (
    TrainConfig,
    TranslationModel,
    log_prob,
    loss_and_gradient,
    retrieve,
    seed_rows,
    train,
)


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def test_criterion_1_softmax_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    dim = 8
    space = EmbeddingSpace(tuple(f"t{i}" for i in range(50)), rng.normal(size=(50, dim)))
    ok = True
    worst_sum = 0.0
    worst_diff = 0.0
    for _ in range(100):
        model = TranslationModel(rng.normal(size=(dim, dim)), 50)
        source = rng.normal(size=dim)
        log_probs = [log_prob(model, space, w, source) for w in space.words]
        total = sum(math.exp(lp) for lp in log_probs)
        worst_sum = max(worst_sum, abs(total - 1.0))
        # Oracle: direct summation of exponentials, no max subtraction.
        scores = [float(v @ model.omega @ source) for v in space.vectors]
        normalizer = math.log(sum(math.exp(s) for s in scores))
        for lp, score in zip(log_probs, scores):
            worst_diff = max(worst_diff, abs(lp - (score - normalizer)))
    elapsed = time.perf_counter() - started
    ok = worst_sum <= 1e-6 and worst_diff <= 1e-9 and elapsed < 1.0
    report(
        1,
        "softmax normalization and brute-force normalizer agreement",
        ok,
        f"max |sum-1| {worst_sum:.2e}, max log-prob diff {worst_diff:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    step = 1e-5
    worst = 0.0
    alphas = [0.0, 1.0, 10.0]
    for trial in range(20):
        alpha = alphas[trial % 3]
        source_space = EmbeddingSpace(
            tuple(f"s{i}" for i in range(6)), rng.normal(size=(6, 4))
        )
        target_space = EmbeddingSpace(
            tuple(f"t{i}" for i in range(7)), rng.normal(size=(7, 4))
        )
        omega = rng.normal(size=(4, 4))
        config = TrainConfig(alpha=alpha, batch_size=3)
        batch = [
            (f"s{rng.integers(6)}", f"t{rng.integers(7)}") for _ in range(3)
        ]

        def loss_of(matrix):
            model = TranslationModel(matrix, 7)
            return loss_and_gradient(model, batch, source_space, target_space, config)[0]

        _, analytic = loss_and_gradient(
            TranslationModel(omega, 7), batch, source_space, target_space, config
        )
        numeric = np.zeros_like(omega)
        for i in range(4):
            for j in range(4):
                up, down = omega.copy(), omega.copy()
                up[i, j] += step
                down[i, j] -= step
                numeric[i, j] = (loss_of(up) - loss_of(down)) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 5.0
    report(2, "analytic gradient vs central finite differences", ok,
           f"max relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_procrustes_exact_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    dim, n_words, n_seed = 20, 500, 100
    source = EmbeddingSpace(
        tuple(f"s{i}" for i in range(n_words)), rng.normal(size=(n_words, dim))
    )
    q = random_orthogonal(rng, dim)
    target = EmbeddingSpace(
        tuple(f"t{i}" for i in range(n_words)), source.vectors @ q.T
    )
    pairs = [(f"s{i}", f"t{i}") for i in range(n_seed)]
    model = procrustes_fit(pairs, source, target)
    deviation = float(np.linalg.norm(model.omega - q, "fro"))
    winners, _ = retrieve(model, source.vectors[n_seed:], target)
    hits = sum(
        target.words[winner] == f"t{i}" for i, winner in zip(range(n_seed, n_words), winners)
    )
    precision = hits / (n_words - n_seed)
    elapsed = time.perf_counter() - started
    ok = precision == 1.0 and deviation < 1e-6 and elapsed < 5.0
    report(3, "procrustes exact recovery of a known rotation", ok,
           f"held-out P@1 {precision:.3f}, ||omega-Q||_F {deviation:.2e}, {elapsed:.2f}s")


def test_criterion_4_orthogonality_effect():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    dim, n_words = 8, 60
    source = EmbeddingSpace(
        tuple(f"s{i}" for i in range(n_words)), rng.normal(size=(n_words, dim))
    )
    q = random_orthogonal(rng, dim)
    noisy_rows = source.vectors @ q.T + 0.4 * rng.normal(size=(n_words, dim))
    target = EmbeddingSpace(tuple(f"t{i}" for i in range(n_words)), noisy_rows)
    pairs = [(f"s{i}", f"t{i}") for i in range(n_words)]

    def final_deviation(alpha: float) -> float:
        config = TrainConfig(alpha=alpha, max_epochs=25, seed=13)
        model = train(seed_rows(pairs, source, target), target, config).model
        gram = model.omega.T @ model.omega - np.eye(dim)
        return float(np.linalg.norm(gram, "fro"))

    regularized = final_deviation(10.0)
    unregularized = final_deviation(0.0)
    elapsed = time.perf_counter() - started
    ok = regularized < unregularized and elapsed < 30.0
    report(4, "alpha=10 run ends closer to the orthogonal manifold than alpha=0", ok,
           f"{regularized:.4f} < {unregularized:.4f}, {elapsed:.2f}s")


def test_criterion_5_transducer_calibration():
    # Pure suffix grammar: under longest-match decoding a single
    # suppletive lemma can shadow a frequent short rule for every lemma
    # sharing its ending, so suppletion is exercised in the unit tests
    # instead of this calibration.
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    language = make_language("cal", rng, 200)
    train_lex, heldout_lex = split_lexemes(rng, 200, train_fraction=0.8)
    inflector = learn_inflector(language.entries(train_lex))
    analyzer = learn_analyzer(language.entries(train_lex))
    heldout = language.entries(heldout_lex)
    inflection = inflector_accuracy(inflector, heldout)
    analysis = analyzer_accuracy(analyzer, heldout)
    elapsed = time.perf_counter() - started
    ok = inflection >= 0.95 and analysis >= 0.90 and elapsed < 10.0
    report(5, "held-out transducer calibration on a synthetic suffix grammar", ok,
           f"inflection {inflection:.3f} >= 0.95, analysis {analysis:.3f} >= 0.90, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def bilingual_world():
    task = build_bilingual_task(seed=0)
    analyzer = learn_analyzer(task.source_unimorph)
    inflector = learn_inflector(task.target_unimorph)
    result = train(
        seed_rows(task.seed_pairs, task.source_space, task.target_space),
        task.target_space,
        TrainConfig(alpha=10.0, max_epochs=30, seed=0),
    )
    config = JointConfig(
        "base", result.model, task.source_space, task.target_space, analyzer, inflector
    )
    return task, config


def test_criterion_6_joint_beats_direct_on_rare_forms(bilingual_world):
    started = time.perf_counter()
    task, config = bilingual_world
    proc = procrustes_fit(task.seed_pairs, task.source_space, task.target_space)
    forms = [entry.source for entry in task.eval_dictionary.entries]
    golds = [task.gold_analyses[form] for form in forms]
    base_slots = translate_many(config, forms)
    oracle_slots = translate_many(replace(config, mode="oracle"), forms, golds)
    procrustes_slots = translate_many(replace(config, mode="direct", model=proc), forms)

    base = precision_at_1(base_slots, task.eval_dictionary, task.source_space).all.accuracy
    oracle = precision_at_1(oracle_slots, task.eval_dictionary, task.source_space).all.accuracy
    direct = precision_at_1(procrustes_slots, task.eval_dictionary, task.source_space).all.accuracy
    elapsed = time.perf_counter() - started
    ok = (base - direct) >= 0.20 and oracle >= base and elapsed < 120.0
    report(6, "joint model beats the direct baseline on rare held-out forms", ok,
           f"base {base:.3f} vs procrustes {direct:.3f} (gap {base - direct:+.3f}), "
           f"oracle {oracle:.3f} >= base, {elapsed:.1f}s")


def test_criterion_7_hybrid_routing_exactness(bilingual_world):
    task, config = bilingual_world
    base_config = config
    direct_config = replace(config, mode="direct")
    hybrid_config = replace(config, mode="hybrid")
    mismatches = 0
    for form in task.source_space.words:
        hybrid = translate_many(hybrid_config, [form])[0]
        analysis = None
        try:
            analysis = analyze(config.analyzer, form)
        except Exception:
            analysis = None
        lemma_rank = (
            task.source_space.index_or_none(analysis.lemma) if analysis else None
        )
        form_rank = task.source_space.index(form)
        if analysis is not None and lemma_rank is not None and lemma_rank < form_rank:
            expected = translate_many(base_config, [form])[0]
        else:
            expected = translate_many(direct_config, [form])[0]
        if hybrid != expected:
            mismatches += 1
    report(7, "hybrid routing partition is exact over the full vocabulary",
           mismatches == 0, f"{mismatches} mismatches in {len(task.source_space)} forms")


def test_criterion_8_frequency_bin_bookkeeping(bilingual_world):
    task, config = bilingual_world
    base_slots = translate_many(config, [entry.source for entry in task.eval_dictionary.entries])

    width, nbins = 60, 8
    report_obj = precision_at_1(
        base_slots, task.eval_dictionary, task.source_space,
        bin_width=width, num_bins=nbins,
    )
    # Oracle: brute-force histogram over the same outcomes.
    expected: dict[str, list[int]] = {}
    for entry, slot in zip(task.eval_dictionary.entries, base_slots):
        rank = task.source_space.index(entry.source)
        bucket = rank // width
        label = f"{bucket * width}-{(bucket + 1) * width}" if bucket < nbins else f"{nbins * width}+"
        cell = expected.setdefault(label, [0, 0])
        cell[1] += 1
        cell[0] += slot.form in entry.golds
    got = {b.label: [b.correct, b.total] for b in report_obj.bins}
    counts_match = got == expected
    weighted = sum(b.accuracy * b.total for b in report_obj.bins)
    mean_matches = abs(weighted / report_obj.all.total - report_obj.all.accuracy) <= 1e-12
    report(8, "per-bin counts match a brute-force histogram and recompose the total",
           counts_match and mean_matches,
           f"bins {'ok' if counts_match else 'MISMATCH'}, weighted-mean drift "
           f"{abs(weighted / report_obj.all.total - report_obj.all.accuracy):.1e}")


features = st.lists(
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=6),
    min_size=1,
    max_size=6,
)


class TestCriterion9TagTranslatorIndicator:
    @given(feats=features, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_identity_on_permutations(self, feats, data):
        tag = MorphTag(feats)
        permuted = MorphTag(data.draw(st.permutations(feats)))
        assert tag_translate(tag, permuted) == 1.0
        assert tag_translate(permuted, tag) == 1.0

    @given(a=features, b=features)
    @settings(max_examples=200, deadline=None)
    def test_zero_iff_multisets_differ(self, a, b):
        ta, tb = MorphTag(a), MorphTag(b)
        expected = 1.0 if sorted(ta.features) == sorted(tb.features) else 0.0
        assert tag_translate(ta, tb) == expected
        assert tag_translate(tb, ta) == expected

    def test_report_line(self):
        report(9, "tag translator is the order-insensitive indicator", True,
               "hypothesis properties above")


def test_criterion_10_end_to_end_determinism(tmp_path):
    task = build_bilingual_task(seed=5, n_lexemes=30, dim=10, apply_preprocessing=False)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    src, tgt = str(corpus / "src.vec"), str(corpus / "tgt.vec")
    save_vec_file(task.source_space, src)
    save_vec_file(task.target_space, tgt)
    seed_file = corpus / "seed.tsv"
    seed_file.write_text("".join(f"{s}\t{t}\n" for s, t in task.seed_pairs))
    unimorph_src = corpus / "unimorph_src.tsv"
    unimorph_src.write_text(
        "".join(f"{e.lemma}\t{e.form}\t{e.tag.canonical}\n" for e in task.source_unimorph)
    )
    unimorph_tgt = corpus / "unimorph_tgt.tsv"
    unimorph_tgt.write_text(
        "".join(f"{e.lemma}\t{e.form}\t{e.tag.canonical}\n" for e in task.target_unimorph)
    )
    eval_file = corpus / "eval.tsv"
    eval_file.write_text(
        "".join(
            f"{e.source}\t{sorted(e.golds)[0]}\t{e.tag.canonical}\n"
            for e in task.eval_dictionary.entries
        )
    )

    def run(workdir):
        workdir.mkdir()
        model = str(workdir / "model.omega")
        analyzer = str(workdir / "analyzer.rules")
        inflector = str(workdir / "inflector.rules")
        assert main([
            "train-translator", "--src", src, "--tgt", tgt,
            "--seed-dict", str(seed_file), "--out", model,
            "--max-epochs", "8", "--seed", "21",
        ]) == EXIT_OK
        assert main([
            "train-morph", "--data", str(unimorph_src), "--analyzer-out", analyzer,
        ]) == EXIT_OK
        assert main([
            "train-morph", "--data", str(unimorph_tgt), "--inflector-out", inflector,
        ]) == EXIT_OK
        assert main([
            "evaluate", "--model", model, "--src", src, "--tgt", tgt,
            "--analyzer", analyzer, "--inflector", inflector, "--mode", "base",
            "--dict", str(eval_file), "--out-prefix", str(workdir / "eval"),
        ]) == EXIT_OK
        names = [
            "model.omega", "analyzer.rules", "inflector.rules",
            "eval.summary.tsv", "eval.bins.tsv", "eval.tags.tsv", "eval.report.json",
        ]
        return {name: (workdir / name).read_bytes() for name in names}

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    identical = first == second
    differing = [name for name in first if first[name] != second[name]]
    report(10, "same-seed end-to-end runs are byte-identical", identical,
           "all artifacts match" if identical else f"differs: {differing}")
