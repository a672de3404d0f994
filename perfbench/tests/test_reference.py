"""The reference checker rejects single faults and accepts near-ties."""

import numpy as np
import pytest

import reference
from reference import ROUTE_DIRECT, ROUTE_LEMMA, Reference

PRS = "V;PRS;1;SG"
NFIN = "V;NFIN"
SOURCE = ["bau", "dau", "bako", "dako"]
TARGET = ["bue", "due", "bugo", "dugo"]


def tiny_reference(target=TARGET, extra_rows=()):
    """Target rows equal the source rows (identity map), so every word
    retrieves its own counterpart unless extra rows tie with it."""
    rng = np.random.default_rng(0)
    src = rng.normal(size=(4, 5))
    tgt = np.vstack([src] + [src[i] * scale for i, scale in extra_rows])
    analyses = {
        "bau": ("bau", NFIN), "dau": ("dau", NFIN),
        "bako": ("bau", PRS), "dako": ("dau", PRS),
    }
    ranks = {w: i for i, w in enumerate(SOURCE)}
    return Reference(
        SOURCE, src, list(target), tgt, np.eye(5), len(target),
        {NFIN: "e", PRS: "go"}, "e", NFIN, analyses, ranks,
    )


def render(ref, tokens, choice=0):
    lines = []
    for token in tokens:
        want = ref.expect(token, "hybrid")
        form, lp = want.candidates[choice]
        lines.append(f"{token}\t{form}\t{want.route}\t{lp or 0.0:.6f}")
    return lines


def check(ref, lines, tokens):
    expected = {t: ref.expect(t, "hybrid") for t in set(tokens)}
    return reference.check_translate_output(lines, tokens, expected)


def test_reference_decisions():
    ref = tiny_reference()
    assert ref.expect("bako", "hybrid").route == ROUTE_LEMMA
    assert ref.expect("bako", "hybrid").candidates[0][0] == "bugo"
    assert ref.expect("bau", "hybrid").route == ROUTE_DIRECT
    assert ref.expect("dau", "hybrid").candidates[0][0] == "due"


def test_accepts_the_reference_output():
    ref = tiny_reference()
    tokens = SOURCE * 2
    assert check(ref, render(ref, tokens), tokens) == ([], 0, 0)


def test_rejects_one_wrong_prediction():
    ref = tiny_reference()
    tokens = SOURCE
    lines = render(ref, tokens)
    lines[2] = lines[2].replace("\tbugo\t", "\tdugo\t")
    problems, _, _ = check(ref, lines, tokens)
    assert len(problems) == 1 and "bako" in problems[0]


def test_rejects_one_wrong_route():
    ref = tiny_reference()
    tokens = SOURCE
    lines = render(ref, tokens)
    lines[3] = lines[3].replace(ROUTE_LEMMA, ROUTE_DIRECT)
    problems, _, _ = check(ref, lines, tokens)
    assert len(problems) == 1 and "took direct-route" in problems[0]


def test_rejects_one_perturbed_log_prob():
    ref = tiny_reference()
    tokens = SOURCE
    lines = render(ref, tokens)
    fields = lines[1].split("\t")
    fields[3] = f"{float(fields[3]) + 2e-6:.6f}"
    lines[1] = "\t".join(fields)
    problems, _, _ = check(ref, lines, tokens)
    assert len(problems) == 1 and "dau" in problems[0]


def test_accepts_a_near_tie_either_way():
    # A fifth target word whose raw row is a rescaled copy of "bue": after
    # unit-normalisation the two cosines differ by far less than TIE_TOL.
    ref = tiny_reference(TARGET + ["xue"], extra_rows=[(0, 1.0 + 1e-12)])
    want = ref.expect("bako", "hybrid")
    assert want.near_tie
    assert [form for form, _ in want.candidates] == ["bugo", "xugo"]
    tokens = ["bako", "dako"]
    for choice in (0, 1):
        lines = render(ref, tokens[:1], choice) + render(ref, tokens[1:])
        problems, near_ties, _ = check(ref, lines, tokens)
        assert problems == [] and near_ties == 1
    wrong = render(ref, tokens)
    wrong[0] = wrong[0].replace("\tbugo\t", "\tdugo\t")
    assert check(ref, wrong, tokens)[0]


def test_untranslatable_output_is_counted_and_rejected_when_translatable():
    ref = tiny_reference()
    tokens = SOURCE
    lines = render(ref, tokens)
    lines[0] = "bau\t<NONE>\t-\t-"
    problems, _, untranslatable = check(ref, lines, tokens)
    assert untranslatable == 1 and len(problems) == 1


def test_oov_vector_is_the_preprocessed_ngram_sum():
    ref = tiny_reference()
    rows = {g: np.full(5, i + 1.0) for i, g in enumerate(reference.wrapped_ngrams("kiko")[:3])}
    ref.ngram_rows = rows
    total = sum(rows.values())
    want = total / np.linalg.norm(total) - ref.src_center
    assert np.allclose(ref.source_vector("kiko"), want)
    assert ref.source_vector("zzzzzz") is None


def evaluate_report(correct, total=4):
    return {
        "voc": {"correct": correct, "total": total},
        "all": {"correct": correct, "total": total},
        "untranslatable": 0,
        "bins": [{"bin": "0-2", "correct": min(correct, 2), "total": 2},
                 {"bin": "2-4", "correct": max(correct - 2, 0), "total": 2}],
        "tags": [{"tag": PRS, "correct": correct, "total": total}],
    }


def test_evaluate_report_check_rejects_one_wrong_count():
    ref = tiny_reference()
    entries = [("bako", "bugo", PRS), ("dako", "dugo", PRS),
               ("bako2", "bugo", PRS), ("dako2", "dugo", PRS)]
    ref.analyses.update({"bako2": ("bau", PRS), "dako2": ("dau", PRS)})
    ranks = {"bako": 0, "dako": 1, "bako2": 2, "dako2": 3}
    expected = {form: ref.expect(form, "base") for form, _, _ in entries}
    ok, _ = reference.check_evaluate_report(evaluate_report(4), entries, expected, ranks, 2, 4)
    assert ok == []
    bad, _ = reference.check_evaluate_report(evaluate_report(3), entries, expected, ranks, 2, 4)
    assert bad


def write_model(path, omega, support):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"MORPHLEX-OMEGA v1 {omega.shape[0]} {omega.shape[1]} {support}\n")
        for row in omega:
            handle.write(" ".join(repr(float(x)) for x in row) + "\n")


@pytest.mark.parametrize("support, scale, faults", [(4, 3.0, 0), (4, 1.0, 1), (3, 3.0, 1)])
def test_trained_model_check(tmp_path, support, scale, faults):
    # Scaling the identity sharpens the softmax toward each word's own
    # counterpart, so it lowers the seed NLL; the identity itself does not.
    ref = tiny_reference()
    path = str(tmp_path / "model.omega")
    write_model(path, np.eye(5) * scale, support)
    pairs = list(zip(SOURCE, TARGET))
    problems, _ = reference.check_trained_model(path, ref, pairs, len(TARGET))
    assert len(problems) == faults
