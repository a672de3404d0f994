"""Independent reference for the benchmark's output checks.

Uses numpy and the generated raw inputs only; nothing here imports
morphlex, so a fault shared by the program and its own helpers cannot
hide. The rules re-derived here are the documented semantics:

- preprocessing: unit-normalise every row, then subtract the mean row;
- retrieval: cosine argmax over the whole target space, ties to the
  lower (more frequent) rank;
- translator score: log-softmax over the first ``support`` target rows;
- morphology: the suffix grammar's known paradigms (every analyzer and
  inflector context of such a grammar is deterministic, so both
  contribute log 1 = 0 to the joint score);
- OOV vectors: the sum of the rows of every wrapped 3..6-gram
  occurrence, then unit-normalised and shifted by the source mean;
- hybrid routing: the lemma route iff the lemma's generator rank is
  strictly below the form's (an OOV form ranks as infinity).

A form whose two best reference cosines differ by less than TIE_TOL is a
near-tie: every target word within TIE_TOL of the best is accepted,
together with its own translator score. Comparisons never use a stored
copy of an earlier run's output, so they keep holding after a change
that only reorders float arithmetic (batched GEMMs, cached norms).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Cosine gap under which two retrieval candidates count as tied. Float64
# reorderings move a cosine by ~1e-15; this leaves six orders of margin.
TIE_TOL = 1e-9
# The CLI prints joint_log_prob with %.6f: half a unit in the last place,
# plus slack for reordered float arithmetic.
LOG_PROB_TOL = 5e-7 + 1e-8

ROUTE_LEMMA = "lemma-route"
ROUTE_DIRECT = "direct-route"
NONE_FIELD = "<NONE>"


def preprocess(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalise rows (zero rows stay zero), then mean-centre."""
    norms = np.linalg.norm(raw, axis=1)
    unit = raw / np.where(norms == 0.0, 1.0, norms)[:, None]
    center = unit.mean(axis=0)
    return unit - center, center


def wrapped_ngrams(form: str, low: int = 3, high: int = 6) -> list[str]:
    wrapped = "<" + form + ">"
    return [wrapped[i : i + n] for n in range(low, high + 1) for i in range(len(wrapped) - n + 1)]


def log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class Expected:
    """What a correct program may print for one source form."""

    route: str
    # (predicted target form, joint log-prob or None), best first; more
    # than one entry only for a near-tie.
    candidates: tuple[tuple[str, float | None], ...]

    @property
    def near_tie(self) -> bool:
        return len(self.candidates) > 1


class Reference:
    """Recomputes the pipeline's decisions from the raw generated arrays."""

    def __init__(
        self,
        src_words, src_raw, tgt_words, tgt_raw, omega, support,
        tgt_suffixes, tgt_marker, citation_tag, analyses, ranks, ngram_rows=None,
    ):
        self.src_index = {w: i for i, w in enumerate(src_words)}
        self.src, self.src_center = preprocess(np.asarray(src_raw, dtype=np.float64))
        self.tgt_words = list(tgt_words)
        self.tgt, _ = preprocess(np.asarray(tgt_raw, dtype=np.float64))
        self.tgt_norms = np.linalg.norm(self.tgt, axis=1)
        self.omega = np.asarray(omega, dtype=np.float64)
        self.support = support
        self.tgt_suffixes = tgt_suffixes
        self.tgt_marker = tgt_marker
        self.citation_tag = citation_tag
        self.analyses = analyses
        self.ranks = ranks
        self.ngram_rows = ngram_rows or {}

    # -- single layers --------------------------------------------------

    def source_vector(self, word: str) -> np.ndarray | None:
        index = self.src_index.get(word)
        if index is not None:
            return self.src[index]
        rows = [self.ngram_rows[g] for g in wrapped_ngrams(word) if g in self.ngram_rows]
        if not rows:
            return None
        total = np.sum(rows, axis=0)
        norm = np.linalg.norm(total)
        if norm > 0.0:
            total = total / norm
        return total - self.src_center

    def retrieve(self, source_vec: np.ndarray) -> list[int]:
        """Target rows within TIE_TOL of the best cosine, lowest rank first."""
        query = self.omega @ source_vec
        cosines = (self.tgt @ query) / (self.tgt_norms * np.linalg.norm(query))
        best = int(np.argmax(cosines))  # first maximum: ties go to the lower rank
        tied = np.flatnonzero(cosines >= cosines[best] - TIE_TOL)
        return [best] + [int(i) for i in tied if i != best]

    def translator_log_prob(self, source_vec: np.ndarray, target_index: int) -> float | None:
        if target_index >= self.support:
            return None
        scores = self.tgt[: self.support] @ (self.omega @ source_vec)
        return float(log_softmax(scores)[target_index])

    def inflect(self, lemma: str, tag: str) -> str:
        if tag == self.citation_tag:
            return lemma
        stem = lemma[: -len(self.tgt_marker)] if lemma.endswith(self.tgt_marker) else lemma
        return stem + self.tgt_suffixes[tag]

    # -- whole pipeline -------------------------------------------------

    def _route_candidates(self, word: str, tag: str | None) -> tuple | None:
        vec = self.source_vector(word)
        if vec is None:
            return None
        out = []
        for j in self.retrieve(vec):
            target = self.tgt_words[j]
            form = target if tag is None else self.inflect(target, tag)
            out.append((form, self.translator_log_prob(vec, j)))
        return tuple(out)

    def expect(self, form: str, mode: str) -> Expected | None:
        """Expected output of ``translate``/``evaluate`` for one form, in
        mode 'base' or 'hybrid'; None when it is untranslatable."""
        lemma, tag = self.analyses[form]
        take_lemma = True
        if mode == "hybrid":
            lemma_rank = self.ranks.get(lemma)
            form_rank = self.ranks.get(form, math.inf)
            take_lemma = lemma_rank is not None and lemma_rank < form_rank
        if take_lemma:
            candidates = self._route_candidates(lemma, tag)
            if candidates is not None:
                return Expected(ROUTE_LEMMA, candidates)
        candidates = self._route_candidates(form, None)
        if candidates is None:
            return None
        return Expected(ROUTE_DIRECT, candidates)

    def seed_nll(self, omega: np.ndarray, pairs, chunk: int = 256) -> float:
        """Mean negative log-likelihood of the seed pairs under ``omega``,
        softmax over the support rows, ``chunk`` pairs at a time."""
        tgt_index = {w: i for i, w in enumerate(self.tgt_words)}
        src_rows = np.array([self.src_index[s] for s, _ in pairs])
        tgt_rows = np.array([tgt_index[t] for _, t in pairs])
        total = 0.0
        for lo in range(0, len(pairs), chunk):
            sources = self.src[src_rows[lo : lo + chunk]]
            scores = (sources @ omega.T) @ self.tgt[: self.support].T
            shifted = scores - scores.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1))
            picked = shifted[np.arange(len(sources)), tgt_rows[lo : lo + chunk]]
            total += float((log_z - picked).sum())
        return total / len(pairs)


# -- output checks ------------------------------------------------------


def check_translate_output(
    lines: list[str], tokens: list[str], expected: dict
) -> tuple[list[str], int, int]:
    """Compare ``translate`` output lines with the reference.

    Returns (problems, near-tie lines, untranslatable lines). An expected
    value of None means the reference finds the form untranslatable.
    """
    problems: list[str] = []
    near_ties = 0
    untranslatable = 0
    if len(lines) != len(tokens):
        return [f"{len(lines)} output lines for {len(tokens)} input forms"], 0, 0
    for lineno, (line, token) in enumerate(zip(lines, tokens), start=1):
        fields = line.split("\t")
        if len(fields) != 4 or fields[0] != token:
            problems.append(f"line {lineno}: malformed or misaligned output {line!r}")
            continue
        want = expected[token]
        if fields[1] == NONE_FIELD:
            untranslatable += 1
            if want is not None:
                problems.append(f"line {lineno}: {token!r} untranslatable, reference translates it")
            continue
        if want is None:
            problems.append(f"line {lineno}: {token!r} translated, reference finds it untranslatable")
            continue
        near_ties += want.near_tie
        if fields[2] != want.route:
            problems.append(f"line {lineno}: {token!r} took {fields[2]}, reference {want.route}")
            continue
        printed = float(fields[3])
        if not any(
            fields[1] == form and abs(printed - (lp or 0.0)) <= LOG_PROB_TOL
            for form, lp in want.candidates
        ):
            problems.append(
                f"line {lineno}: {token!r} -> {fields[1]} ({fields[3]}), "
                f"reference {list(want.candidates)}"
            )
    return problems, near_ties, untranslatable


def expected_counts(entries, expected: dict, ranks: dict, bin_width: int, num_bins: int):
    """Lowest and highest correct counts the evaluation report may show,
    overall, per frequency bin and per tag; near-ties widen the range."""
    ranges: dict[tuple[str, str], list[int]] = {}
    near_ties = 0

    def add(key, total, low, high):
        cell = ranges.setdefault(key, [0, 0, 0])
        cell[0] += total
        cell[1] += low
        cell[2] += high

    for form, gold, tag in entries:
        want = expected[form]
        hits = [c[0] == gold for c in want.candidates] if want is not None else [False]
        low, high = int(all(hits)), int(any(hits))
        near_ties += want is not None and want.near_tie
        bucket = ranks[form] // bin_width
        label = (
            f"{bucket * bin_width}-{(bucket + 1) * bin_width}"
            if bucket < num_bins else f"{num_bins * bin_width}+"
        )
        for key in (("all", "all"), ("bin", label), ("tag", tag)):
            add(key, 1, low, high)
    return ranges, near_ties


def check_evaluate_report(
    report: dict, entries, expected: dict, ranks: dict, bin_width: int, num_bins: int
) -> tuple[list[str], int]:
    """Compare ``evaluate``'s report.json with the reference counts."""
    ranges, near_ties = expected_counts(entries, expected, ranks, bin_width, num_bins)
    problems = []

    def within(what, correct, total, key):
        want_total, low, high = ranges.get(key, (0, 0, 0))
        if total != want_total or not low <= correct <= high:
            problems.append(
                f"{what}: {correct}/{total} correct, reference {low}..{high}/{want_total}"
            )

    within("voc", report["voc"]["correct"], report["voc"]["total"], ("all", "all"))
    within("all", report["all"]["correct"], report["all"]["total"], ("all", "all"))
    untranslatable = sum(expected[form] is None for form, _, _ in entries)
    if report["untranslatable"] != untranslatable:
        problems.append(f"untranslatable {report['untranslatable']}, reference {untranslatable}")
    seen_bins = {row["bin"] for row in report["bins"]}
    seen_tags = {row["tag"] for row in report["tags"]}
    for row in report["bins"]:
        within(f"bin {row['bin']}", row["correct"], row["total"], ("bin", row["bin"]))
    for row in report["tags"]:
        within(f"tag {row['tag']}", row["correct"], row["total"], ("tag", row["tag"]))
    for kind, label in ranges:
        if (kind == "bin" and label not in seen_bins) or (kind == "tag" and label not in seen_tags):
            problems.append(f"{kind} {label} missing from the report")
    return problems, near_ties


def read_model(path: str) -> tuple[np.ndarray, int]:
    """Parse the MORPHLEX-OMEGA text format: header, then N_t rows."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 5 or header[0] != "MORPHLEX-OMEGA":
            raise ValueError(f"{path}: bad model header {header!r}")
        n_t, n_s, support = (int(x) for x in header[2:])
        omega = np.array([[float(x) for x in line.split()] for line in handle if line.strip()])
    if omega.shape != (n_t, n_s):
        raise ValueError(f"{path}: header says {n_t}x{n_s}, body is {omega.shape}")
    return omega, support


def check_trained_model(
    path: str, reference: Reference, pairs, n_target_rows: int
) -> tuple[list[str], dict]:
    """The saved model must have full support, finite entries, and a
    seed-pair NLL below that of the initial (identity) matrix."""
    omega, support = read_model(path)
    problems = []
    if support != n_target_rows:
        problems.append(f"model support {support}, target space has {n_target_rows} rows")
    if not np.all(np.isfinite(omega)):
        problems.append("model has non-finite entries")
        return problems, {}
    initial = np.eye(*omega.shape)
    nll_initial = reference.seed_nll(initial, pairs)
    nll_trained = reference.seed_nll(omega, pairs)
    if not nll_trained < nll_initial:
        problems.append(f"seed NLL {nll_trained:.6f} not below the initial {nll_initial:.6f}")
    return problems, {"seed_nll_initial": nll_initial, "seed_nll_trained": nll_trained}
