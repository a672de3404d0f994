"""Per-layer metrics from the spans ``traced_cli.py`` writes.

A span's self time is its duration minus the time its child spans cover.
A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import json

import numpy as np

# name -> unit; the README maps each to the end-to-end metric it should move.
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "embeddings.load_space.s": "s",
    "embeddings.load_space.rows_per_s": "rows/s",
    "embeddings.ensure_preprocessed.s": "s",
    "embeddings.load_ngram_table.s": "s",
    "embeddings.nearest.calls": "count",
    "embeddings.nearest.us_per_call": "us",
    "embeddings.nearest.bytes_per_call": "B",
    "embeddings.compose_oov.calls": "count",
    "embeddings.compose_oov.us_per_call": "us",
    "embeddings.save_vec_file.s": "s",
    "translator.predict_vector.calls": "count",
    "translator.log_prob.calls": "count",
    "translator.log_prob.us_per_call": "us",
    "translator.train.s": "s",
    "translator.train.epoch_s": "s",
    "translator.load_model.s": "s",
    "translator.save_model.s": "s",
    "morph.analyze.calls": "count",
    "morph.analyze.us_per_call": "us",
    "morph.inflect.calls": "count",
    "morph.inflect.us_per_call": "us",
    "morph.load_rule_table.s": "s",
    "pipeline.translate.calls": "count",
    "pipeline.translate.self_us_per_call": "us",
    "pipeline.retrievals_per_form": "ratio",
    "pipeline.route.lemma": "count",
    "pipeline.route.direct": "count",
    "evaluation.precision_at_1.self_s": "s",
    "evaluation.read_eval_dictionary.s": "s",
    "evaluation.read_seed_dictionary.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.missing_names": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_trace(prefix: str) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of one traced CLI invocation, plus its missing names."""
    with open(f"{prefix}.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    data = np.load(f"{prefix}.npz")
    name, parent = data["name"], data["parent"]
    duration = data["end"] - data["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = duration - covered
    size = len(meta["names"])
    calls = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=duration, minlength=size)
    own = np.bincount(name, weights=self_time, minlength=size)
    index = {n: i for i, n in enumerate(meta["names"])}

    def stat(span: str) -> tuple[int, float, float]:
        i = index.get(span)
        return (0, 0.0, 0.0) if i is None else (int(calls[i]), float(total[i]), float(own[i]))

    def note(span: str, key: str) -> float:
        return float(meta["notes"].get(span, {}).get(key, 0))

    out: dict[str, float] = {}
    for span in (
        "embeddings.load_space", "embeddings.ensure_preprocessed", "embeddings.load_ngram_table",
        "translator.train", "translator.load_model", "translator.save_model",
        "morph.load_rule_table", "evaluation.read_eval_dictionary",
        "evaluation.read_seed_dictionary",
    ):
        out[f"{span}.s"] = stat(span)[1]
    out["embeddings.load_space.rows_per_s"] = _ratio(
        note("embeddings.load_space", "rows"), stat("embeddings.load_space")[1]
    )
    for span in ("embeddings.nearest", "embeddings.compose_oov", "translator.log_prob",
                 "morph.analyze", "morph.inflect"):
        n, t, _ = stat(span)
        out[f"{span}.calls"] = n
        out[f"{span}.us_per_call"] = _ratio(t * 1e6, n)
    out["embeddings.nearest.bytes_per_call"] = _ratio(
        note("embeddings.nearest", "bytes"), stat("embeddings.nearest")[0]
    )
    out["translator.predict_vector.calls"] = stat("translator.predict_vector")[0]
    out["translator.train.epoch_s"] = _ratio(
        stat("translator.train")[1], note("translator.train", "epochs")
    )
    forms, _, pipeline_self = stat("pipeline.translate")
    out["pipeline.translate.calls"] = forms
    out["pipeline.translate.self_us_per_call"] = _ratio(pipeline_self * 1e6, forms)
    out["pipeline.retrievals_per_form"] = _ratio(out["translator.predict_vector.calls"], forms)
    out["pipeline.route.lemma"] = note("pipeline.translate", "route.lemma-route")
    out["pipeline.route.direct"] = note("pipeline.translate", "route.direct-route")
    out["evaluation.precision_at_1.self_s"] = stat("evaluation.precision_at_1")[2]
    out["cli.main.self_s"] = stat("cli.main")[2]
    out["trace.spans"] = len(duration)
    out["trace.missing_names"] = len(meta["missing"])
    return out, list(meta["missing"])
