"""The tracer records nested spans, and reports a wrapped name that is gone."""

import importlib

import layers
import traced_cli
import workloads
from morphlex import cli


def test_traced_translate_counts_layers_and_reports_missing_names(tiny, tmp_path, monkeypatch):
    gone = ("morphlex.pipeline", "no_such_function", "pipeline.gone")
    monkeypatch.setattr(traced_cli, "WRAPPED", traced_cli.WRAPPED + (gone,))
    for module_name, attr, _ in traced_cli.WRAPPED:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test

    workload = workloads.WORKLOADS["translate-stream"]
    world = workload.build(5, str(tmp_path))
    tracer = traced_cli.Tracer()
    tracer.install()
    assert tracer.wrap(cli.main, traced_cli.ROOT_SPAN)(workload.args(world, str(tmp_path), 5)) == 0
    prefix = str(tmp_path / "trace")
    tracer.write(prefix, 0)

    metrics, missing = layers.from_trace(prefix)
    forms = len(world.tokens)
    assert missing == ["morphlex.pipeline.no_such_function"]
    assert metrics["trace.missing_names"] == 1
    assert metrics["pipeline.translate.calls"] == forms
    assert metrics["embeddings.nearest.calls"] == metrics["translator.predict_vector.calls"] == forms
    assert metrics["pipeline.retrievals_per_form"] == 1.0
    assert metrics["pipeline.route.lemma"] + metrics["pipeline.route.direct"] == forms
    assert metrics["embeddings.compose_oov.calls"] > 0
    assert metrics["embeddings.nearest.bytes_per_call"] == len(world.tgt_words) * world.tgt_raw.shape[1] * 8
    assert metrics["cli.main.self_s"] > 0.0
    assert set(metrics) <= set(layers.PER_LAYER)


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = traced_cli.Tracer()
    tracer.names = ["cli.main", "embeddings.nearest"]
    tracer.spans = [[0, 0.0, 10.0, -1], [1, 1.0, 3.0, 0], [1, 4.0, 5.0, 0]]
    prefix = str(tmp_path / "t")
    tracer.write(prefix, 0)
    metrics, _ = layers.from_trace(prefix)
    assert metrics["cli.main.self_s"] == 7.0
    assert metrics["embeddings.nearest.calls"] == 2
    assert metrics["embeddings.nearest.us_per_call"] == 1.5e6
