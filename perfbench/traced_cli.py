"""Run ``morphlex.cli.main(argv)`` in this process with a span recorded
around every call into a layer.

    python3 perfbench/traced_cli.py OUT_PREFIX -- <morphlex arguments>

The wrappers replace each function at the name its calling module binds
(``morphlex.pipeline.predict_vector``, ``morphlex.cli.load_space``, ...),
so the program itself is untouched. Spans (name, start, end, parent) stay
in memory until ``main`` returns, then go to OUT_PREFIX.npz; names,
per-name annotations and any wrapped name that no longer exists go to
OUT_PREFIX.json. The exit code is ``main``'s.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# (module, name bound in it, span name). The span name is the layer the
# callee belongs to, not the caller.
WRAPPED = (
    ("morphlex.cli", "load_space", "embeddings.load_space"),
    ("morphlex.cli", "ensure_preprocessed", "embeddings.ensure_preprocessed"),
    ("morphlex.cli", "load_ngram_table", "embeddings.load_ngram_table"),
    ("morphlex.cli", "load_model", "translator.load_model"),
    ("morphlex.cli", "save_model", "translator.save_model"),
    ("morphlex.cli", "train", "translator.train"),
    ("morphlex.cli", "load_rule_table", "morph.load_rule_table"),
    ("morphlex.cli", "read_eval_dictionary", "evaluation.read_eval_dictionary"),
    ("morphlex.cli", "read_seed_dictionary", "evaluation.read_seed_dictionary"),
    ("morphlex.cli", "precision_at_1", "evaluation.precision_at_1"),
    ("morphlex.cli", "translate_base", "pipeline.translate"),
    ("morphlex.cli", "translate_hybrid", "pipeline.translate"),
    ("morphlex.cli", "translate_direct", "pipeline.translate"),
    ("morphlex.cli", "translate_oracle", "pipeline.translate"),
    ("morphlex.pipeline", "analyze", "morph.analyze"),
    ("morphlex.pipeline", "inflect", "morph.inflect"),
    ("morphlex.pipeline", "compose_oov", "embeddings.compose_oov"),
    ("morphlex.pipeline", "predict_vector", "translator.predict_vector"),
    ("morphlex.pipeline", "log_prob", "translator.log_prob"),
    ("morphlex.translator", "nearest", "embeddings.nearest"),
)
ROOT_SPAN = "cli.main"


def _annotate(name: str, args: tuple, result) -> dict[str, float]:
    """Counts measured where the work happens, summed per span name."""
    if name == "embeddings.load_space":
        return {"rows": len(result)}
    if name == "embeddings.nearest":
        space = args[0]
        return {"bytes": len(space) * space.dim * 8}
    if name == "pipeline.translate":
        return {f"route.{result.route}": 1}
    if name == "translator.train":
        return {"epochs": result.epochs_run}
    return {}


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent]
        self.stack: list[int] = []
        self.notes: dict[str, dict[str, float]] = {}
        self.missing: list[str] = []

    def wrap(self, func, name: str):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        notes = self.notes.setdefault(name, {})

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, value in _annotate(name, args, result).items():
                notes[key] = notes.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(func, span_name))

    def write(self, prefix: str, exit_code: int) -> None:
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez(
            f"{prefix}.npz",
            name=table[:, 0].astype(np.int32),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
        )
        with open(f"{prefix}.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "notes": self.notes, "missing": self.missing, "exit": exit_code},
                handle, sort_keys=True, indent=1,
            )


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    prefix, argv = sys.argv[1], sys.argv[3:]
    import morphlex.cli

    tracer = Tracer()
    tracer.install()
    for name in tracer.missing:
        print(f"traced_cli: {name} not found; its layer goes untraced", file=sys.stderr)
    cli_main = tracer.wrap(morphlex.cli.main, ROOT_SPAN)
    code = cli_main(argv)
    tracer.write(prefix, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
