"""Every name the benchmark harness imports from morphlex, and every name its
tracer hooks, still exists, so a rename fails this suite, not only a
benchmark run or a per-layer metric."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def morphlex_imports():
    """(file, module, name) of every ``from morphlex... import name`` in
    the harness's Python files."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "morphlex":
                found += [(path.relative_to(PERFBENCH).as_posix(), node.module, alias.name)
                          for alias in node.names]
    return found


def test_the_harness_imports_the_world_builders():
    assert ("worlds.py", "morphlex.embeddings", "save_vec_file") in morphlex_imports()


@pytest.mark.parametrize("source, module, name", morphlex_imports())
def test_imported_name_exists(source, module, name):
    imported = importlib.import_module(module)
    assert hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}"), (
        f"{source} imports {name} from {module}, which no longer has it"
    )


# Hooks in traced_cli.py's WRAPPED table whose names no longer exist, so
# their per-layer metrics read 0. The list may only shrink: a hook that
# comes back must leave it, and no other hook may join it.
DEAD_HOOKS = {
    ("morphlex.cli", "ensure_preprocessed"),
    ("morphlex.cli", "translate_base"),
    ("morphlex.cli", "translate_hybrid"),
    ("morphlex.cli", "translate_direct"),
    ("morphlex.cli", "translate_oracle"),
    ("morphlex.pipeline", "predict_vector"),
    ("morphlex.pipeline", "log_prob"),
    ("morphlex.translator", "nearest"),
}


def traced_hooks():
    """(module, name) of every entry of traced_cli.py's WRAPPED table."""
    tree = ast.parse((PERFBENCH / "traced_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError("traced_cli.py has no WRAPPED table")


def test_the_tracer_hooks_scoring_and_composition():
    hooks = traced_hooks()
    assert ("morphlex.cli", "precision_at_1") in hooks
    assert ("morphlex.pipeline", "compose_oov") in hooks


@pytest.mark.parametrize("module, name", traced_hooks())
def test_hooked_name_exists(module, name):
    exists = hasattr(importlib.import_module(module), name)
    if (module, name) in DEAD_HOOKS:
        assert not exists, f"{module}.{name} exists again: remove it from DEAD_HOOKS"
    else:
        assert exists, f"traced_cli.py hooks {module}.{name}, which no longer exists"
