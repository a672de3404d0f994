"""Every name the benchmark harness imports from morphlex still exists, so a
rename fails this suite, not only a benchmark run."""

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
