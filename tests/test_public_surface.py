"""Every public name of the package has a production caller: the package
itself, ``scripts/`` or the benchmark harness. A name that only the tests
use is either deleted or listed in ``REFERENCES`` with the reason it stays.

Names are matched by spelling: a public function, class, constant or
method counts as called when a production file loads a name or attribute
of that spelling, imports it, or hooks it in ``traced_cli.py``'s
``WRAPPED`` table.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "morphlex"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Public names that no production file calls, kept as references for the
# tests, each with its reason. The table may only shrink: a listed name
# that gains a production caller, or that no longer exists, must leave it,
# and no other name may join it.
REFERENCES = {
    "translator.bilinear_score": "the paper's score t^T omega s, the reference the "
    "cosine retrieval's winner is checked against",
    "translator.orth_penalty": "the paper's orthogonality penalty, the reference for "
    "the penalty term of the blocked development loss",
    "translator.loss_and_gradient": "the unbatched loss and its analytic gradient, "
    "checked against finite differences in the acceptance suite",
    "morph.SuffixRuleTable.context_distribution": "the transducers' full conditional "
    "distribution, of which analyze and inflect decode the 1-best",
    "morph.tag_translate": "the paper's indicator tag translator, which the pipeline "
    "applies implicitly by carrying the tag over",
    "synthetic.split_lexemes": "the held-out lexeme split of the acceptance world",
}


def _definitions(path: pathlib.Path) -> dict[str, str]:
    """``module.name`` (or ``module.Class.method``) -> name of every public
    module-level function, class and assignment, and of every public method
    of a public class, in one package file."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                found[f"{path.stem}.{name}"] = name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def public_names() -> dict[str, str]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_definitions(path))
    return found


def production_files() -> list[pathlib.Path]:
    """The package without ``__init__.py``, whose imports only re-export,
    the scripts, and the benchmark harness without its tests."""
    package = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    return package + scripts + sorted((ROOT / "perfbench").glob("*.py"))


def _wrapped_names(tree: ast.Module) -> set[str]:
    """The hooked names of a ``WRAPPED = ((module, name, span), ...)`` table."""
    for node in tree.body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and targets == ["WRAPPED"]:
            return {name for _, name, _ in ast.literal_eval(node.value)}
    return set()


def called_names() -> set[str]:
    """Every name and attribute a production file loads or imports, and
    every name the tracer hooks."""
    called = set()
    for path in production_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called |= _wrapped_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                called.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                called.update(alias.name for alias in node.names)
    return called


def test_the_scan_sees_the_package_and_its_callers():
    names, called = public_names(), called_names()
    assert names["pipeline.translate_many"] == "translate_many"
    assert names["embeddings.EmbeddingSpace.index"] == "index"
    assert "embeddings._RecordList.emit" not in names
    assert {"translate_many", "build_bilingual_task", "precision_at_1"} <= called
    traced = ast.parse((ROOT / "perfbench" / "traced_cli.py").read_text(encoding="utf-8"))
    assert {"load_space", "compose_oov"} <= _wrapped_names(traced)


def test_every_public_name_has_a_production_caller():
    called = called_names()
    uncalled = sorted(
        qualified for qualified, name in public_names().items()
        if name not in called and qualified not in REFERENCES
    )
    assert not uncalled, (
        f"public names with no production caller: {uncalled}; delete them, make them "
        "private, or list a reference in REFERENCES"
    )


@pytest.mark.parametrize("qualified", sorted(REFERENCES))
def test_a_listed_reference_exists_and_has_no_production_caller(qualified):
    names = public_names()
    assert qualified in names, f"{qualified} no longer exists: remove it from REFERENCES"
    assert names[qualified] not in called_names(), (
        f"{qualified} has a production caller now: remove it from REFERENCES"
    )
