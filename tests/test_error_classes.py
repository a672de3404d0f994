"""Every error class the package defines has an exit code or a listed
reason not to: a ``DataError`` is exit 2 and an ``UntrainableError`` exit
3 (see ``cli.main``); any other one must be listed in ``NOT_EXIT_CODES``,
so a new format error that nobody maps to exit 2 fails here instead of
ending a run in a traceback.
"""

import importlib
import inspect
import pathlib

import pytest

from morphlex.textio import DataError, UntrainableError

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "morphlex"

# Error classes that never reach ``cli.main`` as a command's failure, each
# with its reason. The table may only shrink: a listed class that becomes
# a DataError or an UntrainableError, or that no longer exists, must leave
# it, and no other class may join it.
NOT_EXIT_CODES = {
    "cli._UsageError": "a command's inconsistent flags, which main reports as exit 1 "
    "before any file is read",
    "embeddings.CompositionError": "per form: an OOV form without a known n-gram is "
    "left out of the batch and becomes its untranslatable slot",
    "embeddings.WordNotFoundError": "internal: EmbeddingSpace.index raises it, and only "
    "the reference functions call index; the command paths use index_or_none",
    "morph.UnknownTagError": "per form: a tag the inflector never saw makes the form "
    "untranslatable",
    "morph.NoRuleError": "per form: no inflection rule matches the lemma, so the form "
    "is untranslatable",
    "morph.NoAnalysisError": "per form: no analysis sends the form down the direct route",
    "pipeline.UntranslatableError": "per form: the slot of a form no route translates, "
    "counted as untranslatable",
}


def defined_errors() -> dict[str, type]:
    """``module.Class`` -> class of every Exception subclass defined in a
    ``src/morphlex`` module; ``__init__.py`` only re-exports."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"morphlex.{path.stem}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                found[f"{path.stem}.{name}"] = obj
    return found


def test_the_scan_sees_every_kind_of_error():
    errors = defined_errors()
    assert errors["embeddings.VecFormatError"].__mro__[1] is DataError
    assert errors["translator.NoTrainablePairsError"].__mro__[1] is UntrainableError
    assert "pipeline.UntranslatableError" in errors


def test_every_error_has_an_exit_code_or_a_reason():
    unclassified = sorted(
        qualified for qualified, cls in defined_errors().items()
        if not issubclass(cls, (DataError, UntrainableError)) and qualified not in NOT_EXIT_CODES
    )
    assert not unclassified, (
        f"error classes with no exit code: {unclassified}; subclass DataError (exit 2) "
        "or UntrainableError (exit 3)"
    )


@pytest.mark.parametrize("qualified", sorted(NOT_EXIT_CODES))
def test_a_listed_error_exists_and_has_no_exit_code(qualified):
    errors = defined_errors()
    assert qualified in errors, f"{qualified} no longer exists: remove it from NOT_EXIT_CODES"
    assert not issubclass(errors[qualified], (DataError, UntrainableError)), (
        f"{qualified} has an exit code now: remove it from NOT_EXIT_CODES"
    )
