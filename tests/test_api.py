"""The package's public surface: every exported name resolves, the
stepwise reference stack and the single-sequence wrappers stay out of it,
and nothing under ``src/`` reaches into the test suite."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparsehawkes
from sparsehawkes.model import Dataset
from sparsehawkes.scan import BatchStats

# ``__main__`` runs the command line when imported.
SUBMODULES = sorted(
    f"sparsehawkes.{info.name}" for info in pkgutil.iter_modules(sparsehawkes.__path__)
    if info.name != "__main__"
)

# The event-by-event reference lives in tests/oracles.py; per-sequence
# questions are asked with batch_sequence_stats(..., subset=(k, k + 1)).
REMOVED = (
    "SequenceScan", "sequence_stats_reference", "SequenceStats", "sequence_stats",
    "alpha", "alpha_row", "intensity", "compensator",
    "lazy_sequence_gradients", "SequenceGradient",
)


@pytest.mark.parametrize("module_name", ["sparsehawkes"] + SUBMODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ lists names it lacks: {missing}"
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("module_name", ["sparsehawkes"] + SUBMODULES)
def test_removed_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_removed_members_are_gone():
    assert not hasattr(BatchStats, "stats")
    assert "gradients" not in BatchStats.__dataclass_fields__
    assert not hasattr(Dataset, "active_index")


def test_package_never_imports_from_tests():
    src = Path(sparsehawkes.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for root in roots
                          if root in ("tests", "oracles", "conftest")]
    assert offenders == []
