"""The package's public surface: every exported name resolves, the package
exports its submodules' lists and nothing else, the stepwise reference stack,
the single-sequence wrappers and the aliases stay out of it, nothing under
``src/`` reaches into the test suite, events have one checker, one scan body
builds every ``BatchStats``, the lazy engine's full passes scan ranges of
sequences, a training step and the full gradient pass share one gradient
function, and no function under ``src/`` builds caches."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import sparsehawkes
from sparsehawkes.evaluate import BenchmarkResult
from sparsehawkes.lazy import LazyCaches, accumulate_lazy_gradient, lazy_log_likelihood
from sparsehawkes.model import Dataset, Sequence
from sparsehawkes.scan import BatchStats
from sparsehawkes.train import AdamState, TrainReport

# ``__main__`` runs the command line when imported.
SUBMODULES = sorted(
    f"sparsehawkes.{info.name}" for info in pkgutil.iter_modules(sparsehawkes.__path__)
    if info.name != "__main__"
)

# The package re-exports these submodules' ``__all__``; the scan machinery
# and the command line stay behind their modules.
EXPORTING = [name for name in SUBMODULES if name not in ("sparsehawkes.cli", "sparsehawkes.scan")]

# The event-by-event reference lives in tests/oracles.py; per-sequence
# questions are asked with batch_sequence_stats(..., subset=(k, k + 1)).
# The aliases went for their direct forms: read_cascade_file(p).dataset and
# read_checkpoint_full.  The dataset summary had no reader.  Sequences are
# built from columns, so the one-event record went with its constructor.
REMOVED = (
    "SequenceScan", "sequence_stats_reference", "SequenceStats", "sequence_stats",
    "alpha", "alpha_row", "intensity", "compensator",
    "lazy_sequence_gradients", "SequenceGradient",
    "parse_cascades", "read_checkpoint", "write_series_tsv",
    "dataset_stats", "DatasetStats", "Event",
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


def test_package_exports_each_submodule_list_once():
    names = [name for module in EXPORTING for name in importlib.import_module(module).__all__]
    assert len(names) == len(set(names))
    assert sorted(sparsehawkes.__all__) == sorted(names + ["__version__"])
    assert len(sparsehawkes.__all__) <= 37


@pytest.mark.parametrize("module_name", ["sparsehawkes"] + SUBMODULES)
def test_removed_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_removed_members_are_gone():
    assert not hasattr(BatchStats, "stats")
    assert "gradients" not in BatchStats.__dataclass_fields__
    assert not hasattr(Dataset, "active_index")
    assert not hasattr(Dataset, "event_offsets")
    assert not hasattr(BatchStats, "active_counts")
    assert not hasattr(Sequence, "events")
    assert not hasattr(Sequence, "active_entities")
    assert "_active" not in Sequence.__slots__
    assert set(BenchmarkResult.__dataclass_fields__).isdisjoint({"entity_touches", "threads"})
    # caches hold the one sum their check vouches for; training keeps its
    # running u_hat and lagged z_hat as plain arrays
    assert set(LazyCaches.__dataclass_fields__) == {"u_hat", "built_from"}
    assert "final_caches" not in TrainReport.__dataclass_fields__
    # the decay's Adam state is the slot array ``AdamState.decay`` in both
    # training modes, and train and train_parallel start up inside one loop
    state = AdamState(sparsehawkes.ModelParams.from_block(np.zeros((1, 4)), 0.0, 1))
    assert [name for name in ("decay_guard", "m_beta", "v_beta", "t_beta", "zeros")
            if hasattr(state, name)] == []
    assert not hasattr(importlib.import_module("sparsehawkes.train"), "_start")
    # gradients are built by the engines, and a zero one as a plain block
    assert not hasattr(sparsehawkes.GradientBuffer, "zeros")
    assert not hasattr(Sequence, "_init_from_arrays")
    assert "__init__" not in vars(Sequence)


def test_sequence_leaves_validation_to_the_one_checker():
    # Sequence and Dataset share model._checked_columns, so no method of
    # Sequence may raise beside it
    tree = ast.parse((Path(sparsehawkes.__file__).parent / "model.py").read_text(encoding="utf-8"))
    cls, = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Sequence"]
    raising = [fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Raise) for node in ast.walk(fn))]
    assert raising == []
    assert "_checked_columns" in _called_names(cls)


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


def _called_names(node):
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_one_scan_body_builds_batch_stats():
    # the banded and the kernel scan are entry points over one body, the only
    # function under src/ that constructs BatchStats
    src = Path(sparsehawkes.__file__).parent
    builders, scan_calls = [], {}
    for path in sorted(src.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = _called_names(fn)
                if "BatchStats" in called:
                    builders.append((path.name, fn.name))
                if path.name == "scan.py":
                    scan_calls[fn.name] = called
    assert len(builders) == 1, builders
    (module, body), = builders
    assert module == "scan.py"
    for entry in ("batch_sequence_stats", "pairwise_sequence_stats"):
        assert body in scan_calls[entry], entry


def test_lazy_full_passes_scan_ranges_of_sequences():
    # a full pass's scratch is bounded by one range of sequences only while
    # every scan in the lazy engine names its range
    path = Path(sparsehawkes.__file__).parent / "lazy.py"
    calls = [call for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(call, ast.Call) and "batch_sequence_stats"
             == getattr(call.func, "id", getattr(call.func, "attr", None))]
    assert calls
    assert all("subset" in {kw.arg for kw in call.keywords} for call in calls)


def test_step_and_full_pass_share_one_gradient_function():
    # a training step is the full gradient pass's range function over one
    # sequence; matrix products, which round a row by its position in the
    # block, stay out of the lazy engine's per-range code
    src = Path(sparsehawkes.__file__).parent
    functions = {}
    for name in ("lazy.py", "train.py"):
        for fn in ast.walk(ast.parse((src / name).read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                functions[name, fn.name] = fn
    shared = _called_names(functions["train.py", "_step"]) & _called_names(
        functions["lazy.py", "_gradient"])
    assert shared & {name for module, name in functions if module == "lazy.py"} == {
        "_range_gradient"}
    assert [name for (module, name), fn in functions.items() if module == "lazy.py"
            and name != "_z_hat"
            and any(isinstance(node, ast.MatMult) for node in ast.walk(fn))] == []
    lazy = importlib.import_module("sparsehawkes.lazy")
    assert [name for name in ("_slot_gradients", "_decay_terms", "_slot_rows")
            if hasattr(lazy, name)] == []


def test_no_function_under_src_builds_caches():
    # the caches hold one sum, u_hat, which the package's own callers take
    # from the parameters; the gradient sums z_hat from its own data
    src = Path(sparsehawkes.__file__).parent
    callers = {(path.name, fn.name) for path in sorted(src.rglob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(fn, ast.FunctionDef) and "build_caches" in _called_names(fn)}
    assert callers == set()


def takes_params_data_and_caches(fn):
    params = inspect.signature(fn).parameters.values()
    return [(p.name, p.default is p.empty) for p in params] == [
        ("params", True), ("data", True), ("caches", True)]


def test_lazy_log_likelihood_takes_params_data_and_caches():
    assert takes_params_data_and_caches(lazy_log_likelihood)


def test_accumulate_lazy_gradient_takes_params_data_and_caches():
    assert takes_params_data_and_caches(accumulate_lazy_gradient)
