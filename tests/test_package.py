import ast
import importlib
import inspect
from pathlib import Path

import nsp


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from nsp import *", namespace)
    assert [name for name in nsp.__all__ if name not in namespace] == []
    assert len(set(nsp.__all__)) == len(nsp.__all__)


ROOT = Path(__file__).resolve().parent.parent
# the files that reach the package from outside it and are not edited with it
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _nsp_imports(tree) -> list:
    """(local name, module, name) for every ``from nsp.<module> import``."""
    return [(alias.asname or alias.name, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.startswith("nsp.")
            for alias in node.names]


def test_every_name_the_benchmark_imports_exists():
    """perfbench/ and the acceptance checks reach the package through
    ``from nsp.<module> import``; a deleted name fails here rather than in a
    benchmark run."""
    imports = [row for path in CALLERS
               for row in _nsp_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(imports) > 10
    missing = [f"{module}.{name}" for _, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _nsp_calls(path: Path):
    """(where, target, call node, first) for every call in *path* to a name
    imported from nsp.<module>, or to an attribute of one, made directly or
    through ``tr.call(span_name, fn, *args, **kwargs)``; the target's
    arguments are ``node.args[first:]`` and the keywords, and *target* is
    None when the attribute does not exist."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {local: getattr(importlib.import_module(module), name)
             for local, module, name in _nsp_imports(tree)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, first = node.func, 0
        if isinstance(func, ast.Attribute) and func.attr == "call" and len(node.args) > 1:
            func, first = node.args[1], 2
        if isinstance(func, ast.Name) and func.id in names:
            target, label = names[func.id], func.id
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names):
            target = getattr(names[func.value.id], func.attr, None)
            label = f"{func.value.id}.{func.attr}"
        else:
            continue
        yield f"{path.name}:{node.lineno} {label}", target, node, first


def test_every_call_the_benchmark_makes_binds():
    """Each call that perfbench/ and the acceptance checks make to an nsp
    callable or config class binds to its signature, positional arguments
    and keywords alike, so removing or reordering a parameter they use fails
    here rather than in a benchmark run. A call with ``*args`` or
    ``**kwargs`` cannot be bound without running it, nor can a call to a
    builtin without a signature (``cache_clear``); those are skipped."""
    calls = [call for path in CALLERS for call in _nsp_calls(path)]
    bad, bound = [], 0
    for where, target, node, first in calls:
        if target is None:
            bad.append(f"{where}: no such attribute")
            continue
        args = node.args[first:]
        if (any(isinstance(a, ast.Starred) for a in args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        try:
            signature = inspect.signature(target)
        except ValueError:
            continue
        try:
            signature.bind(*args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            bad.append(f"{where}: {exc}")
        bound += 1
    assert bound > 100
    assert bad == []
