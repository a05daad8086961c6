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
    """(where, target, keywords) for every call in *path* to a name imported
    from nsp.<module>, or to an attribute of one, made directly or through
    ``tr.call(span_name, fn, *args, **kwargs)``; *target* is None when the
    attribute does not exist."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {local: getattr(importlib.import_module(module), name)
             for local, module, name in _nsp_imports(tree)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "call" and len(node.args) > 1:
            func = node.args[1]
        if isinstance(func, ast.Name) and func.id in names:
            target, label = names[func.id], func.id
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names):
            target = getattr(names[func.value.id], func.attr, None)
            label = f"{func.value.id}.{func.attr}"
        else:
            continue
        yield (f"{path.name}:{node.lineno} {label}", target,
               [kw.arg for kw in node.keywords if kw.arg is not None])


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    """Each keyword that perfbench/ and the acceptance checks pass to an nsp
    callable or config class names a parameter of its signature, so removing
    a parameter they use fails here rather than in a benchmark run."""
    calls = [call for path in CALLERS for call in _nsp_calls(path)]
    assert sum(len(kws) for _, _, kws in calls) > 10
    bad = []
    for where, target, keywords in calls:
        if target is None:
            bad.append(f"{where}: no such attribute")
        if target is None or not keywords:
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad += [f"{where}: {kw}=" for kw in keywords
                if kw not in params or params[kw].kind is inspect.Parameter.POSITIONAL_ONLY]
    assert bad == []
