import ast
import importlib
from pathlib import Path

import nsp


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from nsp import *", namespace)
    assert [name for name in nsp.__all__ if name not in namespace] == []
    assert len(set(nsp.__all__)) == len(nsp.__all__)


def test_every_name_the_benchmark_imports_exists():
    """perfbench/ reaches the package through ``from nsp.<module> import``;
    a deleted name fails here rather than in a benchmark run."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    imports = [(node.module, alias.name)
               for path in sorted(perfbench.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.startswith("nsp.")
               for alias in node.names]
    assert len(imports) > 10
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
