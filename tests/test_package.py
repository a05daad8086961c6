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


def test_only_the_calibration_pass_and_the_stream_detect():
    """Inside the package, thresholds are estimated and traces detected only
    by the calibration pass, ``nsp detect`` and the stream's token schedule,
    so a further trace-to-features route fails here instead of drifting."""
    detecting = {"estimate_threshold", "detect_trace"}
    callers = set()
    for path in sorted((ROOT / "src" / "nsp").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in detecting:
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"evaluation._calibrate", "cli.cmd_detect", "sim.build_schedule"}


def test_only_synthdata_owns_the_json_type_rules():
    """Every JSON document is checked by ``synthdata.check`` against its
    declared table, so no other module reaches for a hand-rolled integer
    check of its own."""
    helpers, found = {"_checked_int", "_is_int64"}, []
    for path in sorted((ROOT / "src" / "nsp").glob("*.py")):
        if path.name == "synthdata.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in helpers:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_only_the_gain_step_remembers_gains():
    """In nsp.decode only the uncounted step kernel, ``_gain_step``, keys the
    gain memo by a P's bytes, reads its table, marks remembered gains
    read-only and makes the uncounted state update (``np.matmul`` besides
    the E z reduction); only ``_step`` moves the memo from state to state;
    and the gain-cycle replay ``_replay_gains`` is gone. So a second route
    to the settled gain fails here."""
    uses = {}
    for top in ast.parse((ROOT / "src" / "nsp" / "decode.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                key = "." + node.attr
            elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
                key = node.value.id + "[]"
            elif isinstance(node, (ast.Name, ast.FunctionDef)):
                key = getattr(node, "id", None) or node.name
            else:
                continue
            uses.setdefault(key, set()).add(getattr(top, "name", "<module>"))
    watched = (".tobytes", ".flags", "memo[]", ".memo", ".matmul", "_replay_gains")
    assert {key: uses.get(key, set()) for key in watched} == {
        ".tobytes": {"_gain_step"}, ".flags": {"_gain_step"}, "memo[]": {"_gain_step"},
        ".memo": {"_step"}, ".matmul": {"_gain_step", "ensemble_ez"},
        "_replay_gains": set()}


def test_only_the_gain_functions_factor_the_innovation():
    """In nsp.decode only the gain function of each filter kind, ``_kf_gain``
    or ``_eokf_gain``, calls ``ldl_solve`` or ``inv_small``, so the counted
    and uncounted steps share one covariance and gain recursion, and a
    second copy of it fails here."""
    callers = set()
    for top in ast.parse((ROOT / "src" / "nsp" / "decode.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("ldl_solve", "inv_small")):
                callers.add(getattr(top, "name", "<module>"))
    assert callers == {"_kf_gain", "_eokf_gain"}


def test_only_the_simulator_constructor_sorts_the_schedule():
    """Inside ``nsp.sim`` only ``Simulator.__init__`` calls ``lexsort``, and
    only on a schedule out of the detector's (channel, cycle) order; each
    stage keeps that order and sorts by a single key where it needs
    another. So a stage that sorts the schedule back into cycle order
    fails here."""
    callers = set()
    for top in ast.parse((ROOT / "src" / "nsp" / "sim.py").read_text(encoding="utf-8")).body:
        prefix = top.name + "." if isinstance(top, ast.ClassDef) else ""
        for member in (top.body if prefix else [top]):
            for node in ast.walk(member):
                if "lexsort" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    callers.add(prefix + getattr(member, "name", "<body>"))
    assert callers == {"Simulator.__init__"}


def test_only_the_selection_numbers_pairs():
    """Inside ``src/nsp`` only ``decode.Selection`` forms a pair number
    (``<< PAIR_ID_BITS``), and it finds a column through its hash table, with
    no ``searchsorted``. So a second pair-to-column lookup fails here."""
    shifts, sorted_lookups = set(), []
    for path in sorted((ROOT / "src" / "nsp").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.name}:{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                        and "PAIR_ID_BITS" in ast.dump(node.right)):
                    shifts.add(owner)
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if owner == "decode.py:Selection" and name == "searchsorted":
                    sorted_lookups.append(node.lineno)
    assert shifts == {"decode.py:Selection"}
    assert sorted_lookups == []


def test_only_detect_rows_reads_mask_words():
    """Inside ``src/nsp`` only ``detect.detect_rows`` views a buffer as
    ``'<u8'`` words, and no module calls ``bitwise_count``, which needs
    numpy >= 2.0 where ``pyproject.toml`` allows 1.24."""
    word_views, counts = set(), []
    for path in sorted((ROOT / "src" / "nsp").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.name}:{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "view"
                        and any(isinstance(a, ast.Constant) and a.value == "<u8"
                                for a in node.args)):
                    word_views.add(owner)
                if "bitwise_count" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    counts.append(f"{owner}:{node.lineno}")
    assert word_views == {"detect.py:detect_rows"}
    assert counts == []
