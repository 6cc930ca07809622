"""Every file is opened, and every JSON and CSV document read or written, in
the two I/O modules: ``trxsave.traffic`` for the per-scan CSVs and
``trxsave.tables`` for small tables and JSON. The other modules go through
their readers and writers, and every per-scan CSV is written by the one
``open(..., "wb")`` in ``traffic.write_rows``. No module imports ``csv``: the one CSV dialect is
split and joined on bare commas. Processes are started only in
``trxsave.parts``. A value type checks itself once, when it is built: no
module defines or calls a ``validate`` or names ``validate_params``, and
``analytics`` never names ``ConfigurationError``: ``cli`` checks the options.
No assignment binds ``_``, so no stage computes a result only to drop it."""

import ast
from pathlib import Path

import pytest

import trxsave

PACKAGE = Path(trxsave.__file__).parent
# the modules that own file I/O
IO_OWNERS = {"traffic.py", "tables.py"}
# module name -> the functions that stay in the I/O modules
OWNED = {"json": {"load", "dump", "loads", "dumps"}}
# methods of a path that read or write its file
PATH_IO = {"read_bytes", "read_text", "write_bytes", "write_text"}


def file_calls(tree: ast.AST) -> list[str]:
    """The calls of builtin ``open``, of a path's ``read_*``/``write_*`` and of
    ``json.load``/``dump``/``loads``/``dumps`` in ``tree``, and the imports that
    would hide them, as ``line: name``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append(f"{node.lineno}: open")
            elif isinstance(func, ast.Attribute) and func.attr in PATH_IO:
                found.append(f"{node.lineno}: .{func.attr}")
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.attr in OWNED.get(func.value.id, ())):
                found.append(f"{node.lineno}: {func.value.id}.{func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in OWNED:
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names if alias.name in OWNED[node.module]]
    return sorted(found, key=lambda call: int(call.split(":")[0]))


def csv_imports(tree: ast.AST) -> list[str]:
    """Every import of the ``csv`` module or of a name from it, as ``line: csv``."""
    return [f"{node.lineno}: csv" for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "csv")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_files_are_opened_only_in_the_io_modules(path):
    calls = file_calls(ast.parse(path.read_text(encoding="utf-8")))
    if path.name in IO_OWNERS:
        assert calls, "the guard no longer sees the calls it is meant to find"
    else:
        assert calls == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_csv(path):
    assert csv_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_each_call():
    source = ("open(p)\nimport json, csv\njson.load(f)\njson.dump(d, f)\n"
              "json.loads(s)\njson.dumps(d)\nfrom json import load\np.read_bytes()\n"
              "Path(p).write_text(s)\njson.JSONDecodeError\nfrom csv import reader\n"
              "import csv as c\n")
    assert file_calls(ast.parse(source)) == [
        "1: open", "3: json.load", "4: json.dump", "5: json.loads", "6: json.dumps",
        "7: from json import load", "8: .read_bytes", "9: .write_text"]
    assert csv_imports(ast.parse(source)) == ["2: csv", "11: csv", "12: csv"]


def binary_writes(tree: ast.AST, scope: str = "<module>") -> list[str]:
    """The function, or ``<module>``, around each ``open(..., "wb")`` call in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            found += [scope for mode in modes
                      if isinstance(mode, ast.Constant) and mode.value == "wb"]
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
        found += binary_writes(node, inner)
    return found


def test_per_scan_files_have_one_writer():
    writes = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
              for scope in binary_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert writes == ["traffic.write_rows"]


def test_the_writer_guard_sees_each_binary_write():
    source = ('open(p, "wb")\ndef f():\n    open(p, mode="wb")\n    def g():\n'
              '        return [open(q, "wb") for q in qs]\n    open(p, "rb")\n'
              '    open(p, "r+b")\nclass C:\n    def h(self):\n        open(p, "wb")\n')
    assert binary_writes(ast.parse(source)) == ["<module>", "f", "g", "h"]


# modules that start processes, and the functions of os that do
PROCESS_MODULES = {"multiprocessing", "concurrent.futures", "subprocess"}
PROCESS_OS = {"fork", "forkpty", "system", "popen", "posix_spawn", "posix_spawnp"}


def process_starts(tree: ast.AST) -> list[str]:
    """Every use of ``os.fork`` (or another ``os`` function that starts a process)
    and every import of ``multiprocessing``, ``concurrent.futures`` or
    ``subprocess``, or of a name from them, as ``line: name``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in PROCESS_OS):
            found.append(f"{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in {"multiprocessing", "subprocess"}
                      or alias.name.startswith("concurrent.futures")]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names = {f"{node.module}.{alias.name}" for alias in node.names}
            if node.module == "os":
                found += [f"{node.lineno}: os.{alias.name}" for alias in node.names
                          if alias.name in PROCESS_OS]
            elif (node.module.split(".")[0] in {"multiprocessing", "subprocess"}
                  or node.module.startswith("concurrent.futures")
                  or "concurrent.futures" in names):
                found.append(f"{node.lineno}: {node.module}")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_processes_are_started_only_in_parts(path):
    uses = process_starts(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "parts.py":
        assert uses, "the guard no longer sees the fork it is meant to find"
        assert all(use.endswith(": os.fork") for use in uses), uses
    else:
        assert uses == []


def test_the_process_guard_sees_each_start():
    source = ("import os\npid = os.fork()\nimport subprocess\nimport multiprocessing.pool\n"
              "from concurrent.futures import ProcessPoolExecutor\nfrom concurrent import futures\n"
              "import concurrent.futures as cf\nfrom os import fork, getpid\nos.system('x')\n"
              "from subprocess import run\nos.getpid()\nimport concurrent\n")
    assert process_starts(ast.parse(source)) == [
        "2: os.fork", "3: subprocess", "4: multiprocessing.pool", "5: concurrent.futures",
        "6: concurrent", "7: concurrent.futures", "8: os.fork", "9: os.system",
        "10: subprocess"]


# the names of checks that a value type's __post_init__ runs when it is built
RECHECKS = {"validate", "validate_params"}


def name_uses(tree: ast.AST, names: set[str]) -> list[str]:
    """Every definition, call, import or other use of one of ``names``, as ``line: name``."""
    found = []
    for node in ast.walk(tree):
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in names:
            found.append(f"{node.lineno}: {name}")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_values_are_checked_only_when_built(path):
    assert name_uses(ast.parse(path.read_text(encoding="utf-8")), RECHECKS) == []


def test_the_recheck_guard_sees_each_use():
    source = ("class C:\n    def validate(self):\n        pass\nc.validate()\n"
              "from m import validate_params\nvalidate_params(p)\nmap(C.validate, cs)\n"
              "validated = validate_all(p)\nm.validate_params\n")
    assert name_uses(ast.parse(source), RECHECKS) == [
        "2: validate", "4: validate", "5: validate_params", "6: validate_params",
        "7: validate", "9: validate_params"]


def test_cluster_options_are_checked_only_in_cli():
    """``cli.cluster`` checks ``--k``, ``--k-min``/``--k-max`` and ``--restarts``
    before any fit, so ``analytics`` has no option to reject."""
    source = (PACKAGE / "analytics.py").read_text(encoding="utf-8")
    assert name_uses(ast.parse(source), {"ConfigurationError"}) == []


def discarded_results(tree: ast.AST) -> list[str]:
    """Every assignment that binds ``_``, alone or inside a tuple or list
    target, as ``line: _``; a ``for _ in ...`` loop is not an assignment."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names = [n for target in node.targets for n in ast.walk(target)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            found += [f"{node.lineno}: _" for n in names if n.id == "_"]
    return sorted(found, key=lambda use: int(use.split(":")[0]))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_result_is_assigned_to_underscore(path):
    assert discarded_results(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_underscore_guard_sees_each_binding():
    source = ("a, _ = f()\n_ = g()\nfor _ in range(3):\n    pass\nx = [y for _, y in z]\n"
              "(_, [b, _]) = h()\n_x = i()\nc = d = _\n")
    assert discarded_results(ast.parse(source)) == ["1: _", "2: _", "6: _", "6: _"]
