"""Every file is opened, and every JSON and CSV document read or written, in
``trxsave.traffic``: the other modules go through its readers and writers. No
module imports ``csv``: the one CSV dialect is split and joined on bare commas.
Processes are started only in ``trxsave.parts``."""

import ast
from pathlib import Path

import pytest

import trxsave

PACKAGE = Path(trxsave.__file__).parent
# module name -> the functions that stay in traffic.py
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
def test_files_are_opened_only_in_traffic(path):
    calls = file_calls(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "traffic.py":
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
