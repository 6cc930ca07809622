"""Every file is opened, and every JSON and CSV document read or written, in
``trxsave.traffic``: the other modules go through its readers and writers."""

import ast
from pathlib import Path

import pytest

import trxsave

PACKAGE = Path(trxsave.__file__).parent
# module name -> the functions that stay in traffic.py
OWNED = {"json": {"load", "dump"}, "csv": {"reader", "writer"}}


def file_calls(tree: ast.AST) -> list[str]:
    """The calls of builtin ``open``, ``json.load``/``dump`` and ``csv.reader``/``writer``
    in ``tree``, and the imports that would hide them, as ``line: name``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append(f"{node.lineno}: open")
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.attr in OWNED.get(func.value.id, ())):
                found.append(f"{node.lineno}: {func.value.id}.{func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in OWNED:
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names if alias.name in OWNED[node.module]]
    return sorted(found, key=lambda call: int(call.split(":")[0]))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_files_are_opened_only_in_traffic(path):
    calls = file_calls(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "traffic.py":
        assert calls, "the guard no longer sees the calls it is meant to find"
    else:
        assert calls == []


def test_the_guard_sees_each_call():
    source = ("open(p)\nimport json, csv\njson.load(f)\njson.dump(d, f)\n"
              "csv.reader(f)\ncsv.writer(f)\nfrom json import load\njson.loads(s)\n")
    assert file_calls(ast.parse(source)) == [
        "1: open", "3: json.load", "4: json.dump", "5: csv.reader", "6: csv.writer",
        "7: from json import load"]
