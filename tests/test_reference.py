"""The reference model itself: its rule and its reach."""

import ast
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
MODEL = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))


def test_reference_model_imports_no_qracah():
    # the model shares no code with the library: it imports the standard
    # library only, and no qracah module at any depth
    modules = [alias.name for node in ast.walk(MODEL) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(MODEL) if isinstance(node, ast.ImportFrom)]
    assert modules
    for module in modules:
        assert module.split(".")[0] != "qracah", module
        assert module.split(".")[0] in sys.stdlib_module_names, module


def test_every_reference_function_is_read_by_a_test():
    # each function of the model is read, by its whole name, as
    # reference.<name> in a test module, or called by a model function
    # that is read so, at any depth
    tests = "".join(path.read_text(encoding="utf-8") for path in TESTS.glob("test_*.py"))
    functions = {node.name: node for node in MODEL.body if isinstance(node, ast.FunctionDef)}
    read = {name for name in functions if re.search(rf"\breference\.{re.escape(name)}\b", tests)}
    for _ in functions:  # no call chain is longer than the model
        read |= {node.func.id for name in read for node in ast.walk(functions[name])
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions}
    assert sorted(functions.keys() - read) == []
