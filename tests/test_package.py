import ast
import inspect
import sys
from pathlib import Path

import cb2cf


def test_every_public_name_imports_and_is_callable_or_a_class():
    assert len(set(cb2cf.__all__)) == len(cb2cf.__all__)
    namespace: dict = {}
    exec("from cb2cf import *", namespace)
    for name in cb2cf.__all__:
        obj = namespace[name]
        assert inspect.isclass(obj) or callable(obj), name


def test_the_package_imports_only_the_stdlib_and_numpy():
    """The runtime needs numpy and nothing else outside the standard library."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    package = Path(cb2cf.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.append((path.name, node.module))
    assert ("sgns.py", "numpy") in found
    assert [(name, module) for name, module in found
            if module.partition(".")[0] not in allowed] == []


def test_every_public_function_is_used_by_the_package_or_exported():
    """A public top-level function that no module of the package refers to
    outside its own definition, and that ``__all__`` leaves out, serves only
    tests: it belongs in ``tests/``."""
    package = Path(cb2cf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    refs = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{module}.{fn.name}" for module, tree in trees.items() for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.name not in cb2cf.__all__
              and not any(name == fn.name and not (where == module and
                                                   fn.lineno <= line <= fn.end_lineno)
                          for where, line, name in refs)]
    assert unused == []
