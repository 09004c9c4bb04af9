import ast
import inspect
import sys
from pathlib import Path

import cb2cf
from process_helpers import BLAS_THREAD_VARS, fresh_python


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


def test_every_public_function_and_class_is_used_by_the_package_or_exported():
    """A public top-level function or class that no module of the package
    refers to outside its own definition, and that ``__all__`` leaves out,
    serves only tests: it belongs in ``tests/``."""
    package = Path(cb2cf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    refs = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{module}.{fn.name}" for module, tree in trees.items() for fn in tree.body
              if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and not fn.name.startswith("_")
              and fn.name not in cb2cf.__all__
              and not any(name == fn.name and not (where == module and
                                                   fn.lineno <= line <= fn.end_lineno)
                          for where, line, name in refs)]
    assert unused == []


def test_import_pins_blas_to_one_thread_unless_set_or_numpy_came_first():
    """Each case runs in a fresh interpreter: BLAS reads the variables once,
    when numpy loads."""
    show = f"; import os; print([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])"
    assert fresh_python("-c", "import cb2cf" + show) == "['1', '1', '1']\n"
    assert fresh_python("-c", "import cb2cf" + show, OPENBLAS_NUM_THREADS="3") == \
        "['3', '1', '1']\n"
    assert fresh_python("-c", "import numpy, cb2cf" + show) == "[None, None, None]\n"


def test_only_the_package_init_names_the_blas_thread_variables():
    """The package sets the BLAS thread count once, as it loads; no other
    module reads or sets it."""
    package = Path(cb2cf.__file__).parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if any(var in path.read_text(encoding="utf-8") for var in BLAS_THREAD_VARS)]
    assert naming == ["__init__.py"]
