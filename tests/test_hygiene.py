import ast
import importlib
import inspect
import pathlib

import quasilin

SRC = pathlib.Path(quasilin.__file__).parent


def test_no_assert_statements_in_package():
    # checks must be real exceptions: python -O strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_every_exported_name_exists():
    # a name left in __all__ after its definition is gone breaks `import *`
    missing = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("quasilin" if path.stem == "__init__" else "quasilin." + path.stem)
        missing += ["%s.%s" % (path.stem, name) for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert missing == []


def test_submodules_export_only_their_own_names():
    # re-exports belong in the package __init__, not in a submodule's __all__
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        module = importlib.import_module("quasilin." + path.stem)
        foreign += ["%s.%s" % (path.stem, name) for name in getattr(module, "__all__", []) if name not in defined]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert foreign == []


def test_no_unused_imports():
    # every name a module imports is read somewhere in it; the package
    # __init__ imports to re-export, and __future__ imports are directives
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name) for name, line in imported.items() if name not in used]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert unused == []


def test_package_exports_its_modules():
    # names are imported from the submodules; validate stays while
    # bench/selftest.py still reads it as quasilin.validate
    names = [name for name in quasilin.__all__ if name != "validate"]
    modules = [getattr(quasilin, name) for name in names]
    assert names and all(inspect.ismodule(m) and m.__name__ == "quasilin." + name for name, m in zip(names, modules))


def test_cli_reads_no_private_module_attribute():
    # the CLI goes through each module's public names only; a private one
    # (qsde._HURWITZ_MARGIN, say) is a second copy of a decision made there
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.asname or alias.name for alias in node.names]
            if node.module is None:
                modules.update(names)
            private += ["cli.py:%d %s" % (node.lineno, name) for name in names if name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                private.append("cli.py:%d %s.%s" % (node.lineno, node.value.id, node.attr))
    assert {"model", "qsde", "oracle_mod"} <= modules
    assert private == []


# private names that are shared rules, one owner each, read by sibling modules
SHARED_PRIVATE = {
    ("model", "_frozen"),
    ("model", "_unital"),
    ("qsde", "_times"),
    ("qsde", "_finite_array"),
    ("qsde", "_hurwitz_abscissa"),
    ("modes", "_pd_sqrt"),
}


def test_modules_import_only_shared_private_names():
    # any other private name imported from a sibling is a bridge around its
    # public interface (a second, unchecked entry point into that module)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                found += [
                    "%s:%d %s.%s" % (path.name, node.lineno, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and (node.module, alias.name) not in SHARED_PRIVATE
                ]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_commands_return_check_rows_not_exit_codes():
    # the exit code comes from run's one pass rule over the returned rows; a
    # command returning an int literal or a conditional would fork that rule
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    returns = [(f.name, node) for f in commands for node in ast.walk(f) if isinstance(node, ast.Return)]
    rows = (ast.List, ast.ListComp, ast.Name)
    found = ["%s:%d" % (name, node.lineno) for name, node in returns if not isinstance(node.value, rows)]
    assert len(commands) == 11 and len(returns) >= 11
    assert found == []


def test_no_kron_in_loops():
    # products of whole stacks are one broadcast, not an np.kron per item
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(loop, loops):
                for node in ast.walk(loop):
                    func = node.func if isinstance(node, ast.Call) else None
                    if isinstance(func, ast.Attribute) and func.attr == "kron" and getattr(func.value, "id", None) == "np":
                        found.add("%s:%d" % (path.name, node.lineno))
    assert len(list(SRC.glob("*.py"))) >= 10
    assert sorted(found) == []


def test_long_einsums_are_optimized():
    # without optimize=, np.einsum loops over every index at once: a
    # four-operand contraction of n x n x n sections costs n^6
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "einsum" and getattr(func.value, "id", None) == "np":
                if len(node.args) > 4 and "optimize" not in {kw.arg for kw in node.keywords}:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []
