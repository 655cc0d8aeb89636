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


def test_oracle_imports_only_model_and_qsde():
    # the oracle is the independent check of the other modules: it takes the
    # algebra's types and shared rules from model and qsde, and is handed any
    # derived data (the composite's product constants, say), never builds it
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            siblings.update([node.module] if node.module else [alias.name for alias in node.names])
    assert siblings == {"model", "qsde"}


# private names that are shared rules, one owner each, read by sibling modules
SHARED_PRIVATE = {
    ("model", "_frozen"),
    ("model", "_gate"),
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


ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _float_constants(tree):
    """Names bound at module level to a float literal expression (_RATE_FLOOR, say)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            if isinstance(value, float):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _reads_float_bound(node, constants):
    return any(
        (isinstance(n, ast.Constant) and isinstance(n.value, float)) or (isinstance(n, ast.Name) and n.id in constants)
        for n in ast.walk(node)
    )


def test_refusals_decide_through_the_gate():
    # a numeric refusal compares its value with its bound in model._gate, the
    # one rule under which a NaN fails; an `if` that raises on its own
    # ordering comparison with a float bound is a second copy of that rule
    found, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = _float_constants(tree)
        seen |= constants
        for node in ast.walk(tree):
            if not isinstance(node, ast.If) or not any(isinstance(n, ast.Raise) for s in node.body for n in ast.walk(s)):
                continue
            for c in ast.walk(node.test):
                if isinstance(c, ast.Compare) and any(isinstance(op, ORDERING) for op in c.ops):
                    if any(_reads_float_bound(x, constants) for x in [c.left, *c.comparators]):
                        found.append("%s:%d" % (path.name, node.lineno))
    assert {"_RATE_FLOOR", "_HURWITZ_MARGIN"} <= seen
    assert found == []


def test_cli_has_no_pass_rule_of_its_own():
    # check rows pass by model.passes, the library's rule; a cli function
    # that returns a comparison would be a second one
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    rules = [f.name for f in functions for r in ast.walk(f) if isinstance(r, ast.Return) and isinstance(r.value, ast.Compare)]
    callers = {
        f.name
        for f in functions
        for n in ast.walk(f)
        if isinstance(n, ast.Attribute) and n.attr == "passes" and getattr(n.value, "id", None) == "model"
    }
    assert len(functions) > 20 and "_passes" not in {f.name for f in functions}
    assert rules == []
    assert {"run", "_check_table"} <= callers


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


# public names kept without a caller in src/, bench/ or the acceptance tests
UNCALLED_PUBLIC = {
    ("model", "affine_mul"): "the product step that multi-point moments (ROADMAP item 10) fold through",
    ("second_moment", "apply_lambda"): "the matrix-free form of Lambda that lambda_operator is tested against",
    ("decoherence", "tau_upper_bound"): "the single-certificate bound that the batched search is tested against",
}


def _names_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    # a name in a submodule's __all__ is read somewhere in src/ other than its
    # own definition, by the benchmark or by an acceptance criterion; one that
    # only its own unit tests reach is surface without a user
    root = SRC.parent.parent
    callers = [*SRC.glob("*.py"), *(root / "bench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    read = set().union(*map(_names_read, callers))
    exported = [
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
        for name in importlib.import_module("quasilin." + path.stem).__all__
    ]
    assert len(exported) >= 60
    uncalled = [pair for pair in exported if pair[1] not in read and pair not in UNCALLED_PUBLIC]
    assert ["%s.%s" % pair for pair in uncalled] == []
    # an allow-listed name that gained a caller leaves the list
    assert sorted(pair for pair in UNCALLED_PUBLIC if pair[1] in read) == []
