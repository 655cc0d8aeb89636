import ast
import importlib
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
