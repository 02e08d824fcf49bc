"""Static checks over the sources, parsed with ``ast``.

No rungelab module reads another module's private name.  A name with a
leading underscore is private to the module that defines it; a second module
that needs it should get a public name in its owner.  The check parses every
``src/rungelab/*.py`` file and flags ``from .m import _x`` and ``m._x`` where
``m`` names a rungelab module.

No module under ``src/rungelab`` (the package ``__init__`` re-exports, so it
is left out) and no test file imports a name it never reads.
"""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src", "rungelab")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path, modules):
    """(line, text) of every cross-module private read in one source file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "rungelab"
            if not inside:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, f"from {'.' * node.level}{node.module or ''} "
                                               f"import {alias.name}"))
                elif alias.name in modules:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rungelab" and alias.asname and parts[-1] in modules:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    modules = {f[:-3] for f in files}
    offences = []
    for name in files:
        for line, text in private_reads(os.path.join(SRC, name), modules):
            offences.append(f"{name}:{line}: {text}")
    assert not offences, "cross-module private reads:\n" + "\n".join(offences)


def unused_imports(path):
    """(line, name) of every name a file imports and never reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports are directives,
    not names.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_no_unused_imports():
    paths = [os.path.join(SRC, f) for f in sorted(os.listdir(SRC))
             if f.endswith(".py") and f != "__init__.py"]
    paths += [os.path.join(TESTS, f) for f in sorted(os.listdir(TESTS)) if f.endswith(".py")]
    offences = [f"{os.path.relpath(p, ROOT)}:{line}: {name}"
                for p in paths for line, name in unused_imports(p)]
    assert not offences, "unused imports:\n" + "\n".join(offences)
