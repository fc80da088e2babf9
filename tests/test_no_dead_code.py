"""Every top-level function, class and assigned name of the package, and
every method that is not a dunder, is referenced somewhere in src/,
tests/, demos/ or bench/ outside its own definition, every
module-level import of a package module is used in that module, and
the package imports nothing outside the standard library.

References are read from the syntax trees of the Python files (names,
attributes, imported names, and strings that are identifiers, such as a
monkeypatch target) and as words from the shell scripts, so a mention in
a docstring or a comment does not keep a definition alive.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactalg"
SEARCHED = ("src", "tests", "demos", "bench")


def references(tree: ast.AST) -> Counter:
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out[node.value] += 1
    return out


def definitions(tree: ast.Module):
    """The top-level functions, classes and non-dunder assigned names, and
    the non-dunder methods, as (name, defining node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not re.fullmatch(r"__\w+__", name.id):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield member.name, member


def test_every_definition_is_referenced():
    total: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            total += references(ast.parse(path.read_text(), str(path)))
        for path in sorted((ROOT / top).rglob("*.sh")):
            total.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(ast.parse(path.read_text(), str(path))):
            # a reference inside the definition itself (recursion, or the
            # assigned name) does not count
            if total[name] - references(node)[name] <= 0:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, "referenced nowhere else: " + ", ".join(dead)


def imported_names(tree: ast.Module):
    """The names bound by the module-level imports, with their nodes;
    from __future__ binds none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {name}" for name, node in imported_names(tree) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_only_the_standard_library_is_imported():
    """The package has no runtime dependencies: every absolute import,
    at any depth, names a standard-library module."""
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            foreign += [f"{path.name}:{node.lineno} {t}" for t in sorted(top - sys.stdlib_module_names)]
    assert not foreign, "imports outside the standard library: " + ", ".join(foreign)
