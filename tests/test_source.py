"""The package holds only what the program runs: every top-level function
and class, and every method other than a dunder, of `src/morphplan` is
referenced somewhere in `src/morphplan` or `perfbench/` outside its own
definition.  A helper only the tests call belongs in the tests.

References are matched by name: a function or class counts as referenced by
a bare name, an attribute or a string that spells it (the benchmark's
tracer looks names up by string); a method only by an attribute or a
string, so that a local variable of the same name does not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "morphplan").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree):
    """(name, node, is_method) of the module's functions, classes and
    non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub, True


def references(tree):
    """(name, node, by_attribute_or_string) of every name the module uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node, True
        elif isinstance(node, ast.Name):
            yield node.id, node, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node, True


def test_every_package_name_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    refs = [ref for tree in trees.values() for ref in references(tree)]
    unused = []
    for path in PACKAGE:
        for qualname, node, is_method in definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            own = {id(n) for n in ast.walk(node)}
            if not any(r == name and id(n) not in own and (qualified or not is_method)
                       for r, n, qualified in refs):
                unused.append(f"{path.name}: {qualname}")
    assert not unused, "used only by the tests: " + ", ".join(unused)
