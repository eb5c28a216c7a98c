"""The package holds only what the program runs: every top-level function
and class, and every method other than a dunder, of `src/morphplan` is
referenced somewhere in `src/morphplan` or `perfbench/` outside its own
definition.  A helper only the tests call belongs in the tests.

References are matched by name: a function or class counts as referenced by
a bare name, an attribute or a string that spells it (the benchmark's
tracer looks names up by string); a method only by an attribute or a
string, so that a local variable of the same name does not count.

Each routine has one calling convention, the program's: every defaulted
parameter of a function or method of `src/morphplan` is passed by some call
in `src/morphplan` or `perfbench/`.  A value no call passes is a constant
of the function body, not a parameter.  Calls are matched by name, as
references are; a class's `__init__` is called through the class name."""

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


# the entry point's argv defaults to the command line; the tests pass it
DEFAULT_EXEMPT = {"cli.py: main"}


def functions(tree):
    """(qualname, node, owning class or None) of every function and method."""
    owner = {id(sub): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for sub in node.body if isinstance(sub, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            cls = owner.get(id(node))
            yield (f"{cls}.{node.name}" if cls else node.name), node, cls


def defaulted(node, cls):
    """(name, position among the arguments a caller writes, or None for a
    keyword-only parameter) of each parameter that has a default."""
    args = node.args.posonlyargs + node.args.args
    skip = 1 if cls else 0   # self, or the instance a class call makes
    for i in range(len(args) - len(node.args.defaults), len(args)):
        yield args[i].arg, i - skip
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls_to(calls, name, cls):
    """The calls that may reach the function `name` of class `cls` (or None)."""
    callee = cls if name == "__init__" else name
    for node in calls:
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == callee:
            yield node
        elif isinstance(f, ast.Name) and f.id == callee and (cls is None or name == "__init__"):
            yield node


def passes(call, name, position):
    """Whether the call passes the parameter: by keyword, by position, or
    possibly through * or **."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[:position + 1])


def test_every_default_is_passed_by_the_program():
    calls = [node for path in PROGRAM for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    unpassed = []
    for path in PACKAGE:
        for qualname, node, cls in functions(ast.parse(path.read_text())):
            if f"{path.name}: {qualname}" in DEFAULT_EXEMPT:
                continue
            reaching = list(calls_to(calls, node.name, cls))
            unpassed += [f"{path.name}: {qualname}({param})"
                         for param, position in defaulted(node, cls)
                         if not any(passes(c, param, position) for c in reaching)]
    assert not unpassed, "defaults no program call overrides: " + ", ".join(unpassed)


# `power`'s coefficients reach it through `**Scenario.energy_coeffs()`, which
# holds only the coefficients a scenario sets, so the defaults are the
# program's for every scenario that leaves them out
PASSED_EXEMPT = {"dynamics.py: power"}


def test_no_default_is_passed_by_every_program_call():
    """A default that every program call overrides is read only by the
    tests; the parameter is then required."""
    calls = [node for path in PROGRAM for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    always = []
    for path in PACKAGE:
        for qualname, node, cls in functions(ast.parse(path.read_text())):
            if f"{path.name}: {qualname}" in PASSED_EXEMPT:
                continue
            reaching = list(calls_to(calls, node.name, cls))
            always += [f"{path.name}: {qualname}({param})"
                       for param, position in defaulted(node, cls)
                       if reaching and all(passes(c, param, position) for c in reaching)]
    assert not always, "defaults every program call overrides: " + ", ".join(always)
