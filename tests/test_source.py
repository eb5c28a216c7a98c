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
of the function body, not a parameter.  Calls are resolved to the module
they reach: `module.name(...)` reaches the `name` of that module, and a bare
`name(...)` the `name` its module imports or defines, so that a function of
one module hides no same-named function of another.  A call on any other
object reaches every method of that name; a class's `__init__` is called
through the class name."""

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


def import_bindings(tree):
    """What the module's imports bind: {name: module} for each name that
    stands for a module, and {name: (module, imported name)} for each other
    imported name; a module is known by its last dotted component, which
    for a program module is its file's stem."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if source in ("", "morphplan"):   # a module of the package
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (source, alias.name)
    return modules, names


def dotted(node):
    """The dotted name an expression spells, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def program_calls():
    """(module, name, call) of each call in the program.  The module is the
    one a `module.name(...)` call names, or the one a bare `name(...)`
    imports the name from or defines it in; None for a call on any other
    object.  A bare name the module neither imports nor defines (a builtin,
    a local) reaches no program function and is left out."""
    calls = []
    for path in PROGRAM:
        tree = ast.parse(path.read_text())
        modules, names = import_bindings(tree)
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute):
                calls.append((modules.get(dotted(f.value)), f.attr, node))
            elif isinstance(f, ast.Name) and f.id in names:
                calls.append((*names[f.id], node))
            elif isinstance(f, ast.Name) and f.id in defined:
                calls.append((path.stem, f.id, node))
    return calls


def calls_to(calls, module, name, cls):
    """The calls that may reach the function `name` of class `cls` (or None)
    defined in `module`."""
    for target, callee, node in calls:
        if cls is None:
            hit = (target, callee) == (module, name)
        elif name == "__init__":
            hit = (target, callee) == (module, cls)
        else:
            hit = target is None and callee == name
        if hit:
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
    calls = program_calls()
    unpassed = []
    for path in PACKAGE:
        for qualname, node, cls in functions(ast.parse(path.read_text())):
            if f"{path.name}: {qualname}" in DEFAULT_EXEMPT:
                continue
            reaching = list(calls_to(calls, path.stem, node.name, cls))
            unpassed += [f"{path.name}: {qualname}({param})"
                         for param, position in defaulted(node, cls)
                         if not any(passes(c, param, position) for c in reaching)]
    assert not unpassed, "defaults no program call overrides: " + ", ".join(unpassed)


def test_no_default_is_passed_by_every_program_call():
    """A default that every program call overrides is read only by the
    tests; the parameter is then required."""
    calls = program_calls()
    always = []
    for path in PACKAGE:
        for qualname, node, cls in functions(ast.parse(path.read_text())):
            reaching = list(calls_to(calls, path.stem, node.name, cls))
            always += [f"{path.name}: {qualname}({param})"
                       for param, position in defaulted(node, cls)
                       if reaching and all(passes(c, param, position) for c in reaching)]
    assert not always, "defaults every program call overrides: " + ", ".join(always)


def dataclass_fields(tree):
    """(class name, field name) of every field the module's dataclasses
    declare."""
    for node in tree.body:
        decorators = [dotted(d.func if isinstance(d, ast.Call) else d)
                      for d in getattr(node, "decorator_list", [])]
        if isinstance(node, ast.ClassDef) and \
                {"dataclass", "dataclasses.dataclass"} & set(decorators):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def test_every_dataclass_field_is_read_by_the_program():
    """Every field a dataclass of `src/morphplan` declares is read in
    `src/morphplan` or `perfbench/`, as an attribute or as a string (the
    benchmark looks some up by string).  A `__post_init__` that only
    normalizes its own fields reads none of them.  Fields are matched by
    name, so a read of a same-named field of another class hides an unread
    one."""
    reads = set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text())
        post_init = {id(n) for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                     for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in post_init:
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = [f"{path.name}: {cls}.{name}" for path in PACKAGE
              for cls, name in dataclass_fields(ast.parse(path.read_text())) if name not in reads]
    assert not unread, "dataclass fields the program never reads: " + ", ".join(unread)
