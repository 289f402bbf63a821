"""
Every function, class and method in ``src/fiberpoisson`` has a caller in
``src/``, apart from an explicit allow-list.

Names are matched in the syntax trees: a function or class is used where
its name is read, as a name or as an attribute; a method only where it is
reached as an attribute (``.flat``), so a local variable of the same name
does not count.  A name read where an enclosing function binds that name
(an argument, or an assignment, loop or comprehension target) reads the
local, so it is no use either.  A reference inside the definition itself
(recursion) and the re-exports in ``__init__.py`` are not uses.  A second
scan finds the imports that ``src/`` never reads.

What the scan cannot see: a method counts as used when an attribute of
its name is read on any object, so a tensor method ``scale`` would be kept
by the reads of the series' ``scale``; dunder methods are skipped, so an
``__rsub__`` that nothing calls stays; and data attributes are not
definitions, so a stored ``self.data`` that nothing reads stays.  Such
names are found only by tracing the calls, for example with
``sys.setprofile`` over the test suite.
"""

import ast
import importlib
from pathlib import Path

import fiberpoisson

SRC = Path(fiberpoisson.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Names kept without a caller in src/, each for a stated reason.  The first
# six are rows of the benchmark tracer's tables, which it looks up by name,
# so they go together with their rows; first_approx_check is the paper's
# first-approximation contract, which the linearize command is to report.
# multivector.schouten is a tracer row too, and no command calls it since part
# 2 of moser-verify left the coordinates, but it is not listed: its one caller
# in src/ is lie_derivative, and the scan counts that call.
ALLOWED = {
    "multivector.wedge",
    "multivector.lie_derivative",
    "moser.phi_bracket",
    "moser.horizontal_field",
    "holonomy.parallel_transport",
    "series.FiberSeries.evaluate_float",
    "linearize.first_approx_check",
}
NOT_TRACED = {"linearize.first_approx_check"}


def _bound(func):
    """The names that a function binds: its arguments and the targets of its
    assignments, loops and comprehensions, nested definitions apart."""
    names, todo = set(), [func.args] + func.body
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _scan(node, scope, in_class, defs, uses, local=frozenset()):
    """Record the definitions under ``node`` as qualified name -> (name,
    is_method), and its name reads as (name, is_attribute, scope); a read of
    a name in ``local``, bound by an enclosing function, is none."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
            if not (child.name.startswith("__") and child.name.endswith("__")):
                defs[".".join(inner)] = (child.name, in_class
                                         and not isinstance(child, ast.ClassDef))
            bound = local if isinstance(child, ast.ClassDef) else local | _bound(child)
            _scan(child, inner, isinstance(child, ast.ClassDef), defs, uses, bound)
            continue
        if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                and child.id not in local):
            uses.append((child.id, False, scope))
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            uses.append((child.attr, True, scope))
        _scan(child, scope, False, defs, uses, local)


def unused(sources):
    """The qualified names defined in ``sources`` (module name -> text)
    that no read in them reaches."""
    defs, uses = {}, []
    for module, text in sources.items():
        _scan(ast.parse(text, module), (module,), False, defs, uses)
    used = set()
    for name, is_attr, scope in uses:
        inside = {".".join(scope[:k]) for k in range(2, len(scope) + 1)}
        used.update(q for q, (n, is_method) in defs.items()
                    if n == name and (is_attr or not is_method) and q not in inside)
    return set(defs) - used


def tracer_rows():
    """The (module, attribute path) of every row of the tracer's STORED and
    FOLDED tables, read without importing the benchmark."""
    rows = []
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] in (["STORED"],
                                                                                ["FOLDED"])):
            rows += [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    return rows


def test_only_the_allow_list_lacks_a_caller():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    assert sorted(unused(sources)) == sorted(ALLOWED)


def test_a_local_of_a_methods_name_and_recursion_are_no_calls():
    text = ("class C:\n"
            "    def flat(self):\n        return 0\n"
            "    def again(self):\n        return self.again()\n"
            "def f(flat):\n    return C, flat\n"
            "def g():\n    return f\n")
    assert unused({"m": text}) == {"m.C.flat", "m.C.again", "m.g"}
    # a module function's name read as an argument, an assigned local or a
    # comprehension target of another function
    text += ("def h(g):\n    k = g\n    return k, [f for f in g]\n"
             "def k():\n    return h\n")
    assert unused({"m": text}) == {"m.C.flat", "m.C.again", "m.g", "m.k"}


def test_every_tracer_row_resolves():
    rows = tracer_rows()
    assert len(rows) > 30
    for module, attr in rows:
        owner = importlib.import_module("fiberpoisson." + module)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer wraps a method as found in its class's own __dict__
        assert name in (vars(owner) if classes else dir(owner)), "%s.%s" % (module, attr)


def test_every_allowed_name_is_a_tracer_row():
    traced = {"%s.%s" % row for row in tracer_rows()}
    for name in ALLOWED - NOT_TRACED:
        assert name in traced, ("%s is allowed only as a tracer row, and the tracer no "
                                "longer wraps it: delete it and its allow-list entry" % name)


def test_no_unused_imports():
    # __init__.py re-exports the public API
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d: %s is imported but never used" % (path.name, node.lineno, name)
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                   if name not in used]
    assert not unused, "\n".join(unused)
