"""Every ``def`` parameter in ``src/sparsebeam`` is one its function reads.

A parameter nothing reads is an interface that promises what the code does
not do: callers keep building and passing a value that changes nothing.
``self`` and ``cls`` are exempt, and so are lambdas, whose shape an
interface may fix (the scenario unit parsers take ``(value, field)``).
"""

import ast
from pathlib import Path

import sparsebeam

# (module, qualified name, parameter) -> why it stays unread
ALLOWED = {
    ("selection", "random_selection_baseline", "config"):
        "perfbench/run.py still passes it as a fifth argument (ROADMAP item 1)",
}


def _parameters(fn):
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


def _outer_parts(fn):
    """The parts of a nested function its enclosing scope evaluates."""
    return [*fn.args.defaults, *filter(None, fn.args.kw_defaults),
            *getattr(fn, "decorator_list", ())]


def _reads(node, name):
    """Whether ``name`` is loaded under ``node``, not counting nested
    functions that take a parameter of the same name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            if child.id == name and isinstance(child.ctx, ast.Load):
                return True
        elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and name in _parameters(child)):
            if any(_reads(ast.Expression(part), name) for part in _outer_parts(child)):
                return True
        elif _reads(child, name):
            return True
    return False


def _unread(tree, module):
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found.update(
                        (module, qualname, name)
                        for name in _parameters(child)
                        if name not in ("self", "cls")
                        and not _reads(ast.Module(child.body, []), name)
                    )
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    # the scan itself: closures and defaults read, a shadowing parameter does not
    toy = ast.parse(
        "def closure(a):\n"
        "    return lambda: a\n"
        "def default(b):\n"
        "    def inner(b=b):\n"
        "        return b\n"
        "    return inner\n"
        "def shadowed(c):\n"
        "    def inner(c):\n"
        "        return c\n"
        "    return inner\n"
        "class Kind:\n"
        "    def method(self, d, *e, **f):\n"
        "        return f\n"
    )
    assert _unread(toy, "m") == {
        ("m", "shadowed", "c"), ("m", "Kind.method", "d"), ("m", "Kind.method", "e"),
    }
    found = set()
    for path in sorted(Path(sparsebeam.__file__).parent.glob("*.py")):
        found |= _unread(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set(ALLOWED)
