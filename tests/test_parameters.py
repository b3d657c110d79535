"""Every ``def`` parameter in ``src/sparsebeam`` is one its function reads,
every fixture a ``test_*`` function in ``tests/`` takes is one it reads, and
so is every parameter of a module-level helper in ``tests/``.

A parameter nothing reads is an interface that promises what the code does
not do: callers keep building and passing a value that changes nothing.
``self`` and ``cls`` are exempt, and so are lambdas, whose shape an
interface may fix (the scenario unit parsers take ``(value, field)``).  In
``tests/`` only the fixtures of ``test_*`` functions are held to it: a
parametrize or ``given`` argument is the case's data, and stand-ins and
callbacks (``*args, **kwargs``, ``W, row``) take what their caller passes.
A module-level helper is held to it like the package's functions.
"""

import ast
from pathlib import Path

import sparsebeam

# (module, qualified name, parameter) -> why it stays unread
ALLOWED = {
    ("selection", "random_selection_baseline", "config"):
        "perfbench/run.py still passes it as a fifth argument (ROADMAP item 1)",
}
# (test module, helper, parameter) -> why it stays unread
ALLOWED_HELPERS = {
    ("oracles", "_sinr_slope", "target"):
        "a callback: _secular_root passes the slope the secular function's args",
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


def _supplied(decorators, params):
    """The parameters that ``parametrize`` or hypothesis's ``given`` fill,
    not fixtures; ``given``'s positional strategies fill the last ones."""
    names = set()
    for deco in decorators:
        if not isinstance(deco, ast.Call):
            continue
        called = ast.unparse(deco.func)
        if called.endswith("parametrize"):
            argnames = ast.literal_eval(deco.args[0])
            if isinstance(argnames, str):
                argnames = argnames.split(",")
            names.update(name.strip() for name in argnames)
        elif called.split(".")[-1] == "given":
            names.update(kw.arg for kw in deco.keywords)
            names.update(params[len(params) - len(deco.args):])
    return names


def _unread_fixtures(tree, module):
    found = set()

    def visit(node, prefix, inherited):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                supplied = inherited | _supplied(child.decorator_list, [])
                visit(child, prefix + child.name + ".", supplied)
            elif isinstance(child, ast.FunctionDef) and child.name.startswith("test_"):
                params = _parameters(child)
                supplied = inherited | _supplied(child.decorator_list, params) | {"self"}
                found.update(
                    (module, prefix + child.name, name)
                    for name in params
                    if name not in supplied and not _reads(ast.Module(child.body, []), name)
                )

    visit(tree, "", set())
    return found


def test_every_fixture_a_test_takes_is_read():
    # the scan itself: parametrize and given arguments and stand-ins are exempt
    toy = ast.parse(
        "@pytest.mark.parametrize('a, b', [(1, 2)])\n"
        "def test_parametrized(a, b, tmp_path):\n"
        "    return tmp_path\n"
        "@given(st.integers())\n"
        "def test_given(capsys, x):\n"
        "    return 0\n"
        "@pytest.mark.parametrize(['c'], [(1,)])\n"
        "class TestKind:\n"
        "    def test_method(self, c, paper_scenario):\n"
        "        def stand_in(*args, **kwargs):\n"
        "            return None\n"
        "        return stand_in\n"
        "def helper(unused):\n"
        "    return 0\n"
    )
    assert _unread_fixtures(toy, "m") == {
        ("m", "test_given", "capsys"), ("m", "TestKind.test_method", "paper_scenario"),
    }
    found = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        found |= _unread_fixtures(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set()


def _unread_helpers(tree, module):
    """The unread parameters of the module-level functions not named test_*."""
    return {
        (module, fn.name, name)
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("test_")
        for name in _parameters(fn)
        if not _reads(ast.Module(fn.body, []), name)
    }


def test_every_parameter_a_test_helper_takes_is_read():
    # the scan itself: tests, methods and nested stand-ins are exempt
    toy = ast.parse(
        "def helper(a, b):\n"
        "    def stand_in(*args):\n"
        "        return None\n"
        "    return a\n"
        "def test_case(paper_scenario):\n"
        "    return 0\n"
        "class Kind:\n"
        "    def method(self, c):\n"
        "        return 0\n"
    )
    assert _unread_helpers(toy, "m") == {("m", "helper", "b")}
    found = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        found |= _unread_helpers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set(ALLOWED_HELPERS)
