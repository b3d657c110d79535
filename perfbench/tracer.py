"""In-memory span tracer that wraps the public functions of ``sparsebeam``.

The tracer never edits the package source.  It replaces each target
function at every module binding that callers resolve (for example
``project`` is bound in both ``sparsebeam.admm`` and
``sparsebeam.projections``) and puts the originals back on ``uninstall``.
Every call becomes a span with a name, start, end, parent and operation id,
kept in flat arrays until the run ends.
"""

import contextlib
import functools
import sys
import time
from array import array

PACKAGE = "sparsebeam"

# (module, attribute) pairs; a dotted attribute names a method on a class
TARGETS = (
    ("cli", "main"),
    ("scenario", "load_scenario"),
    ("problem", "assemble"),
    ("problem", "ProblemInstance.restrict"),
    ("admm", "solve"),
    ("admm", "update_v"),
    ("admm", "update_w"),
    ("admm", "update_u"),
    ("admm", "find_feasible_point"),
    ("admm", "cyclic_projection"),
    ("admm", "restore_feasibility"),
    ("projections", "project"),
    ("shrinkage", "group_shrink"),
    ("selection", "refit"),
    ("selection", "select_support"),
    ("selection", "random_selection_baseline"),
    ("metrics", "design_report"),
    ("metrics", "msrr"),
)


def span_name(module, attr):
    """Span name of a target: ``admm.solve``, ``problem.restrict``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _support_arg(args, kwargs, result):
    support = args[1] if len(args) > 1 else kwargs["support"]
    return tuple(sorted(int(n) for n in support))


# small facts kept per span, taken from the arguments or the returned value;
# ``result`` is None when the call raised.  A fact that cannot be read (the
# function's signature or result changed) is kept as None.
NOTES = {
    "projections.project": lambda a, k, r: None if r is None else bool(r.active),
    "admm.cyclic_projection": lambda a, k, r: None if r is None else bool(r[2]),
    "admm.restore_feasibility": lambda a, k, r: None if r is None else bool(r[2]),
    "admm.solve": lambda a, k, r: None if r is None else int(r.k),
    "selection.refit": _support_arg,
}


class Tracer:
    """Records nested spans for the wrapped functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []  # span-name table; spans store an index into it
        self.missing = []  # targets that do not exist in the package
        self._name_index = {}
        self._patched = []  # (owner, attribute, original) in patch order
        self._stack = []  # open spans, innermost last
        self.op = -1  # operation id stamped on new spans
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.error = []  # exception class name or None, per span
        self.note = []

    def __len__(self):
        return len(self.start)

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the caller's."""
        i = self._open(self._intern(name))
        try:
            yield
        except BaseException as exc:
            self._close(i, type(exc).__name__)
            raise
        self._close(i)

    def _intern(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_index):
        i = len(self.start)
        self.name.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.error.append(None)
        self.note.append(None)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i, error=None, note=None):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.error[i] = error
        self.note[i] = note

    def _wrap(self, name, fn):
        index = self._intern(name)
        reader = NOTES.get(name)

        def note(args, kwargs, result):
            try:
                return reader(args, kwargs, result) if reader else None
            except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i, type(exc).__name__, note(args, kwargs, None))
                raise
            self._close(i, None, note(args, kwargs, result))
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every target at every binding inside the package."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.missing = []
        for module, attr in self.targets:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(span_name(module, attr), original)
            if len(path) > 1:
                self._patch(owner, path[-1], original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper):
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        """Put every original binding back, newest patch first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -----------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def spans_by_name(self):
        """Span indices grouped by span name."""
        groups = {name: [] for name in self.names}
        for i, n in enumerate(self.name):
            groups[self.names[n]].append(i)
        return groups

    def ancestor(self, i, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        index = self._name_index.get(name)
        p = self.parent[i]
        while p >= 0 and self.name[p] != index:
            p = self.parent[p]
        return p

