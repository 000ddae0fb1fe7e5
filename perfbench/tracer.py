"""Span tracer that times a package's public functions from the outside.

The tracer replaces each public function of a package with a timing wrapper
wherever the function is looked up: in its defining module and in every
module that imported it by name.  Listed class methods are wrapped on their
class.  Nothing in the package itself changes, and ``uninstall`` restores
every original object.

Each call becomes one span (name, start, end, parent, exception class).
Spans live in flat integer arrays in memory and are written out with
``save`` once the traced work is over.  Calls run in one thread, so spans
nest strictly and a span's self time is its duration minus the summed
durations of its direct children.
"""

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1
NO_ERROR = -1


class Tracer:
    """Collects nested call spans; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names = []
        self._name_ids = {}
        self.error_classes = []
        self._error_ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.error = array("q")
        self._stack = [NO_PARENT]
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _error_id(self, cls):
        key = cls.__name__
        if key not in self._error_ids:
            self._error_ids[key] = len(self.error_classes)
            self.error_classes.append(key)
        return self._error_ids[key]

    def _open(self, name_id):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.error.append(NO_ERROR)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(self._clock())
        return index

    def _close(self, index, exc_type=None):
        self.end[index] = self._clock()
        self._stack.pop()
        if exc_type is not None:
            self.error[index] = self._error_id(exc_type)

    def wrap(self, fn, name, on_return=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``on_return`` receives each successful result, after the span closed.
        """
        name_id = self._name_id(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close_span(index, type(exc))
                raise
            close_span(index)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span (used for the root)."""
        index = self._open(self._name_id(name))
        try:
            yield
        except BaseException as exc:
            self._close(index, type(exc))
            raise
        self._close(index)

    def install(self, package, methods=(), on_return=None):
        """Wrap every public function of the imported modules of ``package``.

        ``methods`` lists class methods to wrap as ``"module.Class.method"``
        (module names relative to the package).  ``on_return`` maps span
        names to result callbacks.  Span names are the defining module,
        relative to the package, joined to the qualified name.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        on_return = on_return or {}
        prefix = package + "."
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None and (name == package or name.startswith(prefix))]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix) or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__[len(prefix):]}.{obj.__qualname__}"
                    wrappers[obj] = self.wrap(obj, name, on_return.get(name))
                self._patch(module, attr, wrappers[obj])
        for spec in methods:
            module_name, class_name, attr = spec.rsplit(".", 2)
            owner = getattr(sys.modules[prefix + module_name], class_name)
            self._patch(owner, attr, self.wrap(owner.__dict__[attr], spec,
                                               on_return.get(spec)))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        """Put back every object ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Span columns as int64 arrays: name_id, start, end, parent, error."""
        return tuple(np.frombuffer(column, dtype=np.int64) if len(column)
                     else np.zeros(0, np.int64)
                     for column in (self.name_id, self.start, self.end,
                                    self.parent, self.error))

    def self_times(self):
        """Per-span self time in ns: duration minus direct children's durations."""
        _, start, end, parent, _ = self.arrays()
        duration = end - start
        covered = np.zeros_like(duration)
        child = parent != NO_PARENT
        np.add.at(covered, parent[child], duration[child])
        return duration - covered

    def nests(self):
        """True when every span lies inside its parent's interval."""
        _, start, end, parent, _ = self.arrays()
        child = parent != NO_PARENT
        up = parent[child]
        return bool(np.all(end >= start)
                    and np.all(start[child] >= start[up])
                    and np.all(end[child] <= end[up]))

    def root_ns(self):
        """Summed duration of the top-level spans."""
        _, start, end, parent, _ = self.arrays()
        top = parent == NO_PARENT
        return int((end[top] - start[top]).sum())

    def summary(self):
        """Per span name: calls, self time in ns, failures, failures by class."""
        name_id, _, _, _, error = self.arrays()
        own = self.self_times()
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        self_ns = np.zeros(size, np.int64)
        np.add.at(self_ns, name_id, own)
        out = {name: {"calls": int(calls[i]), "self_ns": int(self_ns[i]),
                      "fail": 0, "fail_by_class": {}}
               for i, name in enumerate(self.names)}
        failed = error != NO_ERROR
        for nid, eid in zip(name_id[failed].tolist(), error[failed].tolist()):
            entry = out[self.names[nid]]
            entry["fail"] += 1
            cls = self.error_classes[eid]
            entry["fail_by_class"][cls] = entry["fail_by_class"].get(cls, 0) + 1
        return out

    def child_calls(self, child_name, parent_names):
        """Number of ``child_name`` spans whose direct parent is in ``parent_names``."""
        name_id, _, _, parent, _ = self.arrays()
        if child_name not in self._name_ids:
            return 0
        wanted = [self._name_ids[p] for p in parent_names if p in self._name_ids]
        mine = (name_id == self._name_ids[child_name]) & (parent != NO_PARENT)
        return int(np.isin(name_id[parent[mine]], wanted).sum())

    def save(self, path):
        """Write the spans as one ``.npz`` file."""
        name_id, start, end, parent, error = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str),
                 error_classes=np.array(self.error_classes, dtype=str),
                 name_id=name_id, start_ns=start, end_ns=end, parent=parent,
                 error=error)
