"""Spans around calls into wordsim's public functions, recorded from outside.

A span holds a name, start, end, the span that was open when it began
(its parent) and the benchmark operation it belongs to. Spans live in
flat arrays in memory and are written once, when the run ends. Functions
are wrapped where their callers look them up: a module that imported a
function by name gets its own wrapper, and dict entries that point
straight at a function are replaced in the dict.
"""

import functools
import os
import weakref
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Installs wrapping spans and turns them into per-layer figures."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._undo = []
        self._hooks = {}  # (id(owner), key) -> after-hooks of that wrapper
        self.op_id = 0
        self.counters = {}
        self._hashed = {}  # id(lexicon) -> weakref, for distinct fingerprints

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, key, span, after=None):
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a spanning wrapper.

        ``span`` is a name or a callable (args, kwargs) -> name. ``after``
        is called as after(args, kwargs, result) once the call returned.
        Wrapping a binding again only adds the ``after`` hook.
        """
        binding = (id(owner), key)
        if binding in self._hooks:
            if after is not None:
                self._hooks[binding].append(after)
            return
        hooks = self._hooks[binding] = [after] if after is not None else []
        is_dict = isinstance(owner, dict)
        fn = owner[key] if is_dict else getattr(owner, key)
        fixed = None if callable(span) else self.name_id(span)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(fixed if fixed is not None else tr.name_id(span(args, kwargs)))
            tr.parent.append(tr._stack[-1])
            tr.op.append(tr.op_id)
            tr.raised.append(0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.raised[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            for hook in hooks:
                hook(args, kwargs, result)
            return result

        if is_dict:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._undo.append((owner, key, fn, is_dict))

    def uninstall(self):
        for owner, key, fn, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._undo.clear()
        self._hooks.clear()

    def clear(self):
        """Forget recorded spans and counters; installed wrappers stay."""
        for arr in (self.name, self.parent, self.op, self.start, self.end, self.raised):
            del arr[:]
        self.counters.clear()
        self._hashed.clear()

    def durations(self, name, scale=None):
        """Durations of the spans of one name, in call order.

        ``scale(start, end)``, if given, is a factor each duration is scaled by.
        """
        nid = self._name_ids.get(name)
        return [(e - s) * (scale(s, e) if scale else 1.0)
                for i, s, e in zip(self.name, self.start, self.end) if i == nid]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def file_bytes(self, counter):
        """After-hook for save(obj, path): remember the size of the file written."""
        def after(args, kwargs, result):
            self.counters[counter] = os.path.getsize(args[1])
        return after

    def note_fingerprint(self, args, kwargs, result):
        lex = args[0]
        ref = self._hashed.get(id(lex))
        if ref is None or ref() is not lex:
            self._hashed[id(lex)] = weakref.ref(lex)
            self.count("lexicon.distinct_hashed")

    # ---- analysis -------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per-span-name and per-module figures.

        busy: summed duration of the spans of a name that are not nested in
        a span of the same name. self: duration minus the duration of the
        direct children. A module's ``entry`` spans are its spans whose
        parent lies in another module: calls into the layer from outside.
        """
        a = self.arrays()
        n = len(a["name"])
        names = np.array(self.names + ["<root>"])
        module_of = np.array([s.split(".")[0] for s in names])
        name = a["name"]
        parent = a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        pname = np.where(has_parent, name[np.maximum(parent, 0)], len(self.names))
        span_module = module_of[name]
        entry = module_of[pname] != span_module
        # a span nested directly in a span of its own name (no recursion occurs
        # otherwise) would be counted twice by ``busy``
        outer = pname != name
        by_name = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            by_name[label] = {
                "calls": int(np.count_nonzero(sel)),
                "busy_s": float(dur[sel & outer].sum()),
                "self_s": float(self_time[sel].sum()),
                "raised": int(np.count_nonzero(sel & (a["raised"] == 1))),
            }
        by_module = {}
        for mod in sorted(set(module_of[:-1])):
            sel = span_module == mod
            by_module[mod] = {
                "entry_calls": int(np.count_nonzero(sel & entry)),
                "entry_busy_s": float(dur[sel & entry].sum()),
                "entry_raised": int(np.count_nonzero(sel & entry & (a["raised"] == 1))),
                "self_s": float(self_time[sel].sum()),
            }
        return by_name, by_module, n

    def nested(self, inner, outer):
        """(count, summed duration) of ``inner`` spans whose parent is an ``outer`` span."""
        if inner not in self._name_ids or outer not in self._name_ids:
            return 0, 0.0
        a = self.arrays()
        sel = a["name"] == self._name_ids[inner]
        parents = a["parent"][sel]
        ok = parents >= 0
        in_outer = np.zeros(len(parents), dtype=bool)
        in_outer[ok] = a["name"][parents[ok]] == self._name_ids[outer]
        return int(in_outer.sum()), float((a["end"][sel] - a["start"][sel])[in_outer].sum())
