"""Span recorder that wraps cardiobem functions from outside the package.

Each wrapped function records one span per call: an id, the id of the span
that was open on the same thread when it started (its parent), the id of
the outermost span of that thread (the request it belongs to), its name,
and its start and end in ``perf_counter_ns``.  Spans stay in memory until
the run ends.  A layer's self time is its span time minus the time of its
child spans.

Functions are wrapped at the names the calling modules look up, such as
``cardiobem.direct.assemble_layer`` or ``cardiobem.cli.run_protocol_2``,
so the package itself is not edited.  ``install`` returns the list of
targets it could not find, so a renamed function shows up as a warning
instead of a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import weakref


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, root, name, start_ns, end_ns)
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``on_result(args, kwargs, result, span_ns)`` runs after the span
        closes, for counters that depend on the arguments or the result.
        """
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                sid = self._next
                self._next += 1
            parent = stack[-1] if stack else -1
            root = local.root if stack else sid
            if not stack:
                local.root = sid
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, root, name, start, end))
            if on_result is not None:
                on_result(args, kwargs, result, end - start)
            return result

        return traced

    def install(self, targets):
        """Patch ``module.attr`` targets: {dotted path: (span name, hook)}.

        Class methods are given as ``module.Class.method``.  Returns the
        dotted paths that do not exist.
        """
        missing = []
        for path, (name, hook) in targets.items():
            owner, attr = _resolve_owner(path)
            if owner is None or not hasattr(owner, attr):
                missing.append(path)
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            original = getattr(owner, attr)
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(name, raw.__func__, hook))
            else:
                patched = self.wrap(name, original, hook)
            self._patched.append((owner, attr, raw if raw is not None else original))
            setattr(owner, attr, patched)
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def by_name(self):
        """{name: (calls, total_ns, self_ns)} over all recorded spans."""
        child_ns = {}
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out = {}
        for sid, _, _, name, start, end in self.spans:
            calls, total, own = out.get(name, (0, 0, 0))
            dur = end - start
            out[name] = (calls + 1, total + dur,
                         own + dur - child_ns.get(sid, 0))
        return out

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "columns": ["id", "parent", "root", "name", "start_ns", "end_ns"],
                "counters": dict(self.counters)}


def _resolve_owner(path):
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None, parts[-1]
        return obj, parts[-1]
    return None, parts[-1]


class AssemblyLedger:
    """Classifies ``assemble_layer`` calls as cache hits, builds or duplicates.

    A build is a call returning an operator object not returned before; a
    duplicate build is a build whose arguments (kind, tensor, source and
    target identity, diagonal policy, cache flag) match an earlier build.
    Meshes are identified by ``cache_token``, point arrays by their bytes.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._seen = {}  # id -> weak reference to an operator returned before
        self._keys = set()
        self._held = {}
        self._lock = threading.Lock()

    def __call__(self, args, kwargs, result, span_ns):
        key = _assembly_key(args, kwargs)
        t = self.tracer
        t.count("assembly.calls")
        with self._lock:
            ref = self._seen.get(id(result))
            if ref is not None and ref() is result:
                return
            self._seen[id(result)] = weakref.ref(result)
            duplicate = key in self._keys
            self._keys.add(key)
            if kwargs.get("cache", True) and not isinstance(key[3], bytes):
                self._held[id(result)] = (weakref.ref(result), result.matrix.nbytes)
        t.count("assembly.builds")
        t.count("assembly.build_ns", span_ns)
        t.count("assembly.entries", int(result.matrix.size))
        if duplicate:
            t.count("assembly.duplicate_builds")

    def held_bytes(self):
        with self._lock:
            return sum(n for ref, n in self._held.values() if ref() is not None)


def _identity(obj):
    token = getattr(obj, "cache_token", None)
    if token is not None:
        return ("mesh", token)
    if obj is None:
        return None
    import numpy as np
    return np.ascontiguousarray(obj, dtype=float).tobytes()


def _assembly_key(args, kwargs):
    import numpy as np
    params = dict(zip(("kind", "M", "source", "target"), args))
    params.update(kwargs)
    target = params.get("target")
    if target is params.get("source"):
        target = None
    return (params.get("kind"),
            np.asarray(params.get("M"), dtype=float).tobytes(),
            _identity(params.get("source")),
            _identity(target),
            params.get("diagonal", "row_sum"),
            params.get("cache", True))
