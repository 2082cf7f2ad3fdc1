"""In-memory span recorder for the benchmark's traced run.

Spans are opened by the benchmark's own code: around each CLI command it
issues, around its session and analyst-work glue, and, while a traced run
is in progress, around calls into the public functions of every
clustercrypt layer.  Those calls are traced by rebinding the public names
(in every clustercrypt module that imported them) to thin wrappers that
open a span and call the original; `uninstall` restores the originals.
Nothing in the program is edited.

Every span feeds per-name totals: count, inclusive time, and self time
(inclusive time minus the time covered by child spans).  Spans whose name
is not listed as hot are also kept individually with start, end, parent
span and session id, and written out as JSON lines at the end of the run.
Hot names (per-step and per-element calls) are only aggregated, which
keeps a traced run's memory flat however many mutations it performs.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

_clock = time.perf_counter_ns


class Tracer:
    """Span stack, per-name totals and the recorded (non-hot) spans."""

    def __init__(self, hot=()):
        self.hot = frozenset(hot)
        self.stack = []  # frames: [name, start_ns, child_ns, record_index]
        self.records = []  # (name, session, start_ns, end_ns, parent_index)
        self.totals = {}  # name -> [count, inclusive_ns, self_ns]
        self.session = ""
        self._restore = []

    # --- spans --------------------------------------------------------------

    def _open(self, name):
        index = -1
        if name not in self.hot:
            index = len(self.records)
            self.records.append(None)
        frame = [name, 0, 0, index]
        self.stack.append(frame)
        frame[1] = _clock()
        return frame

    def _close(self, frame):
        end = _clock()
        stack = self.stack
        stack.pop()
        name, start, child, index = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if index >= 0:
            parent = -1
            for outer in reversed(stack):
                if outer[3] >= 0:
                    parent = outer[3]
                    break
            self.records[index] = (name, self.session, start, end, parent)

    @contextlib.contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name, fn, rename=None):
        """fn with a span around every call; rename(args, kwargs) may pick the name."""

        def traced(*args, **kwargs):
            frame = self._open(rename(args, kwargs) if rename else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        traced.__wrapped__ = fn
        return traced

    # --- rebinding public names -------------------------------------------------

    def install(self, package, functions, methods):
        """Trace package functions and class methods until uninstall().

        functions: (span name, module, attribute, rename or None); every
        module of the package bound to that function object is rebound.
        methods: (span name, class, attribute).
        """
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == package or key.startswith(package + "."))
        ]
        for name, module, attr, rename in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, rename)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._restore.append((owner, key, original))
        for name, cls, attr in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # --- summaries ----------------------------------------------------------------

    def mean_ns(self, name):
        count, inclusive, _ = self.totals.get(name, (0, 0, 0))
        return inclusive / count if count else 0.0

    def count(self, name):
        return self.totals.get(name, (0, 0, 0))[0]

    def self_ns(self, name):
        return self.totals.get(name, (0, 0, 0))[2]

    def layer_self_ns(self):
        """Self time summed by layer, the part of a span name before the first dot."""
        layers = {}
        for name, (_, _, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + own
        return layers

    def write(self, path):
        """One JSON object per recorded span, then one per name total."""
        with open(path, "w", encoding="ascii") as handle:
            for index, (name, session, start, end, parent) in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "session": session,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            for name, (count, inclusive, own) in sorted(self.totals.items()):
                handle.write(
                    json.dumps(
                        {
                            "total": name,
                            "count": count,
                            "inclusive_ns": inclusive,
                            "self_ns": own,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class NullTracer:
    """Stand-in for the untraced run: spans cost one attribute lookup."""

    session = ""
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null
